"""Command-line front end: pmi, align, and report subcommands.

Each command returns only its outputs, CSV/TSV texts by file name. Once
it has succeeded, ``main`` writes the outputs, then a run manifest of
the version, the configuration, the digests of the input bytes that the
run parsed (errors.digests) and of the outputs, each to a temporary
file, and renames them into place in that order. So identical
configurations give byte-identical results, and a run that fails changes
no file, unless a rename fails midway. Bad input data, a path that
cannot be read or written, or running out of memory ends with exit 1, a
bad option or option value with exit 2, an interrupt with 130, each with
one line on stderr and no traceback.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import sys
from types import SimpleNamespace

from . import __version__, errors, pmi as pmi_mod
from .corpus import ChangeRecord, distinct, ingest, pair, read_groups, retention_report
from .costs import BinaryDistanceTable, CostModel, binary_cost_model
from .errors import DialignError, FirstLines, ParseError, read_table
from .pmi import InductionOptions, PmiTable
from .phonetics import SegmentTable
from .triple import align_triple, decompose, directions, price

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_CONFIG_ERROR = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as shells report it

_RECORDS_HEADER = "location,word,conv,div,alignment_length"


def _missing_dirs(path) -> list[str]:
    """The directories that making --out-dir path makes, deepest first.
    Its nearest existing ancestor must be a directory, so that main fails
    before any input is read if --out-dir cannot be made."""
    missing, ancestor = [], os.path.normpath(path)
    while ancestor and not os.path.exists(ancestor):
        missing.append(ancestor)
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor or "."):
        raise DialignError(f"--out-dir {path}: {ancestor} is not a directory")
    return missing


def _load_triples(args):
    """Paired triples and exclusions of the corpus; none retained is an error."""
    if args.segments:
        table = SegmentTable.from_file(args.segments)
    else:
        table = SegmentTable.default()
    triples, excluded = pair(ingest(args.corpus), table)
    if not triples:
        raise DialignError("no comparison triples after pairing and exclusions")
    return triples, excluded


def _induce(args, triples) -> tuple[PmiTable, dict[str, str]]:
    """Induce PMI distances from the triples' (older, standard) and
    (newer, standard) pairs; returns the table and the texts of
    pmi_table.tsv and pmi_log.txt."""
    pairs = []
    for t in triples:
        pairs.append((t.older, t.standard))
        pairs.append((t.newer, t.standard))
    if len(pairs) < pmi_mod.MIN_PAIRS:
        print(
            f"WARNING: PMI induction corpus has only {len(pairs)} pairs (recommended"
            f" minimum {pmi_mod.MIN_PAIRS}); distances may be unreliable",
            file=sys.stderr,
        )
    opts = InductionOptions(max_iter=args.max_iter, smoothing=args.smoothing)
    init = binary_cost_model(constrained=not args.unconstrained)
    table = pmi_mod.induce_distances(pairs, init, opts)
    log = f"iterations_run\t{table.iterations_run}\n"
    log += f"converged\t{str(table.converged).lower()}\n"
    return table, {"pmi_table.tsv": table.to_tsv(), "pmi_log.txt": log}


def _dump_alignment(al, cm) -> str:
    """An alignment's block of alignments.txt after the location and word
    that start it: its cost and length, the symbols of each role, each
    column's triple.price, and its tag: stable, or triple.directions' sign."""

    def row(label, cells):
        return label + "\t" + "\t".join(cells)

    C, tags = cm.cost, []
    for (u, v, w), d in zip(al.columns, directions(al, cm)):
        if u == v == w != 0:
            tags.append("stable")
        elif d < 0:
            tags.append("conv.")
        elif d > 0:
            tags.append("div.")
        else:
            tags.append("neutr.")
    lines = [
        f" (cost {al.total_cost:.6f}, length {al.length})",
        row("older", [cm.symbol[u] for u, _, _ in al.columns]),
        row("newer", [cm.symbol[v] for _, v, _ in al.columns]),
        row("standard", [cm.symbol[w] for _, _, w in al.columns]),
        row("cost", [f"{price(C, u, v, w):.4g}" for u, v, w in al.columns]),
        row("direction", tags),
    ]
    return "\n".join(lines) + "\n"


def cmd_align(args):
    triples, excluded = _load_triples(args)
    outputs = {}
    if args.mode == "binary":
        dist_table = BinaryDistanceTable()
    elif args.mode == "load":
        dist_table = PmiTable.read(args.pmi_table)
    else:
        dist_table, outputs = _induce(args, triples)
    cm = CostModel(dist_table, constrained=not args.unconstrained)

    # Triples with equal symbols align alike, so each distinct one is
    # aligned once, and its record fields and dump block are made once; a
    # record adds its location and word to them. The first triple that
    # fails is the first in (location, word) order.
    firsts, slots = distinct([(t.older, t.newer, t.standard) for t in triples])
    done = []
    for t in (triples[i] for i in firsts):
        try:
            al = align_triple(t.older, t.newer, t.standard, cm)
        except (DialignError, MemoryError) as exc:  # a pair missing from a loaded table
            if isinstance(exc, MemoryError):
                exc = "out of memory at lengths %d, %d, %d" % tuple(map(len, t[2:]))
            raise DialignError(
                f"location {t.location!r}, word {t.word!r}: {exc}"
            ) from None
        conv, div = decompose(al, cm)
        done.append((f"{conv:.6f},{div:.6f},{al.length}", _dump_alignment(al, cm)))
    lines, dumps = [_RECORDS_HEADER], []
    for t, slot in zip(triples, slots):
        fields, block = done[slot]
        lines.append(f"{t.location},{t.word},{fields}")
        dumps.append(f"# {t.location} / {t.word}{block}")
    outputs["change_records.csv"] = "\n".join(lines) + "\n"
    outputs["alignments.txt"] = "\n".join(dumps)
    outputs["retention.txt"] = retention_report(triples, excluded)
    return outputs


def cmd_pmi(args):
    triples, _ = _load_triples(args)
    return _induce(args, triples)[1]


def _read_change_records(path) -> list[ChangeRecord]:
    """The records of a change-record CSV; a repeated (location, word) is
    a ParseError naming both lines, and so is a conv or div outside [0, 1],
    a conv + div above 1 or an alignment_length below 1 naming its line."""
    records, seen = [], FirstLines(path)
    usage = "5 comma-separated fields"
    for lineno, fields in read_table(path, usage, 5, header=_RECORDS_HEADER):
        try:
            conv, div, length = float(fields[2]), float(fields[3]), int(fields[4])
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
        for name, value in (("conv", conv), ("div", div)):
            if not 0.0 <= value <= 1.0:  # also false for NaN
                raise ParseError(path, lineno, f"{name} {value} outside [0, 1]")
        if conv + div > 1.0 + 2e-6:  # the slack covers align's 6-decimal rounding
            raise ParseError(path, lineno, f"conv + div {conv + div} above 1")
        if length < 1:
            raise ParseError(path, lineno, f"alignment_length {length} below 1")
        seen.add(
            (fields[0], fields[1]), lineno, "duplicate record for location %r, word %r"
        )
        records.append(ChangeRecord(fields[0], fields[1], conv, div, length))
    return records


def cmd_report(args):
    first = "dialign.analysis" not in sys.modules
    # Set before numpy's import: the permutation test's matmuls have two
    # columns, too small for OpenBLAS's threads to repay their start-up.
    # A count the user set is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import analysis  # numpy is imported by report alone

    if first:  # numpy's heap is frozen once, as cli's import froze its own
        gc.freeze()

    records = _read_change_records(args.records)
    groups = read_groups(args.groups)
    by_loc = analysis.by_location(records, groups)
    outputs = {}
    if args.coords:  # a bad coords file fails before the permutation test
        coords, seen = {}, FirstLines(args.coords)
        usage = "location<TAB>lon<TAB>lat"
        for lineno, (location, lon, lat) in read_table(args.coords, usage, 3):
            seen.add(location, lineno, "duplicate location %r")
            try:
                coords[location] = (float(lon), float(lat))
            except ValueError as exc:
                raise ParseError(args.coords, lineno, str(exc)) from None
            if not all(map(math.isfinite, coords[location])):
                raise ParseError(
                    args.coords, lineno, f"coordinates {lon}, {lat} not finite"
                )
        outputs["geo.csv"] = analysis.export_geo(by_loc, coords)

    summaries = analysis.summarize(by_loc, groups)
    contrasts = analysis.permutation_contrast(
        by_loc, groups, n_perm=args.n_perm, seed=args.seed
    )
    lines = ["group\tn_records\tmean_conv\tmean_div\tmean_change"]
    for s in summaries:
        if s.n_records == 0:
            lines.append(f"{s.group}\t0\t-\t-\t-")
        else:
            lines.append(
                f"{s.group}\t{s.n_records}\t{s.mean_conv:.6f}\t{s.mean_div:.6f}"
                f"\t{s.mean_conv + s.mean_div:.6f}"
            )
    outputs["summary.txt"] = "\n".join(lines) + "\n"

    contrast_lines = ["measure,statistic,p_value,n_permutations,direction"]
    for result in contrasts:
        contrast_lines.append(
            f"{result.measure},{result.statistic:.6f},{result.p_value:.6f},"
            f"{result.n_permutations},{result.direction}"
        )
    outputs["contrasts.csv"] = "\n".join(contrast_lines) + "\n"
    return outputs


_ABOUT = (
    "Quantify phonetic convergence/divergence between two time-separated\n"
    "dialect corpora relative to a standard variety. Corpus TSV columns:\n"
    "location, word, source{older|newer|standard}, transcription, cognate_id,\n"
    "exclusion{-|lex|morph|reduction|missing}."
)
# Each command's function, help line and options. An option is its name,
# its default (_REQUIRED if it has none), its converter (str, int, float, a
# tuple of choices, or bool for a flag) and its help line.
_REQUIRED = object()
_HELP = ("help", False, bool, "show this help")
_CORPUS_OPTIONS = (
    ("corpus", _REQUIRED, str, "corpus TSV path"),
    (
        "segments", None, str,
        "segment table (symbol<TAB>V|C<TAB>flags); default: built-in IPA table",
    ),
    ("out-dir", _REQUIRED, str, "output directory"),
    ("unconstrained", False, bool, "drop the vowel-consonant alignment constraint"),
    ("max-iter", 50, int, "PMI induction's iteration cap"),
    ("smoothing", 0.5, float, "PMI induction's additive smoothing"),
)
COMMANDS = {
    "pmi": (cmd_pmi, "induce a PMI distance table from a corpus", _CORPUS_OPTIONS),
    "align": (
        cmd_align,
        "align triples and write per-word change records",
        _CORPUS_OPTIONS + (
            (
                "mode", "pmi", ("binary", "pmi", "load"),
                "cost model: unit costs, induced PMI costs or a saved table",
            ),
            ("pmi-table", None, str, "table for --mode load"),
        ),
    ),
    "report": (
        cmd_report,
        "group summaries, LS contrast, and geo export",
        (
            ("records", _REQUIRED, str, "change_records.csv path"),
            ("groups", _REQUIRED, str, "location<TAB>group map"),
            ("coords", None, str, "location<TAB>lon<TAB>lat"),
            ("n-perm", 9999, int, "permutations of the LS contrast"),
            ("seed", 0, int, "seed of the permutations"),
            ("out-dir", _REQUIRED, str, "output directory"),
        ),
    ),
}


def _find(token, options):
    """The option of options that token names, by its name or a unique
    prefix, and the value after its '=' or None; (None, None) for an
    unknown option, None for a value: a token that is not -h, -h=... or
    starts with '--', such as -1e-3, or that names no option and holds a
    space."""
    name, eq, value = token.partition("=")
    name = "--help" if name == "-h" else name
    if name[:2] != "--":
        return None
    found = [o for o in options if "--" + o[0] == name]
    if not found and len(name) > 2:
        found = [o for o in options if o[0].startswith(name[2:])]
    if len(found) > 1:
        names = ", ".join("--" + o[0] for o in found)
        raise ValueError(f"ambiguous option {name}: could be {names}")
    if found:
        return found[0], (value if eq else None)
    return None if " " in token else (None, None)


def parse_args(argv):
    """The command of argv and its options, by the names and with the
    values and types that argparse would give: `command`, `func`, and each
    option's name with '_' for '-'. The last of a repeated option wins.
    Returns the help text instead for -h or --help; an option error
    raises ValueError."""
    command = argv[0] if argv else None
    if command not in COMMANDS:
        if command is not None and _find(command, (_HELP,)) == (_HELP, None):
            return _help()
        got = f", not {command!r}" if argv else ""
        raise ValueError(f"expected a command: {', '.join(COMMANDS)}{got}")
    func, _, options = COMMANDS[command]
    known, values, i = options + (_HELP,), {}, 1
    while i < len(argv):
        option, value = _find(argv[i], known) or (None, None)
        if option is None:
            raise ValueError(f"unrecognized argument {argv[i]!r}")
        name, _, convert, _ = option
        i += 1
        if convert is bool:
            if value is not None:
                raise ValueError(f"--{name} takes no value")
            if option is _HELP:
                return _help(command)
            value = True
        elif value is None:
            if i == len(argv) or _find(argv[i], known) is not None:
                raise ValueError(f"--{name} expects a value")
            value, i = argv[i], i + 1
        if isinstance(convert, tuple):
            if value not in convert:
                choices = ", ".join(convert)
                raise ValueError(f"--{name} must be one of {choices}, not {value!r}")
        else:
            try:
                value = convert(value)
            except ValueError:
                kind = convert.__name__
                raise ValueError(f"--{name}: invalid {kind} {value!r}") from None
        values[name] = value
    missing = [f"--{o[0]}" for o in options if o[1] is _REQUIRED and o[0] not in values]
    if missing:
        raise ValueError(f"{command} requires {', '.join(missing)}")
    args = {n.replace("-", "_"): values.get(n, d) for n, d, _, _ in options}
    return SimpleNamespace(command=command, func=func, **args)


def _help(command=None) -> str:
    """The --help text of a command, or of dialign without one."""
    if command is None:
        lines = [f"usage: dialign {{{','.join(COMMANDS)}}} [options]", "", _ABOUT, ""]
        lines += [f"  {name:<8}{about}" for name, (_, about, _) in COMMANDS.items()]
        lines += ["", "Run 'dialign COMMAND --help' for a command's options."]
        return "\n".join(lines)
    _, about, options = COMMANDS[command]
    lines = [f"usage: dialign {command} [options]", "", about, ""]
    for name, default, convert, text in options:
        if convert is bool:
            form = f"--{name}"
        elif isinstance(convert, tuple):
            form = f"--{name} {{{','.join(convert)}}}"
        else:
            form = f"--{name} {name.upper().replace('-', '_')}"
        if default is _REQUIRED:
            text += " (required)"
        elif default is not None and convert is not bool:
            text += f" (default: {default})"
        lines.append(f"  {form:<26}{text}")
    lines.append(f"  {'-h, --help':<26}{_HELP[3]}")
    return "\n".join(lines)


def _validate(args) -> None:
    for name, _, convert, _ in COMMANDS[args.command][2]:
        # a str option is a path, which an unset shell variable leaves empty
        if convert is str and getattr(args, name.replace("-", "_")) == "":
            raise ValueError(f"--{name} must not be empty")
    if args.command in ("pmi", "align"):  # InductionOptions checks the values
        InductionOptions(max_iter=args.max_iter, smoothing=args.smoothing)
    if args.command == "align" and (args.mode == "load") != bool(args.pmi_table):
        raise ValueError("--mode load requires --pmi-table, other modes reject it")
    if args.command == "report" and args.n_perm < 999:
        raise ValueError("--n-perm must be >= 999")
    if args.command == "report" and args.seed < 0:
        raise ValueError("--seed must be >= 0")


def _write_outputs(out_dir, outputs) -> None:
    """Write each output to a temporary file in out_dir, then rename each
    into place, in order. A failure removes the temporary files and an
    out_dir that this call made, with all in it; a rename that fails
    midway leaves the renames before it in a directory that existed."""
    paths = [os.path.join(out_dir, name) for name in outputs]
    for path in paths:
        if os.path.isdir(path):
            raise DialignError(f"--out-dir {out_dir}: {path} is a directory")
    made, temps = _missing_dirs(out_dir), []
    try:
        os.makedirs(out_dir, exist_ok=True)
        for path, text in zip(paths, outputs.values()):
            temp = f"{path}.{os.getpid()}.tmp"
            with open(temp, "x", encoding="utf-8") as f:  # never over another file
                temps.append(temp)
                f.write(text)
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException:
        for path in temps + (paths if made else []):
            if os.path.isfile(path):
                os.remove(path)
        for directory in made:
            if os.path.isdir(directory):
                os.rmdir(directory)
        raise


def main(argv=None) -> int:
    """Run one command and write its outputs, the manifest last; returns
    the exit code. Nothing is written unless the command succeeds and no
    output's path is a directory; --out-dir is made only then, and a
    failed write leaves it as it was (_write_outputs)."""
    try:
        try:
            args = parse_args(sys.argv[1:] if argv is None else argv)
            if not isinstance(args, str):  # a str is the help text
                _validate(args)
        except ValueError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        if isinstance(args, str):
            print(args)
            return EXIT_OK
        _missing_dirs(args.out_dir)
        errors.digests.clear()
        outputs = args.func(args)
        config = {k: v for k, v in vars(args).items() if k != "func"}
        digests = {n: hashlib.sha256(t.encode()).hexdigest() for n, t in outputs.items()}
        manifest = {"config": config, "inputs": errors.digests, "outputs": digests}
        manifest["version"] = __version__
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"  # sorts all maps
        outputs["run_manifest.json"] = text
        _write_outputs(args.out_dir, outputs)
        return EXIT_OK
    except (OSError, DialignError, MemoryError) as exc:  # OSError: an unusable path
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


# The heap of start-up and the imports is frozen once a process, so that
# no collection, the interpreter's exit included, walks it.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
