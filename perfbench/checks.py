"""Correctness checks on the outputs of one CLI invocation.

Every invocation is checked against the method's invariants, computed
from the generated inputs. At seed 0 the SHA-256 of every deterministic
output must also equal the digest recorded in ``reference_digests.json``.
``run_manifest.json`` (it embeds the output path) and ``pmi_log.txt``
(its format is due to change) are not digested.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTED = (
    "change_records.csv",
    "alignments.txt",
    "retention.txt",
    "pmi_table.tsv",
    "summary.txt",
    "contrasts.csv",
    "geo.csv",
)

REFERENCE_FILE = Path(__file__).with_name("reference_digests.json")

# Outputs are printed with 6 decimals; allow the rounding of two of them.
EPS = 2e-6

GAP = "-"


def digests(outdir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        for name in DIGESTED
        if (outdir / name).is_file()
    }


def reference_digests(workload: str) -> dict[str, str]:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))[workload]


def check_digests(got: dict[str, str], want: dict[str, str]) -> list[str]:
    return [
        f"{name}: digest differs from the reference"
        for name in sorted(set(got) | set(want))
        if got.get(name) != want.get(name)
    ]


def _lines(outdir: Path, name: str) -> list[str]:
    return (outdir / name).read_text(encoding="utf-8").splitlines()


def _mean(values) -> float:
    return sum(values) / len(values)


def _check_change_records(outdir: Path, expected: dict) -> list[str]:
    problems = []
    triples = expected["triples"]
    lines = _lines(outdir, "change_records.csv")
    if lines[:1] != ["location,word,conv,div,alignment_length"]:
        return ["change_records.csv: bad header"]
    rows = [line.split(",") for line in lines[1:]]
    if [(r[0], r[1]) for r in rows] != [(t[0], t[1]) for t in triples]:
        return ["change_records.csv: rows do not match the input triples"]
    convs, divs = [], []
    for (loc, word, conv, div, length), t in zip(rows, triples):
        conv, div, length = float(conv), float(div), int(length)
        if not (conv >= 0 and div >= 0 and conv + div <= 1 + EPS):
            problems.append(f"{loc}/{word}: conv={conv} div={div} out of range")
        lengths = [len(s) for s in t[2:]]
        if not max(lengths) <= length <= sum(lengths):
            problems.append(f"{loc}/{word}: alignment length {length} impossible")
        convs.append(conv)
        divs.append(div)
    for measure, values in (("conv", convs), ("div", divs)):
        target = expected.get(f"mean_{measure}")
        if target is not None and abs(_mean(values) - target) > 0.003:
            problems.append(f"mean {measure} {_mean(values):.4f}, injected {target:.3f}")
    dumps = sum(line.startswith("# ") for line in _lines(outdir, "alignments.txt"))
    if dumps != len(triples):
        problems.append(f"alignments.txt: {dumps} alignments for {len(triples)} triples")
    overall = f"overall\t{len(triples)}\t{len(triples)}\t(retention 1.0000)"
    if _lines(outdir, "retention.txt")[-1:] != [overall]:
        problems.append("retention.txt: wrong overall line")
    return problems


def _check_pmi_table(outdir: Path, expected: dict) -> list[str]:
    problems = []
    dist: dict[tuple[str, str], float] = {}
    for line in _lines(outdir, "pmi_table.tsv"):
        a, b, value = line.split("\t")
        d = float(value)
        if not 0.0 <= d <= 1.0:
            problems.append(f"pmi_table.tsv: distance({a},{b}) = {d} not in [0, 1]")
        for key in ((a, b), (b, a)):
            if dist.setdefault(key, d) != d:
                problems.append(f"pmi_table.tsv: distance({a},{b}) not symmetric")
    alphabet = {c for t in expected["triples"] for s in t[2:] for c in s}
    for s in sorted(alphabet):
        if dist.get((s, s)) != 0.0:
            problems.append(f"pmi_table.tsv: distance({s},{s}) is not 0")
        if (s, GAP) not in dist:
            problems.append(f"pmi_table.tsv: no gap distance for {s}")
    return problems


def _check_report(outdir: Path, expected: dict) -> list[str]:
    problems = []
    records, groups = expected["records"], expected["groups"]
    by_loc: dict[str, list[tuple[float, float]]] = {}
    for loc, _, conv, div, _ in records:
        by_loc.setdefault(loc, []).append((float(conv), float(div)))

    summary = {}
    for line in _lines(outdir, "summary.txt")[1:]:
        group, n, conv, div, _ = line.split("\t")
        summary[group] = (int(n), conv, div)
    for group in ("FR", "DU-FR", "GR", "LS", "ALL"):
        members = [
            v for loc, vs in by_loc.items() for v in vs
            if group == "ALL" or groups[loc] == group
        ]
        got = summary.get(group)
        if got is None or got[0] != len(members):
            problems.append(f"summary.txt: wrong record count for {group}")
        elif members and any(
            abs(float(got[k + 1]) - _mean([m[k] for m in members])) > EPS
            for k in (0, 1)
        ):
            problems.append(f"summary.txt: wrong means for {group}")

    contrasts = [line.split(",") for line in _lines(outdir, "contrasts.csv")[1:]]
    if [c[0] for c in contrasts] != ["conv", "div"]:
        return problems + ["contrasts.csv: expected conv and div rows"]
    for k, (measure, statistic, p_value, n_perm, direction) in enumerate(contrasts):
        loc_means = {loc: _mean([v[k] for v in vs]) for loc, vs in by_loc.items()}
        ls = [m for loc, m in loc_means.items() if groups[loc] == "LS"]
        rest = [m for loc, m in loc_means.items() if groups[loc] != "LS"]
        observed = _mean(ls) - _mean(rest)
        if abs(float(statistic) - observed) > EPS:
            problems.append(
                f"contrasts.csv: {measure} statistic {statistic}, expected {observed:.6f}"
            )
        # p = (hits + 1) / (n_perm + 1), so p * (n_perm + 1) is a whole number
        # up to the rounding of p.
        p, n = float(p_value), expected["n_perm"] + 1
        if not 1.0 / n - EPS <= p <= 1.0:
            problems.append(f"contrasts.csv: {measure} p-value {p_value} not in (0, 1]")
        elif abs(p * n - round(p * n)) > n * EPS / 2:
            problems.append(f"contrasts.csv: {measure} p-value {p_value} is not k / {n}")
        if int(n_perm) != expected["n_perm"]:
            problems.append(f"contrasts.csv: {measure} ran {n_perm} permutations")
        side = "higher" if observed > 0 else "lower"
        if direction != f"{measure}_{side}_in_ls":
            problems.append(f"contrasts.csv: {measure} direction {direction}")

    geo = [line.split(",") for line in _lines(outdir, "geo.csv")[1:]]
    if sorted(g[0] for g in geo) != sorted(by_loc):
        return problems + ["geo.csv: locations do not match the records"]
    for loc, lon, lat, conv, div in geo:
        if (lon, lat) != expected["coords"][loc]:
            problems.append(f"geo.csv: wrong coordinates for {loc}")
        for k, value in enumerate((conv, div)):
            if abs(float(value) - _mean([v[k] for v in by_loc[loc]])) > EPS:
                problems.append(f"geo.csv: wrong mean for {loc}")
    return problems


CHECKS = {
    "change_records": _check_change_records,
    "pmi_table": _check_pmi_table,
    "report": _check_report,
}


def check_outputs(outdir: Path, checks, expected: dict) -> list[str]:
    """Invariant violations in one invocation's outputs; [] when correct."""
    problems = []
    for name in checks:
        try:
            problems += CHECKS[name](outdir, expected)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"{name}: unreadable output: {exc!r}")
    return problems
