"""Workload definitions for the dialign benchmark.

Each workload is one ``dialign`` CLI command on inputs generated from the
workload seed with ``dialign.synth``. The program receives only the
generated files. ``--seed 0`` reproduces the inputs whose output digests
are recorded in ``reference_digests.json``; the generators are called
with ``base_seed + seed``, so seed 0 is each generator's own default.

Sizes are chosen so that one invocation costs 1.5-3 s on the reference
host (see calibrate.py), so that a run of ``run_seconds`` holds several;
the mixed corpora spread their random word lengths over hundreds of base
words, so that the work per invocation varies little from seed to seed
(total 3D DP cells of align-mixed-pmi: 4 % between quartiles over seeds).

Measured input properties at seed 0 ("distinct" counts distinct symbol
tuples; lengths are in segments, over every transcription of a triple; a
pair is (older, standard) or (newer, standard)):

====================  ==================  ===============  =============  =========
workload              items / invocation  distinct triple  distinct pair  len min/
                                                                          med/max
====================  ==================  ===============  =============  =========
align-bundled-binary  180 triples         0.506            0.253          10/10/10
align-mixed-pmi       240 triples         1.000            0.856          3/8/13
pmi-mixed             1800 pairs          0.994            0.842          3/8/14
report-perm           80000 permutations  (200 locations x 30 words, no alignment)
====================  ==================  ===============  =============  =========

Every run prints these properties for its own seed.
"""

from __future__ import annotations

import random
import statistics
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

from dialign import synth

# Entry points the traced run wraps (see tracer.ENTRY_POINTS), by the
# span name they record.
CORPUS = ("corpus.ingest", "corpus.pair", "phonetics.make_transcription")
PMI = ("pmi.induce_distances", "pairwise.align_pair")
TRIPLE = ("triple.align_triple", "triple.decompose")
ANALYSIS = (
    "analysis.summarize",
    "analysis.permutation_contrast",
    "analysis.export_geo",
)


@dataclass(frozen=True)
class Inputs:
    """Generated input files plus what the checks need to know about them."""

    files: dict[str, str]  # file name -> text
    cli_args: tuple[str, ...]  # without --out-dir; {name} is replaced by a path
    items: int
    expected: dict = field(default_factory=dict)  # facts for the invariant checks
    properties: dict = field(default_factory=dict)  # input properties to report


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    base_seed: int
    full: dict  # generator sizes for the measured runs
    tiny: dict  # generator sizes for the self-tests
    expected_spans: tuple[str, ...]  # entry points this workload must reach
    checks: tuple[str, ...]  # names in checks.CHECKS
    item_unit: str
    make: object  # (seed, **sizes) -> Inputs

    def inputs(self, seed: int, tiny: bool = False) -> Inputs:
        sizes = self.tiny if tiny else self.full
        return self.make(self.base_seed + seed, **sizes)


def _rows(corpus_tsv: str):
    """(location, word, source, transcription) of each corpus row."""
    for line in corpus_tsv.splitlines()[1:]:
        location, word, source, raw = line.split("\t")[:4]
        yield location, word, source, raw


def _triples(corpus_tsv: str) -> list[tuple[str, str, str, str, str]]:
    """(location, word, older, newer, standard), sorted like the CLI pairs them."""
    standard = {}
    cells: dict[tuple[str, str], dict[str, str]] = {}
    for location, word, source, raw in _rows(corpus_tsv):
        if source == "standard":
            standard[word] = raw
        else:
            cells.setdefault((location, word), {})[source] = raw
    return [
        (loc, word, c["older"], c["newer"], standard[word])
        for (loc, word), c in sorted(cells.items())
    ]


def _segments(raw: str) -> int:
    # The synthetic alphabets hold single-code-point segments only.
    return len(unicodedata.normalize("NFC", raw))


def _alignment_properties(triples) -> dict:
    pairs = [(t[2], t[4]) for t in triples] + [(t[3], t[4]) for t in triples]
    lengths = [_segments(s) for t in triples for s in t[2:]]
    return {
        "triples": len(triples),
        "pairs": len(pairs),
        "distinct_triple_ratio": len({t[2:] for t in triples}) / len(triples),
        "distinct_pair_ratio": len(set(pairs)) / len(pairs),
        "segments_min": min(lengths),
        "segments_median": statistics.median(lengths),
        "segments_max": max(lengths),
    }


def _corpus_inputs(corpus_tsv: str, command: tuple[str, ...], items_per_triple: int):
    triples = _triples(corpus_tsv)
    props = _alignment_properties(triples)
    return Inputs(
        files={"corpus.tsv": corpus_tsv},
        cli_args=(*command, "--corpus", "{corpus.tsv}"),
        items=items_per_triple * len(triples),
        expected={"triples": triples},
        properties=props,
    )


def _align_bundled_binary(seed, n_locations, words_per_location):
    corpus = synth.make_benchmark_corpus(
        seed, n_locations=n_locations, words_per_location=words_per_location
    )
    inputs = _corpus_inputs(corpus, ("align", "--mode", "binary"), 1)
    inputs.expected.update(mean_conv=0.020, mean_div=0.014)
    return inputs


# PMI induction runs until the alignments stop changing, after 3 to 7
# iterations depending on the seed. Capping the iterations below the fewest
# seen makes every seed do the same number of realignment passes: over 16
# seeds, 1 x 240 words never converged in fewer than 3, and over 20 seeds
# 3 x 300 words never in fewer than 4.
def _align_mixed_pmi(seed, n_locations, words_per_location):
    corpus = synth.make_mixed_corpus(seed, n_locations, words_per_location)
    return _corpus_inputs(corpus, ("align", "--mode", "pmi", "--max-iter", "3"), 1)


def _pmi_mixed(seed, n_locations, words_per_location):
    corpus = synth.make_mixed_corpus(seed, n_locations, words_per_location)
    return _corpus_inputs(corpus, ("pmi", "--max-iter", "4"), 2)


def _report_perm(seed, n_locations, words_per_location, n_perm):
    rng = random.Random(seed)
    lines = ["location,word,conv,div,alignment_length"]
    records = []
    for i in range(1, n_locations + 1):
        for j in range(1, words_per_location + 1):
            rec = (
                f"loc{i:02d}",
                f"w{j:02d}",
                f"{rng.random() * 0.05:.6f}",
                f"{rng.random() * 0.04:.6f}",
                str(rng.randint(6, 12)),
            )
            records.append(rec)
            lines.append(",".join(rec))
    groups = synth.make_group_map(n_locations)
    coords = synth.make_coords(n_locations, seed)
    return Inputs(
        files={
            "change_records.csv": "\n".join(lines) + "\n",
            "groups.tsv": groups,
            "coords.tsv": coords,
        },
        cli_args=(
            "report",
            "--records",
            "{change_records.csv}",
            "--groups",
            "{groups.tsv}",
            "--coords",
            "{coords.tsv}",
            "--n-perm",
            str(n_perm),
        ),
        items=2 * n_perm,  # one permutation test each for conv and div
        expected={
            "records": records,
            "groups": dict(line.split("\t") for line in groups.splitlines()),
            "coords": dict(
                (f[0], (f[1], f[2]))
                for f in (line.split("\t") for line in coords.splitlines())
            ),
            "n_perm": n_perm,
        },
        properties={
            "records": len(records),
            "locations": n_locations,
            "permutations": 2 * n_perm,
        },
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="align-bundled-binary",
            why=(
                "Triple DP is ~97% of the run, no PMI; consonant words of 10 "
                "segments, 51% distinct triples, so an alignment memo shows its gain"
            ),
            base_seed=20260823,
            full={"n_locations": 6, "words_per_location": 30},
            tiny={"n_locations": 4, "words_per_location": 10},
            expected_spans=CORPUS + TRIPLE,
            checks=("change_records",),
            item_unit="triple",
            make=_align_bundled_binary,
        ),
        Workload(
            name="align-mixed-pmi",
            why=(
                "Mixed V/C words of 3-13 segments, ~100% distinct triples, so a "
                "memo is bypassed; PMI induction plus 2D DP before the triple DP"
            ),
            base_seed=7,
            full={"n_locations": 1, "words_per_location": 240},
            tiny={"n_locations": 2, "words_per_location": 10},
            expected_spans=CORPUS + PMI + TRIPLE,
            checks=("change_records", "pmi_table"),
            item_unit="triple",
            make=_align_mixed_pmi,
        ),
        Workload(
            name="pmi-mixed",
            why=(
                "PMI induction alone: the 2D DP dominates, no triple DP; 84% "
                "distinct pairs; the largest ingest and tokenize load"
            ),
            base_seed=7,
            full={"n_locations": 3, "words_per_location": 300},
            tiny={"n_locations": 4, "words_per_location": 10},
            expected_spans=CORPUS + PMI,
            checks=("pmi_table",),
            item_unit="pair",
            make=_pmi_mixed,
        ),
        Workload(
            name="report-perm",
            why=(
                "The only workload of the analysis layer: location-permutation "
                "test over 200 locations x 30 words, no alignment"
            ),
            base_seed=11,
            full={"n_locations": 200, "words_per_location": 30, "n_perm": 40000},
            tiny={"n_locations": 20, "words_per_location": 3, "n_perm": 999},
            expected_spans=ANALYSIS,
            checks=("report",),
            item_unit="permutation",
            make=_report_perm,
        ),
    )
}


def write_inputs(inputs: Inputs, directory: Path) -> list[str]:
    """Write the input files and return the CLI arguments that name them."""
    paths = {}
    for name, text in inputs.files.items():
        path = directory / name
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return [paths[a[1:-1]] if a[:1] == "{" else a for a in inputs.cli_args]
