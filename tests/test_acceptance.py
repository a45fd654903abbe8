"""End-to-end acceptance checks.

Each test reports one ``ACCEPTANCE n: PASS/FAIL`` line through the
``acceptance_report`` fixture, so every criterion's verdict is visible
in the test log regardless of outcome.
"""

import itertools
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest
from loop_dp import (
    as_symbols,
    brute_force_min_cost,
    double_pairwise_delta,
    enumerate_optimal,
    make_vowel_shift_pairs,
    normalized_distance,
)

from dialign.cli import main
from dialign.corpus import ChangeRecord, ingest, pair
from dialign.costs import GAP, CostModel, binary_cost_model
from dialign.pairwise import align_pair
from dialign.phonetics import SegmentTable
from dialign.pmi import induce_distances
from dialign.synth import make_benchmark_corpus, make_mixed_corpus
from dialign.triple import align_triple, decompose, directions
from dialign.analysis import by_location, permutation_contrast

DATA_DIR = Path(__file__).parents[1] / "data" / "synthetic"

# mixed-class three-symbol alphabet for the exhaustive oracle sweeps
ORACLE_ALPHABET = ("ə", "t", "n")


def _all_strings(max_len: int):
    for n in range(max_len + 1):
        for combo in itertools.product(ORACLE_ALPHABET, repeat=n):
            yield "".join(combo)


# Worked example for criteria 1 and 2: [s t r oː d ə] against
# [s t r ɔ ə t] under unit costs. The source quotes cost 3/length 6
# (unconstrained) and cost 4/length 7 (constrained); neither follows from
# the stated rules. With k matches, s substitutions and d deletions
# (= insertions), cost = s + 2d = 12 - 2k - s and length = 6 + d. Since
# k + s <= 6 and k <= 4 (s, t, r, ə), and with k = 4 only one substitution
# fits (oː or d against ɔ, nothing after ə/ə), 2k + s <= 9: no alignment
# costs less than 3, and a cost-3 one has d <= 1. The cost-3 alignments:
#   s/s t/t r/r oː/ɔ d/ə ə/t          length 6
#   s/s t/t r/r oː/ɔ d/– ə/ə –/t      length 7
#   s/s t/t r/r oː/– d/ɔ ə/ə –/t      length 7
# Unconstrained, the longest-optimal rule picks length 7, not 6.
# Constrained, the first and third use a vowel-consonant substitution
# (d/ə, ə/t, d/ɔ; d and t are not sonorants), but the second uses only
# oː/ɔ, matches and indels, so the constrained optimum is still cost 3 at
# length 7 (norm 3/7), not 4/7.
def test_criterion_01_unconstrained_worked_example(tok, acceptance_report):
    cm = binary_cost_model(constrained=False)
    al = align_pair(tok("stroːdə"), tok("strɔət"), cm)
    ok = al.total_cost == 3 and al.length == 7
    acceptance_report(1, ok, f"unconstrained cost=3,length=7; got cost={al.total_cost}, length={al.length}")


def test_criterion_02_constrained_worked_example(tok, acceptance_report):
    cm = binary_cost_model(constrained=True)
    al = align_pair(tok("stroːdə"), tok("strɔət"), cm)
    norm = normalized_distance(al)
    ok = (
        al.total_cost == 3
        and al.length == 7
        and abs(norm - 3 / 7) <= 1e-9
    )
    acceptance_report(
        2,
        ok,
        f"constrained cost=3,length=7,norm=3/7; got cost={al.total_cost}, "
        f"length={al.length}, norm={norm:.6f}",
    )


def test_criterion_03_triple_worked_example(tok, acceptance_report):
    cm = binary_cost_model(constrained=True)
    al = align_triple(tok("strodə"), tok("strɔət"), tok("strat"), cm)
    expected_layout = (
        ("s", "s", "s"),
        ("t", "t", "t"),
        ("r", "r", "r"),
        ("o", "ɔ", "a"),
        (GAP, "ə", GAP),
        ("d", "t", "t"),
        ("ə", GAP, GAP),
    )
    conv, div = decompose(al, cm)
    ok = (
        as_symbols(al, cm).columns == expected_layout
        and directions(al, cm) == [0, 0, 0, 0, 1, -1, -1]
        and conv == pytest.approx(2 / 7)
        and div == pytest.approx(1 / 7)
    )
    acceptance_report(3, ok, f"7-column pattern with conv=2/7, div=1/7; got conv={conv:.6f}, div={div:.6f}")


def test_criterion_04_pairwise_oracle_sweep(tok, acceptance_report):
    cm = binary_cost_model(constrained=True)
    start = time.monotonic()
    mismatches = 0
    total = 0
    for sa in _all_strings(4):
        a = tok(sa)
        for sb in _all_strings(4):
            b = tok(sb)
            total += 1
            if not a and not b:
                continue
            al = align_pair(a, b, cm)
            optima = enumerate_optimal(a, b, cm, cap=1_000_000)
            best = min(o.total_cost for o in optima)
            longest = max(o.length for o in optima)
            if al.total_cost != best or al.length != longest:
                mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 60
    acceptance_report(4, ok, f"{total} pairs, {mismatches} mismatches, {elapsed:.1f}s (< 60s)")


def test_criterion_05_triple_oracle_sweep(tok, acceptance_report):
    cm = binary_cost_model(constrained=True)
    start = time.monotonic()
    strings = [tok(s) for s in _all_strings(3)]
    mismatches = 0
    total = 0
    for x in strings:
        for y in strings:
            for z in strings:
                total += 1
                if align_triple(x, y, z, cm).total_cost != brute_force_min_cost(x, y, z, cm):
                    mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 120
    acceptance_report(5, ok, f"{total} triples, {mismatches} mismatches, {elapsed:.1f}s (< 120s)")


def _mixed_triples(tmp_path, table):
    corpus = tmp_path / "mixed.tsv"
    corpus.write_text(make_mixed_corpus(), encoding="utf-8")
    triples, _ = pair(ingest(corpus), table)
    return triples


def _pooled_pmi(triples):
    pairs = []
    for t in triples:
        pairs.append((t.older, t.standard))
        pairs.append((t.newer, t.standard))
    return induce_distances(pairs, binary_cost_model())


def test_criterion_06_correlation_with_double_pairwise(tmp_path, table, acceptance_report):
    triples = _mixed_triples(tmp_path, table)
    assert len(triples) >= 200
    pmi = _pooled_pmi(triples)
    cm = CostModel(pmi)
    net, delta = [], []
    for t in triples:
        al = align_triple(t.older, t.newer, t.standard, cm)
        conv, div = decompose(al, cm)
        net.append(div - conv)
        delta.append(double_pairwise_delta(t.older, t.newer, t.standard, cm))
    r = np.corrcoef(net, delta)[0, 1]
    ok = r > 0.95
    acceptance_report(6, ok, f"n={len(triples)} triples, Pearson r={r:.4f} (> 0.95)")


def test_criterion_07_pmi_sanity(table, tok, acceptance_report):
    pairs = [
        (tok(a), tok(b)) for a, b in make_vowel_shift_pairs(n_frequent=200, n_rare=5)
    ]
    result = induce_distances(pairs, binary_cost_model())
    d_close = result.distance("i", "ɪ")
    d_far = result.distance("i", "u")
    values = list(result.dist.values())
    ok = (
        d_close < d_far
        and result.distance("i", "i") == 0.0
        and all(0.0 <= v <= 1.0 for v in values)
        and result.converged
        and result.iterations_run <= 50
    )
    acceptance_report(
        7,
        ok,
        f"dist(i,ɪ)={d_close:.4f} < dist(i,u)={d_far:.4f}, "
        f"converged in {result.iterations_run} iterations",
    )


def _random_triples(tok, rng, n, alphabet="patisəmnk", max_len=6):
    out = []
    for _ in range(n):
        root = "".join(rng.choice(alphabet) for _ in range(rng.randint(2, max_len)))

        def mutate(s):
            chars = list(s)
            for _ in range(rng.randint(0, 2)):
                op = rng.choice("sid")
                if op == "d" and len(chars) > 1:
                    del chars[rng.randrange(len(chars))]
                elif op == "i":
                    chars.insert(rng.randrange(len(chars) + 1), rng.choice(alphabet))
                else:
                    chars[rng.randrange(len(chars))] = rng.choice(alphabet)
            return "".join(chars)

        out.append((tok(mutate(root)), tok(mutate(root)), tok(root)))
    return out


def test_criterion_08_decomposition_bounds(tok, acceptance_report):
    rng = random.Random(8)
    training = _random_triples(tok, rng, 300)
    pairs = []
    for x, y, z in training:
        pairs.append((x, z))
        pairs.append((y, z))
    pmi = induce_distances(pairs, binary_cost_model())
    cm = CostModel(pmi)

    violations = 0
    n = 10_000
    for x, y, z in _random_triples(tok, rng, n):
        conv, div = decompose(align_triple(x, y, z, cm), cm)
        sconv, sdiv = decompose(align_triple(y, x, z, cm), cm)
        if not (
            conv >= 0
            and div >= 0
            and conv + div <= 1 + 1e-9
            and math.isclose(sconv, div, abs_tol=1e-9)
            and math.isclose(sdiv, conv, abs_tol=1e-9)
        ):
            violations += 1
    ok = violations == 0
    acceptance_report(8, ok, f"{n} random triples, {violations} bound/role-swap violations")


def _run_pipeline(tmp_path, tag):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(
        make_benchmark_corpus(n_locations=8, words_per_location=10), encoding="utf-8"
    )
    groups = tmp_path / "groups.tsv"
    groups.write_text(
        "".join(
            f"loc{i:02d}\t{'LS' if i > 4 else 'FR'}\n" for i in range(1, 9)
        ),
        encoding="utf-8",
    )
    out = tmp_path / f"align_{tag}"
    assert main(["align", "--corpus", str(corpus), "--out-dir", str(out), "--mode", "pmi"]) == 0
    rep = tmp_path / f"report_{tag}"
    assert main(
        [
            "report", "--records", str(out / "change_records.csv"),
            "--groups", str(groups), "--out-dir", str(rep),
            "--n-perm", "999", "--seed", "3",
        ]
    ) == 0
    blob = b""
    for name in ("change_records.csv", "alignments.txt", "retention.txt", "pmi_table.tsv"):
        blob += (out / name).read_bytes()
    for name in ("summary.txt", "contrasts.csv"):
        blob += (rep / name).read_bytes()
    return blob


def test_criterion_09_pipeline_determinism(tmp_path, acceptance_report):
    first = _run_pipeline(tmp_path, "a")
    second = _run_pipeline(tmp_path, "b")
    ok = first == second
    acceptance_report(9, ok, f"two identical runs, byte-identical={ok} ({len(first)} bytes compared)")


def test_criterion_10_permutation_calibration(acceptance_report):
    groups = {f"ls{i:02d}": "LS" for i in range(10)}
    groups |= {f"fr{i:02d}": "FR" for i in range(10)}
    hits = {"conv": 0, "div": 0}
    n_runs = 100
    for seed in range(n_runs):
        rng = random.Random(seed)
        records = [
            ChangeRecord(loc, f"w{w:02d}", max(0.0, rng.gauss(0.02, 0.01)),
                         max(0.0, rng.gauss(0.014, 0.01)), 10)
            for loc in groups
            for w in range(30)
        ]
        by_loc = by_location(records, groups)
        for result in permutation_contrast(by_loc, groups, n_perm=999, seed=seed):
            hits[result.measure] += result.p_value < 0.05
    rates = {m: h / n_runs for m, h in hits.items()}
    ok = all(0.01 <= rate <= 0.10 for rate in rates.values())
    acceptance_report(
        10,
        ok,
        f"null rejection rate conv {rates['conv']:.2f}, div {rates['div']:.2f} "
        f"over {n_runs} runs (each in [0.01, 0.10])",
    )


def _recovered_means(tmp_path, mode):
    """Mean conv and div of `align --mode <mode>` on the bundled corpus."""
    out = tmp_path / mode
    rc = main(
        [
            "align", "--corpus", str(DATA_DIR / "corpus.tsv"),
            "--out-dir", str(out), "--mode", mode,
        ]
    )
    assert rc == 0
    convs, divs = [], []
    for line in (out / "change_records.csv").read_text(encoding="utf-8").splitlines()[1:]:
        fields = line.split(",")
        convs.append(float(fields[2]))
        divs.append(float(fields[3]))
    return sum(convs) / len(convs), sum(divs) / len(divs)


def test_criterion_11_benchmark_recovery(tmp_path, acceptance_report):
    mean_conv, mean_div = _recovered_means(tmp_path, "binary")
    ok = abs(mean_conv - 0.020) <= 0.003 and abs(mean_div - 0.014) <= 0.003
    acceptance_report(
        11,
        ok,
        f"recovered conv={mean_conv:.6f} (target 0.020±0.003), "
        f"div={mean_div:.6f} (target 0.014±0.003)",
    )


# Injected conv/div ratio of the bundled corpus, 0.020 / 0.014.
INJECTED_RATIO = 0.020 / 0.014
# PMI distances shrink both means (about 0.010 and 0.007), so criterion 12
# pins their ratio. Over make_benchmark_corpus at the bundled seed and
# seeds 1-29, PMI mode gave ratios 1.410-1.463, at most 0.034 from the
# injected 1.4286; the bundled corpus gives 1.417.
PMI_RATIO_TOL = 0.05


def test_criterion_12_pmi_recovery(tmp_path, acceptance_report):
    mean_conv, mean_div = _recovered_means(tmp_path, "pmi")
    ratio = mean_conv / mean_div
    ok = mean_conv > mean_div and abs(ratio - INJECTED_RATIO) <= PMI_RATIO_TOL
    acceptance_report(
        12,
        ok,
        f"PMI mode conv={mean_conv:.6f} > div={mean_div:.6f}, ratio {ratio:.4f} "
        f"(target {INJECTED_RATIO:.4f}±{PMI_RATIO_TOL})",
    )
