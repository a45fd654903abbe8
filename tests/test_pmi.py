import math
import random
import unicodedata

import pytest
from loop_dp import (
    as_symbols,
    make_vowel_shift_pairs,
    symbol_distances_from_counts as distances_from_counts,
)

from dialign.costs import FORBIDDEN, GAP, CostModel, binary_cost_model
from dialign.errors import DialignError, EmptyCorpus, ParseError
from dialign.pairwise import align_pair
from dialign.phonetics import tokenize
from dialign.pmi import (
    InductionOptions,
    PmiTable,
    induce_distances,
)


def corpus_from_strings(table, string_pairs):
    return [(tokenize(a, table), tokenize(b, table)) for a, b in string_pairs]


def test_empty_corpus_raises():
    with pytest.raises(EmptyCorpus):
        induce_distances([], binary_cost_model())


def test_identity_corpus(table):
    corpus = corpus_from_strings(table, [("pat", "pat")] * 60)
    result = induce_distances(corpus, binary_cost_model())
    assert result.converged
    # diagonal floored at zero, off-diagonal pairs only carry smoothing mass
    for (a, b), d in result.dist.items():
        assert 0.0 <= d <= 1.0
        if a == b:
            assert d == 0.0
    assert result.distance("p", "t") > result.distance("p", "p")


def test_cooccurrence_ordering(table):
    corpus = corpus_from_strings(table, make_vowel_shift_pairs())
    result = induce_distances(corpus, binary_cost_model())
    assert result.distance("i", "ɪ") < result.distance("i", "u")
    assert result.converged


def test_fixed_point_when_converged(table):
    corpus = corpus_from_strings(table, make_vowel_shift_pairs())
    opts = InductionOptions()
    result = induce_distances(corpus, binary_cost_model(), opts)
    assert result.converged
    # re-aligning under the final table reproduces it within tolerance
    cm = CostModel(result)
    rerun = induce_distances(corpus, cm, InductionOptions(max_iter=1))
    deltas = [
        abs(rerun.dist[k] - result.dist[k]) for k in set(rerun.dist) & set(result.dist)
    ]
    assert max(deltas) < 1e-6


def test_constraint_forced_corpus_converges_in_two_iterations(table):
    # same-length all-consonant pairs: alignments are position-forced, so
    # iteration 2 reproduces iteration 1 exactly
    corpus = corpus_from_strings(table, [("pat", "pas"), ("tak", "tap")] * 30)
    result = induce_distances(corpus, binary_cost_model())
    assert result.converged
    assert result.iterations_run == 2


def test_max_iter_one_reports_nonconvergence(table):
    corpus = corpus_from_strings(table, [("pat", "pas")] * 60)
    result = induce_distances(corpus, binary_cost_model(), InductionOptions(max_iter=1))
    assert not result.converged
    assert result.iterations_run == 1


def test_determinism(table):
    corpus = corpus_from_strings(table, make_vowel_shift_pairs())
    r1 = induce_distances(corpus, binary_cost_model())
    r2 = induce_distances(corpus, binary_cost_model())
    assert r1.dist == r2.dist
    assert r1.iterations_run == r2.iterations_run


def test_a_model_that_numbered_a_symbol_no_pair_holds_induces_as_a_fresh_one(table):
    corpus = corpus_from_strings(table, [("pat", "pit")] * 60)
    used = binary_cost_model()
    (x,) = used.numbers(tokenize("x", table))
    got = induce_distances(corpus, used)
    assert got.iterations_run >= 2  # the model was repriced
    assert got == induce_distances(corpus, binary_cost_model())
    # no pair holds x, so repricing leaves its row as it was
    n = used.number
    repriced = used.repriced({(n[a], n[b]): d for (a, b), d in got.dist.items()})
    assert repriced.cost[x] == used.cost[x]
    assert repriced.cost[n["p"]] != used.cost[n["p"]]


def test_distances_from_counts_range_and_diagonal():
    counts = {("a", "a"): 50, ("a", "b"): 10, ("b", "b"): 40, ("a", GAP): 3}
    dist = distances_from_counts(counts, 0.5)
    assert all(0.0 <= v <= 1.0 for v in dist.values())
    assert dist[("a", "a")] == 0.0
    assert dist[("b", "b")] == 0.0
    assert (GAP, GAP) not in dist


def test_distances_from_counts_key_order():
    counts = {("a", "a"): 50, ("a", "b"): 10, ("b", "b"): 40}
    descending = distances_from_counts({**counts, ("a", GAP): 3}, 0.5)
    ascending = distances_from_counts({**counts, (GAP, "a"): 3}, 0.5)
    assert descending == ascending
    assert descending != distances_from_counts(counts, 0.5)


def test_monotonicity_in_cooccurrence_count():
    rng = random.Random(5)
    symbols = ["a", "b", "c", "d"]
    for _ in range(50):
        counts = {}
        for i, s in enumerate(symbols):
            for u in symbols[i:]:
                counts[(s, u)] = rng.randint(0, 30)
        counts[("a", GAP)] = rng.randint(0, 10)
        before = distances_from_counts(counts, 0.5)[("a", "b")]
        counts[("a", "b")] += rng.randint(1, 10)
        after = distances_from_counts(counts, 0.5)[("a", "b")]
        assert after <= before + 1e-12


def test_gap_distances_learned(table):
    # deletions dominate for 't', so dist(t, GAP) should undercut a
    # never-deleted segment's gap distance
    corpus = corpus_from_strings(table, [("pat", "pa"), ("sit", "si")] * 30)
    result = induce_distances(corpus, binary_cost_model())
    assert result.distance("t", GAP) < result.distance("p", GAP)


def test_cost_model_over_pmi_table_passthrough_and_policy(table):
    # The model prices a new symbol against the gap and every symbol it
    # already knows, so the table holds each pair the policy allows.
    t = PmiTable(
        {
            ("i", "ɪ"): 0.2,
            ("a", "p"): 0.7,
            ("a", GAP): 0.5,
            (GAP, "p"): 0.6,
            (GAP, "i"): 0.6,
            (GAP, "ɪ"): 0.6,
            ("a", "i"): 0.9,
            ("a", "ɪ"): 0.9,
        }
    )
    cm = CostModel(t)
    (i,) = tokenize("i", table)
    (small_i,) = tokenize("ɪ", table)
    (a,) = tokenize("a", table)
    (p,) = tokenize("p", table)
    ui, usmall_i, ua, up = cm.numbers((i, small_i, a, p))
    assert cm.cost[ui][usmall_i] == 0.2
    # constraint overrides the learned vowel-obstruent value
    assert cm.cost[ua][up] == FORBIDDEN
    assert cm.cost[ua][0] == 0.5


def test_missing_pair_is_an_error():
    t = PmiTable({("a", "b"): 0.3})
    assert t.distance("z", "z") == 0.0  # the diagonal defaults to 0
    with pytest.raises(DialignError, match=r"\('a', 'z'\) is not in the PMI table"):
        t.distance("z", "a")
    with pytest.raises(DialignError, match=rf"\('{GAP}', 'b'\)"):
        t.distance("b", GAP)


def test_pair_in_both_orders_is_an_error():
    with pytest.raises(ValueError, match=r"pair \('a', 'b'\) given in both orders"):
        PmiTable({("a", "b"): 0.2, ("b", "a"): 0.9})


def test_serialization_roundtrip(tmp_path, table):
    corpus = corpus_from_strings(table, make_vowel_shift_pairs())
    result = induce_distances(corpus, binary_cost_model())
    path = tmp_path / "pmi.tsv"
    path.write_text(result.to_tsv(), encoding="utf-8")
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines == sorted(lines)  # stable lexicographic order
    assert any(line.startswith(f"{GAP}\t") or f"\t{GAP}\t" in line for line in lines)
    loaded = PmiTable.read(path)
    for key, value in result.dist.items():
        assert loaded.dist[key] == pytest.approx(value, abs=1e-10)


@pytest.mark.parametrize("value", ["nan", "inf", "-0.5", "1.5"])
def test_read_rejects_distance_outside_unit_interval(tmp_path, value):
    path = tmp_path / "pmi.tsv"
    path.write_text(f"a\tb\t0.5\nd\t{GAP}\t{value}\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        PmiTable.read(path)
    assert str(exc.value).startswith(f"{path}: line 2: ")


@pytest.mark.parametrize("repeat", ["b\ta\t0.9", "a\tb\t0.2"])
def test_read_rejects_repeated_pair(tmp_path, repeat):
    path = tmp_path / "pmi.tsv"
    path.write_text(f"a\tb\t0.2\nd\t{GAP}\t0.5\n{repeat}\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        PmiTable.read(path)
    assert str(exc.value) == (
        f"{path}: line 3: repeated pair ('a', 'b') (first at line 1)"
    )


def test_read_normalizes_symbols_to_nfc(tmp_path, table):
    # the tokenizer gives NFC symbols, so an NFD table must price them too
    nfd = unicodedata.normalize("NFD", "ç")
    assert nfd != "ç"
    path = tmp_path / "pmi.tsv"
    path.write_text(f"{GAP}\t{nfd}\t0.4\n", encoding="utf-8")
    cm = CostModel(PmiTable.read(path))
    (u,) = cm.numbers(tokenize("ç", table))
    assert cm.cost[u][0] == 0.4


def test_read_rejects_a_pair_repeated_in_another_normal_form(tmp_path):
    nfd = unicodedata.normalize("NFD", "ç")
    path = tmp_path / "pmi.tsv"
    path.write_text(f"{GAP}\tç\t0.4\n{GAP}\t{nfd}\t0.5\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        PmiTable.read(path)
    assert str(exc.value) == (
        f"{path}: line 2: repeated pair ('{GAP}', 'ç') (first at line 1)"
    )


def test_induction_respects_constraint(table):
    # vowel-obstruent columns must never occur in induction alignments
    corpus = corpus_from_strings(table, [("pat", "tap"), ("ip", "pi")] * 30)
    result = induce_distances(corpus, binary_cost_model())
    a, b = tokenize("ip", table), tokenize("pi", table)
    cm = CostModel(result)
    al = align_pair(a, b, cm)
    klass = {s.symbol: s.klass for s in a + b}
    for left, right in as_symbols(al, cm).columns:
        if GAP not in (left, right):
            assert klass[left] == klass[right]
