import itertools
import math
import random
from pathlib import Path

import pytest
from loop_dp import (
    CapExceeded,
    ZeroLength,
    as_symbols,
    enumerate_optimal,
    normalized_distance,
    table_prices,
)

from dialign import pairwise
from dialign.cli import main
from dialign.corpus import ingest, pair
from dialign.costs import FORBIDDEN, GAP, binary_cost_model
from dialign.pairwise import align_pair
from dialign.pmi import InductionOptions, induce_distances

BUNDLED = Path(__file__).parents[1] / "data" / "synthetic" / "corpus.tsv"


def op(col) -> str:
    """The edit a 2D column makes: match, sub, ins or del."""
    left, right = col
    if left == GAP:
        return "ins"
    if right == GAP:
        return "del"
    return "match" if left == right else "sub"


# The classic "straat" pair. The illustrative alignments in the source
# material show cost 3/length 6 (unconstrained) and cost 4/length 7
# (constrained), but neither is what a minimal-cost DP with the
# longest-optimal-length rule returns: the constraint-respecting
# alignment  s t r o d ə -  /  s t r ɔ - ə t  has cost 3 and length 7,
# which the enumeration oracle below confirms is optimal in both modes.
OLDER = "strodə"
NEWER = "strɔət"


def test_unconstrained_cost_and_longest_length(tok):
    cm = binary_cost_model(constrained=False)
    al = align_pair(tok(OLDER), tok(NEWER), cm)
    opt = enumerate_optimal(tok(OLDER), tok(NEWER), cm)
    assert al.total_cost == 3
    assert min(o.total_cost for o in opt) == 3
    # the length-6 three-substitution alignment is among the optima...
    assert 6 in {o.length for o in opt}
    # ...but a length-7 optimum exists, and align_pair returns that length
    assert max(o.length for o in opt) == 7
    assert al.length == 7


def test_constrained_cost(tok):
    cm = binary_cost_model(constrained=True)
    al = align_pair(tok(OLDER), tok(NEWER), cm)
    opt = enumerate_optimal(tok(OLDER), tok(NEWER), cm)
    assert al.total_cost == min(o.total_cost for o in opt) == 3
    assert al.length == max(o.length for o in opt) == 7
    assert normalized_distance(al) == pytest.approx(3 / 7)


def test_constraint_never_pairs_vowel_with_obstruent(tok):
    cm = binary_cost_model(constrained=True)
    rng = random.Random(9)
    alphabet = "aeptmnəril"
    for _ in range(300):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        al = align_pair(tok(a), tok(b), cm)
        seg = {s.symbol: s for s in tok(a) + tok(b)}
        for col in as_symbols(al, cm).columns:
            if GAP in col:
                continue
            left, right = (seg[s] for s in col)
            if left.klass != right.klass:
                vowel, cons = (left, right) if left.klass == "V" else (right, left)
                assert vowel.is_schwa and cons.is_sonorant_consonant


def test_identity_alignment(tok):
    cm = binary_cost_model()
    al = align_pair(tok("strat"), tok("strat"), cm)
    assert al.total_cost == 0
    assert al.length == 5
    assert all(op(c) == "match" for c in as_symbols(al, cm).columns)
    assert normalized_distance(al) == 0.0


def test_align_against_empty(tok):
    cm = binary_cost_model()
    al = align_pair(tok("strat"), (), cm)
    assert al.total_cost == 5
    assert al.length == 5
    assert all(op(c) == "del" for c in as_symbols(al, cm).columns)
    assert normalized_distance(al) == 1.0


def test_both_empty_normalize_raises():
    cm = binary_cost_model()
    al = align_pair((), (), cm)
    assert al.total_cost == 0 and al.length == 0
    with pytest.raises(ZeroLength):
        normalized_distance(al)


def test_total_cost_is_column_sum(tok):
    cm = binary_cost_model()
    al = align_pair(tok(OLDER), tok(NEWER), cm)
    assert al.total_cost == sum(table_prices(al, cm))


def test_symmetry(tok):
    cm = binary_cost_model()
    rng = random.Random(4)
    for _ in range(50):
        a = "".join(rng.choice("ptaən") for _ in range(rng.randint(0, 5)))
        b = "".join(rng.choice("ptaən") for _ in range(rng.randint(0, 5)))
        assert (
            align_pair(tok(a), tok(b), cm).total_cost
            == align_pair(tok(b), tok(a), cm).total_cost
        )


def test_forbidden_is_infinite(tok):
    cm = binary_cost_model(constrained=True)
    (a,) = tok("a")
    (p,) = tok("p")
    (n,) = tok("n")
    (schwa,) = tok("ə")
    ua, up, un, uschwa = cm.numbers((a, p, n, schwa))
    assert cm.cost[ua][up] == FORBIDDEN
    assert cm.cost[uschwa][un] == 1  # schwa-sonorant exception
    assert cm.cost[uschwa][up] == FORBIDDEN
    # forbidden pairs still align via indels at finite cost
    al = align_pair([a], [p], cm)
    assert al.total_cost == 2
    assert al.length == 2


def test_deterministic_traceback_prefers_del(tok):
    cm = binary_cost_model()
    # "ab" vs "b a": several optima; rerun must give identical columns
    al1 = align_pair(tok("pata"), tok("tapa"), cm)
    al2 = align_pair(tok("pata"), tok("tapa"), cm)
    assert al1 == al2


def test_enumerate_identity_unique(tok):
    cm = binary_cost_model()
    opt = enumerate_optimal(tok("pat"), tok("pat"), cm)
    assert len(opt) == 1
    assert all(op(c) == "match" for c in opt[0].columns)


def test_enumerate_cap(tok):
    cm = binary_cost_model(constrained=False)
    # three optimal ways to drop two of three identical segments
    assert len(enumerate_optimal(tok("aaa"), tok("a"), cm)) == 3
    with pytest.raises(CapExceeded):
        enumerate_optimal(tok("aaa"), tok("a"), cm, cap=2)


def test_dp_matches_enumeration_on_random_instances(tok):
    cm = binary_cost_model(constrained=True)
    rng = random.Random(17)
    alphabet = ["ə", "t", "n"]
    for _ in range(150):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
        al = align_pair(tok(a), tok(b), cm)
        opt = enumerate_optimal(tok(a), tok(b), cm)
        if not opt:
            assert a == b == ""
            continue
        assert al.total_cost == opt[0].total_cost
        assert al.length == max(o.length for o in opt)


def test_normalized_distance_within_unit_interval(tok):
    cm = binary_cost_model()
    rng = random.Random(23)
    for _ in range(100):
        a = "".join(rng.choice("ptaən") for _ in range(rng.randint(1, 6)))
        b = "".join(rng.choice("ptaən") for _ in range(rng.randint(1, 6)))
        assert 0.0 <= normalized_distance(align_pair(tok(a), tok(b), cm)) <= 1.0



# Under unit costs every 2D pair that the bundled corpus gives is of equal
# length, with a diagonal below its gap bound: each lockstep pair of
# align --mode binary, and each of the 240 distinct pairs of induction's
# first iteration. So neither fills a 2D lattice.
def test_bundled_binary_pairs_take_the_diagonal_with_no_fill(
    tmp_path, monkeypatch, table
):
    fills, fill = [], pairwise.fill

    def counted(*args):
        fills.append(args)
        return fill(*args)

    monkeypatch.setattr(pairwise, "fill", counted)
    argv = ["align", "--corpus", str(BUNDLED), "--mode", "binary"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    assert not fills
    triples, _ = pair(ingest(BUNDLED), table)
    pairs = [p for t in triples for p in ((t.older, t.standard), (t.newer, t.standard))]
    induce_distances(pairs, binary_cost_model(), InductionOptions(max_iter=1))
    assert not fills
    induce_distances(pairs, binary_cost_model(), InductionOptions(max_iter=2))
    assert fills  # the counter sees the fills of induced prices
