import collections
import itertools
import random

import pytest
from loop_dp import as_symbols, brute_force_min_cost, double_pairwise_delta

from dialign import triple
from dialign.costs import GAP, Alignment, CostModel, binary_cost_model
from dialign.pmi import PmiTable, induce_distances
from dialign.triple import MOVES, align_triple, decompose, directions


def test_worked_example_reproduces_reference_layout(tok):
    # older [strodə], newer [strɔət], standard [strat], constrained unit
    # costs: three matches, a three-way substitution, a newer-only
    # insertion, a substitution toward the standard, an older-only tail
    cm = binary_cost_model(constrained=True)
    al = align_triple(tok("strodə"), tok("strɔət"), tok("strat"), cm)
    assert al.length == 7
    assert as_symbols(al, cm).columns == (
        ("s", "s", "s"),
        ("t", "t", "t"),
        ("r", "r", "r"),
        ("o", "ɔ", "a"),
        (GAP, "ə", GAP),
        ("d", "t", "t"),
        ("ə", GAP, GAP),
    )
    assert directions(al, cm) == [0, 0, 0, 0, 1, -1, -1]
    conv, div = decompose(al, cm)
    assert conv == pytest.approx(2 / 7)
    assert div == pytest.approx(1 / 7)


def test_identity_triple(tok):
    cm = binary_cost_model()
    al = align_triple(tok("strat"), tok("strat"), tok("strat"), cm)
    assert al.total_cost == 0
    assert al.length == 5
    assert all(u == v == w != 0 for u, v, w in al.columns)
    assert decompose(al, cm) == (0.0, 0.0)


class Filled(Exception):
    pass


# Two equal strings need none of the bound tables, so no 2D fill of
# align_triple's own, and an unchanged word shows no change. Where their
# symbols do not price 0 against themselves, the 3D sweep still runs.
def test_two_equal_strings_need_no_bound_tables(tok, monkeypatch):
    def fill(*args):
        raise Filled

    monkeypatch.setattr("dialign.triple.fill", fill)
    a, b = tok("strat"), tok("strɔt")
    cm = binary_cost_model()
    assert decompose(align_triple(a, a, b, cm), cm) == (0.0, 0.0)
    costly_self = PmiTable(
        {("a", "a"): 0.5, ("a", "t"): 1.0, (GAP, "a"): 1.0, (GAP, "t"): 1.0}
    )
    with pytest.raises(Filled):
        align_triple(tok("ta"), tok("ta"), tok("at"), CostModel(costly_self))


# A 3D triple fills each pair's lattice forward once. Only where the first
# sweep misses the sum of the pairwise optima are the reversed lattices
# filled for the second; the star alignment, where no path survived the
# first sweep, reads the forward fills.
@pytest.mark.parametrize(
    "words,fills,stars",
    [
        (("strodə", "strɔət", "strat"), 3, 0),  # the bound is met
        (("ata", "t", "a"), 6, 0),  # missed, with a path in the first sweep
        (("a", "ə", "aə"), 6, 1),  # missed, with no path: the star's cost
    ],
    ids=["met", "missed", "star"],
)
def test_reversed_fills_only_where_the_pairwise_bound_is_missed(
    tok, monkeypatch, words, fills, stars
):
    calls = collections.Counter()

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)

        monkeypatch.setattr(f"dialign.triple.{name}", call)

    counted("fill", triple.fill)
    counted("star", triple.star)
    cm = binary_cost_model(constrained=False)
    al = align_triple(*map(tok, words), cm)
    assert al.total_cost == brute_force_min_cost(*map(tok, words), cm)
    assert (calls["fill"], calls["star"]) == (fills, stars)


def test_seven_presence_patterns_only(tok):
    cm = binary_cost_model()
    rng = random.Random(3)
    seen = set()
    for _ in range(200):
        strs = [
            "".join(rng.choice("ptaəmn") for _ in range(rng.randint(0, 5)))
            for _ in range(3)
        ]
        al = align_triple(*(tok(s) for s in strs), cm)
        for col in al.columns:
            presence = tuple(u != 0 for u in col)
            assert presence != (False, False, False)
            seen.add(presence)
    assert seen <= {tuple(bool(d) for d in m) for m in MOVES}


def test_matches_brute_force_on_random_triples(tok):
    cm = binary_cost_model(constrained=True)
    rng = random.Random(11)
    for _ in range(150):
        strs = [
            "".join(rng.choice(["ə", "t", "n"]) for _ in range(rng.randint(0, 3)))
            for _ in range(3)
        ]
        x, y, z = (tok(s) for s in strs)
        assert align_triple(x, y, z, cm).total_cost == brute_force_min_cost(x, y, z, cm)


@pytest.mark.parametrize(
    "x,y,z,expected",
    [
        ("d", "t", "t", -1.0),  # change toward the standard
        (GAP, "ə", GAP, 1.0),  # newer-only material: away from standard
        ("o", "ɔ", "a", 0.0),  # equally distant: neutral
    ],
    ids=["conv", "div", "neutral"],
)
def test_directions_binary(tok, x, y, z, expected):
    cm = binary_cost_model()
    column = tuple(0 if s == GAP else cm.numbers(tok(s))[0] for s in (x, y, z))
    al = Alignment((column,), 0.0)
    assert directions(al, cm) == [expected]


def test_decompose_single_column_weighted(tok):
    dist = PmiTable({("a", "b"): 0.4, ("a", GAP): 0.8, ("b", GAP): 0.9})
    cm = CostModel(dist, constrained=False)
    a, b = cm.numbers(tok("ab"))
    # direction = dist(b,b) - dist(a,b) = -0.4 -> convergence magnitude 0.4
    al = Alignment(((a, b, b),), 0.0)
    conv, div = decompose(al, cm)
    assert conv == pytest.approx(0.4)
    assert div == 0.0


def make_pmi_from_triples(table, triples):
    pairs = []
    for x, y, z in triples:
        pairs.append((x, z))
        pairs.append((y, z))
    return induce_distances(pairs, binary_cost_model())


def random_triples(tok, rng, n, alphabet="patisəmnk", max_len=6):
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


def test_decomposition_bounds_and_role_swap(tok):
    rng = random.Random(2024)
    triples = random_triples(tok, rng, 400)
    pmi = make_pmi_from_triples(None, triples)
    cm = CostModel(pmi)
    for x, y, z in triples:
        al = align_triple(x, y, z, cm)
        conv, div = decompose(al, cm)
        assert conv >= 0 and div >= 0
        assert conv + div <= 1 + 1e-9
        swapped = align_triple(y, x, z, cm)
        sconv, sdiv = decompose(swapped, cm)
        assert sconv == pytest.approx(div, abs=1e-9)
        assert sdiv == pytest.approx(conv, abs=1e-9)


def test_double_pairwise_delta_identity(tok):
    cm = binary_cost_model()
    assert double_pairwise_delta(tok("pat"), tok("pat"), tok("pat"), cm) == 0.0


def test_double_pairwise_delta_sign_matches_3d(tok):
    cm = binary_cost_model(constrained=True)
    x, y, z = tok("strodə"), tok("strɔət"), tok("strat")
    delta = double_pairwise_delta(x, y, z, cm)
    al = align_triple(x, y, z, cm)
    conv, div = decompose(al, cm)
    assert delta != 0
    assert (delta > 0) == (div - conv > 0)


def test_correlation_with_double_pairwise(tok):
    import numpy as np

    rng = random.Random(99)
    triples = random_triples(tok, rng, 250)
    pmi = make_pmi_from_triples(None, triples)
    cm = CostModel(pmi)
    net, delta = [], []
    for x, y, z in triples:
        al = align_triple(x, y, z, cm)
        conv, div = decompose(al, cm)
        net.append(div - conv)
        delta.append(double_pairwise_delta(x, y, z, cm))
    r = np.corrcoef(net, delta)[0, 1]
    assert r > 0.95
