"""Property tests of the table-driven DPs against their loop references
and oracles.

Words are drawn over a small alphabet of vowels, schwa, sonorant and
obstruent consonants, so the vowel-consonant ban and its schwa-sonorant
exception both occur. Distance tables are drawn with many ties.
"""

import collections
import itertools
import operator
import random

import pytest
from hypothesis import example, given, settings, strategies as st
from loop_dp import (
    _pair_cost,
    align_pair_loop,
    align_triple_loop,
    as_symbols,
    column_cost,
    enumerate_optimal,
    induce_distances_loop,
    table_prices,
)

from dialign import costs
from dialign.corpus import ingest, pair
from dialign.costs import GAP, BinaryDistanceTable, CostModel, binary_cost_model
from dialign.pairwise import align_pair, fill
from dialign.phonetics import SegmentTable, tokenize
from dialign.pmi import InductionOptions, PmiTable, induce_distances
from dialign.synth import make_mixed_corpus
from dialign.triple import (
    EPS, align_triple, decompose, directions, near_optimal, star, through
)

TABLE = SegmentTable.default()
ALPHABET = ("a", "o", "ə", "n", "r", "t", "s")
PAIRS = [
    p
    for p in itertools.combinations_with_replacement(sorted(ALPHABET + (GAP,)), 2)
    if p != (GAP, GAP)
]
# Sums of these are exact in binary floating point, so equal-cost
# alignments tie exactly whatever the order of addition.
DYADIC = st.sampled_from((0.0, 0.25, 0.5, 1.0))

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def words(max_len):
    return st.lists(st.sampled_from(ALPHABET), max_size=max_len).map(
        lambda chars: tokenize("".join(chars), TABLE) if chars else ()
    )


def pmi_tables(distance):
    return st.lists(distance, min_size=len(PAIRS), max_size=len(PAIRS)).map(
        lambda ds: PmiTable(dict(zip(PAIRS, ds)))
    )


def cost_models(*tables):
    return st.builds(
        CostModel, st.one_of(st.just(BinaryDistanceTable()), *tables), st.booleans()
    )


# Tables of few distinct distances tie often; arbitrary ones show the
# float order of the column sums.
ANY_COSTS = cost_models(pmi_tables(DYADIC), pmi_tables(st.floats(0.0, 1.0)))
DYADIC_COSTS = cost_models(pmi_tables(DYADIC))


def tok(*raws):
    return tuple(tokenize(raw, TABLE) for raw in raws)


def segment_of(*words) -> dict:
    """Each segment of the words by its symbol; .get gives None for GAP."""
    return {s.symbol: s for w in words for s in w}


# Random words seldom reach a cost tie that only the longer alignment
# wins, so each such tie gets an example: in 2D one for the insertion and
# one for the substitution, in 3D one for each move after the first in
# MOVES. All are under unconstrained unit costs but one.
UNIT, UNIT_CONSTRAINED = binary_cost_model(False), binary_cost_model(True)
# With one string empty, the 3D lattice is the 2D lattice of the other
# two. The face examples pin each face: under this dyadic table the face
# of "ttaa" and "ata" meets both 2D ties that the longer alignment wins,
# the insertion's and the substitution's; under UNIT the face of "aaə"
# and "ət" meets the insertion's.
FACE_TIES = CostModel(
    PmiTable({(GAP, "a"): 0.25, (GAP, "t"): 0.25, ("a", "t"): 0.25, ("t", "t"): 0.25}),
    constrained=False,
)


def numbered_in_reverse(cm: CostModel) -> CostModel:
    """cm, after it has numbered the alphabet's symbols in reverse order,
    so that number order and symbol order disagree."""
    for symbol in reversed(ALPHABET):
        cm.numbers(tokenize(symbol, TABLE))
    return cm


# The DPs fill and trace numbers; under this model a choice that followed
# number order rather than the strings' own order would differ from the
# loop references, which never number a symbol.
UNIT_REVERSED = numbered_in_reverse(binary_cost_model(False))


@SETTINGS
@given(words(8), words(8), ANY_COSTS)
@example(*tok("aaə", "ət"), UNIT)
@example(*tok("aəa", "ttaa"), UNIT)
@example(*tok("aəa", "ttaa"), UNIT_REVERSED)
def test_align_pair_matches_loop_reference(a, b, cm):
    got, want = as_symbols(align_pair(a, b, cm), cm), align_pair_loop(a, b, cm)
    assert got.total_cost == want.total_cost
    assert got.length == want.length
    assert got.columns == want.columns


# Over two symbols nearly every node ties, so the traceback counts the
# lengths of a large part of a lattice far bigger than words(8) give.
@pytest.mark.parametrize("cm", [UNIT, UNIT_CONSTRAINED], ids=["unit", "constrained"])
def test_align_pair_matches_loop_reference_on_long_tie_heavy_words(cm):
    rng = random.Random(17)
    a, b = (tokenize("".join(rng.choices("ta", k=300)), TABLE) for _ in range(2))
    assert as_symbols(align_pair(a, b, cm), cm) == align_pair_loop(a, b, cm)


def pair_prices(cm, a, b):
    """a's and b's numbers in the cost model's price table, and the table,
    as the DPs read them."""
    return cm.numbers(a), cm.numbers(b), cm.cost


# align_triple prunes its lattice by these tables, so each entry must be
# the least pair cost through its node, neither more nor less.
@SETTINGS
@given(words(5), words(5), DYADIC_COSTS)
def test_through_is_the_least_pair_cost_through_each_node(a, b, cm):
    ua, ub, C = pair_prices(cm, a, b)
    fwd = fill(ua, ub, C)
    table = through(fwd, ua, ub, C)
    for i, j in itertools.product(range(len(a) + 1), range(len(b) + 1)):
        head = align_pair_loop(a[:i], b[:j], cm).total_cost
        tail = align_pair_loop(a[i:], b[j:], cm).total_cost
        assert fwd[i][j] == head
        assert table[i][j] == head + tail


# align_triple first sweeps only the cells whose pairwise bound is at most
# the sum of the pairwise optima. Here that sum is 3 and the optimum 4, and
# no path survives the first sweep, so the second sweep's limit is the cost
# of the star alignment.
SECOND_SWEEP = tok("a", "ə", "aə")


# The second sweep is exact only if the star alignment is an alignment of
# the three words, so that its cost is at least the optimum. Under UNIT the
# (x, z) lattice of "aaə" and "ət", and the (y, z) lattice of "aəa" and
# "ttaa", hold co-optimal alignments of different lengths, so the star's
# traceback counts lengths there.
@SETTINGS
@given(words(5), words(5), words(5), ANY_COSTS)
@example(*SECOND_SWEEP, UNIT)
@example(*SECOND_SWEEP, UNIT_CONSTRAINED)
@example(*tok("aaə", "a", "ət"), UNIT)
@example(*tok("t", "aəa", "ttaa"), UNIT)
def test_star_alignment_is_an_alignment_that_bounds_the_optimum(x, y, z, cm):
    fxz = fill(*pair_prices(cm, x, z))
    fyz = fill(*pair_prices(cm, y, z))
    ux, uy, uz = cm.numbers(x), cm.numbers(y), cm.numbers(z)
    columns, cost = star(ux, uy, uz, cm.cost, fxz, fyz)
    for s, us in enumerate((ux, uy, uz)):  # each word's segments once, in order
        assert [col[s] for col in columns if col[s]] == us
    assert all(any(col) for col in columns)
    seg = segment_of(x, y, z)
    assert cost == sum(
        column_cost(cm, *(seg.get(cm.symbol[u]) for u in col)) for col in columns
    )
    assert cost >= align_triple(x, y, z, cm).total_cost - EPS


@SETTINGS
@given(words(5), words(5), words(5), ANY_COSTS)
@example(*SECOND_SWEEP, UNIT)
@example(*SECOND_SWEEP, UNIT_CONSTRAINED)
@example(*tok("taat", "tta", "ət"), UNIT)
@example(*tok("əəa", "a", "aə"), UNIT)
@example(*tok("aat", "aəət", "taə"), UNIT)
@example(*tok("aaə", "tata", "aaə"), UNIT)
@example(*tok("ta", "aaəə", "atət"), UNIT_CONSTRAINED)
@example(*tok("aaə", "aətt", "tata"), UNIT)
@example((), *tok("ttaa", "ata"), FACE_TIES)
@example(*tok("ttaa"), (), *tok("ata"), FACE_TIES)
@example(*tok("ttaa", "ata"), (), FACE_TIES)
@example((), *tok("aaə", "ət"), UNIT)
@example(*tok("aaə"), (), *tok("ət"), UNIT)
@example(*tok("aaə", "ət"), (), UNIT)
@example((), (), *tok("atə"), UNIT)
@example(*tok("taat", "tta", "ət"), UNIT_REVERSED)
def test_align_triple_matches_loop_reference(x, y, z, cm):
    got = as_symbols(align_triple(x, y, z, cm), cm)
    want = align_triple_loop(x, y, z, cm)
    assert got.total_cost == want.total_cost
    assert got.length == want.length
    assert got.columns == want.columns


# The first sweep's bound tables mark the nodes that a walk back over
# moves tight within EPS reaches. Under EDGE a gap costs "a" 0.1 and "t"
# 0.2, and "a" against "t" costs 0.3; in floats 0.1 + 0.2 is above 0.3, so
# in the lattice of "a" and "t" each path of two gap moves misses the
# optimum by float error alone. The triple of (), "a" and "t" has two
# optima: one column, (0.1 + 0.2) + 0.3, and two gap columns, 0.4 + 0.2,
# which the longest rule takes. Its projection on ("a", "t") passes a node
# that is tight only within EPS, so a walk over moves tight by == would
# leave it out of the first sweep, which would trace the shorter optimum.
EDGE = CostModel(
    PmiTable({(GAP, "a"): 0.1, (GAP, "t"): 0.2, ("a", "t"): 0.3}), constrained=False
)


def test_a_node_tight_only_within_eps_is_in_the_first_sweep(monkeypatch):
    def through(*args):
        raise AssertionError("the first sweep missed its limit")

    monkeypatch.setattr("dialign.triple.through", through)
    y, z = tok("a", "t")
    ua, ub, C = pair_prices(EDGE, y, z)
    cost = fill(ua, ub, C)
    assert cost[1][0] + C[ub[0]][0] != cost[1][1]
    assert cost[1][0] + C[ub[0]][0] <= cost[1][1] + EPS
    assert near_optimal(cost, ua, ub, C)[1][0] == cost[1][1]
    got = as_symbols(align_triple((), y, z, EDGE), EDGE)
    assert got == align_triple_loop((), y, z, EDGE)
    assert got.columns == ((GAP, GAP, "t"), (GAP, "a", GAP))


# Tenths are not dyadic: their sums tie only within float error, as
# 0.1 + 0.2 and 0.3 do, so nodes of optimal alignments are often tight only
# within EPS. The examples hold triples whose first sweep is kept, with
# three 2D fills, and triples that take the second, with six.
TENTHS = st.integers(1, 7).map(lambda n: n / 10)


def test_align_triple_matches_loop_reference_under_tenths(monkeypatch):
    calls, passes = [], collections.Counter()

    def counted(*args):
        calls.append(args)
        return fill(*args)

    monkeypatch.setattr("dialign.triple.fill", counted)

    @SETTINGS
    @given(
        words(5), words(5), words(5),
        st.builds(CostModel, pmi_tables(TENTHS), st.booleans()),
    )
    def check(x, y, z, cm):
        calls.clear()
        got = as_symbols(align_triple(x, y, z, cm), cm)
        passes[len(calls)] += 1
        assert got == align_triple_loop(x, y, z, cm)

    check()
    assert passes[3] and passes[6]


def with_two_equal(a, b):
    """The triples that hold a twice and b once."""
    return (a, a, b), (a, b, a), (b, a, a)


# Two equal strings take one 2D alignment of the third with them, in
# lockstep, where their symbols price 0 against themselves and more than
# EPS against the gap; ANY_COSTS also draws tables where they do not, so
# the 3D sweep runs too. Under UNIT "ot" and "to" have two optima of equal
# length, and only the MOVES order picks one, in each placement. Under
# FREE_GAP a gap costs "t" nothing, so two "t"s that do not advance
# together tie with the lockstep alignment, and the longest rule picks them.
FREE_GAP = CostModel(
    PmiTable({(GAP, "a"): 0.25, (GAP, "t"): 0.0, ("a", "t"): 1.0}), constrained=False
)


@SETTINGS
@given(words(5), words(5), ANY_COSTS)
@example(*tok("ot", "to"), UNIT)
@example(*tok("to", "ot"), UNIT)
@example(*tok("t", "a"), FREE_GAP)
def test_align_triple_with_two_equal_strings_matches_loop_reference(a, b, cm):
    for x, y, z in with_two_equal(a, b):
        got = as_symbols(align_triple(x, y, z, cm), cm)
        assert got == align_triple_loop(x, y, z, cm)


# align_pair returns the diagonal of two equal strings without a fill
# where each of their symbols prices 0 against itself and above 0 against
# the gap. Under FREE_GAP a "t" gaps for nothing, and under SELF_PRICED an
# "a" prices 0.25 against itself, so both take the DP; under the first,
# two "t"s that do not advance together give a longer optimum.
SELF_PRICED = CostModel(
    PmiTable({(GAP, "a"): 0.5, (GAP, "t"): 0.5, ("a", "a"): 0.25, ("a", "t"): 1.0}),
    constrained=False,
)


@SETTINGS
@given(words(8), st.one_of(ANY_COSTS, DYADIC_COSTS))
@example(*tok("tat"), FREE_GAP)
@example(*tok("ata"), SELF_PRICED)
def test_align_pair_of_equal_strings_matches_loop_reference(a, cm):
    assert as_symbols(align_pair(a, a, cm), cm) == align_pair_loop(a, a, cm)


# Under one cost model align_pair takes the leading rows of its fill from
# the model's last fill where b is the same and a shares a prefix. The run
# repeats a pair, gives an a that is a prefix of the one before, changes
# b, and numbers "s" first while the kept table has rows without it. Each
# word is one tuple, as corpus.pair gives it, so a b met again keeps its
# numbers. The run is aligned in both directions, each under a new model.
def test_shared_fill_rows_leave_every_alignment_as_the_loop_reference_gives_it():
    rng = random.Random(3)
    table = PmiTable({p: rng.choice((0.25, 0.5, 0.75, 1.0)) for p in PAIRS})
    run = [
        ("tanə", "tano"),
        ("tanə", "tano"),
        ("ta", "tano"),
        ("tas", "tano"),
        ("tasro", "tano"),
        ("ro", "rosa"),
        ("rosə", "rosa"),
        ("tanə", "rosa"),
    ]
    word = {raw: tokenize(raw, TABLE) for p in run for raw in p}
    for pairs in (run, run[::-1]):
        cm, shared = CostModel(table), 0
        for a, b in ((word[x], word[y]) for x, y in pairs):
            last = cm.last_fill
            got = as_symbols(align_pair(a, b, cm), cm)
            assert got == align_pair_loop(a, b, cm)
            if last is not None:  # the rows after row 0 taken from it
                shared += sum(map(operator.is_, last[2][1:], cm.last_fill[2][1:]))
        assert shared > 0


# words(5) leave the tight subgraph small; over two symbols nearly every
# cell ties, so the traceback counts lengths deep into a 3D lattice, or,
# for two equal words, into the 2D lattice of the third with them.
@pytest.mark.parametrize("cm", [UNIT, UNIT_CONSTRAINED], ids=["unit", "constrained"])
def test_align_triple_matches_loop_reference_on_long_tie_heavy_words(cm):
    rng = random.Random(1)
    x, y, z = (
        tokenize("".join(rng.choices("ta", k=rng.randint(30, 40))), TABLE)
        for _ in range(3)
    )
    triples = [(x, y, z)]
    for a, b in ((x, z), (y, x), (z, y)):
        triples += with_two_equal(a, b)
    for triple in triples:
        got = as_symbols(align_triple(*triple, cm), cm)
        assert got == align_triple_loop(*triple, cm)


def mixed_corpus(tmp_path):
    """The triples of make_mixed_corpus(), and their (older, standard) and
    (newer, standard) pairs, as PMI induction reads them."""
    corpus = tmp_path / "mixed.tsv"
    corpus.write_text(make_mixed_corpus(), encoding="utf-8")
    triples, _ = pair(ingest(corpus), TABLE)
    pairs = [p for t in triples for p in ((t.older, t.standard), (t.newer, t.standard))]
    return triples, pairs


# The words above stop at 5 segments, where pruning seldom cuts a cell;
# the mixed corpus holds words of 3 to 13 segments.
@pytest.mark.parametrize("costs", ["binary", "pmi"])
def test_align_triple_matches_loop_reference_on_the_mixed_corpus(tmp_path, costs):
    triples, pairs = mixed_corpus(tmp_path)
    cm = binary_cost_model()
    if costs == "pmi":
        cm = CostModel(induce_distances(pairs, cm))
    distinct = {(t.older, t.newer, t.standard) for t in triples}
    assert max(len(w) for triple in distinct for w in triple) >= 12
    for x, y, z in distinct:
        got = as_symbols(align_triple(x, y, z, cm), cm)
        assert got == align_triple_loop(x, y, z, cm)


# Induction aligns each distinct pair once an iteration with the
# table-driven DP; the loop reference aligns every pair with the loop DP.
# Under the default cap the mixed corpus converges in 3 iterations
# constrained and in 6 unconstrained, so a cap of 3 stops on the last
# iteration, converged in one case and not in the other.
@pytest.mark.parametrize("max_iter", [3, InductionOptions().max_iter])
@pytest.mark.parametrize("constrained", [True, False], ids=["constrained", "free"])
def test_induce_distances_matches_loop_reference_on_the_mixed_corpus(
    tmp_path, constrained, max_iter
):
    _, pairs = mixed_corpus(tmp_path)
    init, opts = binary_cost_model(constrained), InductionOptions(max_iter=max_iter)
    got = induce_distances(pairs, init, opts)
    want = induce_distances_loop(pairs, init, opts)
    assert got.dist == want.dist
    assert got.iterations_run == want.iterations_run
    assert got.converged == want.converged


def large_alphabet_pairs(first: str = "!", seed: int = 11):
    """Seeded (variant, standard) pairs over 104 symbols: 12 vowel bases,
    bare or long, and 16 consonant bases, bare, long, aspirated,
    palatalised or both. The consonant bases start with first, by default
    "!", a consonant added to the segment table that sorts before the gap
    symbol. A variant keeps, drops, remarks or replaces each segment of
    its standard, and now and then inserts one."""
    table = SegmentTable({**TABLE.entries, first: ("C", False, False)})
    marks = {"V": ("", "ː"), "C": ("", "ː", "ʰ", "ʲ", "ʰʲ")}
    bases = {"V": "aeiouɛɔəɪʊyø", "C": first + "ptkbdgmnlrszfvx"}
    by_class = {k: [b + m for b in bases[k] for m in marks[k]] for k in "VC"}
    symbols = by_class["V"] + by_class["C"]
    rng = random.Random(seed)
    pairs = []
    for _ in range(120):
        standard = [rng.choice(by_class["CV"[i % 2]]) for i in range(rng.randint(2, 6))]
        for _ in range(4):
            variant = []
            for s in standard:
                r = rng.random()
                if r < 0.3:
                    s = s[0] + rng.choice(marks["V" if s[0] in bases["V"] else "C"])
                elif r < 0.35:
                    s = rng.choice(symbols)
                if r >= 0.08:  # else the segment is dropped
                    variant.append(s)
                if rng.random() < 0.05:
                    variant.append(rng.choice(symbols))
            words = (variant or standard, standard)
            pairs.append(tuple(tokenize("".join(w), table) for w in words))
    return pairs


# Induction sums over the observed symbols in symbol order, as the loop
# reference does; on a large alphabet holding "!", the gap's number 0 is
# not first in that order. The smoothed counts are multiples of 0.5, so
# every sum is exact whatever its order, and the table is the same, up to
# the name, with "q", which sorts after the gap, in the place of "!".
@pytest.mark.parametrize("constrained", [True, False], ids=["constrained", "free"])
def test_induce_distances_matches_loop_reference_on_a_large_alphabet(constrained):
    pairs = large_alphabet_pairs()
    symbols = {s.symbol for p in pairs for w in p for s in w}
    assert len(symbols) >= 100 and min(symbols) == "!" < GAP
    init = binary_cost_model(constrained)
    got = induce_distances(pairs, init)
    want = induce_distances_loop(pairs, init)
    assert got.dist == want.dist
    assert got.iterations_run == want.iterations_run
    assert got.converged == want.converged
    init = binary_cost_model(constrained)
    renamed = induce_distances(large_alphabet_pairs("q"), init)
    assert renamed.dist == {
        tuple(sorted(s.replace("!", "q") for s in key)): d
        for key, d in got.dist.items()
    }


# Induction sorts its distinct pairs so that neighbours share fill rows,
# and puts the results back by slot; the order of the pairs it is given
# changes neither the table nor when it stops.
@pytest.mark.parametrize("constrained", [True, False], ids=["constrained", "free"])
def test_induce_distances_ignores_the_order_of_its_pairs(tmp_path, constrained):
    _, pairs = mixed_corpus(tmp_path)
    shuffled = pairs[:]
    random.Random(5).shuffle(shuffled)
    got, want = (
        induce_distances(p, binary_cost_model(constrained)) for p in (shuffled, pairs)
    )
    assert got.dist == want.dist
    assert got.iterations_run == want.iterations_run
    assert got.converged == want.converged


# Induction numbers each distinct transcription once and reprices that
# numbering every iteration. A model whose numbering was primed in reverse
# order numbers the symbols, and so sorts the pairs, otherwise.
@pytest.mark.parametrize("constrained", [True, False], ids=["constrained", "free"])
def test_induce_distances_ignores_the_numbering_of_its_model(tmp_path, constrained):
    _, pairs = mixed_corpus(tmp_path)
    init = numbered_in_reverse(binary_cost_model(constrained))
    got = induce_distances(pairs, init)
    want = induce_distances(pairs, binary_cost_model(constrained))
    assert init.symbol[1 : len(ALPHABET) + 1] == list(reversed(ALPHABET))
    assert got.dist == want.dist
    assert got.iterations_run == want.iterations_run
    assert got.converged == want.converged


# Induction counts, prices and compares number pairs: it builds the one
# symbol-keyed table on return, and no iteration asks a table or the
# policy for a price, so more iterations make no more of these calls.
@pytest.mark.parametrize("constrained", [True, False], ids=["constrained", "free"])
def test_induction_iterations_make_no_symbol_calls(tmp_path, monkeypatch, constrained):
    _, pairs = mixed_corpus(tmp_path)
    calls = collections.Counter()

    def counted(name, f):
        def call(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return call

    allowed = costs.substitution_allowed
    monkeypatch.setattr(PmiTable, "__new__", counted("__new__", PmiTable.__new__))
    monkeypatch.setattr(PmiTable, "distance", counted("distance", PmiTable.distance))
    monkeypatch.setattr(costs, "substitution_allowed", counted("allowed", allowed))
    seen = []
    for max_iter in (1, 4):
        calls.clear()
        init = binary_cost_model(constrained)
        table = induce_distances(pairs, init, InductionOptions(max_iter))
        seen.append(dict(calls))
    assert table.iterations_run >= 3
    assert seen[0]["__new__"] == 1
    assert seen[0] == seen[1]


# A repriced model numbers every symbol and transcription as its source,
# and prices each pair of symbols as a new model of its table does.
@pytest.mark.parametrize("constrained", [True, False], ids=["constrained", "free"])
def test_a_repriced_model_keeps_its_sources_numbering(tmp_path, constrained):
    _, pairs = mixed_corpus(tmp_path)
    source = numbered_in_reverse(binary_cost_model(constrained))
    words = [w for p in pairs for w in p]
    numbered = [list(source.numbers(w)) for w in words]
    table = induce_distances(pairs, binary_cost_model(constrained), InductionOptions(2))
    n = source.number
    cm = source.repriced({(n[a], n[b]): d for (a, b), d in table.dist.items()})
    fresh = CostModel(table, constrained)
    assert cm.symbol == source.symbol
    assert cm.constrained == constrained
    assert [cm.numbers(w) for w in words] == numbered
    for w in words:
        fresh.numbers(w)
    for u, a in enumerate(cm.symbol):
        for v, b in enumerate(cm.symbol):
            assert cm.cost[u][v] == fresh.cost[fresh.number[a]][fresh.number[b]]


@SETTINGS
@given(words(5), words(5), words(5), DYADIC_COSTS)
def test_swapping_older_and_newer_swaps_conv_and_div(x, y, z, cm):
    al, swapped = align_triple(x, y, z, cm), align_triple(y, x, z, cm)
    assert swapped.total_cost == al.total_cost
    assert swapped.length == al.length
    # Among co-optimal alignments of equal length the traceback prefers
    # moves in MOVES order, which favours the first string, so the swapped
    # triple may take another optimum; conv and div swap exactly when it
    # takes the mirror image.
    mirror = tuple((y, x, z) for x, y, z in swapped.columns)
    if mirror == al.columns:
        conv, div = decompose(al, cm)
        assert decompose(swapped, cm) == (div, conv)


# Under dyadic tables every sum is exact, so the properties below hold
# with ==. An alignment keeps no column prices: each column is priced from
# the cost model's table by its numbers (table_prices), and each such
# price is checked against loop_dp's own pricing of the column's segments.
@SETTINGS
@given(words(5), words(5), DYADIC_COSTS)
@example(*tok("aaə", "ət"), UNIT)
@example(*tok("aəa", "ttaa"), UNIT)
def test_align_pair_is_a_longest_optimum_of_its_column_costs(a, b, cm):
    al = align_pair(a, b, cm)
    prices = table_prices(al, cm)
    assert al.total_cost == sum(prices)
    seg = segment_of(a, b)
    for (left, right), c in zip(as_symbols(al, cm).columns, prices):
        assert c == _pair_cost(cm, seg.get(left), seg.get(right))
    optima = enumerate_optimal(a, b, cm)
    assert al.total_cost == min(o.total_cost for o in optima)
    assert al.length == max(o.length for o in optima)


@SETTINGS
@given(words(5), words(5), words(5), DYADIC_COSTS)
def test_align_triple_total_is_the_sum_of_its_column_costs(x, y, z, cm):
    al = align_triple(x, y, z, cm)
    prices = table_prices(al, cm)
    assert al.total_cost == sum(prices)
    seg = segment_of(x, y, z)
    for col, c in zip(as_symbols(al, cm).columns, prices):
        assert c == column_cost(cm, *(seg.get(s) for s in col))


# directions reads the cost model's price table at the rows and columns
# that the alignment's numbers name; loop_dp prices the segments that
# those numbers stand for itself, from the distance table.
@SETTINGS
@given(words(5), words(5), words(5), DYADIC_COSTS)
@example(*tok("taat", "tta", "ət"), UNIT_REVERSED)
def test_directions_are_the_loop_prices_of_the_columns_segments(x, y, z, cm):
    al = align_triple(x, y, z, cm)
    seg = segment_of(x, y, z)
    want = []
    for older, newer, standard in as_symbols(al, cm).columns:
        older, newer, standard = seg.get(older), seg.get(newer), seg.get(standard)
        want.append(_pair_cost(cm, newer, standard) - _pair_cost(cm, older, standard))
    assert directions(al, cm) == want


@SETTINGS
@given(words(5), words(5), words(5), ANY_COSTS)
def test_decomposition_bounds_under_any_table(x, y, z, cm):
    al = align_triple(x, y, z, cm)
    assert all(-1.0 <= d <= 1.0 for d in directions(al, cm))
    conv, div = decompose(al, cm)
    assert conv >= 0 and div >= 0
    assert conv + div <= 1 + 1e-12
