"""Test oracles, loop references and test-only statistics for the 2D and
3D alignment DPs.

The loop references are the DPs as they were before the per-call
distance tables: they price every move of every lattice cell with
_pair_cost (via column_cost in 3D). _pair_cost prices a pair itself, from
substitution_allowed and the cost model's distance table, and never reads
the cost model's own price table. The arithmetic is the same, so the
package's align_pair and align_triple must return equal results once
as_symbols maps their number columns to the references' symbol columns
and prices each column from the cost model's table; the references price
it with _pair_cost. tests/test_dp_reference.py checks that. induce_distances_loop is PMI
induction over these references, aligning every pair on every iteration,
and symbol_distances_from_counts its count step over symbol pairs.
enumerate_optimal and brute_force_min_cost are exhaustive oracles for
short strings.
"""

import math
import random
from collections import Counter, namedtuple

from dialign.costs import FORBIDDEN, GAP, Alignment, CostModel, substitution_allowed
from dialign.errors import DialignError
from dialign.pairwise import align_pair
from dialign.phonetics import Segment
from dialign.pmi import InductionOptions, PmiTable, distances_from_counts

# The 3D moves as (dx, dy, dz), in the package traceback's tie order:
# one string first (older, then newer, then standard), then two (older
# and newer, older and standard, newer and standard), then all three.
MOVES = (
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 0),
    (1, 0, 1),
    (0, 1, 1),
    (1, 1, 1),
)


class CapExceeded(DialignError):
    pass


class ZeroLength(DialignError):
    pass


def _pair_cost(cm: CostModel, u: Segment | None, v: Segment | None) -> float:
    table = cm.distances
    if u is None and v is None:
        return 0.0
    if u is None:
        return table.distance(v.symbol, GAP)
    if v is None:
        return table.distance(u.symbol, GAP)
    if cm.constrained and not substitution_allowed(u, v):
        return FORBIDDEN
    return table.distance(u.symbol, v.symbol)


def column_cost(cm: CostModel, x, y, z) -> float:
    return _pair_cost(cm, x, y) + _pair_cost(cm, x, z) + _pair_cost(cm, y, z)


def _symbols(*segments) -> tuple[str, ...]:
    """An alignment column of segments, None for a gap, as symbols."""
    return tuple(GAP if s is None else s.symbol for s in segments)


class Priced(namedtuple("Priced", "columns costs total_cost")):
    """An alignment of symbol columns, GAP for a gap, with costs[i] the
    price of column i, as the references give it."""

    __slots__ = ()

    @property
    def length(self) -> int:
        return len(self.columns)


def table_prices(al: Alignment, cm: CostModel) -> tuple[float, ...]:
    """The price of each column of al, whose columns hold cm's numbers,
    read from cm's price table: C[u][v] for a pair column and the pair sum
    (C[u][v] + C[u][w]) + C[v][w] for a triple column, in the float order
    of the DPs' move prices."""
    C = cm.cost
    return tuple(
        C[col[0]][col[1]]
        if len(col) == 2
        else (C[col[0]][col[1]] + C[col[0]][col[2]]) + C[col[1]][col[2]]
        for col in al.columns
    )


def as_symbols(al: Alignment, cm: CostModel) -> Priced:
    """al, whose columns hold cm's numbers, with each number replaced by
    the symbol it stands for in cm, GAP for 0, and each column priced by
    table_prices, as the references give it."""
    symbol = cm.symbol
    columns = tuple(tuple(symbol[u] for u in col) for col in al.columns)
    return Priced(columns, table_prices(al, cm), al.total_cost)


def _alignment(pairs, total_cost: float) -> Priced:
    """The Priced alignment of (column, cost) pairs."""
    return Priced(
        tuple(col for col, _ in pairs), tuple(c for _, c in pairs), total_cost
    )


def align_pair_loop(sa, sb, cm) -> Priced:
    """Minimal-cost alignment of maximal length among the optima."""
    n, m = len(sa), len(sb)

    # cost[i][j]: minimal cost aligning sa[:i] with sb[:j];
    # alen[i][j]: maximal column count among minimal-cost alignments.
    cost = [[math.inf] * (m + 1) for _ in range(n + 1)]
    alen = [[0] * (m + 1) for _ in range(n + 1)]
    cost[0][0] = 0.0
    for i in range(1, n + 1):
        cost[i][0] = cost[i - 1][0] + _pair_cost(cm, sa[i - 1], None)
        alen[i][0] = i
    for j in range(1, m + 1):
        cost[0][j] = cost[0][j - 1] + _pair_cost(cm, None, sb[j - 1])
        alen[0][j] = j
    for i in range(1, n + 1):
        ca = cost[i - 1]
        cb = cost[i]
        for j in range(1, m + 1):
            best = ca[j] + _pair_cost(cm, sa[i - 1], None)
            blen = alen[i - 1][j] + 1
            c = cb[j - 1] + _pair_cost(cm, None, sb[j - 1])
            if c < best:
                best, blen = c, alen[i][j - 1] + 1
            elif c == best:
                blen = max(blen, alen[i][j - 1] + 1)
            c = ca[j - 1] + _pair_cost(cm, sa[i - 1], sb[j - 1])
            if c < best:
                best, blen = c, alen[i - 1][j - 1] + 1
            elif c == best:
                blen = max(blen, alen[i - 1][j - 1] + 1)
            cb[j] = best
            alen[i][j] = blen

    # Traceback, right-to-left; tie preference: del > ins > sub.
    columns = []
    i, j = n, m
    while i > 0 or j > 0:
        here_cost, here_len = cost[i][j], alen[i][j]
        if i > 0:
            c = _pair_cost(cm, sa[i - 1], None)
            if cost[i - 1][j] + c == here_cost and alen[i - 1][j] + 1 == here_len:
                columns.append((_symbols(sa[i - 1], None), c))
                i -= 1
                continue
        if j > 0:
            c = _pair_cost(cm, None, sb[j - 1])
            if cost[i][j - 1] + c == here_cost and alen[i][j - 1] + 1 == here_len:
                columns.append((_symbols(None, sb[j - 1]), c))
                j -= 1
                continue
        c = _pair_cost(cm, sa[i - 1], sb[j - 1])
        assert cost[i - 1][j - 1] + c == here_cost
        columns.append((_symbols(sa[i - 1], sb[j - 1]), c))
        i -= 1
        j -= 1
    columns.reverse()
    return _alignment(columns, cost[n][m])


def symbol_distances_from_counts(counts, smoothing: float) -> dict:
    """distances_from_counts over symbol pairs: it numbers the counts'
    symbols, 0 for the gap, and keys the distances by symbol again."""
    symbol = [GAP] + sorted({s for pair in counts for s in pair} - {GAP})
    number = {s: u for u, s in enumerate(symbol)}
    numbered = {(number[a], number[b]): c for (a, b), c in counts.items()}
    dist = distances_from_counts(numbered, smoothing, symbol)
    return {(symbol[u], symbol[v]): d for (u, v), d in dist.items()}


def induce_distances_loop(
    pairs, init: CostModel, opts: InductionOptions = InductionOptions()
) -> PmiTable:
    """Iterative PMI induction that aligns every pair, repeated or not,
    with align_pair_loop, and stops when an iteration gives the table of
    the one before it, or after opts.max_iter iterations."""
    cm, prev, dist, converged = init, None, {}, False
    for iterations in range(1, opts.max_iter + 1):
        aligned = [align_pair_loop(a, b, cm) for a, b in pairs]
        counts = Counter(col for al in aligned for col in al.columns)
        dist = symbol_distances_from_counts(counts, opts.smoothing)
        if dist == prev:
            converged = True
            break
        prev = dist
        cm = CostModel(PmiTable(dict(dist)), constrained=init.constrained)
    return PmiTable(dict(dist), iterations_run=iterations, converged=converged)


def align_triple_loop(sx, sy, sz, cm) -> Priced:
    """Minimal-cost three-string alignment, longest among the optima.

    The segment sequences are the older, newer and standard
    transcriptions, in that order.
    """
    nx, ny, nz = len(sx), len(sy), len(sz)

    inf = math.inf
    cost = [[[inf] * (nz + 1) for _ in range(ny + 1)] for _ in range(nx + 1)]
    alen = [[[0] * (nz + 1) for _ in range(ny + 1)] for _ in range(nx + 1)]
    cost[0][0][0] = 0.0

    for i in range(nx + 1):
        for j in range(ny + 1):
            row = cost[i][j]
            lrow = alen[i][j]
            for k in range(nz + 1):
                if i == j == k == 0:
                    continue
                best = inf
                blen = 0
                for dx, dy, dz in MOVES:
                    pi, pj, pk = i - dx, j - dy, k - dz
                    if pi < 0 or pj < 0 or pk < 0:
                        continue
                    prev = cost[pi][pj][pk]
                    if prev == inf:
                        continue
                    c = prev + column_cost(
                        cm,
                        sx[pi] if dx else None,
                        sy[pj] if dy else None,
                        sz[pk] if dz else None,
                    )
                    plen = alen[pi][pj][pk] + 1
                    if c < best or (c == best and plen > blen):
                        best, blen = c, plen
                row[k] = best
                lrow[k] = blen

    columns = []
    i, j, k = nx, ny, nz
    while i > 0 or j > 0 or k > 0:
        here_cost, here_len = cost[i][j][k], alen[i][j][k]
        for dx, dy, dz in MOVES:
            pi, pj, pk = i - dx, j - dy, k - dz
            if pi < 0 or pj < 0 or pk < 0:
                continue
            cx = sx[pi] if dx else None
            cy = sy[pj] if dy else None
            cz = sz[pk] if dz else None
            c = column_cost(cm, cx, cy, cz)
            if cost[pi][pj][pk] + c == here_cost and alen[pi][pj][pk] + 1 == here_len:
                columns.append((_symbols(cx, cy, cz), c))
                i, j, k = pi, pj, pk
                break
        else:  # pragma: no cover - DP guarantees a predecessor
            raise AssertionError("traceback found no consistent predecessor")
    columns.reverse()
    return _alignment(columns, cost[nx][ny][nz])


def enumerate_optimal(sa, sb, cm: CostModel, cap: int = 100_000) -> list[Priced]:
    """All minimal-cost alignments, by exhaustive enumeration.

    Test oracle for the longest-optimal-alignment rule; exponential, only
    usable on short strings. Raises CapExceeded if more than `cap` optimal
    alignments exist.
    """
    best_cost = math.inf
    optima: list[tuple] = []  # (column, cost) pairs of each optimum

    def walk(i, j, acc_cost, acc_cols):
        nonlocal best_cost, optima
        if acc_cost > best_cost:
            return
        if i == len(sa) and j == len(sb):
            if acc_cost < best_cost:
                best_cost = acc_cost
                optima = []
            if acc_cost == best_cost:
                optima.append(tuple(acc_cols))
                if len(optima) > cap:
                    raise CapExceeded(f"more than {cap} optimal alignments")
            return
        if i < len(sa):
            c = _pair_cost(cm, sa[i], None)
            acc_cols.append((_symbols(sa[i], None), c))
            walk(i + 1, j, acc_cost + c, acc_cols)
            acc_cols.pop()
        if j < len(sb):
            c = _pair_cost(cm, None, sb[j])
            acc_cols.append((_symbols(None, sb[j]), c))
            walk(i, j + 1, acc_cost + c, acc_cols)
            acc_cols.pop()
        if i < len(sa) and j < len(sb):
            c = _pair_cost(cm, sa[i], sb[j])
            if c < math.inf:
                acc_cols.append((_symbols(sa[i], sb[j]), c))
                walk(i + 1, j + 1, acc_cost + c, acc_cols)
                acc_cols.pop()

    walk(0, 0, 0.0, [])
    return [_alignment(cols, best_cost) for cols in optima]


def brute_force_min_cost(sx, sy, sz, cm: CostModel) -> float:
    """Exhaustive minimum over all three-string alignments (test oracle)."""
    cache: dict[tuple[int, int, int], float] = {}

    def rec(i, j, k) -> float:
        if i == len(sx) and j == len(sy) and k == len(sz):
            return 0.0
        key = (i, j, k)
        if key in cache:
            return cache[key]
        best = math.inf
        for dx, dy, dz in MOVES:
            ni, nj, nk = i + dx, j + dy, k + dz
            if ni > len(sx) or nj > len(sy) or nk > len(sz):
                continue
            c = column_cost(
                cm,
                sx[i] if dx else None,
                sy[j] if dy else None,
                sz[k] if dz else None,
            )
            best = min(best, c + rec(ni, nj, nk))
        cache[key] = best
        return best

    return rec(0, 0, 0)


def normalized_distance(al) -> float:
    """Total cost divided by the alignment length (longest optimal)."""
    if al.length == 0:
        raise ZeroLength("cannot normalize an empty alignment")
    return al.total_cost / al.length


def double_pairwise_delta(x, y, z, cm: CostModel) -> float:
    """Validation statistic: normalized 2D distance of (newer, standard)
    minus that of (older, standard)."""
    return normalized_distance(align_pair(y, z, cm)) - normalized_distance(
        align_pair(x, z, cm)
    )


def make_vowel_shift_pairs(seed: int = 3, n_frequent: int = 200, n_rare: int = 5):
    """Pair corpus where [i]~[ɪ] co-occurs n_frequent/n_rare times more
    often than [i]~[u]; raw string pairs for PMI sanity checks."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(n_frequent):
        frame = "".join(rng.choice("ptksmn") for _ in range(2))
        pairs.append((frame[0] + "i" + frame[1], frame[0] + "ɪ" + frame[1]))
    for _ in range(n_rare):
        frame = "".join(rng.choice("ptksmn") for _ in range(2))
        pairs.append((frame[0] + "i" + frame[1], frame[0] + "u" + frame[1]))
    return pairs
