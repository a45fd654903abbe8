"""Three-string alignment of (older, newer, standard) transcriptions.

The cubic-lattice DP uses seven column operations: advance any one
string, any two, or all three; their order in MOVES matters only to the
traceback. Column cost is the sum of the three pairwise distances, with
gap-gap pairs costing 0 and segment-gap pairs priced at the segment's
gap distance; so bounds from the three pairwise lattices (Carrillo and
Lipman 1988) show which cells an optimal alignment can pass through,
and the DP fills only those, with costs only; where moves tie, the
traceback counts lengths with pairwise.longest. Each pair's lattice is
filled forward once. The first sweep's bounds mark the nodes of each
pair's alignments within EPS of its optimum (near_optimal); only if it
misses the sum of the pairwise optima are the reversed lattices filled
for the true bounds (through) of a second. Where two strings are
equal and their symbols price 0 against themselves and more than EPS
against the gap, the bound is met exactly with the two in lockstep, so
one 2D alignment of the third string with them, each price doubled, is
the triple's, and no 3D lattice is filled. Columns hold the cost
model's numbers, 0 for a gap. Per-column direction of change is
distance(newer, standard) - distance(older, standard): positive means
divergence from the standard, negative convergence towards it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import zip_longest
from operator import add

from .costs import Alignment, CostModel
from .pairwise import align_numbers, fill, longest, trace

# Moves as (dx, dy, dz) in frozen traceback preference order: single-string
# advances first (x, then y, then z), then pairs, then all three.
MOVES = (
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 0),
    (1, 0, 1),
    (0, 1, 1),
    (1, 1, 1),
)

# Slack of the pruning bound, far above the float error of summing it in
# another order than the DP sums the costs.
EPS = 1e-9


ChangeRecord = namedtuple("ChangeRecord", "location word conv div alignment_length")


def through(fwd, ua, ub, C):
    """The least cost of an alignment of strings numbered ua and ub in the
    price table C through each node (i, j) of their 2D lattice: the cost
    to the node in their fill's cost table fwd plus the reversed strings'
    fill's cost from it."""
    bwd = fill(ua[::-1], ub[::-1], C)
    return [list(map(add, f, reversed(b))) for f, b in zip(fwd, reversed(bwd))]


def near_optimal(cost, ua, ub, C):
    """A bound table of the 2D lattice of strings numbered ua and ub in the
    price table C, from their fill's cost table: the optimum at each node
    that a walk back from the end node reaches over moves tight within
    EPS, whose start's cost plus price is at most the end's cost plus EPS,
    and inf at every other node. The moves of an alignment that costs at
    most EPS more than the optimum miss by at most EPS in all, so the walk
    reaches each of its nodes."""
    n, m, gap, inf = len(ua), len(ub), C[0], math.inf
    table = [[inf] * (m + 1) for _ in range(n + 1)]
    table[n][m] = opt = cost[n][m]
    stack = [(n, m)]
    while stack:
        i, j = stack.pop()
        most, a, b = cost[i][j] + EPS, i - 1, j - 1
        if i and table[a][j] == inf and cost[a][j] + gap[ua[a]] <= most:
            table[a][j] = opt
            stack.append((a, j))
        if j and table[i][b] == inf and cost[i][b] + gap[ub[b]] <= most:
            table[i][b] = opt
            stack.append((i, b))
        if i and j and table[a][b] == inf and cost[a][b] + C[ua[a]][ub[b]] <= most:
            table[a][b] = opt
            stack.append((a, b))
    return table


def price(C, u, v, w) -> float:
    """A column's sum-of-pairs price in C, 0 for a gap, in the float order
    of every 3D move's price and of a lockstep column's doubled 2D price."""
    return (C[u][v] + C[u][w]) + C[v][w]


def star(ux, uy, uz, C, fxz, fyz):
    """The star alignment of strings x and y through the standard z, from
    their numbers in the price table C and the fill tables fxz and fyz of
    the (x, z) and (y, z) lattices: its columns (u, v, w) of x, y and z
    numbers, 0 for a gap, and its sum-of-pairs cost. It joins through z
    the (x, z) and (y, z) alignments that pairwise.trace takes; x and y
    segments aligned to gaps between the same two z segments share
    columns. A column that holds an x and a y segment is split in two, x's
    part and y's, where that costs less, as it does where the pair is
    forbidden. Each column is priced by price. It is a feasible alignment,
    so its cost is at least the optimum."""

    def by_z(pairs):
        """For slot 0 and each z segment: 0 or the number aligned with the
        segment, then the numbers aligned to gaps right after it."""
        slots = [[0]]
        for u, w in pairs:
            if w:
                slots.append([u])
            else:
                slots[-1].append(u)
        return slots

    sx = by_z(trace(fxz, ux, uz, C))
    sy = by_z(trace(fyz, uy, uz, C))
    joined = []
    for (u, *run_x), (v, *run_y), w in zip(sx, sy, [0, *uz]):
        if w:
            joined.append((u, v, w))
        joined += ((a, b, 0) for a, b in zip_longest(run_x, run_y, fillvalue=0))
    columns = []
    for u, v, w in joined:
        if u and v and price(C, u, 0, w) + price(C, 0, v, 0) < price(C, u, v, w):
            columns += ((u, 0, w), (0, v, 0))
        else:
            columns.append((u, v, w))
    return columns, sum(price(C, *col) for col in columns)


def lockstep(ux, uy, uz, cm: CostModel):
    """The alignment of a triple of strings numbered ux, uy and uz in cm,
    of which two are equal, by one 2D alignment of the third string with
    them, or None if no two strings are equal or some symbol of theirs
    does not price 0 against itself and more than EPS against the gap.
    roles puts each 2D column's numbers, the third's and the equal two's,
    in place."""
    if ux == uy:
        third, same, roles = uz, ux, lambda a, b: (b, b, a)
    elif ux == uz:
        third, same, roles = uy, ux, lambda a, b: (b, a, b)
    elif uy == uz:
        third, same, roles = ux, uy, lambda a, b: (a, b, b)
    else:
        return None
    C = cm.cost
    if not all(C[u][u] == 0.0 and C[u][0] > EPS for u in same):
        return None
    al = align_numbers(third, same, cm)
    return Alignment(
        tuple(roles(a, b) for a, b in al.columns), al.total_cost + al.total_cost
    )


def align_triple(sx, sy, sz, cm: CostModel) -> Alignment:
    """Minimal-cost three-string alignment, longest among the optima.

    The segment sequences are the older, newer and standard
    transcriptions, in that order.
    """
    nx, ny, nz = len(sx), len(sy), len(sz)
    inf = math.inf

    C = cm.cost
    ux, uy, uz = cm.numbers(sx), cm.numbers(sy), cm.numbers(sz)

    # Prices are at least 0. Where two strings are equal and each symbol of
    # theirs prices 0 against itself and more than EPS against the gap,
    # the triple's optimum is its bound, twice the third string's pair
    # optimum, met only with the equal two in lockstep: any other alignment
    # gaps each of them, at least 2 * EPS more, far above float error. A
    # lockstep move costs p + p (and a 0.0), exactly twice its 2D price p;
    # with the third string first, 2D del > ins > sub is MOVES order. So
    # the sweep would trace the lockstep image of the 2D alignment.
    paired = lockstep(ux, uy, uz, cm)
    if paired is not None:
        return paired

    # The sweep's pair prices are read from the cost model once per call.
    pxy = [[C[u][v] for v in uy] for u in ux]
    pxz = [[C[u][w] for w in uz] for u in ux]
    pyz = [[C[v][w] for w in uz] for v in uy]
    gx, gy, gz = ([C[u][0] for u in us] for us in (ux, uy, uz))

    # Each pair's lattice is filled forward once; the bound tables of both
    # sweeps and the star alignment read these fills.
    fxy, fxz, fyz = fill(ux, uy, C), fill(ux, uz, C), fill(uy, uz, C)
    pairs = ((ux, uy, fxy), (ux, uz, fxz), (uy, uz, fyz))

    def padded(rows, m):
        """The rows, each and the list of them with a trailing inf."""
        return [r + [inf] for r in rows] + [[inf] * (m + 1)]

    # Column costs of the moves that advance one or two strings, each the
    # pair sum (p_xy + p_xz) + p_yz in that float order (a gap-gap price
    # adds 0.0, which changes nothing), and the pair prices of the move that
    # advances all three; the sweep and the traceback both read them. Every
    # list, row, row list and plane ends with an inf that index -1 reads, so
    # a move from outside the lattice costs inf, with no boundary test.
    c_x, c_y, c_z = ([g + g for g in gs] + [inf] for gs in (gx, gy, gz))
    c_xy = padded([[(p + g) + h for p, h in zip(r, gy)] for r, g in zip(pxy, gx)], ny)
    c_xz = padded([[(g + p) + h for p, h in zip(r, gz)] for r, g in zip(pxz, gx)], nz)
    c_yz = padded([[(g + h) + p for p, h in zip(r, gz)] for r, g in zip(pyz, gy)], nz)
    dxy, dxz, dyz = padded(pxy, ny), padded(pxz, nz), padded(pyz, nz)
    all_k = range(nz + 1)

    def sweep(limit, bxy, bxz, byz):
        """The cost table of the lattice, filled at the cells (i, j, k)
        whose bound bxy[i][j] + bxz[i][k] + byz[j][k] is at most limit;
        every other cell holds inf."""
        # No cell (i, j, k) has a bound below bxy[i][j] + mxz[i] + myz[j].
        mxz, myz = [min(r) for r in bxz], [min(r) for r in byz]
        inf_row = [inf] * (nz + 2)  # never written
        cost = [[inf_row] * (ny + 2) for _ in range(nx + 2)]
        cost[0][0] = [0.0] + [inf] * (nz + 1)
        for i in range(nx + 1):
            cost_i, bxz_i, mxz_i = cost[i], bxz[i], mxz[i]
            cx, cxz, dxz_i = c_x[i - 1], c_xz[i - 1], dxz[i - 1]
            for j in range(ny + 1):
                rest = limit - bxy[i][j]
                if mxz_i + myz[j] > rest:
                    continue
                byz_j = byz[j]
                ks = [k for k in all_k if bxz_i[k] + byz_j[k] <= rest]
                if not ks:
                    continue
                if i or j:
                    r_z = cost_i[j] = [inf] * (nz + 2)
                else:  # the origin keeps its 0
                    r_z = cost_i[j]
                    ks = [k for k in ks if k]
                r_x, r_y, r_xy = cost[i - 1][j], cost_i[j - 1], cost[i - 1][j - 1]
                cy, cyz, dyz_j = c_y[j - 1], c_yz[j - 1], dyz[j - 1]
                cxy, dxy_ij = c_xy[i - 1][j - 1], dxy[i - 1][j - 1]
                # The moves are unrolled (about 3x faster than looping over
                # MOVES); each row is named by the move that reads it.
                for k in ks:
                    best = r_x[k] + cx  # (1, 0, 0)
                    c = r_y[k] + cy  # (0, 1, 0)
                    if c < best:
                        best = c
                    c = r_z[k - 1] + c_z[k - 1]  # (0, 0, 1)
                    if c < best:
                        best = c
                    c = r_xy[k] + cxy  # (1, 1, 0)
                    if c < best:
                        best = c
                    c = r_x[k - 1] + cxz[k - 1]  # (1, 0, 1)
                    if c < best:
                        best = c
                    c = r_y[k - 1] + cyz[k - 1]  # (0, 1, 1)
                    if c < best:
                        best = c
                    c = r_xy[k - 1] + ((dxy_ij + dxz_i[k - 1]) + dyz_j[k - 1])
                    if c < best:  # (1, 1, 1)
                        best = c
                    r_z[k] = best
        return cost

    # Every cell of an optimal alignment, and of every optimal prefix of
    # one, is filled by the sweep that is kept, which therefore gives those
    # cells their full-lattice cost; so the tight moves into them, which
    # start at such cells too, are those of the full lattice: the traceback
    # and the length count take the same moves and never step into a
    # pruned cell, which holds inf. Extra cells change nothing. The first
    # sweep's bounds are near_optimal's tables, and its limit is the sum of
    # the pairwise optima, at most the optimum. If the cost found is within
    # EPS / 2 of that sum, so is the optimum, and each pair's projection of
    # an optimal alignment costs at most EPS / 2 more than its optimum: the
    # walk reached its nodes, and the sweep filled the alignment's cells.
    # Otherwise the bounds are the through costs, at most the cost of any
    # alignment through a cell, and the second limit is the cost found, or,
    # if no path survived, the cost of the star alignment; each is the cost
    # of a feasible alignment, so at least the optimum. EPS covers the
    # bounds' other float summation order.
    limit = fxy[nx][ny] + fxz[nx][nz] + fyz[ny][nz] + EPS
    cost = sweep(limit, *(near_optimal(f, ua, ub, C) for ua, ub, f in pairs))
    found = cost[nx][ny][nz]
    if found + EPS / 2 > limit:  # half of EPS is left for the bounds' rounding
        if found == inf:
            found = star(ux, uy, uz, C, fxz, fyz)[1]
        bounds = (through(f, ua, ub, C) for ua, ub, f in pairs)
        cost = sweep(found + EPS, *bounds)  # inf + EPS is inf

    def tight(node):
        """The starts of the tight moves into a cell, in MOVES order; a
        move from a pruned or outside cell is never tight. Each start's
        cost plus price is summed as the sweep sums it."""
        i, j, k = node
        a, b, h = i - 1, j - 1, k - 1
        r_x, r_y, r_xy, r_z = cost[a][j], cost[i][b], cost[a][b], cost[i][j]
        here, out = r_z[k], []
        if r_x[k] + c_x[a] == here:
            out.append((a, j, k))
        if r_y[k] + c_y[b] == here:
            out.append((i, b, k))
        if r_z[h] + c_z[h] == here:
            out.append((i, j, h))
        if r_xy[k] + c_xy[a][b] == here:
            out.append((a, b, k))
        if r_x[h] + c_xz[a][h] == here:
            out.append((a, j, h))
        if r_y[h] + c_yz[b][h] == here:
            out.append((i, b, h))
        if r_xy[h] + ((dxy[a][b] + dxz[a][h]) + dyz[b][h]) == here:
            out.append((a, b, h))
        return out

    # Traceback. Where several moves are tight, take the first in MOVES
    # order that keeps the alignment longest.
    columns, memo = [], {(0, 0, 0): 0}
    node = (nx, ny, nz)
    while any(node):
        starts = tight(node)
        start = starts[0]
        if len(starts) > 1:
            want = longest(node, tight, memo) - 1
            start = next(s for s in starts if memo[s] == want)
        strings = zip((ux, uy, uz), start, node)
        columns.append(tuple(us[p] if p < q else 0 for us, p, q in strings))
        node = start
    return Alignment(tuple(columns[::-1]), cost[nx][ny][nz])


def directions(al: Alignment, cm: CostModel) -> list[float]:
    """price(newer, standard) - price(older, standard) for each column of a
    triple alignment made under cm, whose numbers its columns hold. No
    optimal alignment holds a FORBIDDEN pair: all-indel paths cost less."""
    C = cm.cost
    return [C[v][w] - C[u][w] for u, v, w in al.columns]


def decompose(al: Alignment, cm: CostModel) -> tuple[float, float]:
    """Convergence and divergence proportions of a triple alignment.

    Convergent column magnitudes and divergent column magnitudes are
    summed separately, each divided by the alignment length. Neutral and
    stable columns contribute to neither.
    """
    if al.length == 0:
        return 0.0, 0.0
    conv = div = 0.0
    for d in directions(al, cm):
        if d < 0:
            conv -= d
        else:
            div += d
    return conv / al.length, div / al.length
