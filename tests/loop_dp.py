"""Loop references for the 2D and 3D alignment DPs.

These are the DPs as they were before the per-call distance tables: they
call CostModel.subst/indel (via column_cost in 3D) for every move of every
lattice cell. The arithmetic is the same, so the package's align_pair and
align_triple must return equal results; tests/test_dp_reference.py checks
that.
"""

import math

from dialign.pairwise import AlignmentColumn, PairAlignment, _segments
from dialign.triple import (
    MOVES,
    TripleAlignment,
    TripleColumn,
    _check_roles,
    column_cost,
)


def align_pair_loop(a, b, cm) -> PairAlignment:
    """Minimal-cost alignment of maximal length among the optima."""
    sa, sb = _segments(a), _segments(b)
    n, m = len(sa), len(sb)

    # cost[i][j]: minimal cost aligning sa[:i] with sb[:j];
    # alen[i][j]: maximal column count among minimal-cost alignments.
    cost = [[math.inf] * (m + 1) for _ in range(n + 1)]
    alen = [[0] * (m + 1) for _ in range(n + 1)]
    cost[0][0] = 0.0
    for i in range(1, n + 1):
        cost[i][0] = cost[i - 1][0] + cm.indel(sa[i - 1])
        alen[i][0] = i
    for j in range(1, m + 1):
        cost[0][j] = cost[0][j - 1] + cm.indel(sb[j - 1])
        alen[0][j] = j
    for i in range(1, n + 1):
        ca = cost[i - 1]
        cb = cost[i]
        for j in range(1, m + 1):
            best = ca[j] + cm.indel(sa[i - 1])
            blen = alen[i - 1][j] + 1
            c = cb[j - 1] + cm.indel(sb[j - 1])
            if c < best:
                best, blen = c, alen[i][j - 1] + 1
            elif c == best:
                blen = max(blen, alen[i][j - 1] + 1)
            c = ca[j - 1] + cm.subst(sa[i - 1], sb[j - 1])
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
            c = cm.indel(sa[i - 1])
            if cost[i - 1][j] + c == here_cost and alen[i - 1][j] + 1 == here_len:
                columns.append(AlignmentColumn(sa[i - 1], None, "del", c))
                i -= 1
                continue
        if j > 0:
            c = cm.indel(sb[j - 1])
            if cost[i][j - 1] + c == here_cost and alen[i][j - 1] + 1 == here_len:
                columns.append(AlignmentColumn(None, sb[j - 1], "ins", c))
                j -= 1
                continue
        c = cm.subst(sa[i - 1], sb[j - 1])
        assert cost[i - 1][j - 1] + c == here_cost
        op = "match" if sa[i - 1].symbol == sb[j - 1].symbol else "sub"
        columns.append(AlignmentColumn(sa[i - 1], sb[j - 1], op, c))
        i -= 1
        j -= 1
    columns.reverse()
    return PairAlignment(tuple(columns), cost[n][m])


def align_triple_loop(x, y, z, cm) -> TripleAlignment:
    """Minimal-cost three-string alignment, longest among the optima.

    x must be the older variant, y the newer, z the standard; transcription
    sources are checked when present.
    """
    _check_roles(x, y, z)
    sx, sy, sz = _segments(x), _segments(y), _segments(z)
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
                columns.append(TripleColumn(cx, cy, cz, c))
                i, j, k = pi, pj, pk
                break
        else:  # pragma: no cover - DP guarantees a predecessor
            raise AssertionError("traceback found no consistent predecessor")
    columns.reverse()
    return TripleAlignment(tuple(columns), cost[nx][ny][nz])
