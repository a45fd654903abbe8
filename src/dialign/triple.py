"""Three-string alignment of (older, newer, standard) transcriptions.

The cubic-lattice DP uses seven column operations: advance any one
string, any two, or all three; their order in MOVES matters only to the
traceback. Column cost is the sum of the three pairwise distances, with
gap-gap pairs costing 0 and segment-gap pairs priced at the segment's
gap distance. Per-column direction of change is distance(newer,
standard) - distance(older, standard): positive means divergence from
the standard, negative convergence towards it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .costs import GAP, Alignment, CostModel
from .pairwise import fill

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


@dataclass(frozen=True)
class ChangeRecord:
    location: str
    word: str
    conv: float
    div: float
    alignment_length: int


def align_triple(sx, sy, sz, cm: CostModel) -> Alignment:
    """Minimal-cost three-string alignment, longest among the optima.

    The segment sequences are the older, newer and standard
    transcriptions, in that order.
    """
    nx, ny, nz = len(sx), len(sy), len(sz)

    # Each pair price is read from the cost model once per call.
    C = cm.cost
    ux, uy, uz = cm.numbers(sx), cm.numbers(sy), cm.numbers(sz)

    def column(u, v, w) -> float:
        """Cost of a column of segment numbers u, v, w (0 for a gap): the
        pair sum (p_xy + p_xz) + p_yz, in that float order."""
        return (C[u][v] + C[u][w]) + C[v][w]

    # Column costs of the moves that advance one or two strings, and the
    # pair prices of the move that advances all three.
    c_x = [column(u, 0, 0) for u in ux]
    c_y = [column(0, v, 0) for v in uy]
    c_z = [column(0, 0, w) for w in uz]
    c_xy = [[column(u, v, 0) for v in uy] for u in ux]
    c_xz = [[column(u, 0, w) for w in uz] for u in ux]
    c_yz = [[column(0, v, w) for w in uz] for v in uy]
    dxy = [[C[u][v] for v in uy] for u in ux]
    dxz = [[C[u][w] for w in uz] for u in ux]
    dyz = [[C[v][w] for w in uz] for v in uy]

    # The faces i = 0, j = 0 and k = 0 are the 2D lattices of the other two
    # strings. A cell keeps the cheapest candidate, and the longest among
    # those, so its value is the same whatever order they are tried in.
    face_i, len_i = fill(c_y, c_z, c_yz)  # cost[0][j][k]
    face_j, len_j = fill(c_x, c_z, c_xz)  # cost[i][0][k]
    face_k, len_k = fill(c_x, c_y, c_xy)  # cost[i][j][0]
    cost, alen = [face_i], [len_i]
    for i in range(1, nx + 1):
        cost.append([face_j[i]] + [[c] + [0.0] * nz for c in face_k[i][1:]])
        alen.append([len_j[i]] + [[n] + [0] * nz for n in len_k[i][1:]])

    # Every move is open in the interior; the first, (1, 0, 0), starts the
    # comparison. The moves are unrolled (about 3x faster than looping over
    # MOVES); each row is named by the move that reads it.
    for i in range(1, nx + 1):
        cx, cxz, dxz_i = c_x[i - 1], c_xz[i - 1], dxz[i - 1]
        for j in range(1, ny + 1):
            r_z, l_z = cost[i][j], alen[i][j]
            r_x, l_x = cost[i - 1][j], alen[i - 1][j]
            r_y, l_y = cost[i][j - 1], alen[i][j - 1]
            r_xy, l_xy = cost[i - 1][j - 1], alen[i - 1][j - 1]
            cy, cyz, dyz_j = c_y[j - 1], c_yz[j - 1], dyz[j - 1]
            cxy, dxy_ij = c_xy[i - 1][j - 1], dxy[i - 1][j - 1]
            for k in range(1, nz + 1):
                best, blen = r_x[k] + cx, l_x[k] + 1  # (1, 0, 0)
                c, n = r_y[k] + cy, l_y[k] + 1  # (0, 1, 0)
                if c < best or (c == best and n > blen):
                    best, blen = c, n
                c, n = r_z[k - 1] + c_z[k - 1], l_z[k - 1] + 1  # (0, 0, 1)
                if c < best or (c == best and n > blen):
                    best, blen = c, n
                c, n = r_xy[k] + cxy, l_xy[k] + 1  # (1, 1, 0)
                if c < best or (c == best and n > blen):
                    best, blen = c, n
                c, n = r_x[k - 1] + cxz[k - 1], l_x[k - 1] + 1  # (1, 0, 1)
                if c < best or (c == best and n > blen):
                    best, blen = c, n
                c, n = r_y[k - 1] + cyz[k - 1], l_y[k - 1] + 1  # (0, 1, 1)
                if c < best or (c == best and n > blen):
                    best, blen = c, n
                c = r_xy[k - 1] + ((dxy_ij + dxz_i[k - 1]) + dyz_j[k - 1])  # (1, 1, 1)
                n = l_xy[k - 1] + 1
                if c < best or (c == best and n > blen):
                    best, blen = c, n
                r_z[k] = best
                l_z[k] = blen

    columns, costs = [], []
    i, j, k = nx, ny, nz
    while i > 0 or j > 0 or k > 0:
        here_cost, here_len = cost[i][j][k], alen[i][j][k]
        for dx, dy, dz in MOVES:
            pi, pj, pk = i - dx, j - dy, k - dz
            if pi < 0 or pj < 0 or pk < 0:
                continue
            c = column(ux[pi] if dx else 0, uy[pj] if dy else 0, uz[pk] if dz else 0)
            if cost[pi][pj][pk] + c == here_cost and alen[pi][pj][pk] + 1 == here_len:
                columns.append(
                    (
                        sx[pi].symbol if dx else GAP,
                        sy[pj].symbol if dy else GAP,
                        sz[pk].symbol if dz else GAP,
                    )
                )
                costs.append(c)
                i, j, k = pi, pj, pk
                break
        else:  # pragma: no cover - DP guarantees a predecessor
            raise AssertionError("traceback found no consistent predecessor")
    return Alignment(tuple(columns[::-1]), tuple(costs[::-1]), cost[nx][ny][nz])


def directions(al: Alignment, cm: CostModel) -> list[float]:
    """price(newer, standard) - price(older, standard) for each column of a
    triple alignment. cm must have numbered the alignment's symbols, as the
    model that aligned it has. No optimal alignment holds a FORBIDDEN
    pair: all-indel paths cost less."""
    n, C = cm.number, cm.cost
    return [C[n[y]][n[z]] - C[n[x]][n[z]] for x, y, z in al.columns]


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
