"""Two-string weighted Levenshtein alignment.

The DP minimizes total cost and, among minimal-cost alignments, maximizes
the column count (the normalization denominator is the length of the
longest optimal alignment). Traceback is deterministic: when costs tie,
deletion is preferred over insertion over substitution, applied
right-to-left.
"""

from __future__ import annotations

import math

from .costs import GAP, Alignment, CostModel


def fill(ga, gb, sub):
    """The cost and length tables of the 2D lattice of strings a and b, from
    their segments' gap prices ga, gb and substitution prices sub[i][j]."""
    n, m = len(ga), len(gb)

    # cost[i][j]: minimal cost aligning a[:i] with b[:j];
    # alen[i][j]: maximal column count among minimal-cost alignments.
    cost = [[math.inf] * (m + 1) for _ in range(n + 1)]
    alen = [[0] * (m + 1) for _ in range(n + 1)]
    cost[0][0] = 0.0
    for i in range(1, n + 1):
        cost[i][0] = cost[i - 1][0] + ga[i - 1]
        alen[i][0] = i
    for j in range(1, m + 1):
        cost[0][j] = cost[0][j - 1] + gb[j - 1]
        alen[0][j] = j
    for i in range(1, n + 1):
        ca, cb = cost[i - 1], cost[i]
        la, lb = alen[i - 1], alen[i]
        g, sub_i = ga[i - 1], sub[i - 1]
        for j in range(1, m + 1):
            best = ca[j] + g
            blen = la[j] + 1
            c = cb[j - 1] + gb[j - 1]
            if c < best:
                best, blen = c, lb[j - 1] + 1
            elif c == best and lb[j - 1] >= blen:
                blen = lb[j - 1] + 1
            c = ca[j - 1] + sub_i[j - 1]
            if c < best:
                best, blen = c, la[j - 1] + 1
            elif c == best and la[j - 1] >= blen:
                blen = la[j - 1] + 1
            cb[j] = best
            lb[j] = blen
    return cost, alen


def align_pair(sa, sb, cm: CostModel) -> Alignment:
    """Minimal-cost alignment of maximal length among the optima of two
    segment sequences."""
    n, m = len(sa), len(sb)

    # Each pair price is read from the cost model once per call.
    na, nb = cm.numbers(sa), cm.numbers(sb)
    rows = [cm.cost[u] for u in na]
    ga = [r[0] for r in rows]
    gb = [cm.cost[0][v] for v in nb]
    sub = [[r[v] for v in nb] for r in rows]
    cost, alen = fill(ga, gb, sub)

    # Traceback, right-to-left; tie preference: del > ins > sub.
    columns, costs = [], []
    i, j = n, m
    while i > 0 or j > 0:
        here_cost, here_len = cost[i][j], alen[i][j]
        if i > 0:
            c = ga[i - 1]
            if cost[i - 1][j] + c == here_cost and alen[i - 1][j] + 1 == here_len:
                columns.append((sa[i - 1].symbol, GAP))
                costs.append(c)
                i -= 1
                continue
        if j > 0:
            c = gb[j - 1]
            if cost[i][j - 1] + c == here_cost and alen[i][j - 1] + 1 == here_len:
                columns.append((GAP, sb[j - 1].symbol))
                costs.append(c)
                j -= 1
                continue
        c = sub[i - 1][j - 1]
        assert cost[i - 1][j - 1] + c == here_cost
        columns.append((sa[i - 1].symbol, sb[j - 1].symbol))
        costs.append(c)
        i -= 1
        j -= 1
    return Alignment(tuple(columns[::-1]), tuple(costs[::-1]), cost[n][m])
