"""Two-string weighted Levenshtein alignment.

The DP minimizes total cost and, among minimal-cost alignments, maximizes
the column count (the normalization denominator is the length of the
longest optimal alignment). The fill computes costs only; lengths are
counted in the traceback, and only where costs tie. Traceback is
deterministic: when costs tie, deletion is preferred over insertion over
substitution, applied right-to-left, among the moves that keep the
alignment longest.
"""

from __future__ import annotations

from .costs import GAP, Alignment, CostModel


def fill(ga, gb, sub):
    """The cost table of the 2D lattice of strings a and b, from their
    segments' gap prices ga, gb and substitution prices sub[i][j]:
    cost[i][j] is the least cost of aligning a[:i] with b[:j]."""
    row = [0.0]
    for h in gb:
        row.append(row[-1] + h)
    cost = [row]
    for g, sub_i in zip(ga, sub):
        up, left = row, row[0] + g
        row = [left]
        for j, h in enumerate(gb):  # deletion, insertion, substitution
            best = up[j + 1] + g
            c = left + h
            if c < best:
                best = c
            c = up[j] + sub_i[j]
            if c < best:
                best = c
            row.append(best)
            left = best
        cost.append(row)
    return cost


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
    cost = fill(ga, gb, sub)

    # longest[i][j]: the column count of the longest optimal alignment of
    # a[:i] with b[:j], the longest path of tight moves to the node (a move
    # is tight if its start's cost plus its price, summed as the fill sums
    # them, is the node's cost). Lengths are counted only where the
    # traceback meets a tie, over the tight moves into that node, with an
    # explicit stack; the table is made at the first tie.
    longest = []

    def count(i, j):
        """Fill longest at node (i, j) and every node a tight move into it
        comes from."""
        if not longest:
            longest.extend([r] + [None] * m for r in range(n + 1))
            longest[0] = list(range(m + 1))
        stack = [(i, j)]
        while stack:
            i, j = stack[-1]
            if longest[i][j] is not None:
                stack.pop()
                continue
            here, up, row = cost[i][j], cost[i - 1], cost[i]
            best, size = -1, len(stack)
            # The three moves are unrolled: del, ins, sub.
            if up[j] + ga[i - 1] == here:
                got = longest[i - 1][j]
                if got is None:
                    stack.append((i - 1, j))
                elif got > best:
                    best = got
            if row[j - 1] + gb[j - 1] == here:
                got = longest[i][j - 1]
                if got is None:
                    stack.append((i, j - 1))
                elif got > best:
                    best = got
            if up[j - 1] + sub[i - 1][j - 1] == here:
                got = longest[i - 1][j - 1]
                if got is None:
                    stack.append((i - 1, j - 1))
                elif got > best:
                    best = got
            if len(stack) == size:  # every tight predecessor is counted
                longest[i][j] = best + 1
                stack.pop()

    # Traceback, right-to-left. Where several moves are tight, take the
    # first in del > ins > sub order that keeps the alignment longest.
    columns, costs = [], []
    i, j = n, m
    while i > 0 or j > 0:
        here, tight = cost[i][j], []
        if i and cost[i - 1][j] + ga[i - 1] == here:
            tight.append((i - 1, j, ga[i - 1]))
        if j and cost[i][j - 1] + gb[j - 1] == here:
            tight.append((i, j - 1, gb[j - 1]))
        if i and j and cost[i - 1][j - 1] + sub[i - 1][j - 1] == here:
            tight.append((i - 1, j - 1, sub[i - 1][j - 1]))
        pi, pj, c = tight[0]
        if len(tight) > 1:
            count(i, j)
            want = longest[i][j] - 1
            pi, pj, c = next(t for t in tight if longest[t[0]][t[1]] == want)
        columns.append(
            (sa[pi].symbol if pi < i else GAP, sb[pj].symbol if pj < j else GAP)
        )
        costs.append(c)
        i, j = pi, pj
    return Alignment(tuple(columns[::-1]), tuple(costs[::-1]), cost[n][m])
