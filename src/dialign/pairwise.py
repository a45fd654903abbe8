"""Two-string weighted Levenshtein alignment.

The DP minimizes total cost and, among minimal-cost alignments, maximizes
the column count (the normalization denominator is the length of the
longest optimal alignment). The fill reads numbered strings and the
price table, costs only; lengths are counted in the traceback, and only
where costs tie. Traceback is deterministic: when costs tie, deletion is
preferred over insertion over substitution, applied right-to-left, among
the moves that keep the alignment longest.
"""

from __future__ import annotations

from .costs import GAP, Alignment, CostModel


def fill(ua, ub, C):
    """The cost table of the 2D lattice of strings numbered ua and ub in the
    price table C: cost[i][j] is the least cost of aligning ua[:i] with ub[:j]."""
    gb = [C[0][v] for v in ub]
    row = [0.0]
    for h in gb:
        row.append(row[-1] + h)
    cost = [row]
    for u in ua:
        prices = C[u]
        g = prices[0]
        up, left = row, row[0] + g
        row = [left]
        for j, h in enumerate(gb):  # deletion, insertion, substitution
            best = up[j + 1] + g
            c = left + h
            if c < best:
                best = c
            c = up[j] + prices[ub[j]]
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
    C, ua, ub = cm.cost, cm.numbers(sa), cm.numbers(sb)
    gap = C[0]  # gap[u] is C[u][0]
    cost = fill(ua, ub, C)

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
            here, up, row, prices = cost[i][j], cost[i - 1], cost[i], C[ua[i - 1]]
            best, size = -1, len(stack)
            # The three moves are unrolled: del, ins, sub.
            if up[j] + prices[0] == here:
                got = longest[i - 1][j]
                if got is None:
                    stack.append((i - 1, j))
                elif got > best:
                    best = got
            if row[j - 1] + gap[ub[j - 1]] == here:
                got = longest[i][j - 1]
                if got is None:
                    stack.append((i, j - 1))
                elif got > best:
                    best = got
            if up[j - 1] + prices[ub[j - 1]] == here:
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
    while i and j:
        here, prices, v, tight = cost[i][j], C[ua[i - 1]], ub[j - 1], []
        if cost[i - 1][j] + prices[0] == here:
            tight.append((i - 1, j, prices[0]))
        if cost[i][j - 1] + gap[v] == here:
            tight.append((i, j - 1, gap[v]))
        if cost[i - 1][j - 1] + prices[v] == here:
            tight.append((i - 1, j - 1, prices[v]))
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
    # A border node has one predecessor: the rest of a or of b is gapped.
    head = [(s.symbol, GAP) for s in sa[:i]] + [(GAP, s.symbol) for s in sb[:j]]
    costs = [gap[u] for u in ua[:i] + ub[:j]] + costs[::-1]
    return Alignment(tuple(head + columns[::-1]), tuple(costs), cost[n][m])
