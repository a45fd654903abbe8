"""Two-string weighted Levenshtein alignment.

The DP minimizes total cost and, among minimal-cost alignments, maximizes
the column count (the normalization denominator is the length of the
longest optimal alignment). The fill reads numbered strings and the
price table, costs only; `longest`, which the 3D traceback shares, counts
lengths only where the traceback meets a tie. Traceback is deterministic:
when costs tie, deletion is preferred over insertion over substitution,
applied right-to-left, among the moves that keep the alignment longest.
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


def longest(node, starts, memo):
    """The column count of the longest path of tight moves from the origin
    to node: the length of the longest optimal alignment of its prefixes.
    starts(node) lists the starts of the tight moves into a node, those
    whose start's cost plus price, summed as the fill sums them, is the
    node's cost; every start sorts before its node. memo maps each node
    counted so far to its count, the origin to 0. The nodes to count are
    gathered with an explicit stack, so long words need no deep recursion."""
    got, stack = {}, [node]
    while stack:  # each uncounted node on a tight path to node, and its starts
        top = stack.pop()
        if top not in memo and top not in got:
            got[top] = starts(top)
            stack += got[top]
    for top in sorted(got):  # a move's start sorts before its end
        memo[top] = max(map(memo.__getitem__, got[top])) + 1
    return memo[node]


def align_pair(sa, sb, cm: CostModel) -> Alignment:
    """Minimal-cost alignment of maximal length among the optima of two
    segment sequences."""
    n, m = len(sa), len(sb)
    C, ua, ub = cm.cost, cm.numbers(sa), cm.numbers(sb)
    gap = C[0]  # gap[u] is C[u][0]
    cost = fill(ua, ub, C)
    w = m + 1  # the length count numbers node (i, j) i * w + j, a fast key

    def starts(node):
        """The starts of the tight moves into node i * w + j."""
        i, j = divmod(node, w)
        here, out = cost[i][j], []
        if i and cost[i - 1][j] + gap[ua[i - 1]] == here:
            out.append(node - w)
        if j and cost[i][j - 1] + gap[ub[j - 1]] == here:
            out.append(node - 1)
        if i and j and cost[i - 1][j - 1] + C[ua[i - 1]][ub[j - 1]] == here:
            out.append(node - w - 1)
        return out

    # Traceback, right-to-left. Where several moves are tight, take the
    # first in del > ins > sub order that keeps the alignment longest.
    columns, costs, memo = [], [], {0: 0}
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
            want = longest(i * w + j, starts, memo) - 1
            pi, pj, c = next(t for t in tight if memo[t[0] * w + t[1]] == want)
        columns.append(
            (sa[pi].symbol if pi < i else GAP, sb[pj].symbol if pj < j else GAP)
        )
        costs.append(c)
        i, j = pi, pj
    # A border node has one predecessor: the rest of a or of b is gapped.
    head = [(s.symbol, GAP) for s in sa[:i]] + [(GAP, s.symbol) for s in sb[:j]]
    costs = [gap[u] for u in ua[:i] + ub[:j]] + costs[::-1]
    return Alignment(tuple(head + columns[::-1]), tuple(costs), cost[n][m])
