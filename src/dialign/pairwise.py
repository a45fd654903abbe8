"""Two-string weighted Levenshtein alignment.

The DP minimizes total cost and, among minimal-cost alignments, maximizes
the column count (the normalization denominator is the length of the
longest optimal alignment). The fill and traceback read numbered strings
and the price table, never a symbol, and the fill can start from rows
already built: align_numbers takes those of the cost model's last fill
where the second string is the same and the first shares a prefix.
align_pair numbers two segment tuples and aligns their numbers with it.
Two equal strings whose symbols price 0 against themselves and above 0
against the gap take the diagonal, with no fill. `trace` is the one 2D
traceback, shared with triple's star bound; like the 3D traceback, it
counts lengths with `longest` only at a tie. When costs tie, deletion is preferred over
insertion over substitution, applied right-to-left, among the moves that
keep the alignment longest.
"""

from __future__ import annotations

from .costs import Alignment, CostModel


def fill(ua, ub, C, head=None):
    """The cost table of the 2D lattice of strings numbered ua and ub in the
    price table C: cost[i][j] is the least cost of aligning ua[:i] with ub[:j].
    Row i depends only on ua[:i], ub and C, so head, if given, is a list of
    the table's first rows, already built; they are taken, not copied."""
    gap = C[0]
    vb = [0, *ub]  # 1-based: vb[j] and its gap price hb[j]; hb[0] is unread
    hb = [gap[v] for v in vb]
    if head:
        cost, row = head, head[-1]
    else:
        row = [0.0]
        for h in hb[1:]:
            row.append(row[-1] + h)
        cost = [row]
    js = range(1, len(vb))
    for u in ua[len(cost) - 1 :]:
        prices = C[u]
        g = prices[0]
        up, row = row, row[:]  # row[j] is written once up[j] is read
        diag = up[0]
        left = row[0] = diag + g
        for j in js:  # deletion, insertion, substitution
            above = up[j]
            best = above + g
            c = left + hb[j]
            if c < best:
                best = c
            c = diag + prices[vb[j]]
            if c < best:
                best = c
            row[j] = left = best
            diag = above
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


def tight_starts(cost, ua, ub, C):
    """The starts function that longest needs on the 2D lattice of strings
    numbered ua and ub in the price table C, filled as cost; it numbers
    node (i, j) i * w + j, with w = len(ub) + 1, a fast key."""
    w, gap = len(ub) + 1, C[0]

    def starts(node):
        i, j = divmod(node, w)
        here, out = cost[i][j], []
        if i and cost[i - 1][j] + gap[ua[i - 1]] == here:
            out.append(node - w)
        if j and cost[i][j - 1] + gap[ub[j - 1]] == here:
            out.append(node - 1)
        if i and j and cost[i - 1][j - 1] + C[ua[i - 1]][ub[j - 1]] == here:
            out.append(node - w - 1)
        return out

    return starts


def trace(cost, ua, ub, C):
    """An optimal alignment of the strings numbered ua and ub in the price
    table C, traced back through their fill's cost table: its columns, left
    to right, as number pairs with 0 for the gap. Where several moves are
    tight, it takes the first in del > ins > sub order that keeps the
    alignment longest; the length counts are made at the first tie."""
    n, m, gap = len(ua), len(ub), C[0]  # gap[u] is C[u][0]
    w = m + 1  # node (i, j) of the length count, as tight_starts numbers it
    pairs, memo = [], None
    i, j, row = n, m, cost[n]
    while i and j:
        up, u, v = cost[i - 1], ua[i - 1], ub[j - 1]
        here = row[j]
        dele = up[j] + gap[u] == here
        ins = row[j - 1] + gap[v] == here
        # Some move is tight; a tie needs two.
        if (dele or ins) and dele + ins + (up[j - 1] + C[u][v] == here) > 1:
            if memo is None:
                memo, starts = {0: 0}, tight_starts(cost, ua, ub, C)
            want = longest(i * w + j, starts, memo) - 1
            dele = dele and memo[i * w + j - w] == want
            ins = ins and memo[i * w + j - 1] == want
        if dele:
            pairs.append((u, 0))
            i, row = i - 1, up
        elif ins:
            pairs.append((0, v))
            j -= 1
        else:
            pairs.append((u, v))
            i, j, row = i - 1, j - 1, up
    # A border node has one predecessor: the rest of a or of b is gapped.
    pairs += [(0, v) for v in reversed(ub[:j])] + [(u, 0) for u in reversed(ua[:i])]
    pairs.reverse()
    return pairs


def align_numbers(ua, ub, cm: CostModel) -> Alignment:
    """Minimal-cost alignment of maximal length among the optima of two
    strings numbered ua and ub in cm, as pairs of their numbers, 0 for
    the gap."""
    C, last = cm.cost, cm.last_fill
    if ua == ub and all(C[u][u] == 0.0 and C[u][0] > 0.0 for u in ua):
        # Every other alignment has a gap column, which prices above 0.
        return Alignment(tuple(zip(ua, ua)), 0.0)
    # The rows of the last fill under cm for the same b and a prefix of a
    # are this fill's rows; callers that sort their pairs share the most.
    head = None
    if last is not None and last[1] == ub:
        shared = 0
        for u, lu in zip(ua, last[0]):
            if u != lu:
                break
            shared += 1
        head = last[2][: shared + 1]
    cost = fill(ua, ub, C, head)
    cm.last_fill = ua, ub, cost
    return Alignment(tuple(trace(cost, ua, ub, C)), cost[-1][-1])


def align_pair(sa, sb, cm: CostModel) -> Alignment:
    """Minimal-cost alignment of maximal length among the optima of two
    segment sequences, as pairs of their numbers in cm, 0 for the gap."""
    return align_numbers(cm.numbers(sa), cm.numbers(sb), cm)
