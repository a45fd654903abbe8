"""Corpus-driven segment distances via iterative PMI estimation.

Same-word transcription pairs are aligned under the current cost model;
aligned symbol co-occurrences (with the gap as a first-class symbol) are
counted, smoothed, and turned into pointwise mutual information. PMI is
negated and min-max rescaled into [0,1], the diagonal is floored at 0,
and the procedure repeats until the table stops changing: an iteration
whose alignments are unchanged gives a bit-identical table. Frequently
co-occurring sounds thus get costs close to 0.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from itertools import combinations_with_replacement

from .corpus import distinct
from .costs import GAP, CostModel
from .errors import DialignError, FirstLines, ParseError, read_table
from .pairwise import align_pair

MIN_PAIRS = 50  # the CLI warns when it induces from fewer pairs


class PmiTable(namedtuple("PmiTable", "dist iterations_run converged")):
    """Symmetric segment-pair distances in [0,1], gap included. A symbol's
    distance to itself defaults to 0; any other missing pair is an error,
    and a table file may give each unordered pair once."""

    __slots__ = ()

    def __new__(cls, dist, iterations_run=0, converged=False):
        normalized = {}
        for (a, b), v in dist.items():
            key = (a, b) if a <= b else (b, a)
            if key in normalized:
                raise ValueError(f"pair {key} given in both orders")
            normalized[key] = v
        return super().__new__(cls, normalized, iterations_run, converged)

    def distance(self, a: str, b: str) -> float:
        if a == b and a != GAP:
            return self.dist.get((a, a), 0.0)
        key = (a, b) if a <= b else (b, a)
        try:
            return self.dist[key]
        except KeyError:
            raise DialignError(f"symbol pair {key} is not in the PMI table") from None

    def to_tsv(self) -> str:
        lines = [
            f"{a}\t{b}\t{self.dist[(a, b)]:.12g}" for a, b in sorted(self.dist)
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def read(cls, path) -> "PmiTable":
        dist, seen = {}, FirstLines(path)
        usage = "symbol_a<TAB>symbol_b<TAB>distance"
        for lineno, (a, b, value) in read_table(path, usage, 3):
            try:
                d = float(value)
            except ValueError:
                raise ParseError(path, lineno, f"bad distance {value!r}")
            if not 0.0 <= d <= 1.0:  # also false for NaN
                raise ParseError(path, lineno, f"distance {value!r} outside [0, 1]")
            key = (a, b) if a <= b else (b, a)
            seen.add(key, lineno, "repeated pair (%r, %r)")
            dist[key] = d
        return cls(dist, iterations_run=0, converged=True)


class InductionOptions(namedtuple("InductionOptions", "max_iter smoothing")):
    """The iteration cap and additive smoothing of PMI induction."""

    __slots__ = ()

    def __new__(cls, max_iter=50, smoothing=0.5):  # NaN fails each check
        if not max_iter >= 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        if not 0 < smoothing < math.inf:
            raise ValueError(f"smoothing must be finite and > 0, got {smoothing}")
        return super().__new__(cls, max_iter, smoothing)


def distances_from_counts(
    counts: dict[tuple[int, int], float], smoothing: float, symbol: list[str]
) -> dict[tuple[int, int], float]:
    """PMI distances from co-occurrence counts (induction steps 3 and 4).

    Counts are over unordered pairs of numbers, 0 for the gap, that
    symbol names: the counts of (u, v) and (v, u) are summed. The pair
    universe is every unordered pair over the observed numbers (gap
    included, gap-gap excluded), each receiving additive smoothing, in
    the order of their symbols, which keys each pair (u, v) with
    symbol[u] <= symbol[v] and fixes the order of every sum.
    """
    ordered: dict[tuple[int, int], float] = {}
    for (u, v), c in counts.items():
        key = (u, v) if symbol[u] <= symbol[v] else (v, u)
        ordered[key] = ordered.get(key, 0) + c
    alphabet = sorted({u for p in ordered for u in p} | {0}, key=symbol.__getitem__)
    # Pairs over the sorted alphabet come out in the keys' order.
    universe = [p for p in combinations_with_replacement(alphabet, 2) if p != (0, 0)]
    smoothed = {key: ordered.get(key, 0.0) + smoothing for key in universe}
    total = sum(smoothed.values())
    if not math.isfinite(2.0 * total):  # each symbol's share divides by it
        raise DialignError(f"smoothing {smoothing!r} overflows the counts' total")

    occurrence = {s: 0.0 for s in alphabet}
    for (a, b), c in smoothed.items():
        occurrence[a] += c
        occurrence[b] += c  # (a,a) counted twice: two slots in the column pair

    raw = {}
    for (a, b), c in smoothed.items():
        p_joint = c / total
        p_a = occurrence[a] / (2.0 * total)
        p_b = occurrence[b] / (2.0 * total)
        if p_joint == 0.0 or p_a * p_b == 0.0:  # a share underflowed
            raise DialignError(f"smoothing {smoothing!r} underflows a pair's share")
        raw[(a, b)] = -math.log2(p_joint / (p_a * p_b))

    lo, hi = min(raw.values()), max(raw.values())
    span = hi - lo
    dist = {key: 0.0 if span == 0.0 else (v - lo) / span for key, v in raw.items()}
    for u in alphabet:
        if u:
            dist[(u, u)] = 0.0
    return dist


def induce_distances(
    pairs: list, init: CostModel, opts: InductionOptions = InductionOptions()
) -> PmiTable:
    """Iterative PMI induction of segment distances from same-word pairs
    of segment tuples.

    Non-convergence within max_iter is not an error; the returned table
    records converged=False.
    """
    if not pairs:
        raise DialignError("no transcription pairs for PMI induction")

    # Pairs with equal symbols align alike under any one cost model, so
    # each iteration aligns only the first of them, and counts its columns
    # once for each pair it stands for. Their transcriptions are numbered
    # once, and every iteration's model reprices the same numbering. They
    # are aligned sorted by (second, first) numbers, so that a pair shares
    # the fill rows of the prefix its first string has in common with the
    # pair before it (pairwise.align_numbers).
    firsts, slots = distinct(pairs)
    weight = Counter(slots)  # the pairs each first stands for
    cm = init
    jobs = sorted(
        (cm.numbers(b), cm.numbers(a), k, a, b)
        for k, (a, b) in enumerate(pairs[i] for i in firsts)
    )
    dist = None
    converged = False
    for iterations in range(1, opts.max_iter + 1):
        if dist is not None:  # the last iteration's distances, by cm's numbers
            cm = cm.repriced(dist)
        counts = Counter()
        for _, _, k, a, b in jobs:
            counts.update(align_pair(a, b, cm).columns * weight[k])
        prev_dist, dist = dist, distances_from_counts(counts, opts.smoothing, cm.symbol)
        if dist == prev_dist:  # unchanged alignments give the same table
            converged = True
            break

    symbol = cm.symbol  # the one mapping of numbers to symbols, on return
    dist = {(symbol[u], symbol[v]): d for (u, v), d in dist.items()}
    return PmiTable(dist, iterations_run=iterations, converged=converged)
