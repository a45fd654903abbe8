"""Cost models for weighted alignment.

A cost model combines a symmetric distance table over segment symbols
with the linguistic constraint policy: vowels may not substitute with
consonants, except that schwa may align with the sonorant consonants.
Forbidden substitutions get infinite cost, so an indel path always wins.
The cost model is the only code that prices a pair of segments or names
a number's symbol; the 2D and 3D DPs and the change decomposition read
its table, and both DPs return an Alignment of its numbers.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .phonetics import GAP, Segment

FORBIDDEN = math.inf


class Alignment(namedtuple("Alignment", "columns total_cost")):
    """Columns of the aligning cost model's numbers, 0 for a gap, and
    total_cost, the DP's optimum. A column's price is not kept: the cost
    model's table gives it, as the sum of the column's pair prices."""

    __slots__ = ()

    @property
    def length(self) -> int:
        return len(self.columns)


class BinaryDistanceTable:
    """Unit distances: 0 for identical symbols, 1 otherwise (gaps cost 1)."""

    def distance(self, a: str, b: str) -> float:
        return 0.0 if a == b else 1.0


def substitution_allowed(a: Segment, b: Segment) -> bool:
    """Constraint policy: no vowel-consonant pairing, schwa-sonorant excepted."""
    if a.klass == b.klass:
        return True
    vowel, cons = (a, b) if a.klass == "V" else (b, a)
    return vowel.is_schwa and cons.is_sonorant_consonant


class CostModel:
    """Prices of segment pairs, from a distance table and the constraint policy.

    The model numbers each segment symbol the first time it meets it, with
    0 for the gap, and prices the new symbol once against the gap, every
    known symbol and itself: ``cost[u][v]`` is the table's distance,
    FORBIDDEN for a pair the policy bans when constrained, and 0.0 for gap
    against gap. A symbol's class must not depend on where it occurs.
    ``symbol[u]`` is the symbol numbered u. A segment tuple is numbered
    once; ``repriced`` gives a model of other prices with the same
    numbering, and the tuples numbered so far. ``last_fill`` holds the
    numbered strings and the cost table of the last 2D fill that
    pairwise.align_numbers made under the model, whose leading rows the
    next fill may share; no row of it changes once built.
    """

    def __init__(self, distances, constrained: bool = True):
        self.distances = distances  # .distance(symbol, symbol), None if repriced
        self.constrained = constrained
        self.cost: list[list[float]] = [[0.0]]
        self.number: dict[str, int] = {GAP: 0}  # symbol -> its row of cost
        self.symbol: list[str] = [GAP]  # number -> its symbol
        self.last_fill = None  # (ua, ub, cost)
        self._known: list[Segment] = []  # _known[u - 1] has number u
        self._numbered: dict[tuple, list[int]] = {}  # segment tuple -> numbers

    def numbers(self, segments) -> list[int]:
        """The number of each segment: one list for all equal sequences of
        segments, which no caller may change."""
        segments = tuple(segments)  # the same tuple if it is one
        got = self._numbered.get(segments)
        if got is None:
            number = self.number
            got = [number.get(s.symbol) or self._add(s) for s in segments]
            self._numbered[segments] = got
        return got

    def repriced(self, dist) -> "CostModel":
        """A model of this one's policy and numbering that prices each pair
        of numbers in dist, either way round, at its distance, unless this
        one forbids it, and keeps every other price; it has no distance
        table, so it must number no new symbol."""
        cm = CostModel(None, self.constrained)
        cm.cost = cost = [row[:] for row in self.cost]
        for (u, v), d in dist.items():
            if cost[u][v] != FORBIDDEN:
                cost[u][v] = cost[v][u] = d
        cm.number, cm.symbol = dict(self.number), self.symbol[:]
        cm._known, cm._numbered = self._known[:], dict(self._numbered)
        return cm

    def _add(self, seg: Segment) -> int:
        symbol, distance = seg.symbol, self.distances.distance
        row = [distance(symbol, GAP)]
        for other in self._known:
            if self.constrained and not substitution_allowed(seg, other):
                row.append(FORBIDDEN)
            else:
                row.append(distance(symbol, other.symbol))
        row.append(distance(symbol, symbol))
        # The row is complete before anything changes, so a pair missing
        # from the table leaves the model as it was.
        for known_row, c in zip(self.cost, row):
            known_row.append(c)
        self.cost.append(row)
        self._known.append(seg)
        self.symbol.append(symbol)
        u = self.number[symbol] = len(self._known)
        return u


def binary_cost_model(constrained: bool = True) -> CostModel:
    return CostModel(BinaryDistanceTable(), constrained=constrained)
