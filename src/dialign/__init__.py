"""Toolkit for measuring real-time phonetic convergence and divergence
between two time-separated dialect corpora relative to a standard variety."""

from .costs import FORBIDDEN, GAP, BinaryDistanceTable, CostModel, binary_cost_model
from .pairwise import PairAlignment, align_pair
from .phonetics import (
    Segment,
    SegmentClass,
    SegmentTable,
    Source,
    tokenize,
)
from .pmi import InductionOptions, PmiTable, induce_distances
from .triple import (
    ChangeRecord,
    TripleAlignment,
    align_triple,
    column_direction,
    decompose,
)

__version__ = "0.1.0"
