"""Toolkit for measuring real-time phonetic convergence and divergence
between two time-separated dialect corpora relative to a standard variety."""

from .costs import (
    FORBIDDEN,
    GAP,
    Alignment,
    BinaryDistanceTable,
    CostModel,
    binary_cost_model,
)
from .pairwise import align_pair
from .phonetics import Segment, SegmentTable, tokenize
from .pmi import InductionOptions, PmiTable, induce_distances
from .triple import ChangeRecord, align_triple, decompose, directions

__version__ = "0.1.0"
