"""Toolkit for measuring real-time phonetic convergence and divergence
between two time-separated dialect corpora relative to a standard variety."""

__version__ = "0.1.0"
