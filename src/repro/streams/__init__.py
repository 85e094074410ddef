"""Streaming substrates: sliding windows, window sampling, windowed
variance sketches and stream statistics (paper Section 5).
"""

from repro.streams.quantiles import GKQuantileSummary
from repro.streams.sampling import ChainSample, ReservoirSample
from repro.streams.stats import StreamSummary, summarize, summarize_columns
from repro.streams.variance import (
    ExactWindowedVariance,
    MultiDimVarianceSketch,
    theoretical_bound_words,
)
from repro.streams.window import SlidingWindow

__all__ = [
    "SlidingWindow",
    "ChainSample",
    "ReservoirSample",
    "GKQuantileSummary",
    "MultiDimVarianceSketch",
    "ExactWindowedVariance",
    "theoretical_bound_words",
    "StreamSummary",
    "summarize",
    "summarize_columns",
]
