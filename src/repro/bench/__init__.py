"""Benchmark harness: events, full-scale extrapolation, experiment drivers."""

from .events import COMPONENTS, PhaseRecord, RunProfile
from .scale import (
    TABLE1_PAPER,
    TABLE4_PAPER,
    FullScaleBreakdown,
    extrapolate,
)

__all__ = [
    "COMPONENTS",
    "FullScaleBreakdown",
    "PhaseRecord",
    "RunProfile",
    "TABLE1_PAPER",
    "TABLE4_PAPER",
    "extrapolate",
]
