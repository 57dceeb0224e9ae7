"""Vectorized batch-replay engine tier (NumPy)."""

from __future__ import annotations

from repro.sim.vector.classify import (
    CLS_COMPUTE,
    CLS_HIT,
    CLS_MISS,
    CLS_UNKNOWN,
    Chunk,
    classify_chunk,
    reclassify_set,
    reclassify_vpage,
)
from repro.sim.vector.replay import VectorReplay

__all__ = [
    "CLS_COMPUTE",
    "CLS_HIT",
    "CLS_MISS",
    "CLS_UNKNOWN",
    "Chunk",
    "classify_chunk",
    "reclassify_set",
    "reclassify_vpage",
    "VectorReplay",
]
