"""The vector tier: the engine's fast tier, a drain walk over packed traces.

Each core walks its packed trace records in a plain-Python loop up to
its next L1 miss; misses execute in the reference loop's global order
through an inlined miss path.  Frame lookups are batched per window
with NumPy.  See :mod:`repro.sim.vector.replay`.
"""

from __future__ import annotations

from repro.sim.vector.replay import VectorReplay

__all__ = ["VectorReplay"]
