"""Batched frame resolution for the drain walk.

The drain walk (:mod:`repro.sim.vector.replay`) probes L1 residency per
record by physical block number.  Translating each record through
:meth:`Translator.translate` would cost a call per access; instead
:func:`resolve_blocks` resolves a whole window of records in one NumPy
pass, reading the translator's live ``(core_id, vpage) -> frame`` dict
once per *unique* page (spatial workloads revisit the same pages, so
the dict probes amortise to far below one per record).  Records whose
page has no frame yet stay unresolved: first-touch pages are always L1
misses, and their frames are allocated later, at the barrier, by the
real translator — preserving the shared seeded PRNG's allocation order
exactly.
"""

from __future__ import annotations

import numpy as np


def _block_of(frames, vaddrs, page_bits: int, block_bits: int):
    """Physical block numbers: ``(frame << page_bits | offset) >> block_bits``."""
    shift = np.uint64(page_bits - block_bits)
    page_mask = np.uint64((1 << page_bits) - 1)
    return (frames << shift) | ((vaddrs & page_mask) >> np.uint64(block_bits))


def resolve_blocks(
    start: int,
    end: int,
    addrs,
    flags,
    mapping,
    core_id: int,
    page_bits: int,
    block_bits: int,
):
    """Batched Translator frame lookups for a drain window.

    Returns ``(blocks, vpages)``: per-record physical block numbers as
    int64 (−1 for non-memory records and still-unmapped pages) and the
    per-record virtual page (0 for non-memory records).
    """
    n = end - start
    out = np.full(n, -1, dtype=np.int64)
    vpages = np.zeros(n, dtype=np.uint64)
    f = flags[start:end]
    mem = np.nonzero(f & 1)[0]
    if mem.size == 0:
        return out, vpages
    va = addrs[start:end][mem]
    vp = va >> np.uint64(page_bits)
    vpages[mem] = vp
    uniq, inverse = np.unique(vp, return_inverse=True)
    frames = np.zeros(uniq.size, np.uint64)
    known = np.zeros(uniq.size, bool)
    get = mapping.get
    for i, page in enumerate(uniq.tolist()):
        frame = get((core_id, page))
        if frame is not None:
            frames[i] = frame
            known[i] = True
    sel = np.nonzero(known[inverse])[0]
    if sel.size:
        blk = _block_of(frames[inverse[sel]], va[sel], page_bits, block_bits)
        out[mem[sel]] = blk.astype(np.int64)
    return out, vpages
