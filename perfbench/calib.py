"""The host-speed calibration kernel."""

import time

import numpy as np

#: the kernel's duration on the reference host: a reference second is
#: the time in which the kernel runs ``1 / REF_S`` times
REF_S = 0.003

#: one vector-tier-sized chunk of keys, and a subset to test against
_KEYS = (np.arange(4096, dtype=np.int64) * 2654435761) % (1 << 20)
_SUBSET = _KEYS[::3].copy()


def kernel(rounds: int = 4000, sorts: int = 6) -> int:
    """Fixed work, independent of the program under test, in the two
    styles the simulator runs: interpreted dict stores and integer
    mixing, and NumPy sorts and membership tests over one chunk.  Its
    duration tracks host speed more closely than either half alone."""
    table = {}
    x = 0
    for i in range(rounds):
        table[i & 255] = x
        x = ((x + i * 7) ^ (x >> 3)) & 0xFFFFFFFF
    for i in range(sorts):
        x += int(np.isin(np.sort(_KEYS ^ i), _SUBSET).sum())
    return x


def cost() -> float:
    """One kernel run, timed by this thread's CPU clock."""
    start = time.thread_time()
    kernel()
    return time.thread_time() - start
