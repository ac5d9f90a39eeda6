"""Calibration kernel: a fixed amount of interpreter and numpy work.

Wall time on a shared machine drifts with what else runs there, between
processes and within one.  The kernel runs before and after every timed
call, and a run's times are divided by the mean of all its kernel times,
which estimates the machine's average speed over the run the way a long
operation averages it.  The quotient is reported in reference seconds:
multiplied by KERNEL_REF_S, the kernel's mean wall time on the reference
machine described in bench/README.md.  The kernel never calls iwacalc, so
no change to the program moves it.

It has three parts, because the workloads mix three kinds of work: a
pure-Python dict loop, a small dense int64 mat-vec, and elimination-style
updates of 816-entry vectors.  Over six runs of each workload the sum of
the three tracked every workload about as well as the best single part did
for that workload (see README).
"""

from __future__ import annotations

import time

import numpy as np

# Mean wall time of one kernel() on the reference machine (see README).
KERNEL_REF_S = 0.026

_RNG = np.random.default_rng(12345)
_MAT = _RNG.integers(0, 3, size=(256, 256), dtype=np.int64)
_VEC = _RNG.integers(0, 3, size=256, dtype=np.int64)
_ROWS = [_RNG.integers(0, 3, size=816, dtype=np.int64) for _ in range(64)]


def _dict_loop(n: int = 12000) -> int:
    table: dict = {}
    for i in range(n):
        key = (i % 97, i % 89, i % 7)
        table[key] = table.get(key, 0) + i * 7 % 5
    return sum(table.values())


def _matvec(rounds: int = 100) -> int:
    v = _VEC
    for _ in range(rounds):
        v = (_MAT @ v) % 3
    return int(v.sum())


def _row_updates(rounds: int = 15) -> int:
    v = _ROWS[0].copy()
    for _ in range(rounds):
        for row in _ROWS:
            if v[7]:
                v = (v - v[7] * row) % 3
            v[7] = 1
    return int(v.sum())


def kernel() -> float:
    """Run the kernel once and return its wall time in seconds."""
    t0 = time.perf_counter()
    _dict_loop()
    _matvec()
    _row_updates()
    return time.perf_counter() - t0
