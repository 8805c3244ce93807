"""Host-speed calibration for the benchmark's timings.

The benchmark's hosts share physical cores with other tenants, and their
speed moves in phases of seconds to minutes: a fixed NumPy kernel measured
every 5 s on a 2-core host took 41-45 ms for a minute, then 55-68 ms for the
next. CPU time inflates with wall time, so it does not help. Each timed
interval is therefore bracketed by a short run of :func:`kernel` (small
im2col-style copies, small matmuls, reductions and a Python loop, the mix
the federated workloads run) and its duration is scaled by
``REF_S / kernel time`` (the mean of the two brackets), giving seconds on a
host where the kernel takes ``REF_S``. Raw seconds are reported beside the
scaled ones.

Anything the measured program leaves running between rounds slows the
kernel too and would flatter the scaled times; the raw times show it.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.010

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((20, 16, 8, 8), dtype=np.float32)
_W = _RNG.standard_normal((16, 144), dtype=np.float32)


def kernel() -> float:
    """A fixed amount of work independent of the program under test."""
    acc = 0.0
    for _ in range(12):
        xp = np.pad(_X, ((0, 0), (0, 0), (1, 1), (1, 1)))
        win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))
        cols = np.ascontiguousarray(win.transpose(1, 4, 5, 2, 3, 0)).reshape(144, -1)
        y = np.maximum(_W @ cols, 0.0)
        g = _W.T @ y
        m = y.mean(axis=1, keepdims=True)
        acc += float(g[0, 0]) + float(((y - m) ** 2).mean())
        d: "dict[int, float]" = {}
        for i in range(600):
            d[i & 63] = d.get(i & 63, 0.0) + i * 0.5
    return acc


class Calibrator:
    """Kernel timings taken between the intervals being measured, on one
    core. (Running the kernel on as many cores as the pool keeps busy gave
    no steadier ``run_s`` or ``run_cpu_s`` on the pool workload.)"""

    def __init__(self) -> None:
        kernel()  # first call pays allocation and import costs
        self.samples: "list[float]" = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Scale for an interval bracketed by kernel times ``before`` and ``after``."""
        return 2.0 * REF_S / (before + after)
