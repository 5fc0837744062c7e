"""Fixed reference computations that track how fast the host runs this process.

On a shared 2-vCPU VM the speed a vCPU delivers drifts by up to 1.7x in spells
of seconds to minutes, while process CPU time stays equal to wall time, so no
run length averages the drift out. The benchmark times a reference chunk
between its ops and scales every reported time by ``(reference_s / chunk
time) ** exponent``: a time in seconds at the speed the reference machine had
when ``reference_s`` was taken.

The chunks use numpy and the interpreter only, never the program, so a change
to the program cannot move them. A slow spell does not slow all work alike:
per-call overhead slows about 1.5x where large-array work slows about 1.2x. So
there are two references, and each workload is scaled by the one whose work is
like its own:

- ``CALLS``: interpreter-bound Python, 60 small einsum calls on window views
  and one larger einsum, as in the lockstep oracle's tiny arrays. The oracle
  slows as much as this chunk.
- ``ARRAYS``: batched 3x3 convolutions as einsums on window views, ReLU and
  2x2 max pooling, as in a training step or a refresh's capture forward.
  Training and refreshes slow by about the square root of this chunk's
  slow-down (``exponent`` 0.5), as measured over four sets of ten runs.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_rng = np.random.default_rng(12345)
_SMALL_X = _rng.standard_normal((4, 3, 14, 14))
_SMALL_W = _rng.standard_normal((5, 3, 7, 7))
_LARGE_X = _rng.standard_normal((16, 8, 34, 34))
_LARGE_W = _rng.standard_normal((8, 8, 3, 3))
_BATCH_X = _rng.standard_normal((32, 8, 30, 30))
_BATCH_W = _rng.standard_normal((16, 8, 3, 3))


def _calls() -> None:
    s = 0
    for i in range(450_000):
        s += i * i
    for _ in range(60):
        np.einsum("nchwij,ocij->nohw", sliding_window_view(_SMALL_X, (7, 7), axis=(2, 3)),
                  _SMALL_W)
    np.einsum("nchwij,ocij->nohw", sliding_window_view(_LARGE_X, (3, 3), axis=(2, 3)), _LARGE_W)


def _arrays() -> None:
    for _ in range(6):
        y = np.einsum("oikl,nihwkl->nohw", _BATCH_W,
                      sliding_window_view(_BATCH_X, (3, 3), axis=(2, 3)), optimize=True)
        np.maximum(y, 0).reshape(32, 16, 14, 2, 14, 2).max(axis=(3, 5))


@dataclass(frozen=True)
class Reference:
    """A reference computation, ``reference_s``, its median time on the
    reference machine (2-vCPU Intel Xeon VM, numpy 2.4.6, Python 3.11, one BLAS
    thread) in its faster spells, and ``exponent``: the work it stands for
    slows by the chunk's slow-down to this power."""

    work: Callable[[], None]
    reference_s: float
    exponent: float

    def chunk(self) -> float:
        """Run the reference work once; returns its wall time in seconds."""
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0

    def chunks(self, count: int) -> list[float]:
        return [self.chunk() for _ in range(count)]

    def scale(self, times: list[float]) -> float:
        """The factor that turns seconds measured beside ``times`` into reference seconds."""
        return (self.reference_s / statistics.median(times)) ** self.exponent


CALLS = Reference(_calls, 0.085, 1.0)
ARRAYS = Reference(_arrays, 0.05, 0.5)
