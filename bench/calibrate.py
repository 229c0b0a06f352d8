"""A fixed reference computation that measures how fast the machine is now.

The benchmark runs on a shared host whose speed drifts by tens of percent
over minutes, the same for every launch of a run.  `sample` times a fixed
mix of the kinds of work lorentzheat does (an interpreter loop, numpy
elementwise passes, banded solves, scaled Bessel functions); it imports
nothing of lorentzheat, so a change to the program cannot move it.  The
runner times it before every launch and scales the run's times by
REFERENCE_S / (median sample): the times it reports are those of a machine
running at the speed it had when REFERENCE_S was measured.
"""

import time

import numpy as np
from scipy import linalg, special

# about the median of `sample` on the 2-core VM of the README's reference
# figures; only its constancy matters, since both sides of a comparison use it
REFERENCE_S = 0.5

_rng = np.random.default_rng(0)
_x = _rng.random(100_000)
_n = 1024
_bands = np.vstack([np.full(_n, -1.0), np.full(_n, 2.5), np.full(_n, -1.0)])
_rhs = _rng.random((_n, 45))
_z = np.linspace(0.01, 50.0, 225_000)


def _interpreter():
    s = 0.0
    for i in range(1_500_000):
        s += (i % 7) * 0.5
    return s


def _elementwise():
    y = _x
    for _ in range(90):
        y = np.sqrt(y * y + 1.0) - np.exp(-y)
    return y


def _banded():
    for _ in range(225):
        linalg.solve_banded((1, 1), _bands, _rhs)


def _bessel():
    return special.ive(1.7, _z)


def sample() -> float:
    """Seconds the reference computation takes once."""
    start = time.perf_counter()
    _interpreter()
    _elementwise()
    _banded()
    _bessel()
    return time.perf_counter() - start
