"""Machine-speed probe for normalizing timings on a machine whose speed drifts.

The host this benchmark was built on runs the same code at speeds that
differ by up to 2x, in blocks of seconds to minutes, with process CPU
time tracking wall time (so CPU time does not help).  Both time metrics
are therefore scaled to a nominal machine speed: a fixed reference kernel
that does the same kinds of work as `semaug` (small numpy calls driven
from Python, a dense quadratic form, float-to-text formatting) is timed
right before and after each timed interval and, through SIGALRM, every
PERIOD_S seconds during it (sampling densely tracks the speed better:
on train-toy units the spread of scaled throughput fell from 8.7% at
0.2 s to 3.8% at 0.02 s).  A time t measured while the kernel took k
seconds on average is reported as t * NOMINAL_KERNEL_S / k, the time the
same work would take on a machine where the kernel takes NOMINAL_KERNEL_S.
The kernel never calls into `semaug`, so a change to the program cannot
move it; the time spent in the signal handler is subtracted from the
interval and, through WorkClock, from every traced span.
"""

from __future__ import annotations

import signal
import time

import numpy as np

NOMINAL_KERNEL_S = 1.0e-3
PERIOD_S = 0.025
EDGE_SAMPLES = 3

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((16, 16))
_x = _rng.standard_normal(16)
_D = _rng.standard_normal((48, 24))
_S = _rng.standard_normal((24, 24))
_V = _rng.standard_normal(150).tolist()


def kernel_seconds() -> float:
    """Wall time of one pass of the reference kernel."""
    t0 = time.perf_counter()
    for _ in range(100):
        y = np.maximum(_A @ _x, 0.0)
        float(y.sum())
    for _ in range(3):
        np.einsum("cf,fg,cg->c", _D, _S, _D)
    ",".join(format(v, ".17g") for v in _V)
    return time.perf_counter() - t0


class WorkClock:
    """perf_counter less the time spent in SpeedProbe handlers, so that
    spans timed with ``now`` exclude the kernel runs inside them."""

    def __init__(self):
        self.handler_s = 0.0

    def now(self) -> float:
        return time.perf_counter() - self.handler_s


class SpeedProbe:
    """Times one interval and the kernel before, during and after it.

    Use as a context manager around the work; afterwards ``seconds`` is
    the interval's wall time less the handler's, and ``factor`` scales a
    time to the nominal machine speed.  With ``work_in_child`` the work
    runs in a child process while this one waits, so the kernel runs on
    the other CPU beside it and its time is not subtracted.
    """

    def __init__(self, clock: WorkClock, period_s: float = PERIOD_S, work_in_child: bool = False):
        self.clock = clock
        self.period_s = period_s
        self.work_in_child = work_in_child
        self.samples: list = []
        self.handler_s = 0.0
        self.seconds = 0.0

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(kernel_seconds())
        spent = time.perf_counter() - t0
        self.handler_s += spent
        if not self.work_in_child:
            self.clock.handler_s += spent

    def __enter__(self):
        self.samples += [kernel_seconds() for _ in range(EDGE_SAMPLES)]
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.seconds = time.perf_counter() - self._t0
        if not self.work_in_child:
            self.seconds -= self.handler_s
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += [kernel_seconds() for _ in range(EDGE_SAMPLES)]
        return False

    @property
    def factor(self) -> float:
        """NOMINAL_KERNEL_S over the mean kernel time seen by this probe."""
        return NOMINAL_KERNEL_S / (sum(self.samples) / len(self.samples))
