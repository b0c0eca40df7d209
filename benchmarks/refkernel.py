"""Fixed reference kernel used to normalise step times against machine speed.

The kernel is dense numpy linear algebra at the shapes projctl works with
(a 6x5 contact stack, 5x5 inertia blocks, an 8x8 KKT-sized solve), issued as
many small calls the way the simulator issues them.  It must never import
projctl: a change to the program must not change the yardstick.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# kernel time per iteration that defines a nominal-speed machine; set-up times
# are reported as seconds on such a machine
NOMINAL_US = 80.0


def _operands():
    i = np.arange(1, 31, dtype=float)
    A = np.sin(i).reshape(6, 5)
    G = np.cos(0.7 * i[:25]).reshape(5, 5)
    M = G @ G.T + 5.0 * np.eye(5)
    K = np.cos(0.3 * np.arange(64, dtype=float)).reshape(8, 8) + 8.0 * np.eye(8)
    return A, M, K, np.linspace(-1.0, 1.0, 5), np.linspace(0.5, 1.5, 8)


_A, _M, _K, _b, _r = _operands()


def kernel(reps: int) -> float:
    """Run the kernel reps times; returns a checksum so the work is consumed."""
    acc = 0.0
    for _ in range(reps):
        U, s, Vt = np.linalg.svd(_A, full_matrices=False)
        V1 = Vt[:3].T
        P = np.eye(5) - V1 @ V1.T
        P = 0.5 * (P + P.T)
        A_pinv = (Vt.T * (1.0 / s)) @ U.T
        M_bar = P @ _M @ P + 2.0 * (np.eye(5) - P)
        M_inv = np.linalg.inv(M_bar)
        x = np.linalg.solve(_K, _r)
        y = M_inv @ (P @ _b) - A_pinv @ (_A @ _b)
        acc += float(x @ _r) + float(np.linalg.norm(y)) + float(np.abs(P).max())
    return acc


def sample_us(reps: int = 10) -> float:
    """Wall time of one kernel iteration, averaged over reps, in microseconds."""
    t0 = time.perf_counter()
    kernel(reps)
    return (time.perf_counter() - t0) / reps * 1e6


class SpeedProbe:
    """Samples the kernel's speed every `interval` seconds while a block runs.

    The machine's speed swings by up to 2x within fractions of a second, so
    timings taken only before and after a block that lasts seconds (a biped
    segment) miss most of it.  The probe samples from a SIGALRM handler in the
    calling thread, between two bytecodes of the work, and once on entry and
    exit.  `pauses` holds the (start, end) of each sample taken inside the
    block, so the caller can take that time off the block and off anything
    timed within it.  `ref_us()` is the mean of the samples, which are evenly
    spaced in time, so it tracks the block's average speed.
    """

    def __init__(self, interval: float = 0.02, reps: int = 10):
        self.interval = interval
        self.reps = reps
        self.samples = []
        self.pauses = []

    @property
    def spent(self) -> float:
        return sum(end - start for start, end in self.pauses)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(sample_us(self.reps))
        self.pauses.append((start, time.perf_counter()))

    def __enter__(self):
        self.samples.append(sample_us(self.reps))
        self._saved_handler = signal.signal(signal.SIGALRM, self._sample)
        self._saved_timer = signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, *self._saved_timer)
        signal.signal(signal.SIGALRM, self._saved_handler)
        self.samples.append(sample_us(self.reps))

    def ref_us(self) -> float:
        return statistics.fmean(self.samples)
