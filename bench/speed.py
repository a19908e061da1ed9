"""Reference-speed scaling of measured times.

On a shared 2-vCPU virtual machine the CPU speed switches between a fast
mode and one about 1.5 times slower, for a second or so at a time, and the
share of slow time drifts over minutes: the same corpus pass took 6.1 s in
one minute and 9.5 s a few minutes later.  ``SpeedProbe`` times a fixed
numpy kernel every ``EVERY_S`` seconds while the program runs, on the same
CPU and interleaved with it, so the kernel sees the same mix of fast and
slow time.  ``factor`` then turns a measured time into seconds at the
reference speed, the speed at which the kernel takes ``REF_KERNEL_S``.  Over
fourteen corpus passes in two minutes this cut the coefficient of
variation of the pass time from 16% to 3.5%.
"""

import signal
import statistics
import time

import numpy as np

REF_KERNEL_S = 0.0095  # the kernel's median time on an idle 2-vCPU Xeon guest
EVERY_S = 0.2
_SIZES = (9, 21, 41)    # the dimensions of the small SDPs the solver works on
_REPEATS = 30


class SpeedProbe:
    """Kernel timings taken on a timer signal, and the time they took."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._mats = [(a + a.T) / 2.0 for a in (rng.standard_normal((d, d)) for d in _SIZES)]
        self.samples = []
        self.spent = 0.0  # seconds inside `sample`, to leave out of timed work

    def sample(self, *_signal_args):
        t = time.perf_counter()
        for _ in range(_REPEATS):
            for M in self._mats:
                w, V = np.linalg.eigh(M)
                (V * np.maximum(w, 0.0)) @ V.T
        dt = time.perf_counter() - t
        self.samples.append(dt)
        self.spent += dt

    def factor(self, since: int, until: int | None = None) -> float:
        """Reference-speed factor from the samples in [since, until)."""
        return REF_KERNEL_S / statistics.fmean(self.samples[since:until])

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
