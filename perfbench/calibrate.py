"""The benchmark's clock, and host-speed calibration by fixed kernels that
never call the program.

``clock()`` is the CPU time of this process and of the child processes it
has waited for.  Unlike wall time, it does not count the time the process
waits for a processor that other processes hold, which on a machine of two
shared cores decides a wall-clock figure more than the program does.

The host itself may run everything at one speed for minutes and at half
that speed for the next minutes, which CPU time counts too.  A run
therefore also times, on the same clock, three small kernels, each a
stand-in for one kind of work the program does:

- ``py``: a pure-Python float recurrence (the Numerov oracle's shooting);
- ``np``: numpy calls on small arrays (the planner, quadrature and roots);
- ``la``: a dense symmetric eigensolver (the Gauss-Legendre rules).

``Calibration.factor()`` is the mean, over the kernels, of the median
kernel time in the run divided by its nominal time.  The run divides every
time it reports by that factor, so its figures are CPU seconds of a host on
which the kernels take their nominal times.  A change to the program moves
the figures as before: the kernels do not depend on it.

This module imports numpy only when a Calibration is made, so that the
benchmark can start its clock before numpy is imported.
"""

from __future__ import annotations

import resource
import statistics
import time

# Median kernel seconds on the reference host (a 2-vCPU KVM guest on a
# 2.1 GHz Xeon, Python 3.11, numpy 2.4, BLAS on one thread).
NOMINAL = {"py": 4.95e-3, "np": 4.95e-3, "la": 4.45e-3}

N_PY = 33000       # steps of the float recurrence
N_NP = 2500        # numpy calls on a 64-element complex array
N_LA = 370         # order of the symmetric matrix


def clock():
    """CPU seconds of this process and of its waited-for children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def _py():
    h2 = 1e-4
    y0, y1 = 0.0, 1e-6
    for k in range(N_PY):
        f = 1.0 + 1e-4 * k
        y0, y1 = y1, (2.0 * y1 * (1.0 - 5.0 * h2 * f / 12.0)
                      - y0 * (1.0 + h2 * f / 12.0)) / (1.0 + h2 * f / 12.0)
    return y1


class Calibration:
    def __init__(self):
        import numpy as np

        x = np.linspace(0.1, 1.0, 64) * (1.0 + 0.5j)
        m = np.random.default_rng(0).standard_normal((N_LA, N_LA))
        m = m + m.T

        def _np():
            s = 0.0
            for _ in range(N_NP):
                s += float(np.abs(x * x - 1.0).sum())
            return s

        self.kernels = {"py": _py, "np": _np,
                        "la": lambda: np.linalg.eigvalsh(m)[0]}
        self.samples = {name: [] for name in self.kernels}
        self.seconds = 0.0     # wall time spent in the kernels

    def sample(self, times=1):
        t_start = time.perf_counter()
        for _ in range(times):
            for name, kernel in self.kernels.items():
                t0 = clock()
                kernel()
                self.samples[name].append(clock() - t0)
        self.seconds += time.perf_counter() - t_start

    def ratios(self):
        """Median kernel time over its nominal time, per kernel."""
        return {name: statistics.median(s) / NOMINAL[name]
                for name, s in self.samples.items()}

    def factor(self):
        """How much slower than the reference host this run's host was."""
        return statistics.fmean(self.ratios().values())
