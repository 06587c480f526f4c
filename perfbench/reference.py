"""Machine-drift reference: a fixed numpy + plain-Python kernel.

The kernel touches neither scipy nor slocc, so running it imports nothing
the program might later import lazily.  Its work (small dense numpy calls
driven from Python) resembles the program's, so a slow-down of the machine
slows both alike.  Every timing the benchmark reports is scaled
by ``rate / R0``, where ``rate`` is the mean rate of the reference slices
run just before and just after it and ``R0`` is the constant below; raw
values are kept for audit.
"""

import subprocess
import sys
import time

import numpy as np

# A typical in-run reference rate (kernel units per second) on the machine
# the bounds were set on (2 vCPU Intel Xeon, Python 3.11.7, numpy 2.4.6).
# Changing it rescales every normalised timing, so it stays fixed across
# commits.
R0 = 20400.0
# The same for the process slice (slices per second): a fresh interpreter
# that imports numpy and scipy.optimize and solves one tiny LP, which is the
# shape of the program's set-up without any of the program.
R0_PROCESS = 1.14

_M = np.array([[2.0, 0.3, 0.1, 0.0],
               [0.3, 1.5, 0.2, 0.1],
               [0.1, 0.2, 1.0, 0.4],
               [0.0, 0.1, 0.4, 0.5]])
_V = np.array([0.4, 0.3, 0.2, 0.1])
_WORDS = [float(k) / 7.0 for k in range(64)]


def _unit():
    """One kernel unit: a 4x4 eigendecomposition and four interpreted loops.

    In probes this mix tracked the program's speed changes about as well as
    either half alone, across the in-process workloads (see NOTES.md).
    """
    w, v = np.linalg.eigh(_M)
    acc = float(np.abs(v @ (w * (v.T @ _V))).sum())
    for _ in range(4):
        for k, y in enumerate(_WORDS):
            acc += y * k if k & 1 else -y
    return acc


class Reference:
    """Interleaved reference slices of a fixed amount of kernel work.

    The machine changes speed in phases of a second or more (another
    tenant on the sibling hyperthread), so each timing is scaled by the
    rate of the slices next to it, not by one rate for the whole run.
    A slice is either `units` kernel units in this process, or, with
    `process=True`, a fresh interpreter that imports numpy and
    scipy.optimize and solves one tiny LP; the second tracks the cost of
    starting a process and importing, which the in-process slice does not
    (see NOTES.md).
    """

    def __init__(self, process=False, units=40, width=2):
        self.process = process
        self.units = units
        self.width = width
        self.r0 = R0_PROCESS if process else R0
        self.rates = []
        self.seconds = 0.0

    def slice(self):
        t0 = time.perf_counter()
        if self.process:
            subprocess.run([sys.executable, __file__], check=True,
                           capture_output=True, timeout=60)
        else:
            for _ in range(self.units):
                _unit()
        dt = time.perf_counter() - t0
        self.seconds += dt
        self.rates.append((1.0 if self.process else self.units) / dt)

    def mark(self):
        """Position of the next slice; pass it to `factor` for a timing
        that starts now."""
        return len(self.rates)

    def factor(self, mark):
        """Multiply a raw duration that started at `mark` by this to get a
        normalised one: mean rate of the `width` slices on either side."""
        near = self.rates[max(0, mark - self.width):mark + self.width]
        return sum(near) / len(near) / self.r0

    def median_rate(self):
        r = sorted(self.rates)
        return r[len(r) // 2]


if __name__ == "__main__":
    # scipy only in the child: the benchmark process must not import it
    import scipy.optimize
    scipy.optimize.linprog([1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[1.0],
                           bounds=(0, None), method="highs")
