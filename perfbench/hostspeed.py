"""How fast the host runs a fresh Python process right now.

    python3 perfbench/hostspeed.py    # the probe: fixed work, no output

On a shared machine the time a fresh interpreter takes for fixed work
drifts by a third or more over minutes, and a run of the benchmark spans
only half a minute of it.  The drift is mostly in what a new process pays
(start-up, page faults, a cold heap): the same work repeated inside one
long-lived process barely moves.  So the untraced run launches this probe
before and after every op and every set-up launch, the way it launches
the ops, and scales each wall time to the reference speed: the speed at
which the probe takes ``REFERENCE_S``.  The probe uses only the standard
library, so no change to psdbounds can move it.  The raw wall times are
printed in the report line beside the scaled metrics.
"""

from __future__ import annotations

from fractions import Fraction

# about the probe's wall time, launch to exit, on an idle 2-vCPU VM at
# 2.0 GHz with CPython 3.11
REFERENCE_S = 0.1
N = 14  # order of the Fraction matrix the probe eliminates


def work() -> None:
    """A fixed loop of small-int arithmetic and dict stores, then Gaussian
    elimination of a fixed Fraction matrix: the kinds of work psdbounds
    spends its time on."""
    s, d = 0, {}
    for i in range(150_000):
        s += i * i % 7
        d[i & 1023] = s
    a = [[Fraction((7 * i + 3 * j) % 19 - 9, (i * j) % 8 + 1) for j in range(N)]
         for i in range(N)]
    for c in range(N):
        p = next((r for r in range(c, N) if a[r][c]), None)
        if p is None:
            continue
        a[c], a[p] = a[p], a[c]
        for r in range(c + 1, N):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]


def scale(before: float, after: float) -> float:
    """Factor that takes a wall time measured between two probes to the
    reference speed."""
    return REFERENCE_S / ((before + after) / 2)


if __name__ == "__main__":
    work()
