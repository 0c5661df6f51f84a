"""Host-speed calibration: a fixed reference workload timed between steps.

On a shared machine the speed a process gets is set by the host.  On the
2-vCPU Xeon virtual machine (2.0 GHz) the bounds were set on, the same step
took from 0.63 s to 1.33 s within a minute, with CPU time equal to wall
time; the speed switched within seconds and drifted over minutes, and no
estimator over wall times alone (means, medians, minima) kept ten runs
within 25% of each other.

The benchmark therefore runs a fixed reference unit right after each step
and reports calibrated time: wall time multiplied by
``NOMINAL_UNIT_S / (mean wall time of a reference unit)`` over the same
stretch of the run.  A slow host slows the step and the reference alike, so
the factor cancels it, while a change to the simulator changes only the
step: on that machine the reference unit took 17-33 ms over a minute while
the ratio of a step's time to it stayed within 34-53.  ``NOMINAL_UNIT_S`` is
the unit's time at the fastest speed seen there, so calibrated times read
as seconds on that host at full speed.  The reference uses only Python,
numpy and scipy, never ``tetmpm``, and mixes what a step spends its time
on: interpreted loops, small-array numpy calls, a sparse LU solve and a
dense solve.
"""

from time import perf_counter

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

NOMINAL_UNIT_S = 0.018   # wall time of one reference unit on that host at full speed
SHARE = 0.25             # reference time run after each step, as a share of the step's time
HALF_WINDOW_S = 2.0      # reference work within this many seconds of a step calibrates it


def _laplacian(n: int):
    """The 7-point Laplacian on an n^3 grid plus a diagonal shift: an SPD system like a step's."""
    d = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sparse.identity(n)
    lap = (sparse.kron(sparse.kron(d, eye), eye) + sparse.kron(sparse.kron(eye, d), eye)
           + sparse.kron(sparse.kron(eye, eye), d))
    return (lap + 0.1 * sparse.identity(n ** 3)).tocsc()


class Reference:
    """Runs reference units and keeps the count and wall time of those run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._system = _laplacian(10)
        self._rhs = rng.standard_normal(self._system.shape[0])
        self._dense = rng.standard_normal((160, 160)) + 160.0 * np.eye(160)
        self._vectors = rng.standard_normal((64, 3))
        self.units = 0
        self.wall = 0.0

    def unit(self) -> float:
        """One fixed unit of work; returns a checksum so none of it is skipped."""
        total = 0.0
        table = {}
        for i in range(40000):
            total += (i * 0.5) % 7.0
            table[i & 255] = total
        vs = self._vectors
        for i in range(250):
            a, b = vs[i & 63], vs[(i * 7 + 1) & 63]
            c = np.cross(a, b)
            total += float(np.dot(c, a)) + float(np.linalg.norm(c))
        x = sparse_linalg.splu(self._system).solve(self._rhs)
        total += float(x[0])
        total += float(np.linalg.solve(self._dense, self._rhs[:160])[0])
        return total

    def run_for(self, seconds: float) -> float:
        """Run whole units until ``seconds`` have passed (at least one); return the wall time."""
        t0 = perf_counter()
        units = 0
        while True:
            self.unit()
            units += 1
            wall = perf_counter() - t0
            if wall >= seconds:
                break
        self.units += units
        self.wall += wall
        return wall

    def factor(self) -> float:
        """Calibration factor over every unit run so far: nominal over measured unit time."""
        return NOMINAL_UNIT_S * self.units / self.wall if self.units else 1.0


def calibrate_steps(durations, refs, stamps, half_window=HALF_WINDOW_S):
    """Step times scaled by the reference work after the steps within ``half_window`` of each.

    ``refs`` holds the units and wall time of the reference work after each
    step and ``stamps`` the time each step ended, in the order the steps ran.
    """
    out = []
    for d, t in zip(durations, stamps):
        window = [r for r, s in zip(refs, stamps) if abs(s - t) <= half_window]
        out.append(d * NOMINAL_UNIT_S * sum(u for u, _ in window) / sum(w for _, w in window))
    return out
