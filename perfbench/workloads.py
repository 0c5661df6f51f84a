"""The benchmark's workloads, the per-step recorder and the correctness checks.

Each workload is a closed loop in one process: one episode is one call into
a public entry point (``driver.run`` or ``driver.sweep_mu``), and the next
episode starts when the previous one returns.
"""

import dataclasses
from time import perf_counter

import numpy as np

import calibrate
from tetmpm import driver, presets

SHIFT_CELLS = 1           # largest lateral shift a seed applies, in grid cells
CONE_SLACK = 1e-8         # cone-feasibility slack, relative to the solve's scale
FREEFALL_RTOL = 1e-9      # centre-of-mass velocity against -g t
SWEEP_BAND = 0.05         # allowed speed rise with mu, as a share of the fastest


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str
    frames: int           # steps per driver.run call, or per friction value in a sweep
    mus: tuple = ()       # friction values; a non-empty tuple makes the episode a sweep
    free_fall: bool = False   # the window ends before any contact


WORKLOADS = {w.name: w for w in (
    Workload(
        "freefall",
        "contact-free fall of cube-drop through driver.run with snapshots: "
        "assembly, transfers and broad phase only",
        "cube-drop", frames=40, free_fall=True,
    ),
    Workload(
        "stack",
        "block-stack from step 1 through driver.run: narrow phase dominates, "
        "Delassus spans two bodies, ADMM is light",
        "block-stack", frames=6,
    ),
    Workload(
        "sweep",
        "driver.sweep_mu on incline-slide over mu on both sides of tan 30 deg: "
        "short re-seeded scenes with the heaviest ADMM load",
        "incline-slide", frames=6, mus=(0.3, 0.5, 0.7, 0.9),
    ),
)}


def build_config(w: Workload, seed: int):
    """The workload's scene for one seed.

    For ``driver.run`` workloads the seed shifts every dynamic body by one
    common lateral offset of whole grid cells, so the bodies keep their
    placement relative to each other and to the grid, and the system sizes
    do not change with the seed.  The sweep keeps the preset's placement:
    ADMM iteration counts on the incline change from tens to the
    1000-iteration cap under a 10 micrometre shift of the block; there the
    seed only orders the friction values (see ``sweep_order``).
    """
    config = presets.preset(w.preset)
    if not w.mus:
        cells = np.random.default_rng(seed).integers(-SHIFT_CELLS, SHIFT_CELLS + 1, size=2)
        offset = np.append(cells * config.grid_spacing, 0.0)
        for body in config.bodies:
            if not body.kinematic:
                body.initial_translation = body.initial_translation + offset
    return config


def sweep_order(w: Workload, seed: int) -> list:
    """Friction values in the order a seed gives; each is an independent scene."""
    return [float(m) for m in np.random.default_rng(seed).permutation(w.mus)]


def run_episode(w: Workload, config, out_dir: str, seed: int):
    if w.mus:
        return driver.sweep_mu(config, sweep_order(w, seed), frames=w.frames)
    return driver.run(config, w.frames, out_dir)


class StepRecorder:
    """Wraps ``driver.step``: times each call and keeps what the checks need.

    Each step is followed by work of the ``calibrate.Reference`` for
    ``calibrate.SHARE`` of its wall time, and ``refs`` holds the units
    and wall time of the reference work after each step and ``stamps`` the
    time each step ended (see ``calibrate``).
    ``segments`` holds, for each step, the wall time from the end of the
    reference work before it (or the start of the episode) to the end of
    the step, so the segments of an episode cover all of it but the tail.
    """

    def __init__(self, reference):
        self.reference = reference
        self.durations = []
        self.refs = []
        self.stamps = []
        self.segments = []
        self._since = perf_counter()
        self.diags = []
        self.states = []
        self.attempted = 0
        self.failed = 0
        self.converged = 0

    def wrap(self, step):
        def recorded(state):
            self.attempted += 1
            if not self.states or self.states[-1] is not state:
                self.states.append(state)
            t0 = perf_counter()
            try:
                diag = step(state)
            except Exception:
                self.failed += 1
                raise
            t1 = perf_counter()
            duration = t1 - t0
            self.durations.append(duration)
            self.stamps.append(t1)
            self.segments.append(t1 - self._since)
            self.diags.append(diag)
            units, wall = self.reference.units, self.reference.wall
            self.reference.run_for(calibrate.SHARE * duration)
            self.refs.append((self.reference.units - units, self.reference.wall - wall))
            self._since = perf_counter()
            self.converged += int(diag.converged)
            if not all(np.isfinite(b.pts.x).all() and np.isfinite(b.pts.v).all()
                       for b in state.dynamic_bodies):
                self.failed += 1
            return diag

        return recorded

    def clear_episode(self):
        """Start an episode: forget the last one's states and diagnostics."""
        self.diags = []
        self.states = []
        self._since = perf_counter()


def check_episode(w: Workload, config, recorder: StepRecorder, result) -> list:
    """Correctness failures of one episode, as messages; empty when it passed."""
    errors = []
    for state in recorder.states:
        errors += _check_state(state)
    for d in recorder.diags:
        errors += _check_contacts(d, config)
    if w.free_fall:
        errors += _check_freefall(recorder.diags, config)
    if w.mus:
        errors += _check_sweep(result, w)
    elif len(result) != w.frames:
        errors.append(f"driver.run returned {len(result)} records for {w.frames} frames")
    return errors


def _check_state(state) -> list:
    errors = []
    for b in state.bodies:
        p = b.pts
        for field in ("x", "v", "F", "F_elastic", "F_plastic", "affine"):
            if not np.isfinite(getattr(p, field)).all():
                errors.append(f"body {b.body_id}: non-finite {field} at step {state.step_index}")
        if np.isfinite(p.F).all() and not (np.linalg.det(p.F) > 0).all():
            errors.append(f"body {b.body_id}: det(F) <= 0 at step {state.step_index}")
    return errors


def _check_contacts(d, config) -> list:
    errors = []
    if d.max_penetration > 0.5 * config.grid_spacing:
        errors.append(f"step {d.step}: penetration {d.max_penetration:.3e} m "
                      f"exceeds half a grid cell")
    if d.contact_impulses is not None:
        lam, mu = d.contact_impulses, d.contact_mu
        slack = CONE_SLACK * d.contact_scale
        lam_t = np.hypot(lam[:, 0], lam[:, 1])
        if (lam[:, 2] < -slack).any() or (lam_t > mu * lam[:, 2] + slack).any():
            errors.append(f"step {d.step}: impulses leave the friction cone")
    return errors


def _check_freefall(diags, config) -> list:
    errors = []
    g = config.gravity[2]
    for d in diags:
        if d.n_contacts:
            errors.append(f"step {d.step}: {d.n_contacts} contacts before impact")
        expected = g * d.time
        for body_id, v in d.com_velocity.items():
            if abs(v[2] - expected) > FREEFALL_RTOL * abs(expected):
                errors.append(f"step {d.step}: body {body_id} vz {float(v[2])!r} "
                              f"!= g t {float(expected)!r}")
    return errors


def _check_sweep(result, w: Workload) -> list:
    if sorted(m for m, _, _ in result) != sorted(w.mus):
        return [f"sweep returned friction values {[m for m, _, _ in result]}"]
    speeds = [s for _, s, _ in sorted(result)]
    if not np.isfinite(speeds).all():
        return [f"sweep speeds not finite: {speeds}"]
    band = SWEEP_BAND * max(abs(s) for s in speeds)
    return [
        f"sweep speed rises from {a!r} to {b!r} with mu"
        for a, b in zip(speeds, speeds[1:]) if b > a + band
    ]
