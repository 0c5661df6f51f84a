"""Simulation driver: step loop, scene runs, snapshots, friction sweeps.

One step performs, in order: transfers and system assembly per object, the
unconstrained velocity solve, contact detection on deformed tets, the
coupled impulse solve, velocity correction through each object's admittance,
and the gather/advection pass with plastic projection.  A step either
completes or leaves the state untouched.
"""

import csv
import dataclasses
import logging
import os

import numpy as np

from . import collision, contact, implicit, solver, transfers
from .constitutive import plastic_project_batch, project_tangent_batch, stress_batch
from .errors import ConfigError
from .kernels import stencil_batch
from .scene import ParticleArrays, SceneConfig, parse_scene, seed_particles
from .transfers import Grid, TransferType

logger = logging.getLogger(__name__)

DIAGNOSTICS_HEADER = ("step", "time", "n_contacts", "admm_iters", "ncp_residual",
                      "max_penetration", "kinetic_energy")
SNAPSHOT_HEADER = ("body_id", "px", "py", "pz", "vx", "vy", "vz", "detF")


@dataclasses.dataclass
class StepDiagnostics:
    step: int
    time: float
    n_contacts: int
    admm_iters: int
    ncp_residual: float
    max_penetration: float
    kinetic_energy: float
    com_velocity: dict
    converged: bool = True
    contact_mu: np.ndarray | None = None
    contact_impulses: np.ndarray | None = None
    contact_sigma: np.ndarray | None = None
    contact_gaps: np.ndarray | None = None
    contact_scale: float | None = None


class Body:
    def __init__(self, body_id: int, spec, config: SceneConfig):
        self.body_id = body_id
        self.spec = spec
        self.material = spec.material
        self.kinematic = spec.kinematic
        self.pts = ParticleArrays.from_particles(seed_particles(spec, body_id))
        self.grid = None if self.kinematic else Grid(
            config.grid_spacing, config.grid_origin, config.grid_dims
        )
        self.system = None
        self._static_prims = None

    def primitives(self):
        if self.kinematic:
            if self._static_prims is None:
                self._static_prims = collision.build_primitives(
                    self.pts, self.body_id, static=True
                )
            return self._static_prims
        return collision.build_primitives(self.pts, self.body_id)


class SimState:
    def __init__(self, config: SceneConfig):
        self.config = config
        self.bodies = [Body(i, spec, config) for i, spec in enumerate(config.bodies)]
        self.time = 0.0
        self.step_index = 0
        if not any(not b.kinematic for b in self.bodies):
            raise ConfigError("scene needs at least one dynamic body")

    @property
    def dynamic_bodies(self):
        return [b for b in self.bodies if not b.kinematic]


def _kinetic_energy(state: SimState) -> float:
    return sum(
        0.5 * float(np.sum(b.pts.mass * np.einsum("ni,ni->n", b.pts.v, b.pts.v)))
        for b in state.dynamic_bodies
    )


def _com_velocity(body: Body) -> np.ndarray:
    m = body.pts.mass
    return (m[:, None] * body.pts.v).sum(axis=0) / m.sum()


def step(state: SimState) -> StepDiagnostics:
    """Advance the scene by one time step; atomic on error."""
    cfg = state.config
    dt = cfg.dt
    dyn = state.dynamic_bodies
    backups = [(b, b.pts.state_backup()) for b in dyn]
    try:
        stens = {}
        systems = {}
        grids = {}
        v_free = {}
        for body in dyn:
            pts, grid = body.pts, body.grid
            P, T, _, _ = stress_batch(
                pts.F_elastic, body.material, with_tangent=True,
                fixed_rotation=cfg.fixed_corotational_tangent,
            )
            if cfg.tangent_projection:
                T = project_tangent_batch(T)
            pts.stress = P
            grid.clear()
            sten = stencil_batch(pts.x, cfg.kernel, grid)
            transfers.p2g(pts, grid, cfg.kernel, cfg.transfer, sten)
            grid.finalize(cfg.boundary_layers)
            transfers.internal_forces(pts, grid, cfg.kernel, sten)
            grid.node_force_ext[grid.active_nodes] = (
                grid.node_mass[grid.active_nodes, None] * cfg.gravity
            )
            body.system = implicit.assemble(
                pts, grid, dt, T, cfg.rayleigh_alpha, cfg.rayleigh_beta, sten
            )
            stens[body.body_id] = sten
            systems[body.body_id] = body.system
            grids[body.body_id] = grid
            v_free[body.body_id] = implicit.free_velocity(body.system, grid.active_velocity())

        prims = []
        for body in state.bodies:
            prims.extend(body.primitives())
        cell = 2.0 * collision.bounding_radius(prims)
        contacts = collision.detect_contacts(prims, max(cell, cfg.contact_margin), cfg.contact_margin)

        if contacts:
            jac = contact.build_jacobian(contacts, grids, cfg.kernel)
            mu = np.array([cfg.mu(c.prim_a.body_id, c.prim_b.body_id) for c in contacts])
            stacked_free = jac.stack(v_free)
            problem = contact.build_delassus(jac, systems, stacked_free, mu)
            result = solver.solve(problem, tol=cfg.admm_tol, max_iters=cfg.admm_max_iters)
            dv = contact.apply_impulses(jac, systems, result.impulses.ravel())
            v_new = jac.split(stacked_free + dv)
        else:
            mu = None
            result = None
            v_new = v_free

        for body in dyn:
            body.grid.set_active_velocity(v_new[body.body_id])
            transfers.g2p(body.grid, body.pts, cfg.kernel, cfg.transfer, dt, stens[body.body_id])
            Fe, Fp = plastic_project_batch(body.pts.F_elastic, body.material, body.pts.F_plastic)
            body.pts.F_elastic, body.pts.F_plastic = Fe, Fp
            dets = np.linalg.det(body.pts.F)
            if np.any(dets <= 0):
                logger.warning(
                    "body %d: %d particles with non-positive det(F) after step %d",
                    body.body_id, int(np.sum(dets <= 0)), state.step_index + 1,
                )
    except Exception:
        for body, backup in backups:
            body.pts.state_restore(backup)
        raise

    state.time += dt
    state.step_index += 1
    gaps = np.array([c.gap for c in contacts]) if contacts else np.zeros(0)
    max_pen = float(max(0.0, -gaps.min())) if len(gaps) else 0.0
    return StepDiagnostics(
        step=state.step_index,
        time=state.time,
        n_contacts=len(contacts),
        admm_iters=result.iterations if result else 0,
        ncp_residual=result.ncp_residual if result else 0.0,
        max_penetration=max_pen,
        kinetic_energy=_kinetic_energy(state),
        com_velocity={b.body_id: _com_velocity(b) for b in dyn},
        converged=result.converged if result else True,
        contact_mu=mu,
        contact_impulses=result.impulses if result else None,
        contact_sigma=result.sigma if result else None,
        contact_gaps=gaps if len(gaps) else None,
        contact_scale=result.scale if result else None,
    )


def write_snapshot(state: SimState, path: str):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(SNAPSHOT_HEADER)
        for body in state.bodies:
            dets = np.linalg.det(body.pts.F)
            for i in range(len(body.pts)):
                w.writerow([
                    body.body_id,
                    repr(float(body.pts.x[i, 0])), repr(float(body.pts.x[i, 1])),
                    repr(float(body.pts.x[i, 2])),
                    repr(float(body.pts.v[i, 0])), repr(float(body.pts.v[i, 1])),
                    repr(float(body.pts.v[i, 2])),
                    repr(float(dets[i])),
                ])


def run(scene, frames: int, out_dir: str) -> list:
    """Run a scene for ``frames`` steps, writing snapshots and diagnostics.

    ``scene`` is a SceneConfig or a scene-file path.  The implementation is
    single-threaded and deterministic.  With frames == 0 only the initial
    snapshot is written.
    """
    config = parse_scene(scene) if isinstance(scene, str) else scene
    state = SimState(config)
    os.makedirs(out_dir, exist_ok=True)
    records = []
    if frames == 0:
        write_snapshot(state, os.path.join(out_dir, "frame_0000.csv"))
    for k in range(1, frames + 1):
        diag = step(state)
        records.append(diag)
        write_snapshot(state, os.path.join(out_dir, f"frame_{k:04d}.csv"))
        if not diag.converged:
            logger.info(
                "step %d: impulse solver stopped at residual %.3e after %d iterations",
                diag.step, diag.ncp_residual, diag.admm_iters,
            )
    with open(os.path.join(out_dir, "diagnostics.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(DIAGNOSTICS_HEADER)
        for d in records:
            w.writerow([
                d.step, repr(float(d.time)), d.n_contacts, d.admm_iters,
                repr(float(d.ncp_residual)), repr(float(d.max_penetration)),
                repr(float(d.kinetic_energy)),
            ])
    return records


def plane_frame(config: SceneConfig):
    """Upward normal of the (single) kinematic plane and the downhill tangent."""
    kin = [b for b in config.bodies if b.kinematic]
    if len(kin) != 1:
        raise ConfigError("friction sweep expects exactly one kinematic body")
    verts = kin[0].mesh.vertices + kin[0].initial_translation
    centered = verts - verts.mean(axis=0)
    _, _, Vt = np.linalg.svd(centered, full_matrices=False)
    n = Vt[-1]  # least-variance direction of a thin slab
    g = config.gravity
    if n @ g > 0:
        n = -n
    g_t = g - (g @ n) * n
    norm = np.linalg.norm(g_t)
    if norm < 1e-10 * max(np.linalg.norm(g), 1e-300):
        raise ConfigError("plane is level: no downhill direction")
    return n, g_t / norm


def sweep_mu(scene, mus, frames: int = 180, skip_fraction: float = 0.1) -> list:
    """Mean downhill sliding speed of the dynamic body for each friction value.

    For each mu the scene is re-run from scratch with every pair coefficient
    set to mu.  The mean is taken over steps with at least one contact,
    skipping the leading ``skip_fraction`` of them (impact transient).
    Returns a list of (mu, mean_speed, window_times) triples; the times let a
    caller compare against a closed-form speed profile over the same window.
    """
    base = parse_scene(scene) if isinstance(scene, str) else scene
    dyn = [b for b in base.bodies if not b.kinematic]
    if len(dyn) != 1:
        raise ConfigError("friction sweep expects exactly one dynamic body")
    _, downhill = plane_frame(base)
    out = []
    for mu in mus:
        config = dataclasses.replace(base, friction_default=float(mu), friction_pairs={})
        state = SimState(config)
        dyn_id = state.dynamic_bodies[0].body_id
        speeds = []
        for _ in range(frames):
            diag = step(state)
            if diag.n_contacts > 0:
                speeds.append((diag.time, float(diag.com_velocity[dyn_id] @ downhill)))
        skip = int(len(speeds) * skip_fraction)
        window = speeds[skip:]
        mean = float(np.mean([s for _, s in window])) if window else 0.0
        logger.info("sweep mu=%.3f: %d contact steps, mean downhill speed %.6f",
                    mu, len(speeds), mean)
        out.append((float(mu), mean, [t for t, _ in window]))
    return out
