"""Step loop: atomicity, outputs, conservation, sweeps."""

import csv
import os

import numpy as np
import pytest

from tetmpm import collision, driver, solver
from tetmpm.constitutive import MaterialLaw, MaterialParams, Plasticity
from tetmpm.driver import DIAGNOSTICS_HEADER, SNAPSHOT_HEADER, SimState, plane_frame, sweep_mu
from tetmpm.errors import ConfigError
from tetmpm.meshgen import box_mesh, rotated, rotation_x
from tetmpm.presets import preset
from tetmpm.scene import BodySpec, SceneConfig

MAT = dict(youngs_modulus=5e4, poisson_ratio=0.3, density=1000.0)


def _free_fall_config(**kw):
    cube = BodySpec(mesh=box_mesh((0.1, 0.1, 0.1), (2, 2, 2), origin=(0.3, 0.3, 0.4)),
                    material=MaterialParams(law=MaterialLaw.NEOHOOKEAN, **MAT))
    defaults = dict(bodies=[cube], dt=2e-3, grid_spacing=0.05,
                    grid_dims=(16, 16, 16), friction_default=0.4)
    defaults.update(kw)
    return SceneConfig(**defaults)


def _contact_config():
    a = 0.15
    lower = BodySpec(mesh=box_mesh((a, a, a), (2, 2, 2), origin=(0.3, 0.3, 0.2)),
                     material=MaterialParams(law=MaterialLaw.NEOHOOKEAN, **MAT))
    upper = BodySpec(mesh=box_mesh((a, a, a), (2, 2, 2), origin=(0.3, 0.3, 0.2 + a + 0.002)),
                     material=MaterialParams(law=MaterialLaw.NEOHOOKEAN, **MAT))
    return SceneConfig(bodies=[lower, upper], dt=2e-3, grid_spacing=0.05,
                       grid_dims=(14, 14, 14), friction_default=0.4)


# ---------------------------------------------------------------------------
# stepping basics


def test_step_advances_time_and_counters():
    state = SimState(_free_fall_config())
    d = driver.step(state)
    assert state.step_index == 1
    assert abs(state.time - state.config.dt) <= 1e-18
    assert d.step == 1
    assert d.n_contacts == 0 and d.admm_iters == 0
    assert d.converged


def test_all_kinematic_scene_rejected():
    floor = BodySpec(mesh=box_mesh((0.2, 0.2, 0.05), (2, 2, 1), origin=(0.2, 0.2, 0.2)),
                     material=MaterialParams(), kinematic=True)
    with pytest.raises(ConfigError):
        SimState(SceneConfig(bodies=[floor], grid_dims=(12, 12, 12)))


def test_free_fall_velocity_matches_gravity():
    state = SimState(_free_fall_config())
    g = state.config.gravity
    for k in range(1, 6):
        driver.step(state)
        pts = state.bodies[0].pts
        expect = k * state.config.dt * g
        assert np.abs(pts.v - expect).max() <= 1e-10


def test_step_atomic_when_impulse_solver_fails(monkeypatch):
    state = SimState(_contact_config())
    # settle until the bodies touch
    for _ in range(20):
        if driver.step(state).n_contacts:
            break
    before = [(b.pts.x.copy(), b.pts.v.copy(), b.pts.F_elastic.copy())
              for b in state.bodies]
    t_before, i_before = state.time, state.step_index

    def boom(problem, tol, max_iters):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(driver.solver, "solve", boom)
    with pytest.raises(RuntimeError):
        driver.step(state)
    assert state.time == t_before and state.step_index == i_before
    for body, (x, v, Fe) in zip(state.bodies, before):
        assert np.array_equal(body.pts.x, x)
        assert np.array_equal(body.pts.v, v)
        assert np.array_equal(body.pts.F_elastic, Fe)


def test_steps_deterministic():
    rec1, rec2 = [], []
    for rec in (rec1, rec2):
        state = SimState(_contact_config())
        for _ in range(8):
            rec.append(driver.step(state))
        rec.append(np.concatenate([b.pts.x.ravel() for b in state.bodies]))
    assert np.array_equal(rec1[-1], rec2[-1])
    for d1, d2 in zip(rec1[:-1], rec2[:-1]):
        assert d1.ncp_residual == d2.ncp_residual
        assert d1.admm_iters == d2.admm_iters


def test_deviatoric_eraser_applied_every_step():
    cfg = _free_fall_config()
    cfg.bodies[0].material.plasticity = Plasticity.DEVIATORIC_ERASER
    state = SimState(cfg)
    pts = state.bodies[0].pts
    # pre-shear the elastic state; the step must erase it (volume kept)
    shear = np.eye(3)
    shear[0, 1] = 0.3
    pts.F_elastic[:] = shear
    pts.F[:] = shear
    det_before = np.linalg.det(pts.F_elastic).copy()
    driver.step(state)
    Fe = pts.F_elastic
    off = Fe - Fe[:, (0, 1, 2), (0, 1, 2)].mean(axis=1)[:, None, None] * np.eye(3)
    assert np.abs(off).max() <= 1e-12
    # the shear responds elastically during the step, so volume drifts a
    # little; the multiplicative split F = Fe Fp must stay consistent
    assert np.abs(np.linalg.det(Fe) / det_before - 1.0).max() <= 0.05
    split = np.linalg.det(Fe) * np.linalg.det(pts.F_plastic)
    assert np.abs(split - np.linalg.det(pts.F)).max() <= 1e-10


# ---------------------------------------------------------------------------
# conservation through contact (two dynamic blocks, no floor involvement)


def test_momentum_follows_gravity_while_blocks_touch():
    cfg = preset("block-stack")
    state = SimState(cfg)
    dyn = state.dynamic_bodies
    total_mass = sum(b.pts.mass.sum() for b in dyn)
    dp_gravity = cfg.dt * total_mass * cfg.gravity
    floor_top = 0.05

    checked = 0
    for _ in range(12):
        # the floor cannot touch while every deformed tet clears the margin
        zmin = min(
            (b.pts.x[:, None, :] + np.einsum("nab,nkb->nka", b.pts.F, b.pts.offsets))[
                ..., 2].min()
            for b in dyn
        )
        clear_of_floor = zmin > floor_top + cfg.contact_margin + 0.002
        p_before = sum((b.pts.mass[:, None] * b.pts.v).sum(axis=0) for b in dyn)
        d = driver.step(state)
        if not (clear_of_floor and d.n_contacts > 0):
            continue
        p_after = sum((b.pts.mass[:, None] * b.pts.v).sum(axis=0) for b in dyn)
        err = np.linalg.norm((p_after - p_before) - dp_gravity)
        assert err <= 1e-8 * np.linalg.norm(dp_gravity)
        checked += 1
    assert checked >= 3


# ---------------------------------------------------------------------------
# run(): snapshots and diagnostics files


def test_static_pairs_never_reach_narrowphase(monkeypatch):
    # plastic-walls has three kinematic bodies that touch each other
    state = SimState(preset("plastic-walls"))
    kinematic = {b.body_id for b in state.bodies if b.kinematic}
    seen = []
    narrowphase = collision.narrowphase

    def recording(pair, margin):
        seen.append((pair[0].body_id, pair[1].body_id))
        return narrowphase(pair, margin)

    monkeypatch.setattr(collision, "narrowphase", recording)
    driver.step(state)
    assert seen
    assert not any(a in kinematic and b in kinematic for a, b in seen)


def test_run_writes_frames_and_diagnostics(tmp_path):
    cfg = _free_fall_config()
    out = str(tmp_path / "out")
    records = driver.run(cfg, 4, out)
    assert len(records) == 4
    files = sorted(os.listdir(out))
    assert files == ["diagnostics.csv", "frame_0001.csv", "frame_0002.csv",
                     "frame_0003.csv", "frame_0004.csv"]

    with open(os.path.join(out, "diagnostics.csv")) as f:
        rows = list(csv.reader(f))
    assert tuple(rows[0]) == DIAGNOSTICS_HEADER
    assert len(rows) == 1 + 4
    assert [int(r[0]) for r in rows[1:]] == [1, 2, 3, 4]
    assert abs(float(rows[1][1]) - cfg.dt) <= 1e-18

    n_particles = sum(len(b.mesh.tets) for b in cfg.bodies)
    with open(os.path.join(out, "frame_0004.csv")) as f:
        rows = list(csv.reader(f))
    assert tuple(rows[0]) == SNAPSHOT_HEADER
    assert len(rows) == 1 + n_particles
    # positions are parseable floats and detF stays near 1 in free fall
    dets = np.array([float(r[7]) for r in rows[1:]])
    assert np.abs(dets - 1.0).max() <= 1e-6


def test_run_zero_frames_writes_initial_snapshot(tmp_path):
    out = str(tmp_path / "zero")
    records = driver.run(_free_fall_config(), 0, out)
    assert records == []
    assert sorted(os.listdir(out)) == ["diagnostics.csv", "frame_0000.csv"]


def test_run_accepts_scene_file(tmp_path):
    from tetmpm.scene import write_scene
    path = write_scene(_free_fall_config(), str(tmp_path), name="drop")
    records = driver.run(path, 2, str(tmp_path / "out"))
    assert len(records) == 2


# ---------------------------------------------------------------------------
# incline plane frame and friction sweep


def test_plane_frame_matches_incline_geometry():
    angle = np.pi / 6
    cfg = preset("incline-slide")
    n, downhill = plane_frame(cfg)
    assert abs(np.linalg.norm(n) - 1.0) <= 1e-12
    assert abs(np.linalg.norm(downhill) - 1.0) <= 1e-12
    assert n @ cfg.gravity < 0.0            # points away from the slab
    assert abs(n @ downhill) <= 1e-12
    assert downhill @ cfg.gravity > 0.0     # downhill gains gravitational energy
    assert abs(n[2] - np.cos(angle)) <= 1e-9
    expected_down = cfg.gravity - (cfg.gravity @ n) * n
    expected_down /= np.linalg.norm(expected_down)
    assert np.abs(downhill - expected_down).max() <= 1e-12


def test_plane_frame_rejects_level_and_ambiguous_scenes():
    with pytest.raises(ConfigError):
        plane_frame(preset("cube-drop"))        # level floor: no downhill
    with pytest.raises(ConfigError):
        plane_frame(_free_fall_config())        # no kinematic body


def test_sweep_mu_separates_slip_from_stick():
    angle = np.pi / 6
    R = rotation_x(-angle)
    slab = BodySpec(mesh=rotated(box_mesh((0.3, 0.9, 0.08), (1, 3, 1),
                                          origin=(-0.15, -0.2, -0.08)), R),
                    material=MaterialParams(), kinematic=True)
    block = BodySpec(mesh=rotated(box_mesh((0.1, 0.1, 0.1), (2, 2, 2),
                                           origin=(-0.05, 0.0, 0.002)), R),
                     material=MaterialParams(law=MaterialLaw.NEOHOOKEAN, **MAT))
    cfg = SceneConfig(bodies=[slab, block], dt=2e-3, grid_spacing=0.05,
                      grid_origin=(-0.3, -0.3, -0.35), grid_dims=(11, 18, 12))
    results = sweep_mu(cfg, [0.0, 0.9], frames=50)
    assert [mu for mu, _, _ in results] == [0.0, 0.9]
    speeds = {mu: s for mu, s, _ in results}
    assert speeds[0.0] > 0.05          # frictionless: clearly sliding
    assert abs(speeds[0.9]) < 0.5 * speeds[0.0]   # far above tan(30): slower
    for _, _, times in results:
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))


def test_sweep_mu_rejects_multiple_dynamic_bodies():
    with pytest.raises(ConfigError):
        sweep_mu(_contact_config(), [0.5], frames=1)
