"""Implicit velocity system: assembly, factorization, free step, admittance."""

import logging

import numpy as np
import pytest
import scipy.sparse as sp

from tetmpm import driver, implicit, transfers
from tetmpm.constitutive import (
    MaterialLaw,
    MaterialParams,
    project_tangent_batch,
    stress_batch,
)
from tetmpm.errors import FactorizationError
from tetmpm.kernels import KernelType, stencil_batch
from tetmpm.meshgen import box_mesh
from tetmpm.scene import BodySpec, ParticleArrays, SceneConfig
from tetmpm.transfers import Grid, TransferType

LAWS = list(MaterialLaw)
DT = 2e-3


def _material(law=MaterialLaw.NEOHOOKEAN, E=5e4, nu=0.3, rho=1200.0):
    return MaterialParams(law=law, youngs_modulus=E, poisson_ratio=nu, density=rho)


SMALL_DIMS = (11, 10, 12)
LARGE_DIMS = (18, 17, 17)  # a dense cloud here has more than 3000 DOFs


def _cloud(rng, n=40, deform=0.08, speed=0.5, spacing=0.1, density=1200.0,
           dims=SMALL_DIMS):
    """Random particle cloud whose quadratic stencils stay interior."""
    grid = Grid(spacing=spacing, origin=np.zeros(3), dims=dims)
    lo = 2.6 * spacing
    hi = (np.array(grid.dims) - 3.6) * spacing
    x = lo + rng.random((n, 3)) * (hi - lo)
    F = np.eye(3) + deform * rng.standard_normal((n, 3, 3))
    while np.any(np.linalg.det(F) < 0.3):
        bad = np.linalg.det(F) < 0.3
        F[bad] = np.eye(3) + deform * rng.standard_normal((bad.sum(), 3, 3))
    volume = spacing**3 * rng.uniform(0.05, 0.15, n)
    pts = ParticleArrays(
        mass=density * volume,
        volume=volume,
        x=x,
        v=speed * rng.standard_normal((n, 3)),
        F=F,
        F_elastic=F.copy(),
        F_plastic=np.broadcast_to(np.eye(3), (n, 3, 3)).copy(),
        affine=np.zeros((n, 3, 3)),
        offsets=np.zeros((n, 4, 3)),
    )
    return pts, grid


def _assembled(rng, law=MaterialLaw.NEOHOOKEAN, gravity=(0.0, 0.0, -9.81),
               alpha=0.0, beta=0.0, identity_F=False, tangent=None, **cloud_kw):
    """Full pipeline up to the factorized system for one cloud."""
    pts, grid = _cloud(rng, **cloud_kw)
    if identity_F:
        pts.F_elastic[:] = np.eye(3)
        pts.F[:] = np.eye(3)
    mat = _material(law)
    P, T, _, _ = stress_batch(pts.F_elastic, mat, with_tangent=True)
    pts.stress = P
    sten = stencil_batch(pts.x, KernelType.QUADRATIC, grid)
    transfers.p2g(pts, grid, KernelType.QUADRATIC, TransferType.BASIC, sten)
    grid.finalize()
    transfers.internal_forces(pts, grid, KernelType.QUADRATIC, sten)
    grid.node_force_ext[grid.active_nodes] = (
        grid.node_mass[grid.active_nodes, None] * np.asarray(gravity)
    )
    if tangent is not None:
        T = tangent if not np.isscalar(tangent) else np.full_like(T, tangent)
    sys = implicit.assemble(pts, grid, DT, T, alpha, beta, sten)
    return pts, grid, sten, T, sys


# ---------------------------------------------------------------------------
# matrix structure


def test_system_matrix_symmetric():
    rng = np.random.default_rng(0)
    for law in LAWS:
        _, _, _, _, sys = _assembled(rng, law=law)
        diff = (sys.A - sys.A.T).toarray()
        scale = np.abs(sys.A.toarray()).max()
        assert np.abs(diff).max() <= 1e-9 * scale


def test_system_matrix_positive_definite():
    rng = np.random.default_rng(1)
    _, _, _, _, sys = _assembled(rng, deform=0.15)
    A = sys.A.toarray()
    for _ in range(100):
        w = rng.standard_normal(sys.dof_count)
        assert w @ A @ w > 0.0


def test_zero_stiffness_reduces_to_lumped_mass():
    rng = np.random.default_rng(2)
    pts, grid, _, T, sys = _assembled(rng, tangent=0.0)
    assert np.abs((sys.A - sp.diags(sys.mass)).toarray()).max() == 0.0
    # nodewise dv = b / m
    v_n = grid.active_velocity()
    v_free = implicit.free_velocity(sys, v_n)
    expect = v_n + sys.b / sys.mass
    assert np.max(np.abs(v_free - expect)) <= 1e-14 * max(np.abs(expect).max(), 1.0)


def test_vanishing_modulus_approaches_lumped_mass():
    rng = np.random.default_rng(3)
    pts, grid = _cloud(rng)
    mat = MaterialParams(law=MaterialLaw.NEOHOOKEAN, youngs_modulus=1e-6,
                         poisson_ratio=0.3, density=1200.0)
    P, T, _, _ = stress_batch(pts.F_elastic, mat, with_tangent=True)
    pts.stress = P
    sten = stencil_batch(pts.x, KernelType.QUADRATIC, grid)
    transfers.p2g(pts, grid, KernelType.QUADRATIC, TransferType.BASIC, sten)
    grid.finalize()
    transfers.internal_forces(pts, grid, KernelType.QUADRATIC, sten)
    sys = implicit.assemble(pts, grid, DT, T, 0.0, 0.0, sten)
    rel = np.abs((sys.A - sp.diags(sys.mass)).toarray()).max() / sys.mass.max()
    assert rel <= 1e-9


def test_no_rayleigh_terms_when_coefficients_zero():
    rng = np.random.default_rng(4)
    _, _, _, _, sys = _assembled(rng, alpha=0.0, beta=0.0)
    ref = sp.diags(sys.mass) + DT * DT * sys.K
    ref = 0.5 * (ref + ref.T)
    assert np.abs((sys.A - ref).toarray()).max() == 0.0


def test_rayleigh_mass_damping_adds_diagonal():
    rng = np.random.default_rng(5)
    alpha = 0.7
    _, _, _, _, sys0 = _assembled(np.random.default_rng(5), alpha=0.0)
    _, _, _, _, sys1 = _assembled(np.random.default_rng(5), alpha=alpha)
    diff = (sys1.A - sys0.A).toarray()
    expect = np.diag(sys0.mass * DT * alpha)
    assert np.abs(diff - expect).max() <= 1e-12 * sys0.mass.max()


def test_rayleigh_stiffness_damping_scales_stiffness_term():
    beta = 0.3
    _, _, _, _, sys0 = _assembled(np.random.default_rng(6), beta=0.0)
    _, _, _, _, sys1 = _assembled(np.random.default_rng(6), beta=beta)
    diff = (sys1.A - sys0.A).toarray()
    Ksym = 0.5 * (sys0.K + sys0.K.T).toarray()
    expect = beta * DT * Ksym
    scale = max(np.abs(expect).max(), 1e-30)
    assert np.abs(diff - expect).max() <= 1e-10 * scale


# ---------------------------------------------------------------------------
# stiffness consistency against force differences


@pytest.mark.parametrize("law, dims, n", [
    *(pytest.param(law, SMALL_DIMS, 30, id=law.value) for law in LAWS),
    pytest.param(MaterialLaw.NEOHOOKEAN, LARGE_DIMS, 300, id="neohookean-large"),
])
def test_stiffness_matches_force_differences(law, dims, n):
    """K·dv equals the directional derivative of the negative internal force
    under the velocity-driven deformation-gradient update."""
    rng = np.random.default_rng(hash(law) % 2**32)
    pts, grid, sten, T, sys = _assembled(rng, law=law, deform=0.06, n=n, dims=dims)
    idx, _, gw = sten
    ndof = sys.dof_count
    assert (ndof > 3000) == (dims == LARGE_DIMS)

    dv = rng.standard_normal(ndof)
    dv /= np.abs(dv).max()
    dv_nodes = np.zeros((grid.node_count, 3))
    dv_nodes[grid.active_nodes] = dv.reshape(-1, 3)

    # per-particle velocity gradient of the perturbation field
    vj = dv_nodes[idx]                                   # (n, S, 3)
    G = np.einsum("nsc,nsd->ncd", vj, gw)                # sum_j v_j grad_j^T

    mat = _material(law)
    eps = 1e-6 / max(np.abs(G).max(), 1e-12)

    def forces(scale):
        Fe = pts.F_elastic + scale * np.einsum("nce,neb->ncb", G, pts.F_elastic)
        P = stress_batch(Fe, mat, with_tangent=False)[0]
        saved = pts.stress
        pts.stress = P
        grid.node_force_int[:] = 0.0
        transfers.internal_forces(pts, grid, KernelType.QUADRATIC, sten)
        pts.stress = saved
        return grid.node_force_int[grid.active_nodes].ravel().copy()

    fd = (forces(eps) - forces(-eps)) / (2.0 * eps)
    Kdv = sys.K @ dv
    scale = max(np.abs(Kdv).max(), 1e-12)
    assert np.abs(Kdv + fd).max() <= 1e-4 * scale


def _reference_stiffness(pts, grid, T, sten):
    """K summed particle by particle over stencil pairs, as sparse triplets."""
    idx, _, _ = sten
    ndof = 3 * grid.active_count
    comp = np.arange(3)
    rows, cols, vals = [], [], []
    for p in range(len(idx)):
        blk = implicit._particle_blocks(pts, grid, T, sten, p, p + 1)[0]  # (S, 3, S, 3)
        dof = grid.active_map[idx[p]]
        s, t = np.nonzero((dof[:, None] >= 0) & (dof[None, :] >= 0))  # active pairs
        r = 3 * dof[s, None, None] + comp[None, :, None]
        c = 3 * dof[t, None, None] + comp[None, None, :]
        rows.append(np.broadcast_to(r, (len(s), 3, 3)).ravel())
        cols.append(np.broadcast_to(c, (len(s), 3, 3)).ravel())
        vals.append(blk[s, :, t, :].ravel())
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ndof, ndof),
    ).tocsc()


def _kernel_cloud(rng, kernel, n, dims, **cloud_kw):
    pts, grid = _cloud(rng, n=n, dims=dims, **cloud_kw)
    _, T, _, _ = stress_batch(pts.F_elastic, _material(), with_tangent=True)
    sten = stencil_batch(pts.x, kernel, grid)
    transfers.p2g(pts, grid, kernel, TransferType.BASIC, sten)
    return pts, grid, T, sten


@pytest.mark.parametrize("kernel", list(KernelType), ids=lambda k: k.value)
@pytest.mark.parametrize("dims, n", [(SMALL_DIMS, 25), (LARGE_DIMS, 300)],
                         ids=["small", "large"])
def test_stiffness_matches_per_particle_reference(kernel, dims, n):
    rng = np.random.default_rng(7)
    pts, grid, T, sten = _kernel_cloud(rng, kernel, n, dims, deform=0.1)
    grid.finalize(boundary_layers=3)  # clip some stencils at the grid's edge
    ndof = 3 * grid.active_count
    assert (ndof > 3000) == (dims == LARGE_DIMS)
    K = implicit._stiffness(pts, grid, T, sten)
    ref = _reference_stiffness(pts, grid, T, sten)
    assert K.format == "csc" and K.shape == (ndof, ndof)
    scale = np.abs(ref.data).max()
    assert np.abs((K - ref).data).max(initial=0.0) <= 1e-12 * scale


def test_stiffness_without_active_nodes_is_empty():
    rng = np.random.default_rng(8)
    pts, grid, T, sten = _kernel_cloud(rng, KernelType.QUADRATIC, 10, SMALL_DIMS)
    grid.finalize(boundary_layers=6)  # no node of the grid is interior
    assert grid.active_count == 0
    assert implicit._stiffness(pts, grid, T, sten).shape == (0, 0)
    idx, w, gw = sten
    empty = (idx[:0], w[:0], gw[:0])
    assert implicit._stiffness(pts, grid, T[:0], empty).shape == (0, 0)


# ---------------------------------------------------------------------------
# free velocity


def test_free_velocity_zero_rhs_returns_input():
    rng = np.random.default_rng(8)
    _, grid, _, _, sys = _assembled(rng, identity_F=True, gravity=(0.0, 0.0, 0.0))
    assert np.abs(sys.b).max() == 0.0
    v_n = grid.active_velocity()
    assert np.array_equal(implicit.free_velocity(sys, v_n), v_n)


def test_free_velocity_free_fall_single_particle():
    g = np.array([0.0, 0.0, -9.81])
    rng = np.random.default_rng(9)
    _, grid, _, _, sys = _assembled(rng, n=1, identity_F=True, speed=1.0,
                                    gravity=tuple(g))
    v_n = grid.active_velocity()
    v_free = implicit.free_velocity(sys, v_n)
    expect = v_n.reshape(-1, 3) + DT * g
    assert np.abs(v_free.reshape(-1, 3) - expect).max() <= 1e-12


def test_free_velocity_free_fall_stress_free_body():
    # many particles: uniform translation still lies in the stiffness null
    # space, up to factorization roundoff amplified by the modulus
    g = np.array([0.0, 0.0, -9.81])
    rng = np.random.default_rng(10)
    _, grid, _, _, sys = _assembled(rng, n=50, identity_F=True, gravity=tuple(g))
    v_n = grid.active_velocity()
    v_free = implicit.free_velocity(sys, v_n)
    expect = v_n.reshape(-1, 3) + DT * g
    assert np.abs(v_free.reshape(-1, 3) - expect).max() <= 1e-9


# ---------------------------------------------------------------------------
# admittance


def test_admittance_zero_rhs():
    rng = np.random.default_rng(11)
    _, _, _, _, sys = _assembled(rng)
    out = sys.solve(np.zeros(sys.dof_count))
    assert np.abs(out).max() == 0.0


def test_admittance_round_trip():
    # dense cloud keeps nodal masses comparable, so the forward error of the
    # multiply-then-solve round trip reflects the solver, not conditioning
    rng = np.random.default_rng(12)
    _, _, _, _, sys = _assembled(rng, deform=0.12, n=200)
    x = rng.standard_normal(sys.dof_count)
    rhs = sys.A @ x
    back = sys.solve(rhs)
    assert np.abs(back - x).max() <= 1e-10 * np.abs(x).max()
    # backward error stays at roundoff regardless of conditioning
    res = sys.A @ back - rhs
    assert np.abs(res).max() <= 1e-12 * max(np.abs(rhs).max(), 1e-30)


def test_admittance_repeat_calls_bit_identical():
    rng = np.random.default_rng(13)
    _, _, _, _, sys = _assembled(rng)
    rhs = rng.standard_normal(sys.dof_count)
    a = sys.solve(rhs)
    b = sys.solve(rhs)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# factorization behavior


def test_factorization_shift_escalation_recovers_singular_diagonal():
    A = sp.csc_matrix(sp.diags([1.0, 1.0, 0.0]))
    sys = implicit.SystemMatrices(mass=np.ones(3), K=sp.csc_matrix((3, 3)),
                                  A=A, b=np.zeros(3), dof_count=3)
    implicit._factorize(sys)
    assert sys.shift_applied > 0.0
    out = sys.solve(np.array([1.0, 1.0, 0.0]))
    assert np.allclose(out[:2], 1.0, atol=1e-6)


def test_factorization_failure_raises_after_max_attempts():
    # zero trace keeps every shift at zero, so the matrix stays singular
    A = sp.csc_matrix((3, 3))
    sys = implicit.SystemMatrices(mass=np.ones(3), K=sp.csc_matrix((3, 3)),
                                  A=A, b=np.zeros(3), dof_count=3)
    with pytest.raises(FactorizationError):
        implicit._factorize(sys)


def test_assemble_requires_stencils():
    rng = np.random.default_rng(14)
    pts, grid = _cloud(rng, n=4)
    with pytest.raises(ValueError):
        implicit.assemble(pts, grid, DT, np.zeros((4, 3, 3, 3, 3)))


def test_diagnostics_recorded():
    rng = np.random.default_rng(15)
    _, grid, _, _, sys = _assembled(rng)
    assert sys.dof_count == 3 * grid.active_count
    assert sys.factor_time > 0.0
    assert sys.shift_applied == 0.0


def test_factorization_logged(caplog):
    rng = np.random.default_rng(16)
    with caplog.at_level(logging.DEBUG, logger="tetmpm.implicit"):
        _assembled(rng, n=10)
    assert any("factorized" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# tangent projection


def test_tangent_projection_output_is_positive_semidefinite():
    mat = _material(MaterialLaw.NEOHOOKEAN)
    rng = np.random.default_rng(17)
    F = np.eye(3) * 0.45 + 0.02 * rng.standard_normal((6, 3, 3))
    _, T, _, _ = stress_batch(F, mat, with_tangent=True)
    M = T.reshape(-1, 9, 9)
    assert np.linalg.eigvalsh(0.5 * (M + M.transpose(0, 2, 1))).min() < 0
    Tp = project_tangent_batch(T)
    Mp = Tp.reshape(-1, 9, 9)
    assert np.abs(Mp - Mp.transpose(0, 2, 1)).max() <= 1e-12 * np.abs(Mp).max()
    assert np.linalg.eigvalsh(Mp).min() >= -1e-10 * np.abs(Mp).max()


def test_tangent_projection_keeps_definite_blocks():
    mat = _material(MaterialLaw.LINEAR)
    F = np.broadcast_to(np.eye(3), (3, 3, 3)).copy()
    _, T, _, _ = stress_batch(F, mat, with_tangent=True)
    Tp = project_tangent_batch(T)
    assert np.abs(Tp - T).max() <= 1e-8 * np.abs(T).max()


def test_tangent_projection_flag_default_off():
    mesh = box_mesh((0.1, 0.1, 0.1), (1, 1, 1), origin=(0.2, 0.2, 0.2))
    cfg = SceneConfig(bodies=[BodySpec(mesh=mesh, material=_material())],
                      grid_dims=(8, 8, 8), grid_spacing=0.1)
    assert cfg.tangent_projection is False


def test_tangent_projection_flag_runs_through_driver():
    mesh = box_mesh((0.15, 0.15, 0.15), (2, 2, 2), origin=(0.3, 0.3, 0.3))
    mat = _material(MaterialLaw.NEOHOOKEAN)
    cfg = SceneConfig(bodies=[BodySpec(mesh=mesh, material=mat)],
                      grid_dims=(10, 10, 10), grid_spacing=0.1,
                      tangent_projection=True)
    state = driver.SimState(cfg)
    diag = driver.step(state)
    assert np.isfinite(diag.kinetic_energy)


# ---------------------------------------------------------------------------
# step-level invariants


def _two_box_scene():
    mat = _material(E=2e4)
    a = 0.15
    lower = BodySpec(mesh=box_mesh((a, a, a), (2, 2, 2), origin=(0.3, 0.3, 0.2)),
                     material=mat)
    upper = BodySpec(mesh=box_mesh((a, a, a), (2, 2, 2),
                                   origin=(0.3, 0.3, 0.2 + a + 0.002)),
                     material=mat)
    return SceneConfig(bodies=[lower, upper], grid_dims=(14, 14, 14),
                       grid_spacing=0.05, dt=DT)


def test_one_factorization_per_body_per_step(monkeypatch):
    cfg = _two_box_scene()
    state = driver.SimState(cfg)
    calls = []
    orig = implicit._factorize

    def counting(sys):
        calls.append(sys.dof_count)
        return orig(sys)

    monkeypatch.setattr(implicit, "_factorize", counting)
    diag = driver.step(state)
    assert len(calls) == len(state.dynamic_bodies)
    if diag.n_contacts > 0:
        # the one factorization backs many admittance solves
        assert all(b.system.solve_count > 1 for b in state.dynamic_bodies)


def test_contact_step_reuses_factorization():
    cfg = _two_box_scene()
    state = driver.SimState(cfg)
    # settle until the boxes touch
    for _ in range(12):
        diag = driver.step(state)
        if diag.n_contacts > 0:
            break
    assert diag.n_contacts > 0
    assert all(b.system.solve_count > 1 for b in state.dynamic_bodies)


def test_stress_free_resting_body_keeps_state():
    mesh = box_mesh((0.2, 0.2, 0.2), (2, 2, 2), origin=(0.4, 0.4, 0.4))
    cfg = SceneConfig(bodies=[BodySpec(mesh=mesh, material=_material())],
                      gravity=(0.0, 0.0, 0.0), grid_dims=(12, 12, 12),
                      grid_spacing=0.1, dt=DT)
    state = driver.SimState(cfg)
    body = state.dynamic_bodies[0]
    x0 = body.pts.x.copy()
    F0 = body.pts.F_elastic.copy()
    for _ in range(3):
        driver.step(state)
    assert np.array_equal(body.pts.v, np.zeros_like(body.pts.v))
    assert np.array_equal(body.pts.x, x0)
    assert np.array_equal(body.pts.F_elastic, F0)


def test_kinematic_body_never_moves():
    mat = _material()
    floor = BodySpec(mesh=box_mesh((0.6, 0.6, 0.1), (3, 3, 1),
                                   origin=(0.1, 0.1, 0.1)),
                     material=mat, kinematic=True)
    cube = BodySpec(mesh=box_mesh((0.15, 0.15, 0.15), (2, 2, 2),
                                  origin=(0.3, 0.3, 0.202)),
                    material=mat)
    cfg = SceneConfig(bodies=[floor, cube], grid_dims=(16, 16, 10),
                      grid_spacing=0.05, dt=DT)
    state = driver.SimState(cfg)
    kin = [b for b in state.bodies if b.kinematic][0]
    verts0 = [p.vertices.copy() for p in kin.primitives()]
    x0 = kin.pts.x.copy()
    hit = False
    for _ in range(25):
        diag = driver.step(state)
        hit = hit or diag.n_contacts > 0
    assert hit
    assert np.array_equal(kin.pts.x, x0)
    for v0, p1 in zip(verts0, kin.primitives()):
        assert np.array_equal(v0, p1.vertices)
