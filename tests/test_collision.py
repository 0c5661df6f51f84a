"""Contact detection: GJK distance, SAT penetration, broadphase, frames."""

import numpy as np
import pytest

from oracles import (
    point_triangle_distance,
    sat_signed_overlap,
    segment_segment_distance,
    tet_tet_distance,
    tets_overlap_sat,
)
from tetmpm.collision import (
    DeformedPrimitive,
    barycentric_in_tet,
    broadphase,
    detect_contacts,
    gjk_distance,
    narrowphase,
    sat_penetration,
    tangent_frame,
)
from tetmpm.errors import DegeneratePrimitiveError

UNIT_TET = np.array([
    [0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
])


def _rand_tet(rng, center=(0.0, 0.0, 0.0), scale=1.0):
    center = np.asarray(center, dtype=float)
    while True:
        v = center + scale * rng.standard_normal((4, 3))
        det = np.linalg.det(v[1:] - v[0])
        if abs(det) > 1e-3 * scale**3:
            if det < 0:
                v[[2, 3]] = v[[3, 2]]
            return v


def _prim(verts, body, pid=0, static=False):
    return DeformedPrimitive(vertices=np.asarray(verts, dtype=float),
                             body_id=body, particle_id=pid, static=static)


# ---------------------------------------------------------------------------
# GJK distance


def test_gjk_distance_known_separation():
    dist, pa, pb = gjk_distance(UNIT_TET, UNIT_TET + np.array([3.0, 0.0, 0.0]))
    assert abs(dist - 2.0) < 1e-10
    assert np.allclose(pa, [1.0, 0.0, 0.0], atol=1e-8)
    assert np.allclose(pb, [3.0, 0.0, 0.0], atol=1e-8)


def test_gjk_distance_face_to_face():
    # translated straight up: closest features are parallel faces
    dist, pa, pb = gjk_distance(UNIT_TET, UNIT_TET + np.array([0.0, 0.0, 1.5]))
    assert abs(dist - 0.5) < 1e-10
    assert abs(pa[2] - 1.0) < 1e-8 or abs(dist - np.linalg.norm(pa - pb)) < 1e-10


def test_gjk_reports_zero_for_overlap():
    dist, _, _ = gjk_distance(UNIT_TET, UNIT_TET + 0.1)
    assert dist == 0.0
    # containment
    inner = 0.25 * UNIT_TET + 0.1
    dist, _, _ = gjk_distance(UNIT_TET, inner)
    assert dist == 0.0


def test_gjk_witness_points_realize_distance():
    rng = np.random.default_rng(0)
    for _ in range(200):
        va = _rand_tet(rng)
        vb = _rand_tet(rng, center=rng.uniform(1.5, 4.0) * rng.standard_normal(3))
        dist, pa, pb = gjk_distance(va, vb)
        if dist == 0.0:
            continue
        assert abs(np.linalg.norm(pa - pb) - dist) <= 1e-9 * max(dist, 1.0)


def test_gjk_translation_invariance():
    rng = np.random.default_rng(1)
    va = _rand_tet(rng)
    vb = _rand_tet(rng, center=(2.5, 0.0, 0.0))
    d0 = gjk_distance(va, vb)[0]
    shift = np.array([17.0, -5.0, 3.0])
    d1 = gjk_distance(va + shift, vb + shift)[0]
    assert abs(d0 - d1) <= 1e-9 * max(d0, 1.0)


# ---------------------------------------------------------------------------
# GJK/SAT vs brute-force oracle


def test_distance_and_overlap_match_oracle_bulk():
    """10^4 random pairs: overlap sign agrees with the exhaustive axis oracle
    and separated distances match the feature-enumeration oracle."""
    rng = np.random.default_rng(42)
    n_checked = 0
    for _ in range(10_000):
        va = _rand_tet(rng)
        off = rng.uniform(0.0, 3.0) * rng.standard_normal(3)
        vb = _rand_tet(rng, center=off)
        signed = sat_signed_overlap(va, vb)
        if abs(signed) <= 1e-6:
            continue  # grazing configurations are ambiguous at float level
        n_checked += 1
        dist, pa, pb = gjk_distance(va, vb)
        if signed > 0.0:
            assert dist == 0.0
        else:
            assert dist > 0.0
            ref = tet_tet_distance(va, vb)
            assert abs(dist - ref) <= 1e-6 * max(ref, 1e-12)
    assert n_checked > 9000


def test_sat_penetration_depth_matches_oracle():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 300:
        va = _rand_tet(rng)
        vb = _rand_tet(rng, center=0.5 * rng.standard_normal(3))
        signed = sat_signed_overlap(va, vb)
        if signed <= 1e-6:
            continue
        checked += 1
        depth, n, da, db = sat_penetration(va, vb)
        assert abs(depth - signed) <= 1e-9 * max(signed, 1.0)
        assert abs(np.linalg.norm(n) - 1.0) <= 1e-12
        # the returned axis realizes the minimal interval overlap
        pa_n, pb_n = va @ n, vb @ n
        along = min(pa_n.max(), pb_n.max()) - max(pa_n.min(), pb_n.min())
        assert abs(along - depth) <= 1e-9 * max(depth, 1.0)


# ---------------------------------------------------------------------------
# broadphase


def test_broadphase_far_bodies_empty():
    a = _prim(UNIT_TET, 0)
    b = _prim(UNIT_TET + 20.0, 1)
    assert broadphase([a, b], cell_size=2.0) == []


def test_broadphase_overlapping_pair_found_once():
    a = _prim(UNIT_TET, 0)
    b = _prim(UNIT_TET + 0.2, 1)
    pairs = broadphase([a, b], cell_size=2.0)
    assert len(pairs) == 1
    assert pairs[0][0].body_id == 0 and pairs[0][1].body_id == 1


def test_broadphase_same_body_excluded():
    a = _prim(UNIT_TET, 0, 0)
    b = _prim(UNIT_TET + 0.2, 0, 1)
    assert broadphase([a, b], cell_size=2.0) == []


def test_broadphase_skips_pairs_of_static_primitives():
    wall = _prim(UNIT_TET, 0, static=True)
    floor = _prim(UNIT_TET + 0.2, 1, static=True)
    cube = _prim(UNIT_TET + 0.1, 2)
    assert broadphase([wall, floor], cell_size=2.0) == []
    pairs = broadphase([wall, floor, cube], cell_size=2.0)
    assert [(a.body_id, b.body_id) for a, b in pairs] == [(0, 2), (1, 2)]


def test_broadphase_ordering_deterministic():
    rng = np.random.default_rng(2)
    prims = []
    for body in range(3):
        for pid in range(8):
            prims.append(_prim(_rand_tet(rng, center=rng.uniform(0, 2, 3),
                                         scale=0.5), body, pid))
    pairs = broadphase(prims, cell_size=1.0)
    keys = [(p[0].body_id, p[0].particle_id, p[1].body_id, p[1].particle_id)
            for p in pairs]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))
    for a, b in pairs:
        assert (a.body_id, a.particle_id) < (b.body_id, b.particle_id)


def test_broadphase_catches_every_truly_overlapping_pair():
    rng = np.random.default_rng(3)
    prims = []
    for body in range(2):
        for pid in range(10):
            prims.append(_prim(_rand_tet(rng, center=rng.uniform(0, 1.5, 3),
                                         scale=0.4), body, pid))
    candidates = {(a.key, b.key) for a, b in broadphase(prims, cell_size=2.0)}
    for a in prims:
        for b in prims:
            if a.body_id >= b.body_id:
                continue
            if tets_overlap_sat(a.vertices, b.vertices):
                assert (a.key, b.key) in candidates


# ---------------------------------------------------------------------------
# narrowphase


def test_narrowphase_beyond_margin_returns_none():
    margin = 0.05
    a = _prim(UNIT_TET, 0)
    b = _prim(UNIT_TET + np.array([1.0 + 2 * margin, 0.0, 0.0]), 1)
    assert narrowphase((a, b), margin) is None


def test_narrowphase_face_on_face_contact():
    # a tet face resting exactly on top of another tet's horizontal face
    lower = UNIT_TET
    upper = np.array([
        [0.0, 0.0, 1.0],
        [0.4, 0.0, 1.0],
        [0.0, 0.4, 1.0],
        [0.1, 0.1, 1.4],
    ])
    # bring them into z-contact: lower's top vertex is (0,0,1)
    c = narrowphase((_prim(lower, 0), _prim(upper, 1)), margin=0.05)
    assert c is not None
    assert abs(c.gap) <= 1e-9
    assert abs(abs(c.normal[2]) - 1.0) <= 1e-6


def test_narrowphase_separated_gap_matches_distance():
    rng = np.random.default_rng(4)
    margin = 0.4
    found = 0
    while found < 100:
        va = _rand_tet(rng)
        vb = _rand_tet(rng, center=rng.uniform(1.0, 2.5) * rng.standard_normal(3))
        ref = tet_tet_distance(va, vb)
        if not (1e-4 < ref <= margin):
            continue
        found += 1
        c = narrowphase((_prim(va, 0), _prim(vb, 1)), margin)
        assert c is not None
        assert abs(c.gap - ref) <= 1e-6 * max(ref, 1e-12)
        # midpoint convention and normal direction from b toward a
        d, pa, pb = gjk_distance(va, vb)
        assert np.allclose(c.x, 0.5 * (pa + pb), atol=1e-8)
        assert np.allclose(c.normal, (pa - pb) / d, atol=1e-6)


def test_narrowphase_penetrating_negative_gap():
    rng = np.random.default_rng(5)
    found = 0
    while found < 100:
        va = _rand_tet(rng)
        vb = _rand_tet(rng, center=0.4 * rng.standard_normal(3))
        signed = sat_signed_overlap(va, vb)
        if signed <= 1e-5:
            continue
        found += 1
        c = narrowphase((_prim(va, 0), _prim(vb, 1)), margin=0.05)
        assert c is not None
        assert c.gap < 0
        assert abs(-c.gap - signed) <= 1e-6 * max(signed, 1e-12)


def test_narrowphase_contact_frames_orthonormal():
    rng = np.random.default_rng(6)
    found = 0
    while found < 200:
        va = _rand_tet(rng)
        vb = _rand_tet(rng, center=rng.uniform(0.0, 2.0) * rng.standard_normal(3))
        c = narrowphase((_prim(va, 0), _prim(vb, 1)), margin=0.3)
        if c is None:
            continue
        found += 1
        R = c.frame
        assert np.abs(R.T @ R - np.eye(3)).max() <= 1e-12
        assert abs(np.linalg.det(R) - 1.0) <= 1e-12
        assert np.abs(np.cross(c.t1, c.t2) - c.normal).max() <= 1e-12


def test_narrowphase_barycentric_weights_valid():
    rng = np.random.default_rng(8)
    found = 0
    while found < 200:
        va = _rand_tet(rng)
        vb = _rand_tet(rng, center=rng.uniform(0.0, 2.0) * rng.standard_normal(3))
        c = narrowphase((_prim(va, 0), _prim(vb, 1)), margin=0.3)
        if c is None:
            continue
        found += 1
        for bary in (c.bary_a, c.bary_b):
            assert bary.min() >= -1e-9
            assert abs(bary.sum() - 1.0) <= 1e-10


def test_narrowphase_swap_symmetry():
    rng = np.random.default_rng(9)
    found = 0
    while found < 150:
        va = _rand_tet(rng)
        vb = _rand_tet(rng, center=rng.uniform(0.0, 2.0) * rng.standard_normal(3))
        pa, pb = _prim(va, 0), _prim(vb, 1)
        c1 = narrowphase((pa, pb), margin=0.3)
        c2 = narrowphase((pb, pa), margin=0.3)
        assert (c1 is None) == (c2 is None)
        if c1 is None:
            continue
        found += 1
        assert np.abs(c1.x - c2.x).max() <= 1e-10
        assert np.abs(c1.normal + c2.normal).max() <= 1e-10
        assert c1.gap == c2.gap
        assert c1.prim_a.key == c2.prim_b.key
        assert c1.prim_b.key == c2.prim_a.key


def test_narrowphase_degenerate_primitive_raises():
    flat = UNIT_TET.copy()
    flat[3] = flat[0]  # zero volume
    with pytest.raises(DegeneratePrimitiveError):
        narrowphase((_prim(flat, 0), _prim(UNIT_TET + 0.1, 1)), margin=0.1)


# ---------------------------------------------------------------------------
# frames and barycentrics in isolation


def test_tangent_frame_recipe():
    n = np.array([0.0, 0.0, 1.0])
    t1, t2 = tangent_frame(n)
    assert np.allclose(t1, [0.0, 1.0, 0.0])
    assert np.allclose(t2, [-1.0, 0.0, 0.0])


def test_tangent_frame_right_handed_everywhere():
    rng = np.random.default_rng(10)
    for _ in range(500):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        t1, t2 = tangent_frame(n)
        R = np.column_stack([t1, t2, n])
        assert np.abs(R.T @ R - np.eye(3)).max() <= 1e-12
        assert abs(np.linalg.det(R) - 1.0) <= 1e-12


def test_barycentric_at_vertex():
    w = barycentric_in_tet(UNIT_TET, UNIT_TET[0])
    assert np.allclose(w, [1.0, 0.0, 0.0, 0.0], atol=1e-10)
    w = barycentric_in_tet(UNIT_TET, UNIT_TET[2])
    assert np.allclose(w, [0.0, 0.0, 1.0, 0.0], atol=1e-10)


def test_barycentric_interior_reconstructs_point():
    rng = np.random.default_rng(11)
    for _ in range(100):
        verts = _rand_tet(rng)
        lam = rng.dirichlet(np.ones(4))
        p = lam @ verts
        w = barycentric_in_tet(verts, p)
        assert np.abs(w - lam).max() <= 1e-8
        assert np.abs(w @ verts - p).max() <= 1e-9


def test_barycentric_outside_point_projects_onto_tet():
    p = np.array([2.0, 2.0, 2.0])
    w = barycentric_in_tet(UNIT_TET, p)
    assert w.min() >= 0.0
    assert abs(w.sum() - 1.0) <= 1e-12
    q = w @ UNIT_TET
    # closest point on the far face x+y+z=1
    expect = p - (p.sum() - 1.0) / 3.0
    assert np.abs(q - expect).max() <= 1e-9


# ---------------------------------------------------------------------------
# detection pass


def test_detect_contacts_deterministic():
    rng = np.random.default_rng(12)
    prims = []
    for body in range(3):
        for pid in range(8):
            prims.append(_prim(_rand_tet(rng, center=rng.uniform(0, 1.2, 3),
                                         scale=0.4), body, pid))
    c1 = detect_contacts(prims, cell_size=1.5, margin=0.05)
    c2 = detect_contacts(prims, cell_size=1.5, margin=0.05)
    assert len(c1) == len(c2)
    for a, b in zip(c1, c2):
        assert a.prim_a.key == b.prim_a.key and a.prim_b.key == b.prim_b.key
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.normal, b.normal)
        assert a.gap == b.gap


def test_detect_contacts_sorted_for_reproducibility():
    rng = np.random.default_rng(13)
    prims = []
    for body in range(3):
        for pid in range(10):
            prims.append(_prim(_rand_tet(rng, center=rng.uniform(0, 1.0, 3),
                                         scale=0.4), body, pid))
    contacts = detect_contacts(prims, cell_size=1.5, margin=0.05)
    assert len(contacts) > 0
    keys = [(c.prim_a.body_id, c.prim_b.body_id,
             c.prim_a.particle_id, c.prim_b.particle_id) for c in contacts]
    assert keys == sorted(keys)


def test_detect_contacts_one_per_primitive_pair():
    rng = np.random.default_rng(14)
    prims = []
    for body in range(2):
        for pid in range(12):
            prims.append(_prim(_rand_tet(rng, center=rng.uniform(0, 0.8, 3),
                                         scale=0.5), body, pid))
    contacts = detect_contacts(prims, cell_size=2.0, margin=0.1)
    keys = [(c.prim_a.key, c.prim_b.key) for c in contacts]
    assert len(keys) == len(set(keys))
