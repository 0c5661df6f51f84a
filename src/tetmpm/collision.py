"""Sub-cell contact detection on deformed particle tetrahedra.

Each particle carries a tetrahedron advected by its deformation gradient.
Candidate cross-body pairs come from a uniform spatial hash of inflated
AABBs; exact gaps and witness points come from GJK on the two tets, with a
separating-axis minimal-translation fallback once they interpenetrate
(GJK alone cannot produce a depth).

Contact frames are right-handed with the normal last: columns [t1, t2, n],
the normal pointing from the second primitive toward the first.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePrimitiveError

GJK_MAX_ITERS = 64
_TET_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_TET_FACES = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


@dataclass
class DeformedPrimitive:
    """World-space tet of one particle: position + F @ rest offsets."""

    vertices: np.ndarray  # (4, 3)
    body_id: int
    particle_id: int
    static: bool = False  # belongs to a kinematic body

    @property
    def key(self):
        return (self.body_id, self.particle_id)


@dataclass
class ContactPoint:
    prim_a: DeformedPrimitive
    prim_b: DeformedPrimitive
    x: np.ndarray        # representative contact position
    normal: np.ndarray   # unit, from prim_b's body toward prim_a's body
    t1: np.ndarray
    t2: np.ndarray
    gap: float           # signed distance, negative when penetrating
    bary_a: np.ndarray   # (4,) barycentric weights of x in prim_a
    bary_b: np.ndarray

    @property
    def frame(self) -> np.ndarray:
        """Rotation with columns [t1, t2, normal]."""
        return np.column_stack([self.t1, self.t2, self.normal])


def build_primitives(pts, body_id: int, static: bool = False) -> list:
    """Deformed tets for every particle of one body (``static`` for a kinematic one)."""
    verts = pts.x[:, None, :] + np.einsum("nab,nkb->nka", pts.F, pts.offsets)
    return [DeformedPrimitive(verts[i], body_id, i, static) for i in range(len(pts))]


def bounding_radius(prims) -> float:
    """Max half-diameter over primitives (used to size broadphase cells)."""
    best = 0.0
    for p in prims:
        v = p.vertices
        for i, j in _TET_EDGES:
            d = v[i] - v[j]
            best = max(best, float(d @ d))
    return 0.5 * np.sqrt(best)


def broadphase(primitives, cell_size: float, margin: float = 0.0) -> list:
    """Cross-body candidate pairs from a uniform spatial hash of AABBs.

    Pairs of two static primitives are skipped: neither side can move, so
    no contact between them affects the step.  Pairs are ordered (lower
    body id first) and returned sorted by (body_a, body_b, particle_a,
    particle_b); each pair appears once.
    """
    cells = {}
    los, his = [], []
    for n, p in enumerate(primitives):
        lo = p.vertices.min(axis=0) - margin
        hi = p.vertices.max(axis=0) + margin
        los.append(lo)
        his.append(hi)
        c0 = np.floor(lo / cell_size).astype(np.int64)
        c1 = np.floor(hi / cell_size).astype(np.int64)
        for i in range(c0[0], c1[0] + 1):
            for j in range(c0[1], c1[1] + 1):
                for k in range(c0[2], c1[2] + 1):
                    cells.setdefault((i, j, k), []).append(n)
    los = np.array(los)
    his = np.array(his)

    seen = set()
    for members in cells.values():
        if len(members) < 2:
            continue
        for pos, m in enumerate(members):
            pm = primitives[m]
            for n in members[pos + 1:]:
                pn = primitives[n]
                if pm.body_id == pn.body_id or (pm.static and pn.static):
                    continue
                a, b = (m, n) if pm.key < pn.key else (n, m)
                if (a, b) in seen:
                    continue
                seen.add((a, b))
    if not seen:
        return []
    pair_idx = np.array(sorted(seen))
    ia, ib = pair_idx[:, 0], pair_idx[:, 1]
    overlap = np.all((los[ia] <= his[ib]) & (los[ib] <= his[ia]), axis=1)
    return [
        (primitives[a], primitives[b])
        for a, b in pair_idx[overlap]
    ]


# ---------------------------------------------------------------------------
# GJK on a pair of tets

def _support(verts: np.ndarray, d: np.ndarray) -> int:
    return int(np.argmax(verts @ d))


def _closest_on_simplex(pts: np.ndarray):
    """Closest point to the origin on the convex hull of up to 4 points.

    Enumerates the faces of the simplex; returns (point, lambdas, kept index
    list).  Robust for the tiny simplices GJK builds.
    """
    m = len(pts)
    best = None
    for mask in range(1, 1 << m):
        sub = [i for i in range(m) if mask >> i & 1]
        P = pts[sub]
        k = len(sub)
        if k == 1:
            lam = np.array([1.0])
            x = P[0]
        else:
            Q = P[1:] - P[0]
            G = Q @ Q.T
            try:
                t = np.linalg.solve(G, -Q @ P[0])
            except np.linalg.LinAlgError:
                continue
            lam = np.concatenate([[1.0 - t.sum()], t])
            if np.any(lam < -1e-12):
                continue
            x = lam @ P
        d2 = float(x @ x)
        if best is None or d2 < best[0] - 1e-18:
            best = (d2, x, lam, sub)
    return best[1], best[2], best[3]


def gjk_distance(va: np.ndarray, vb: np.ndarray):
    """Distance between two tets with witness points.

    Returns (distance, point_on_a, point_on_b); distance 0 means the tets
    intersect (witness points are then meaningless).
    """
    scale = max(
        float(np.abs(va).max()), float(np.abs(vb).max()),
        float(np.ptp(va)), float(np.ptp(vb)), 1e-12,
    )
    d = va.mean(axis=0) - vb.mean(axis=0)
    if d @ d < 1e-24:
        d = np.array([1.0, 0.0, 0.0])
    ia, ib = _support(va, -d), _support(vb, d)
    simplex = [(va[ia] - vb[ib], ia, ib)]
    for _ in range(GJK_MAX_ITERS):
        pts = np.array([s[0] for s in simplex])
        v, lam, kept = _closest_on_simplex(pts)
        simplex = [simplex[i] for i in kept]
        dist2 = float(v @ v)
        if dist2 <= (1e-10 * scale) ** 2:
            return 0.0, None, None
        d = -v
        ia, ib = _support(va, d), _support(vb, -d)
        w = va[ia] - vb[ib]
        # upper/lower distance bounds met: v is the true closest point
        if dist2 + d @ w <= 1e-12 * scale * np.sqrt(dist2):
            break
        if any(ia == sa and ib == sb for _, sa, sb in simplex):
            break
        simplex.append((w, ia, ib))
        if len(simplex) > 4:  # pragma: no cover
            break
    pts = np.array([s[0] for s in simplex])
    v, lam, kept = _closest_on_simplex(pts)
    simplex = [simplex[i] for i in kept]
    lam = np.maximum(lam[: len(simplex)], 0.0)
    lam = lam / lam.sum()
    pa = sum(l * va[s[1]] for l, s in zip(lam, simplex))
    pb = sum(l * vb[s[2]] for l, s in zip(lam, simplex))
    return float(np.linalg.norm(v)), pa, pb


def _sat_axes(va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    axes = []
    for verts in (va, vb):
        for f in _TET_FACES:
            n = np.cross(verts[f[1]] - verts[f[0]], verts[f[2]] - verts[f[0]])
            axes.append(n)
    ea = [va[j] - va[i] for i, j in _TET_EDGES]
    eb = [vb[j] - vb[i] for i, j in _TET_EDGES]
    for u in ea:
        for w in eb:
            axes.append(np.cross(u, w))
    axes = np.array(axes)
    norms = np.linalg.norm(axes, axis=1)
    good = norms > 1e-12 * max(norms.max(), 1e-300)
    return axes[good] / norms[good, None]


def sat_penetration(va: np.ndarray, vb: np.ndarray):
    """Minimal-translation axis for two overlapping tets.

    Returns (depth, normal, support_a, support_b) with the normal oriented
    from b toward a; depth is negative when a separating axis exists.
    """
    axes = _sat_axes(va, vb)
    pa = axes @ va.T  # (n_axes, 4)
    pb = axes @ vb.T
    overlap = np.minimum(pa.max(axis=1), pb.max(axis=1)) - np.maximum(
        pa.min(axis=1), pb.min(axis=1)
    )
    best = int(np.argmin(overlap))
    depth = float(overlap[best])
    n = axes[best]
    if n @ (va.mean(axis=0) - vb.mean(axis=0)) < 0:
        n = -n
    proj_a = va @ n
    proj_b = vb @ n
    tol = 1e-9 * max(1.0, float(np.abs(proj_a).max()), float(np.abs(proj_b).max()))
    deep_a = va[proj_a <= proj_a.min() + tol].mean(axis=0)
    deep_b = vb[proj_b >= proj_b.max() - tol].mean(axis=0)
    return depth, n, deep_a, deep_b


# ---------------------------------------------------------------------------
# point-in-tet projection for barycentric lifting

def _closest_on_triangle(p, a, b, c):
    # Ericson, Real-Time Collision Detection, 5.1.5
    ab, ac, ap = b - a, c - a, p - a
    d1, d2 = ab @ ap, ac @ ap
    if d1 <= 0 and d2 <= 0:
        return a
    bp = p - b
    d3, d4 = ab @ bp, ac @ bp
    if d3 >= 0 and d4 <= d3:
        return b
    vc = d1 * d4 - d3 * d2
    if vc <= 0 and d1 >= 0 and d3 <= 0:
        return a + ab * (d1 / (d1 - d3))
    cp = p - c
    d5, d6 = ab @ cp, ac @ cp
    if d6 >= 0 and d5 <= d6:
        return c
    vb = d5 * d2 - d1 * d6
    if vb <= 0 and d2 >= 0 and d6 <= 0:
        return a + ac * (d2 / (d2 - d6))
    va = d3 * d6 - d5 * d4
    if va <= 0 and (d4 - d3) >= 0 and (d5 - d6) >= 0:
        return b + (c - b) * ((d4 - d3) / ((d4 - d3) + (d5 - d6)))
    denom = 1.0 / (va + vb + vc)
    return a + ab * (vb * denom) + ac * (vc * denom)


def barycentric_in_tet(verts: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Barycentric weights of p in the tet, projecting onto it first if outside.

    Weights are clamped to be non-negative and renormalized to sum to one.
    """
    M = np.vstack([verts.T, np.ones(4)])
    lam = np.linalg.lstsq(M, np.append(p, 1.0), rcond=None)[0]
    if lam.min() < -1e-12:
        best, bd = None, np.inf
        for f in _TET_FACES:
            q = _closest_on_triangle(p, verts[f[0]], verts[f[1]], verts[f[2]])
            d = float(np.linalg.norm(q - p))
            if d < bd:
                best, bd = q, d
        lam = np.linalg.lstsq(M, np.append(best, 1.0), rcond=None)[0]
    lam = np.maximum(lam, 0.0)
    return lam / lam.sum()


def tangent_frame(n: np.ndarray):
    """Deterministic right-handed tangent basis for a unit normal."""
    k = int(np.argmin(np.abs(n)))
    e = np.zeros(3)
    e[k] = 1.0
    t1 = np.cross(n, e)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(n, t1)
    return t1, t2


def _check_primitive(prim: DeformedPrimitive):
    v = prim.vertices
    e = v[1:] - v[0]
    vol = np.linalg.det(e) / 6.0
    scale = max(float(np.linalg.norm(e, axis=1).max()), 1e-30)
    if vol <= 1e-12 * scale ** 3:
        raise DegeneratePrimitiveError(
            f"primitive (body {prim.body_id}, particle {prim.particle_id}) is flat or inverted"
        )


def narrowphase(pair, margin: float):
    """Exact contact test for one candidate pair.

    Returns a ContactPoint when the gap is at most ``margin`` (negative gaps
    mean penetration), else None.  Results are symmetric under operand
    swap: same contact position, opposite normal.
    """
    prim_a, prim_b = pair
    swapped = prim_b.key < prim_a.key
    if swapped:
        prim_a, prim_b = prim_b, prim_a
    _check_primitive(prim_a)
    _check_primitive(prim_b)
    va, vb = prim_a.vertices, prim_b.vertices

    scale = max(float(np.ptp(va)), float(np.ptp(vb)), 1e-12)
    dist, pa, pb = gjk_distance(va, vb)
    if dist > margin:
        return None
    if dist > 1e-8 * scale:
        x = 0.5 * (pa + pb)
        n = (pa - pb) / dist
        gap = dist
    else:
        depth, n, deep_a, deep_b = sat_penetration(va, vb)
        gap = -depth
        x = 0.5 * (deep_a + deep_b)

    bary_a = barycentric_in_tet(va, x)
    bary_b = barycentric_in_tet(vb, x)
    if swapped:
        prim_a, prim_b = prim_b, prim_a
        bary_a, bary_b = bary_b, bary_a
        n = -n
    t1, t2 = tangent_frame(n)
    return ContactPoint(
        prim_a=prim_a, prim_b=prim_b, x=x, normal=n, t1=t1, t2=t2,
        gap=float(gap), bary_a=bary_a, bary_b=bary_b,
    )


def detect_contacts(primitives, cell_size: float, margin: float) -> list:
    """Full detection pass: broadphase then narrowphase, deterministic order."""
    contacts = []
    for pair in broadphase(primitives, cell_size, margin):
        c = narrowphase(pair, margin)
        if c is not None:
            contacts.append(c)
    contacts.sort(key=lambda c: (c.prim_a.body_id, c.prim_b.body_id,
                                 c.prim_a.particle_id, c.prim_b.particle_id))
    return contacts
