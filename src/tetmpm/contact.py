"""Grid-level contact coupling.

Each contact point is lifted to the four vertices of its tet primitive by
barycentric weights, and every vertex deposits onto its body's grid through
the interpolation kernel.  Stacking the frame-rotated rows gives H, which
maps grid velocities to per-contact relative velocities [t1, t2, n] (the
first primitive's side enters with +, the second with -; kinematic bodies
contribute no columns).  Deposition only reaches mass-carrying nodes, so at
a body's surface part of a proxy vertex's stencil may be truncated; each
side's weights are renormalized to sum to one so the two bodies always
exchange equal and opposite total impulse.  The Delassus operator
G = H A^-1 H^T reuses each object's factorized system matrix.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import EmptySupportError
from .kernels import stencil_batch

_ROWS3 = np.arange(3)


@dataclass
class ContactJacobian:
    H: sp.csr_matrix          # (3 n_contacts, total_dofs)
    contact_count: int
    offsets: dict             # body_id -> (column offset, dof count)
    total_dofs: int

    def stack(self, per_body: dict) -> np.ndarray:
        """Stack per-body DOF vectors (body_id -> vector) in column-block order."""
        out = np.zeros(self.total_dofs)
        for body_id, (start, nd) in self.offsets.items():
            out[start:start + nd] = per_body[body_id]
        return out

    def split(self, stacked: np.ndarray) -> dict:
        """Inverse of ``stack``: body_id -> that body's slice of ``stacked``."""
        return {body_id: stacked[start:start + nd]
                for body_id, (start, nd) in self.offsets.items()}


@dataclass
class ContactProblem:
    G: np.ndarray             # (3 n, 3 n) Delassus operator
    g: np.ndarray             # (3 n,) free relative velocities
    mu: np.ndarray            # (n,) friction coefficients


def build_jacobian(contacts, grids: dict, kernel) -> ContactJacobian:
    """Assemble H for a list of contacts.

    ``grids`` maps body_id -> finalized Grid for dynamic bodies; kinematic
    bodies must be absent.  Column blocks follow ascending body id.
    """
    ids = sorted(grids)
    offsets = {}
    total = 0
    for b in ids:
        nd = 3 * grids[b].active_count
        offsets[b] = (total, nd)
        total += nd

    rows, cols, vals = [], [], []
    for c, ct in enumerate(contacts):
        RT = ct.frame.T
        for prim, bary, sign in ((ct.prim_a, ct.bary_a, 1.0), (ct.prim_b, ct.bary_b, -1.0)):
            grid = grids.get(prim.body_id)
            if grid is None:
                continue
            start = offsets[prim.body_id][0]
            idx, w, _ = stencil_batch(prim.vertices, kernel, grid)
            dense = grid.active_map[idx]           # (4, S)
            valid = dense >= 0
            if not valid.any(axis=1).all():
                raise EmptySupportError(
                    f"contact {c}: proxy vertex of body {prim.body_id} has no active support"
                )
            weight = (bary[:, None] * w)[valid]         # (m,) >= 0
            total_w = weight.sum()                      # 1 when nothing is clipped
            if total_w <= 1e-12:
                raise EmptySupportError(
                    f"contact {c}: proxy of body {prim.body_id} has no effective support"
                )
            coeff = (sign / total_w) * weight           # (m,)
            nd = dense[valid]                           # (m,)
            m = len(nd)
            r = (3 * c + _ROWS3[:, None, None]) + np.zeros((3, m, 3), dtype=np.int64)
            col = (3 * nd[None, :, None] + _ROWS3[None, None, :]) + np.zeros(
                (3, m, 3), dtype=np.int64
            )
            v = coeff[None, :, None] * RT[:, None, :]
            rows.append(r.ravel())
            cols.append((col + start).ravel())
            vals.append(v.ravel())
    if rows:
        data = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    else:
        data = (np.empty(0), (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)))
    H = sp.coo_matrix(data, shape=(3 * len(contacts), total)).tocsr()
    return ContactJacobian(H=H, contact_count=len(contacts), offsets=offsets, total_dofs=total)


def build_delassus(jac: ContactJacobian, systems: dict, v_free: np.ndarray,
                   mu: np.ndarray) -> ContactProblem:
    """Dense Delassus operator G = H A^-1 H^T and free velocities g = H v_free.

    ``systems`` maps body_id -> SystemMatrices, matching the Jacobian's
    column blocks; solves go block-by-block through each object's stored
    factorization.
    """
    nC = 3 * jac.contact_count
    G = np.zeros((nC, nC))
    Hc = jac.H.tocsc()
    for body_id, (start, nd) in jac.offsets.items():
        if nd == 0:
            continue
        Hb = Hc[:, start:start + nd]
        if Hb.nnz == 0:
            continue
        X = systems[body_id].solve(Hb.T.toarray())
        G += Hb @ X
    G = 0.5 * (G + G.T)
    g = jac.H @ v_free
    return ContactProblem(G=G, g=g, mu=np.asarray(mu, dtype=float))


def apply_impulses(jac: ContactJacobian, systems: dict, lam: np.ndarray) -> np.ndarray:
    """Velocity correction A^-1 H^T lambda, stacked over objects."""
    rhs = jac.H.T @ lam
    out = np.zeros(jac.total_dofs)
    for body_id, (start, nd) in jac.offsets.items():
        if nd == 0:
            continue
        out[start:start + nd] = systems[body_id].solve(rhs[start:start + nd])
    return out
