"""Linearized backward-Euler velocity system for one object.

The grid momentum balance is linearized once per step around the current
configuration:

    A dv = b,   A = M + dt D + dt^2 K,   b = dt (f_ext - f_int)

with lumped mass M, Rayleigh damping D = alpha M + beta K, and stiffness K
from contracting each particle's stress tangent with its kernel gradients
through the deformation-gradient update.  A is symmetrized and factorized
once; the factorization doubles as the admittance operator that contact
resolution reuses.

K is assembled the same way for every system size.  On one grid every
kernel stencil has the same pattern of flat node-index offsets, so a
particle's 3x3 block for stencil nodes (s, t) belongs to row node s and one
of a fixed set of B band offsets (125 for the quadratic kernel, 27 for the
linear one).  The blocks are summed into (row node, band) slots, which
takes O(N B) memory for N active nodes instead of a dense O(ndof^2) buffer.
"""

import logging
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import FactorizationError

logger = logging.getLogger(__name__)

SHIFT_START = 1e-10
SHIFT_ATTEMPTS = 8


@dataclass
class SystemMatrices:
    """Assembled implicit system for one object, with its factorization."""

    mass: np.ndarray          # (ndof,) lumped
    K: sp.spmatrix            # stiffness, as assembled (not symmetrized)
    A: sp.spmatrix            # symmetrized full system
    b: np.ndarray             # (ndof,)
    dof_count: int
    shift_applied: float = 0.0
    factor_time: float = 0.0
    solve_count: int = field(default=0)
    _lu: object = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply the admittance A^-1 to one rhs vector or a column block."""
        self.solve_count += 1
        return self._lu.solve(np.asarray(rhs, dtype=float))


def _particle_blocks(pts, grid, tangent, sten, lo, hi):
    """Element stiffness blocks blk[(i,c),(j,a)] for particles lo:hi.

    Per particle p and stencil nodes i, j:
        blk[(i,c),(j,a)] = V_p * T[c,d,a,b] * gradN_i[d] * (F_e^T gradN_j)[b]
    Shaped (m, S, 3, S, 3) with node axes i, j in stencil order.
    """
    _, _, gw = sten
    S = gw.shape[1]
    m = hi - lo
    g = gw[lo:hi]                                       # (m, S, 3)
    q = np.einsum("nba,nsb->nsa", pts.F_elastic[lo:hi], g)
    Tv = tangent[lo:hi] * pts.volume[lo:hi, None, None, None, None]
    Tm = Tv.transpose(0, 2, 1, 3, 4).reshape(m, 3, 27)  # d x (c,a,b)
    t1 = g @ Tm                                         # (m, S, 27)
    blk = t1.reshape(m, S * 9, 3) @ q.transpose(0, 2, 1)
    return blk.reshape(m, S, 3, 3, S).transpose(0, 1, 2, 4, 3)


def _slot_sums(pts, grid, tangent, sten, row, band, n_rows, B, chunk):
    """Sum every particle's 3x3 blocks into flat slots (row, band, c, a).

    ``row`` (n, S) holds each stencil node's row (the trash row for
    inactive nodes) and ``band`` (S, S) the band of each stencil pair.
    """
    n = len(row)
    size = n_rows * B * 9
    ca = np.arange(9, dtype=np.int64).reshape(3, 3)               # 3 c + a
    acc = np.zeros(size)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        # axes (p, s, c, a, t): the blocks' memory order, so ravel copies nothing
        blk = _particle_blocks(pts, grid, tangent, sten, lo, hi).transpose(0, 1, 2, 4, 3)
        slot = 9 * (row[lo:hi, :, None] * B + band[None])         # (m, S, S)
        key = slot[:, :, None, None, :] + ca[None, None, :, :, None]
        acc += np.bincount(key.ravel(), weights=blk.ravel(), minlength=size)
    return acc


def _stiffness(pts, grid, tangent, sten, chunk=512):
    """K over active DOFs as a CSC matrix, summed into block-band slots.

    ``offs`` holds the B distinct flat offsets idx[p, t] - idx[p, s], the
    same for every particle; slot (r, b) holds the 3x3 block coupling active
    node r to flat node active_nodes[r] + offs[b].  A slot stands for one
    node pair and gets at most one term per particle, so it sums the same
    terms as a dense buffer would.  Inactive row nodes go to a trash row;
    slots whose column node is inactive or off the grid, and exact zeros,
    are dropped.
    """
    idx, _, _ = sten
    n, S = idx.shape
    N = grid.active_count
    if n == 0 or N == 0:
        return sp.csc_matrix((3 * N, 3 * N))
    offs, band = np.unique(idx[0][None, :] - idx[0][:, None], return_inverse=True)
    band = band.reshape(S, S)
    B = len(offs)
    dmap = grid.active_map[idx]
    row = np.where(dmap < 0, N, dmap)
    # The chunk temporaries are freed when the helper returns, before K is
    # built; a long-lived K allocated above them would pin them in the heap.
    acc = _slot_sums(pts, grid, tangent, sten, row, band, N + 1, B, chunk)

    blocks = acc.reshape(N + 1, B, 3, 3)[:N]
    col_node = grid.active_nodes[:, None] + offs[None, :]          # (N, B)
    inside = (col_node >= 0) & (col_node < grid.node_count)
    col = np.full((N, B), -1, dtype=np.int64)
    col[inside] = grid.active_map[col_node[inside]]
    keep = col >= 0
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    K = sp.bsr_matrix((blocks[keep], col[keep], indptr), shape=(3 * N, 3 * N)).tocsc()
    K.eliminate_zeros()
    return K


def assemble(pts, grid, dt: float, tangent: np.ndarray,
             rayleigh_alpha: float = 0.0, rayleigh_beta: float = 0.0,
             sten=None) -> SystemMatrices:
    """Assemble and factorize the velocity system for one object.

    K comes from one block-band sum (``_stiffness``) for every DOF count;
    its memory grows with the number of active nodes, not with ndof^2.
    Expects the grid to be finalized with forces accumulated
    (node_force_int / node_force_ext) and ``tangent`` to hold each
    particle's dP/dF evaluated at its current elastic gradient.
    """
    if sten is None:
        raise ValueError("assemble requires the precomputed kernel stencils")
    ndof = 3 * grid.active_count
    mass = np.repeat(grid.node_mass[grid.active_nodes], 3)
    K = _stiffness(pts, grid, tangent, sten)

    coeff = rayleigh_beta * dt + dt * dt
    A = sp.diags(mass * (1.0 + dt * rayleigh_alpha)) + coeff * K
    A = 0.5 * (A + A.T)

    # node_force_int already stores the force -sum V_p P grad(N), so the
    # momentum balance adds it to the external force.
    force = grid.node_force_ext[grid.active_nodes] + grid.node_force_int[grid.active_nodes]
    b = dt * force.ravel()

    sys = SystemMatrices(mass=mass, K=K, A=A.tocsc(), b=b, dof_count=ndof)
    _factorize(sys)
    return sys


def _factorize(sys: SystemMatrices):
    """Sparse symmetric-mode LU with escalating diagonal shifts on failure."""
    t0 = time.perf_counter()
    base = sys.A
    trace = base.diagonal().sum()
    shift = 0.0
    delta = SHIFT_START
    for attempt in range(SHIFT_ATTEMPTS):
        A = base if shift == 0.0 else base + sp.identity(sys.dof_count, format="csc") * shift
        try:
            sys._lu = spla.splu(
                A.tocsc(),
                permc_spec="MMD_AT_PLUS_A",
                options={"SymmetricMode": True},
            )
            sys.shift_applied = shift
            sys.factor_time = time.perf_counter() - t0
            logger.debug(
                "factorized dofs=%d time=%.1fms shift=%g",
                sys.dof_count, 1e3 * sys.factor_time, shift,
            )
            return
        except RuntimeError:
            shift = delta * trace / max(sys.dof_count, 1)
            delta *= 2.0
    raise FactorizationError(
        f"system factorization failed after {SHIFT_ATTEMPTS} shift attempts"
    )


def free_velocity(sys: SystemMatrices, v_n: np.ndarray) -> np.ndarray:
    """Unconstrained end-of-step velocity: v_n + A^-1 b (flat, active DOFs)."""
    if sys.dof_count == 0:
        return np.zeros(0)
    return v_n.ravel() + sys.solve(sys.b)

