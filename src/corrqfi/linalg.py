"""Dense complex linear algebra for small multi-qubit operators.

Everything operates on plain ``numpy`` arrays of ``complex128``; the module
holds the Pauli matrices and the Hermitian eigensolver, and tensor products
are plain ``numpy.kron``.  ``eigh`` caps dimensions at 64 (six qubits): this
package targets exactness at desk scale, not scalability.  The eigensolver
is a cyclic Jacobi iteration, chosen over LAPACK because the matrices are
tiny and Jacobi retains high relative accuracy for the near-zero
eigenvalues that the Fisher-information support logic depends on.  Just
past the phase flip's theta = pi/2, where F_theta = 4 exactly, Jacobi keeps
the numeric route within 4e-15 of 4 while numpy's LAPACK ``eigh`` misses by
up to 9e-6 (``tests/test_qfi.py``).

The Jacobi iteration runs on stacks: the private ``_eigh_stack`` takes
(B, n, n) and ``eigh`` is its B = 1 case.  Each matrix keeps its own scale,
tolerance and convergence test and stops sweeping once converged, and each
round rotates only the (matrix, pair) entries above that matrix's skip
threshold; skipped pairs are left untouched, not rotated by the identity.
So a matrix gets the same bits in any stack as alone: every rotation
scalar is an elementwise numpy function of that matrix's own entries.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "MAX_DIM",
    "HERMITICITY_TOL",
    "JacobiConvergenceError",
    "EigenSystem",
    "pauli",
    "eigh",
]

MAX_DIM = 64  # 2**6, the largest operator dimension supported
HERMITICITY_TOL = 1e-12  # max |H - H^dag| element accepted by eigh
MAX_SWEEPS = 60  # Jacobi sweep cap of eigh

_PAULI = (
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


class JacobiConvergenceError(RuntimeError):
    """The Jacobi sweep cap was reached before the off-diagonal vanished."""


class EigenSystem(NamedTuple):
    """Full spectrum of a Hermitian matrix.

    ``eigenvalues`` is real and ascending (ties keep original order);
    column ``i`` of ``eigenvectors`` pairs with ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def pauli(index: int) -> np.ndarray:
    """Return the 2x2 Pauli matrix for ``index`` in {0, 1, 2, 3}.

    Index 0 is the identity; 1, 2, 3 are sigma_x, sigma_y, sigma_z.
    """
    if index not in (0, 1, 2, 3):
        raise ValueError(f"Pauli index must be in 0..3, got {index!r}")
    return _PAULI[index].copy()


@cache
def _round_robin_pairs(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Tournament schedule: every index pair exactly once, rounds disjoint.

    Built once per dimension; the result is immutable, so the cache can
    hand the same schedule to every call.
    """
    m = n + (n % 2)
    players = list(range(m))
    rounds: list[tuple[tuple[int, int], ...]] = []
    for _ in range(m - 1):
        pairs = []
        for i in range(m // 2):
            p, q = players[i], players[m - 1 - i]
            if p < n and q < n:
                pairs.append((min(p, q), max(p, q)))
        rounds.append(tuple(pairs))
        players = [players[0], players[-1]] + players[1:-1]
    return tuple(rounds)


@cache
def _round_indices(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """``_round_robin_pairs(n)`` as (p, q, p*n + q) index arrays per round."""
    rounds = []
    for pairs in _round_robin_pairs(n):
        ps, qs = np.array(pairs).T
        for index in (ps, qs):
            index.flags.writeable = False
        flat = ps * n + qs
        flat.flags.writeable = False
        rounds.append((ps, qs, flat))
    return tuple(rounds)


def _rotations(
    apq: np.ndarray, r: np.ndarray, app: np.ndarray, aqq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi (c, s) zeroing the (p, q) elements of Hermitian 2x2 blocks.

    Elementwise over flat arrays, so each (c, s) depends only on its own
    block; ``r`` is |a_pq| as ``np.hypot`` of its parts, which is more
    accurate than ``np.abs`` of the complex.
    """
    phase = apq / r
    theta = (aqq - app) / (2.0 * r)
    hyp = np.hypot(theta, 1.0)
    t = np.copysign(1.0, theta) / (np.abs(theta) + hyp)
    big = np.abs(theta) > 1e12
    t[big] = 1.0 / (2.0 * theta[big])
    t[theta == 0.0] = 1.0
    c = 1.0 / np.sqrt(t * t + 1.0)
    return c, t * c * phase


def eigh(h: np.ndarray) -> EigenSystem:
    """Diagonalize a Hermitian matrix by cyclic Jacobi rotations.

    The one-matrix case of ``_eigh_stack``.  The input must be Hermitian
    within HERMITICITY_TOL (max element of ``h - h^dag``).  Eigenvalues come
    back ascending with a stable tie order; eigenvector columns are
    orthonormal to machine precision because they accumulate exact unitary
    rotations.

    Raises:
        ValueError: non-square, non-finite, or non-Hermitian input, or a
            dimension above MAX_DIM.
        JacobiConvergenceError: sweep cap reached (not observed in practice).
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"eigh expects a square matrix, got shape {h.shape}")
    w, v = _eigh_stack(h[None])
    return EigenSystem(w[0], v[0])


def _eigh_stack(h: np.ndarray) -> EigenSystem:
    """Cyclic Jacobi on a (B, n, n) stack of Hermitian matrices.

    One sweep visits every index pair once, following a round-robin order so
    that the rotations of a round act on disjoint pairs and can be applied
    at once.  Each matrix keeps its own scale, tolerance and convergence
    test and leaves the sweeps once converged, so its result does not depend
    on the rest of the stack: every matrix gets exactly the rotations, and
    the bits, that it would get alone.  A round rotates the (matrix, pair)
    entries above the matrix's skip threshold and leaves the others
    untouched.  Returns (B, n) ascending eigenvalues and (B, n, n)
    eigenvectors; raises as ``eigh`` does.
    """
    n = h.shape[-1]
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds the {MAX_DIM} capacity")
    if not np.all(np.isfinite(h)):
        raise ValueError("eigh input contains non-finite entries")
    h_dag = np.swapaxes(h.conj(), -1, -2)
    if np.max(np.abs(h - h_dag)) > HERMITICITY_TOL:
        raise ValueError("eigh input is not Hermitian within tolerance")

    a = 0.5 * (h + h_dag)  # exact symmetrization of the tolerated drift
    v = np.broadcast_to(np.eye(n, dtype=complex), a.shape).copy()
    if n == 1:
        return EigenSystem(a[:, :, 0].real.copy(), v)
    scale = np.max(np.abs(a), axis=(-2, -1))
    tol = 1e-14 * scale
    skip = 0.01 * tol
    off_diagonal = ~np.eye(n, dtype=bool)
    entries = a.reshape(-1)  # a is contiguous and updated in place

    live = np.arange(len(a))
    for sweep in range(MAX_SWEEPS + 1):
        off = np.max(np.abs(a[live]), axis=(-2, -1), where=off_diagonal, initial=0.0)
        live = live[off > tol[live]]
        if not live.size:
            break
        if sweep == MAX_SWEEPS:
            raise JacobiConvergenceError(
                f"no convergence after {MAX_SWEEPS} sweeps (n={n})"
            )
        first, limit = live[:, None] * (n * n), skip[live, None]
        for ps, qs, flat in _round_indices(n):
            apq = entries[first + flat]
            r = np.hypot(apq.real, apq.imag)
            rotate = r > limit
            m, k = np.nonzero(rotate)
            if not k.size:
                continue
            # The pairs of a matrix's round are disjoint, so its rotations
            # apply as one unitary J (J[p,p]=J[q,q]=c, J[p,q]=s,
            # J[q,p]=-conj(s)): columns give A J, rows give J^dag (A J), and
            # V accumulates V J.  Each (matrix, pair) entry is one rotation.
            m, p, q = live[m], ps[k], qs[k]
            c, s = _rotations(apq[rotate], r[rotate], a[m, p, p].real, a[m, q, q].real)
            c_col, s_col = c[:, None], s[:, None]
            ap = a[m, :, p]
            aq = a[m, :, q]
            a[m, :, p] = ap * c_col - aq * s_col.conj()
            a[m, :, q] = ap * s_col + aq * c_col
            rp = a[m, p, :]
            rq = a[m, q, :]
            a[m, p, :] = rp * c_col - rq * s_col
            a[m, q, :] = rp * s_col.conj() + rq * c_col
            a[m, p, q] = 0.0
            a[m, q, p] = 0.0
            vp = v[m, :, p]
            vq = v[m, :, q]
            v[m, :, p] = vp * c_col - vq * s_col.conj()
            v[m, :, q] = vp * s_col + vq * c_col

    w = np.diagonal(a, axis1=-2, axis2=-1).real.copy()
    w[scale == 0.0] = 0.0  # +0 for a zero matrix, whatever the signs of its zeros
    order = np.argsort(w, axis=-1, kind="stable")
    return EigenSystem(
        np.take_along_axis(w, order, axis=-1), np.take_along_axis(v, order[:, None, :], axis=-1)
    )
