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
"""

from __future__ import annotations

from functools import cache
import math
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


def _max_offdiag(a: np.ndarray) -> float:
    off = np.abs(a - np.diag(np.diag(a)))
    return float(off.max())


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


def _rotation(apq: complex, app: float, aqq: float) -> tuple[float, complex]:
    """Jacobi (c, s) zeroing the (p, q) element of a Hermitian 2x2 block."""
    r = abs(apq)
    phase = apq / r
    theta = (aqq - app) / (2.0 * r)
    if abs(theta) > 1e12:
        t = 1.0 / (2.0 * theta)
    elif theta == 0.0:
        t = 1.0
    else:
        t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
    c = 1.0 / math.sqrt(t * t + 1.0)
    return c, t * c * phase


def eigh(h: np.ndarray) -> EigenSystem:
    """Diagonalize a Hermitian matrix by cyclic Jacobi rotations.

    One sweep visits every index pair once, following a round-robin order so
    that the rotations of a round act on disjoint pairs and can be applied
    as a single unitary.  The input must be Hermitian within
    HERMITICITY_TOL (max element of ``h - h^dag``).  Eigenvalues come back
    ascending with a stable tie order; eigenvector columns are orthonormal
    to machine precision because they accumulate exact unitary rotations.

    Raises:
        ValueError: non-square, non-finite, or non-Hermitian input, or a
            dimension above MAX_DIM.
        JacobiConvergenceError: sweep cap reached (not observed in practice).
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"eigh expects a square matrix, got shape {h.shape}")
    n = h.shape[0]
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds the {MAX_DIM} capacity")
    if not np.all(np.isfinite(h)):
        raise ValueError("eigh input contains non-finite entries")
    if np.max(np.abs(h - h.conj().T)) > HERMITICITY_TOL:
        raise ValueError("eigh input is not Hermitian within tolerance")

    a = 0.5 * (h + h.conj().T)  # exact symmetrization of the tolerated drift
    v = np.eye(n, dtype=complex)
    if n == 1:
        return EigenSystem(np.diag(a).real.copy(), v)
    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        return EigenSystem(np.zeros(n), v)
    tol = 1e-14 * scale
    skip = 0.01 * tol
    rounds = _round_robin_pairs(n)

    for sweep in range(MAX_SWEEPS + 1):
        if _max_offdiag(a) <= tol:
            break
        if sweep == MAX_SWEEPS:
            raise JacobiConvergenceError(
                f"no convergence after {MAX_SWEEPS} sweeps (n={n})"
            )
        for pairs in rounds:
            ps: list[int] = []
            qs: list[int] = []
            cs: list[float] = []
            ss: list[complex] = []
            for p, q in pairs:
                apq = complex(a[p, q])
                if abs(apq) <= skip:
                    continue
                c, s = _rotation(apq, a[p, p].real, a[q, q].real)
                ps.append(p)
                qs.append(q)
                cs.append(c)
                ss.append(s)
            if not ps:
                continue
            # The pairs of a round are disjoint, so all rotations apply as
            # one unitary J (J[p,p]=J[q,q]=c, J[p,q]=s, J[q,p]=-conj(s)):
            # columns give A J, rows give J^dag (A J), and V accumulates V J.
            c_row = np.asarray(cs)
            s_row = np.asarray(ss)
            ap = a[:, ps]
            aq = a[:, qs]
            a[:, ps] = ap * c_row - aq * s_row.conj()
            a[:, qs] = ap * s_row + aq * c_row
            c_col = c_row[:, None]
            s_col = s_row[:, None]
            rp = a[ps, :]
            rq = a[qs, :]
            a[ps, :] = rp * c_col - rq * s_col
            a[qs, :] = rp * s_col.conj() + rq * c_col
            a[ps, qs] = 0.0
            a[qs, ps] = 0.0
            vp = v[:, ps]
            vq = v[:, qs]
            v[:, ps] = vp * c_row - vq * s_row.conj()
            v[:, qs] = vp * s_row + vq * c_row

    w = np.diag(a).real.copy()
    order = np.argsort(w, kind="stable")
    return EigenSystem(w[order], v[:, order])
