"""Quantum Fisher information from a parameterized density matrix.

Two routes are provided and kept deliberately independent:

* ``qfi_sld`` evaluates the symmetric-logarithmic-derivative closed form in
  the eigenbasis of the state,

      F = sum_{i,j: lam_i + lam_j > SUPPORT_TOL} 2 |<i| d_rho |j>|^2 / (lam_i + lam_j),

  which is the main numerical path (it needs no eigenvector derivatives and
  is therefore safe under spectral degeneracies).

* ``qfi_spectral`` assembles the spectral decomposition formula

      F = sum_i lam_i'^2 / lam_i + sum_i lam_i F_i
          - sum_{i != j} 8 lam_i lam_j |<psi_i'|psi_j>|^2 / (lam_i + lam_j)

  from externally supplied eigen-data with derivatives; the closed-form
  module feeds it analytic spectra so the two routes cross-check each other.

Only the support set of the state contributes.  One helper, ``_support``,
makes that cut for every route: an eigenvalue pair (i, j) counts when
lam_i + lam_j > SUPPORT_TOL, and the classical term lam_i'^2 / lam_i is the
diagonal pair (i, i), kept when 2 lam_i > SUPPORT_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import math

import numpy as np

from .channels import ChannelSpec, apply_channel
from .linalg import HERMITICITY_TOL, eigh
from .probes import Param, ProbeSpec, density, density_derivative

__all__ = [
    "SUPPORT_TOL",
    "SpectralData",
    "qfi_sld",
    "build_sld",
    "qfi_spectral",
    "qfi_numeric",
    "qfi_numeric_fd",
    "cramer_rao_bound",
]

# Support cutoff on lam_i + lam_j.  The eigenstates outside the support set
# do not affect the Fisher information; this threshold decides numerically
# what counts as "outside".
SUPPORT_TOL = 1e-12

# Central-difference step of the finite-difference oracle.
FD_STEP = 1e-5


@dataclass(frozen=True)
class SpectralData:
    """Eigen-decomposition of a state plus its parameter derivatives.

    ``eigenvectors`` holds |psi_i> as columns and ``d_eigenvectors`` their
    derivatives; ``pure_term_qfi`` is the per-eigenstate pure contribution
    F_i = 4 (<psi_i'|psi_i'> - |<psi_i'|psi_i>|^2).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    d_eigenvalues: np.ndarray
    d_eigenvectors: np.ndarray
    pure_term_qfi: np.ndarray


def _require_hermitian(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
        raise ValueError(f"{name} is not Hermitian within tolerance")
    return m


def _support(w: np.ndarray, tol: float = SUPPORT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Pair sums lam_i + lam_j and the mask of pairs inside the support."""
    denom = w[:, None] + w[None, :]
    return denom, denom > tol


def _qfi_from_eigensystem(
    w: np.ndarray, v: np.ndarray, d_rho: np.ndarray, support_tol: float
) -> float:
    t = v.conj().T @ d_rho @ v
    denom, inside = _support(w, support_tol)
    return float(np.sum(2.0 * np.abs(t[inside]) ** 2 / denom[inside]))


def qfi_sld(rho: np.ndarray, d_rho: np.ndarray) -> float:
    """QFI of ``rho`` for the parameter behind ``d_rho`` (SLD route)."""
    rho = _require_hermitian(rho, "rho")
    d_rho = _require_hermitian(d_rho, "d_rho")
    w, v = eigh(rho)
    return _qfi_from_eigensystem(w, v, d_rho, SUPPORT_TOL)


def build_sld(rho: np.ndarray, d_rho: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative L with d_rho = (L rho + rho L)/2.

    Matrix elements outside the support set are set to zero, the standard
    minimal-norm completion.  Tr(L^2 rho) reproduces qfi_sld.
    """
    rho = _require_hermitian(rho, "rho")
    d_rho = _require_hermitian(d_rho, "d_rho")
    w, v = eigh(rho)
    t = v.conj().T @ d_rho @ v
    denom, inside = _support(w)
    safe = np.where(inside, denom, np.inf)  # excluded pairs -> 0
    return v @ (2.0 * t / safe) @ v.conj().T


def qfi_spectral(data: SpectralData) -> float:
    """QFI assembled from eigen-data with derivatives (spectral route)."""
    w = np.asarray(data.eigenvalues, dtype=float)
    dw = np.asarray(data.d_eigenvalues, dtype=float)
    v = np.asarray(data.eigenvectors, dtype=complex)
    dv = np.asarray(data.d_eigenvectors, dtype=complex)
    fi = np.asarray(data.pure_term_qfi, dtype=float)

    denom, inside = _support(w)
    on = np.diag(inside)
    classical = np.sum(dw[on] ** 2 / w[on])
    mixture = float(np.dot(w, fi))
    overlaps = dv.conj().T @ v  # overlaps[i, j] = <psi_i'|psi_j>
    off = inside & ~np.eye(w.size, dtype=bool)
    weights = 8.0 * w[:, None] * w[None, :]
    cross = np.sum(weights[off] / denom[off] * np.abs(overlaps[off]) ** 2)
    return float(classical + mixture - cross)


def qfi_numeric(probe: ProbeSpec, channel: ChannelSpec, param: Param) -> float:
    """QFI of the channel output, fully numeric.

    The channel is linear and parameter independent, so the exact analytic
    probe derivative is pushed through it directly.
    """
    rho = apply_channel(density(probe), channel)
    d_rho = apply_channel(density_derivative(probe, param), channel)
    return qfi_sld(rho, d_rho)


def qfi_numeric_fd(probe: ProbeSpec, channel: ChannelSpec, param: Param) -> float:
    """Finite-difference variant of qfi_numeric (independent oracle).

    Replaces the analytic probe derivative by a central difference of the
    channel output with step FD_STEP; everything else is unchanged.
    """
    name = Param(param).value
    value = getattr(probe, name)
    rho_lo = apply_channel(density(replace(probe, **{name: value - FD_STEP})), channel)
    rho_hi = apply_channel(density(replace(probe, **{name: value + FD_STEP})), channel)
    d_rho = (rho_hi - rho_lo) / (2.0 * FD_STEP)
    # Dividing by 2h amplifies the matmul roundoff of the two channel
    # applications past the Hermiticity tolerance; fold it back.
    d_rho = 0.5 * (d_rho + d_rho.conj().T)
    rho = apply_channel(density(probe), channel)
    return qfi_sld(rho, d_rho)


def cramer_rao_bound(qfi: float, repetitions: int) -> float:
    """Minimum unbiased-estimator variance 1 / (M * F).

    A nonpositive QFI carries no information about the parameter; the bound
    is then unbounded and signalled by returning ``math.inf`` rather than
    raising.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if qfi <= 0.0:
        return math.inf
    return 1.0 / (repetitions * qfi)
