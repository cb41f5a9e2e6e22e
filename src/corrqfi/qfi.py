"""Quantum Fisher information from a parameterized density matrix.

Every route ends in the symmetric-logarithmic-derivative (SLD) sum over an
eigensystem (lam_i, |i>) of the state,

    F = sum_{i,j: lam_i + lam_j > SUPPORT_TOL} 2 |<i| d_rho |j>|^2 / (lam_i + lam_j).

It needs no eigenvector derivatives, so it is safe under spectral
degeneracies and independent of the eigenvectors' phases.  ``qfi_sld``
feeds it the Jacobi ``eigh`` of a dense state.  The dense numeric route
works over whole sets of (p, mu) points: ``_qfi_numeric`` builds the probe
and its exact parameter derivatives once, then per chunk of points runs one
stacked channel push (``channels._push``), one Hermiticity check, one
stacked Jacobi (``linalg._eigh_stack``) and one SLD sum.  A chunk holds
max(1, _CHUNK_BYTES // bytes per point) points, where a point's bytes are
one operator's push accumulators (4 Pauli indices per point; the push
takes the operators one at a time), so the accumulators stay within
512 KiB: 8 points at N = 5, 2 at N = 6.  Every kernel keeps the per-slice
shapes of a single point, so a point's values are bit-identical whatever
chunk it lands in, and equal ``qfi_numeric``, the one-point,
one-parameter case (two ``apply_channel`` calls and one ``eigh``).  The
closed-form module feeds the same sum (``_qfi_from_eigensystem``) the
analytic 2x2 block eigensystems of any probe over whole grids, so the two
routes share the sum, its support cut and the channel's transfer matrix,
and nothing else.  The sum and the cut take leading batch axes, which
broadcast.

Only the support set of the state contributes.  One helper, ``_support``,
makes that cut for every route: an eigenvalue pair (i, j) counts when
lam_i + lam_j > SUPPORT_TOL, so the classical term of eigenvalue i is kept
when 2 lam_i > SUPPORT_TOL.
"""

from __future__ import annotations

from dataclasses import replace
import math

import numpy as np

from .channels import ChannelKind, ChannelSpec, _check_unit_interval, _push, apply_channel
from .linalg import HERMITICITY_TOL, _eigh_stack, eigh
from .probes import Param, ProbeSpec, density, density_derivative

__all__ = [
    "SUPPORT_TOL",
    "qfi_sld",
    "build_sld",
    "qfi_numeric",
    "qfi_numeric_fd",
    "cramer_rao_bound",
]

# Support cutoff on lam_i + lam_j.  The eigenstates outside the support set
# do not affect the Fisher information; this threshold decides numerically
# what counts as "outside".
SUPPORT_TOL = 1e-12

# Working-set budget of one chunk of ``_qfi_numeric``: the stacked push
# holds up to 4 accumulators per point for one operator at a time, so a
# chunk takes max(1, budget // (16 * 4 * 4^N)) points whatever the number
# of parameters: a whole 21-point scan up to N = 4, 8 points at N = 5 and 2
# at N = 6.  Jacobi's working set is about six times its input, so one
# stack per scan raised the numeric-route peak RSS by about 6%.
_CHUNK_BYTES = 1 << 19

# Central-difference step of the finite-difference oracle.
FD_STEP = 1e-5


def _require_hermitian(m: np.ndarray, name: str) -> np.ndarray:
    """``m`` as a complex array of square matrices, checked Hermitian.

    ``m`` may carry leading batch axes.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if np.max(np.abs(m - np.swapaxes(m.conj(), -1, -2))) > HERMITICITY_TOL:
        raise ValueError(f"{name} is not Hermitian within tolerance")
    return m


def _support(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair sums lam_i + lam_j and the mask of pairs inside the support.

    ``w`` may carry leading batch axes: (..., n) gives (..., n, n).
    """
    denom = w[..., :, None] + w[..., None, :]
    return denom, denom > SUPPORT_TOL


def _qfi_from_eigensystem(w: np.ndarray, v: np.ndarray, d_rho: np.ndarray) -> np.ndarray:
    """SLD sum for eigensystems (w, v) and derivatives d_rho.

    All three may carry leading batch axes, which broadcast: one eigensystem
    serves a stack of derivatives.  Returns an array of the batch shape.
    """
    t = np.swapaxes(v.conj(), -1, -2) @ d_rho @ v
    denom, inside = _support(w)
    terms = 2.0 * np.abs(t) ** 2 / np.where(inside, denom, np.inf)
    # Pairs outside the support are left out of the sum, not added as zeros:
    # zeros regroup numpy's pairwise sum and move the last bit of
    # rank-deficient results.
    return np.sum(terms, axis=(-2, -1), where=inside)


def qfi_sld(rho: np.ndarray, d_rho: np.ndarray) -> float:
    """QFI of ``rho`` for the parameter behind ``d_rho`` (SLD route)."""
    rho = _require_hermitian(rho, "rho")
    d_rho = _require_hermitian(d_rho, "d_rho")
    w, v = eigh(rho)
    return float(_qfi_from_eigensystem(w, v, d_rho))


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


def _qfi_numeric(
    probe: ProbeSpec, kind: ChannelKind, ps, mus, params: tuple[Param, ...]
) -> np.ndarray:
    """QFI of the channel output at each (p, mu) point for each parameter, fully numeric.

    ``ps`` and ``mus`` are flat arrays of the points; the result is
    (points, params).  The probe and its exact analytic derivatives are
    built once.  The channel is linear and parameter independent, so per
    chunk of points they go through one stacked push, the outputs through
    one stacked Jacobi, and each derivative is summed over its point's
    eigensystem.  A point's values do not depend on the chunk it lands in.
    """
    kind = ChannelKind(kind)
    ps = _check_unit_interval(ps, "p").ravel()
    mus = _check_unit_interval(mus, "mu").ravel()
    ops = np.stack([density(probe), *(density_derivative(probe, param) for param in params)])
    per_chunk = max(1, _CHUNK_BYTES // (ops[0].size * 4 * 16))
    out = np.empty((len(ps), len(params)))
    for start in range(0, len(ps), per_chunk):
        chunk = slice(start, start + per_chunk)
        pushed = _push(ops, kind, ps[chunk], mus[chunk])
        rho = _require_hermitian(pushed[:, 0], "rho")
        d_rho = _require_hermitian(pushed[:, 1:], "d_rho")
        w, v = _eigh_stack(rho)
        out[chunk] = _qfi_from_eigensystem(w[:, None], v[:, None], d_rho)
        del pushed, rho, d_rho, w, v  # free this chunk before the next push
    return out


def qfi_numeric(probe: ProbeSpec, channel: ChannelSpec, param: Param) -> float:
    """QFI of the channel output, fully numeric.

    One push of the probe and one of its derivative, one ``eigh``: the
    one-point, one-parameter case of ``_qfi_numeric``, equal to it bit for bit.
    """
    rho = _require_hermitian(apply_channel(density(probe), channel), "rho")
    d_rho = _require_hermitian(apply_channel(density_derivative(probe, param), channel), "d_rho")
    w, v = eigh(rho)
    return float(_qfi_from_eigensystem(w, v, d_rho))


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
