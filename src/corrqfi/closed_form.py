"""Analytic output states and Fisher information for every probe.

The EWL probe is a GHZ-type state mixed with white noise,
r |Xi><Xi| + (1 - r) I / 2^N with |Xi> = cos(theta)|0...0> + e^{i phi}
sin(theta)|1...1>, and phi+ is its N = 2, r = 1 case.  A Pauli string
whose X-pattern (the qubits carrying X or Y) is b sends |0...0> to |b> and
|1...1> to its complement |b~>, and multiplies the |0...0><1...1| coherence
by (-1)^(#Y + #Z).  So the channel output is X-shaped: 2^(N-1) independent
2x2 blocks on {|b>, |b~>}, one for each b with qubit 1 clear, with

    <b|rho|b>  = r (c^2 P(b) + s^2 P(b~)) + (1 - r) / 2^N,
    <b|rho|b~> = r (kappa S(b) + kappa* S(b~)),   kappa = s c e^{-i phi},

where c = cos(theta), s = sin(theta), and P(b) and S(b) are the chain sums
over the strings with X-pattern b,

    P(b) = sum_s p_s,   S(b) = sum_s p_s (-1)^(#Y + #Z).

``_chain_sums`` computes both in O(N 2^N) steps from the channel's one
``transfer_matrix`` (Macchiavello & Palma, PRA 65, 050301(R) (2002)).  The
entries are linear in (c^2, s^2, kappa), so the exact theta and phi
derivatives of the output are the same expressions with those three
differentiated.

The other Bell probes need no formulas of their own.  A Pauli channel
commutes with conjugation by X on one qubit, so psi+- = (I x X) phi+-
gives the phi+- output with its blocks relabelled and the same QFI, and
phi- is phi+ at phi + pi.

Each 2x2 block is diagonalised in closed form (``_block_eigen``), and the
Fisher information is the sum of the blocks' SLD sums,

    F = sum_{i,j: lam_i + lam_j > SUPPORT_TOL} 2 |<i| d_rho |j>|^2 / (lam_i + lam_j).

The sum needs no eigenvector derivatives, so no phase convention (gauge)
enters and the result is defined at every setting, degenerate or not.

Every step is numpy array code with leading batch axes: one call of
``closed_form_qfi_grid`` maps a whole (p, mu) grid, diagonalises each
output once and takes F_theta and F_phi from that one eigensystem (the QFI
is a sum over independent blocks; Liu, Yuan, Lu & Wang, J. Phys. A 53,
023001 (2020)).  ``closed_form_qfi`` and ``output_density`` are its
one-point calls.  The route is independent of the numeric one: it uses
neither ``apply_channel`` nor the Jacobi ``eigh``, and shares only the
transfer matrix and the SLD sum.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import ChannelKind, ChannelSpec, single_use_distribution, transfer_matrix
from .probes import Param, ProbeFamily, ProbeSpec
from .qfi import _qfi_from_eigensystem

__all__ = [
    "output_density",
    "closed_form_qfi",
    "closed_form_qfi_grid",
]

# Weight of Pauli index i in (sum, X-pattern bit): X and Y set the bit, and
# S carries the sign (-1) of Y and Z.
_SPLIT = np.array([
    [[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]],
    [[1.0, 0.0, 0.0, -1.0], [0.0, 1.0, -1.0, 0.0]],
])

# The Bell probes as phi+: a phase shift (phi-, psi-) and an X on qubit 2 (psi+-).
_PHASE_SHIFT = {ProbeFamily.PHI_MINUS: math.pi, ProbeFamily.PSI_MINUS: math.pi}
_X_MASK = {ProbeFamily.PSI_PLUS: 1, ProbeFamily.PSI_MINUS: 1}


def _chain_sums(kind: ChannelKind, p, mu, n_qubits: int) -> np.ndarray:
    """Chain sums P(b) and S(b) over the X-patterns b, shape (2, ..., 2^N).

    ``p`` and ``mu`` broadcast.  Qubit 1 is the most significant bit of b,
    as in the computational basis.  For each pattern of the qubits so far
    and each Pauli index i on the last of them, the recursion holds the
    (signed) weight of the strings that end that way; the next qubit mixes
    the last index with T[i, j] and appends the X-bit of the new one.
    """
    step = np.swapaxes(transfer_matrix(kind, p, mu), -1, -2)
    acc = single_use_distribution(kind, p)[..., None, None, :]  # (..., sum, b, i)
    for k in range(1, n_qubits):  # 2^k patterns after the split
        split = acc[..., None, :] * _SPLIT[:, None]  # append the X-bit of i to b
        # one matrix product per setting: row (sum, b) -> sum_j T[i, j] split[j]
        mixed = split.reshape(split.shape[:-4] + (2 << k, 4)) @ step
        acc = mixed.reshape(mixed.shape[:-2] + (2, 1 << k, 4))
    last = acc @ np.swapaxes(_SPLIT, -1, -2)  # the last qubit's X-bit, summed over i
    return np.moveaxis(last.reshape(last.shape[:-2] + (1 << n_qubits,)), -2, 0)


def _entries(kind: ChannelKind, p, mu, theta, phi, family, r, n_qubits: int) -> tuple:
    """Block entries of the output and of its theta and phi derivatives.

    Returns (a, d, k), each of shape (3, ..., 2^(N-1)): <b|rho|b>,
    <b~|rho|b~> and <b|rho|b~> for every b with qubit 1 clear, first for
    the output and then for its theta and phi derivatives.  All arguments
    but ``family`` and ``n_qubits`` broadcast.
    """
    family = ProbeFamily(family)
    sums = _chain_sums(kind, p, mu, n_qubits)
    half = sums.shape[-1] // 2
    (p_b, s_b), (p_c, s_c) = sums[..., :half], sums[..., ::-1][..., :half]  # b, then b~
    batch = sums[0, ..., 0]
    theta, phi, r = (x[..., None] for x in np.broadcast_arrays(theta, phi, r, batch)[:3])
    phi = phi + _PHASE_SHIFT.get(family, 0.0)
    c, s = np.cos(theta), np.sin(theta)
    sc, s2 = s * c, np.sin(2.0 * theta)
    phase = np.exp(-1j * phi)
    zero = np.zeros_like(sc)
    cc = np.stack([c * c, -s2, zero])
    ss = np.stack([s * s, s2, zero])
    kappa = np.stack([sc * phase, np.cos(2.0 * theta) * phase, -1j * sc * phase])
    a = r * (cc * p_b + ss * p_c)
    d = r * (cc * p_c + ss * p_b)
    white = (1.0 - r) / 2**n_qubits
    a[0] += white
    d[0] += white
    return a, d, r * (kappa * s_b + np.conj(kappa) * s_c)


def _x_matrix(a, d, k, family) -> np.ndarray:
    """The 2^N x 2^N X-shaped matrices with block entries (a, d, k)."""
    half, mask = a.shape[-1], _X_MASK.get(ProbeFamily(family), 0)
    b = np.arange(half)
    lo, hi = b ^ mask, (2 * half - 1 - b) ^ mask
    out = np.zeros(a.shape[:-1] + (2 * half, 2 * half), dtype=complex)
    out[..., lo, lo], out[..., hi, hi] = a, d
    out[..., lo, hi], out[..., hi, lo] = k, np.conj(k)
    return out


def output_density(
    channel: ChannelSpec, theta: float, phi: float,
    family: ProbeFamily = ProbeFamily.PHI_PLUS, r: float = 1.0, n_qubits: int = 2,
) -> np.ndarray:
    """Closed-form 2^N x 2^N output state of a probe (phi+ by default).

    The probe is checked as ``ProbeSpec`` checks it.
    """
    probe = ProbeSpec(family, theta, phi, r, n_qubits)
    a, d, k = _entries(
        channel.kind, channel.p, channel.mu, probe.theta, probe.phi, probe.family, probe.r, probe.n_qubits
    )
    return _x_matrix(a[0], d[0], k[0], probe.family)


_IDENTITY = np.eye(2, dtype=complex).reshape(4)


def _block_eigen(a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (..., 2) and unit eigenvectors (..., 2, 2) of PSD blocks [[a, c], [c*, b]].

    Column k of each eigenvector matrix belongs to eigenvalue k.
    lam_plus = (a + b)/2 + alpha with alpha = hypot((a - b)/2, |c|);
    lam_minus = det / lam_plus avoids the cancellation in (a + b)/2 - alpha.
    The eigenvectors are built from the larger of the two gaps
    lam_plus - a, lam_plus - b, which never cancels.  A block with c = 0
    returns (a, b) with the basis vectors.
    """
    r = np.hypot(np.real(c), np.imag(c))  # libm hypot; np.abs of a complex is less accurate
    u = 0.5 * (a - b)
    alpha = np.hypot(u, r)
    coherent = r > 0.0
    lam_plus = np.where(coherent, 0.5 * (a + b) + alpha, a)
    lam_minus = np.where(coherent, (a * b - r * r) / np.where(coherent, lam_plus, 1.0), b)
    upper = u >= 0.0
    g = np.where(upper, u + alpha, alpha - u)  # lam_plus - b, or lam_plus - a
    n = np.where(coherent, np.hypot(g, r), 1.0)
    gn = g / n
    # Part by part: a complex division by n scales by 1/n, which overflows
    # for a subnormal n.
    cn = np.real(c) / n + 1j * (np.imag(c) / n)
    ccn = np.conj(cn)
    rows = np.stack(
        [np.where(upper, gn, cn), np.where(upper, -cn, gn), np.where(upper, ccn, gn), np.where(upper, gn, -ccn)],
        axis=-1,
    )
    v = np.where(coherent[..., None], rows, _IDENTITY)
    return np.stack([lam_plus, lam_minus], axis=-1), v.reshape(v.shape[:-1] + (2, 2))


def closed_form_qfi_grid(
    kind: ChannelKind, p, mu, theta, phi,
    family: ProbeFamily = ProbeFamily.PHI_PLUS, r=1.0, n_qubits: int = 2,
) -> np.ndarray:
    """F_theta and F_phi of a probe, stacked on a leading axis of 2.

    ``p``, ``mu``, ``theta``, ``phi`` and the mixing ratio ``r`` broadcast
    against each other, so a (p, mu) map is ``closed_form_qfi_grid(kind,
    p[:, None], mu[None, :], theta, phi, family, r, n_qubits)``.  Each
    output block is diagonalised once, both parameters come from that one
    eigensystem, and F is the sum of the blocks' SLD sums.
    """
    a, d, k = _entries(kind, p, mu, theta, phi, family, r, n_qubits)
    w, v = _block_eigen(a[0], d[0], k[0])
    blocks = np.stack([a[1:], k[1:], np.conj(k[1:]), d[1:]], axis=-1)
    d_rho = blocks.reshape(blocks.shape[:-1] + (2, 2))
    return _qfi_from_eigensystem(w, v, d_rho).sum(axis=-1)


def closed_form_qfi(
    channel: ChannelSpec, theta: float, phi: float, param: Param,
    family: ProbeFamily = ProbeFamily.PHI_PLUS, r: float = 1.0, n_qubits: int = 2,
) -> float:
    """QFI of the channel output for a probe (phi+ by default), fully analytic.

    Defined at every valid setting: the SLD sum over the closed-form block
    eigensystems has no singular gauge to avoid.  The probe is checked as
    ``ProbeSpec`` checks it.
    """
    probe = ProbeSpec(family, theta, phi, r, n_qubits)
    f = closed_form_qfi_grid(
        channel.kind, channel.p, channel.mu, probe.theta, probe.phi, probe.family, probe.r, probe.n_qubits
    )
    return float(f[list(Param).index(Param(param))])
