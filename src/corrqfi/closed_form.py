"""Analytic output states and Fisher information for the two-qubit probe.

For the ``cos(theta)|00> + e^{i phi} sin(theta)|11>`` probe, every channel
kind produces an X-shaped output: a 2x2 block on the {|00>, |11>} subspace
plus a 2x2 block on {|01>, |10>}.  The probe density has three independent
nonzero entries, (d00, d33, d03) = (c^2, s^2, s c e^{-i phi}) with
c = cos(theta), s = sin(theta), and the channel maps them linearly onto the
output.  ``_channel_map`` is that map in closed form.  Because it is linear
and parameter free, the same map sends the exact probe derivatives to the
exact output derivatives.

Each 2x2 block is diagonalised in closed form (``_block_eigen``), and the
Fisher information is the sum of the two blocks' SLD sums,

    F = sum_{i,j: lam_i + lam_j > SUPPORT_TOL} 2 |<i| d_rho |j>|^2 / (lam_i + lam_j).

The sum needs no eigenvector derivatives, so no phase convention (gauge)
enters and the result is defined at every setting, degenerate or not.

Every step is numpy array code with leading batch axes: one call of
``closed_form_qfi_grid`` maps a whole (p, mu) grid, diagonalises each
output once and takes F_theta and F_phi from that one eigensystem (the QFI
is a sum over independent blocks; Liu, Yuan, Lu & Wang, J. Phys. A 53,
023001 (2020)).  ``closed_form_qfi`` and ``output_density`` are its
one-point calls.  The route is independent of the numeric one: it uses
neither ``apply_channel`` nor the Jacobi ``eigh``, and shares only the SLD
sum.
"""

from __future__ import annotations

import numpy as np

from .channels import ChannelKind, ChannelSpec
from .probes import Param
from .qfi import _qfi_from_eigensystem

__all__ = [
    "depolarizing_coefficients",
    "flip_coefficients",
    "phase_flip_weight",
    "output_density",
    "closed_form_qfi",
    "closed_form_qfi_grid",
]


def _mixing_weights(eta: float, mu: float) -> tuple[float, float, float]:
    a = (1.0 - eta) * (1.0 - eta + eta * mu)
    b = eta * (1.0 - eta) * (1.0 - mu)
    c = eta * eta + eta * (1.0 - eta) * mu
    return a, b, c


def depolarizing_coefficients(p: float, mu: float) -> tuple[float, float, float, float, float]:
    """Output weights (A, B, C, D, E) of the correlated depolarizing channel."""
    eta = 2.0 * p / 3.0
    a, b, c = _mixing_weights(eta, mu)
    d = (1.0 - 2.0 * eta) ** 2 + (3.0 - 4.0 * eta) * eta * mu
    e = eta * mu
    return a, b, c, d, e


def flip_coefficients(p: float, mu: float) -> tuple[float, float, float]:
    """Output weights (x, y, z) of the correlated bit / bit-phase flip channel."""
    return _mixing_weights(p, mu)


def phase_flip_weight(p: float, mu: float) -> float:
    """Coherence survival factor w = 1 - 4 p (1 - p) (1 - mu)."""
    return 1.0 - 4.0 * p * (1.0 - p) * (1.0 - mu)


def _channel_weights(kind: ChannelKind, p, mu) -> tuple:
    """Weights (A, B, C, D, E, m) of ``_channel_map``, broadcast over (p, mu).

    Depolarizing uses its (A..E) and m = 0; bit flip uses (x, y, z, x, z)
    and m = y; the bit-phase flip negates m; phase flip is (1, 0, 0, w, 0)
    with m = 0.
    """
    kind = ChannelKind(kind)
    p, mu = np.asarray(p, dtype=float), np.asarray(mu, dtype=float)
    if not (np.all((p >= 0.0) & (p <= 1.0)) and np.all((mu >= 0.0) & (mu <= 1.0))):
        raise ValueError("p and mu must lie in [0, 1]")
    if kind is ChannelKind.DEPOLARIZING:
        return (*depolarizing_coefficients(p, mu), 0.0)
    if kind is ChannelKind.PHASE_FLIP:
        return 1.0, 0.0, 0.0, phase_flip_weight(p, mu), 0.0, 0.0
    x, y, z = flip_coefficients(p, mu)
    return x, y, z, x, z, (y if kind is ChannelKind.BIT_FLIP else -y)


def _channel_map(weights: tuple, d00, d33, d03) -> np.ndarray:
    """The channel applied to X-shaped inputs with entries (d00, d33, d03).

    With weights (A, B, C, D, E) and middle coherence weight m the output is

        out00 = A d00 + C d33,   out33 = C d00 + A d33,
        out11 = out22 = B (d00 + d33),
        out03 = D d03 + E d03*,  out12 = m (d03 + d03*).

    All arguments broadcast.  The result, shape (..., 2, 2, 2), holds the
    {|00>, |11>} block and then the {|01>, |10>} block.
    """
    a, b, c, d, e, m = weights
    out03 = d * d03 + e * np.conj(d03)
    mid = b * (d00 + d33)
    out12 = 2.0 * m * np.real(d03)
    entries = np.broadcast_arrays(
        a * d00 + c * d33, out03, np.conj(out03), c * d00 + a * d33, mid, out12, out12, mid
    )
    blocks = np.stack(entries, axis=-1)
    return blocks.reshape(blocks.shape[:-1] + (2, 2, 2))


def _x_matrix(blocks: np.ndarray) -> np.ndarray:
    """The 4x4 X-shaped matrices with the blocks of ``_channel_map``."""
    out = np.zeros(blocks.shape[:-3] + (4, 4), dtype=complex)
    out[..., 0::3, 0::3] = blocks[..., 0, :, :]
    out[..., 1:3, 1:3] = blocks[..., 1, :, :]
    return out


def _states(kind: ChannelKind, p, mu, theta, phi) -> np.ndarray:
    """Output blocks and their exact theta and phi derivatives, shape (3, ..., 2, 2, 2).

    The probe entries (c^2, s^2, s c e^{-i phi}) and their two derivatives
    go through one ``_channel_map``; it is linear and parameter free, so it
    maps the probe derivatives to the output derivatives.
    """
    weights = _channel_weights(kind, p, mu)
    theta, phi = np.broadcast_arrays(theta, phi, *weights)[:2]
    c, s = np.cos(theta), np.sin(theta)
    sc = s * c
    s2 = np.sin(2.0 * theta)
    phase = np.exp(-1j * phi)
    zero = np.zeros_like(sc)
    d00 = np.array([c * c, -s2, zero])
    d33 = np.array([s * s, s2, zero])
    d03 = np.array([sc * phase, np.cos(2.0 * theta) * phase, -1j * sc * phase])
    return _channel_map(weights, d00, d33, d03)


def output_density(channel: ChannelSpec, theta: float, phi: float) -> np.ndarray:
    """Closed-form 4x4 output state for the Phi+ probe.

    The bit-phase flip output equals the bit flip one with the {|01>, |10>}
    coherences negated.
    """
    return _x_matrix(_states(channel.kind, channel.p, channel.mu, theta, phi)[0])


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


def _x_eigensystem(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (..., 2, 2) and eigenvectors (..., 2, 2, 2) of X-shaped states.

    ``blocks`` holds each state's two blocks as ``_channel_map`` returns
    them; each block gets its own eigenvalue pair and eigenvector columns.
    """
    return _block_eigen(blocks[..., 0, 0].real, blocks[..., 1, 1].real, blocks[..., 0, 1])


def closed_form_qfi_grid(kind: ChannelKind, p, mu, theta, phi) -> np.ndarray:
    """F_theta and F_phi of the Phi+ probe, stacked on a leading axis of 2.

    ``p``, ``mu``, ``theta`` and ``phi`` broadcast against each other, so a
    (p, mu) map is ``closed_form_qfi_grid(kind, p[:, None], mu[None, :],
    theta, phi)``.  Each output block is diagonalised once, both parameters
    come from that one eigensystem, and F is the sum of the two blocks'
    SLD sums.
    """
    states = _states(kind, p, mu, theta, phi)
    w, v = _x_eigensystem(states[0])
    return _qfi_from_eigensystem(w, v, states[1:]).sum(axis=-1)


def closed_form_qfi(channel: ChannelSpec, theta: float, phi: float, param: Param) -> float:
    """QFI of the channel output for the Phi+ probe, fully analytic.

    Defined at every valid setting: the SLD sum over the closed-form block
    eigensystems has no singular gauge to avoid.
    """
    f = closed_form_qfi_grid(channel.kind, channel.p, channel.mu, theta, phi)
    return float(f[list(Param).index(Param(param))])
