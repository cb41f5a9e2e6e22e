"""Analytic output states and Fisher information for the two-qubit probe.

For the ``cos(theta)|00> + e^{i phi} sin(theta)|11>`` probe, every channel
kind produces an X-shaped output: a 2x2 block on the {|00>, |11>} subspace
plus a 2x2 block on {|01>, |10>}.  The probe density has three independent
nonzero entries, (d00, d33, d03) = (c^2, s^2, s c e^{-i phi}) with
c = cos(theta), s = sin(theta), and the channel maps them linearly onto the
output.  ``_channel_map`` is that map in closed form.  Because it is linear
and parameter free, the same map sends the exact probe derivative to the
exact output derivative.

Each 2x2 block is diagonalised in closed form (``_block_eigen``), and the
Fisher information comes from the SLD sum over that eigensystem,

    F = sum_{i,j: lam_i + lam_j > SUPPORT_TOL} 2 |<i| d_rho |j>|^2 / (lam_i + lam_j).

The sum needs no eigenvector derivatives, so no phase convention (gauge)
enters and the result is defined at every setting, degenerate or not.
The route is independent of the numeric one: it uses neither
``apply_channel`` nor the Jacobi ``eigh``, and shares only the SLD sum.
"""

from __future__ import annotations

import cmath
import math

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


def _channel_map(channel: ChannelSpec, d00: float, d33: float, d03: complex) -> np.ndarray:
    """The channel applied to the X-shaped input with entries (d00, d33, d03).

    With weights (A, B, C, D, E) and middle coherence weight m the output is

        out00 = A d00 + C d33,   out33 = C d00 + A d33,
        out11 = out22 = B (d00 + d33),
        out03 = D d03 + E d03*,  out12 = m (d03 + d03*).

    Depolarizing uses its (A..E) and m = 0; bit flip uses (x, y, z, x, z)
    and m = y; the bit-phase flip negates m; phase flip is (1, 0, 0, w, 0)
    with m = 0.
    """
    kind = ChannelKind(channel.kind)
    p, mu = channel.p, channel.mu
    if kind is ChannelKind.DEPOLARIZING:
        a, b, c, d, e = depolarizing_coefficients(p, mu)
        m = 0.0
    elif kind is ChannelKind.PHASE_FLIP:
        a, b, c, d, e = 1.0, 0.0, 0.0, phase_flip_weight(p, mu), 0.0
        m = 0.0
    else:
        a, b, c = flip_coefficients(p, mu)
        d, e = a, c
        m = b if kind is ChannelKind.BIT_FLIP else -b
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = a * d00 + c * d33
    out[3, 3] = c * d00 + a * d33
    out[1, 1] = out[2, 2] = b * (d00 + d33)
    out[0, 3] = d * d03 + e * d03.conjugate()
    out[3, 0] = out[0, 3].conjugate()
    out[1, 2] = out[2, 1] = 2.0 * m * d03.real
    return out


def output_density(channel: ChannelSpec, theta: float, phi: float) -> np.ndarray:
    """Closed-form 4x4 output state for the Phi+ probe.

    The bit-phase flip output equals the bit flip one with the {|01>, |10>}
    coherences negated.
    """
    c, s = math.cos(theta), math.sin(theta)
    return _channel_map(channel, c * c, s * s, s * c * cmath.exp(-1j * phi))


def _output_derivative(channel: ChannelSpec, theta: float, phi: float, param: Param) -> np.ndarray:
    """Exact parameter derivative of ``output_density``."""
    if Param(param) is Param.THETA:
        s2 = math.sin(2.0 * theta)
        return _channel_map(channel, -s2, s2, math.cos(2.0 * theta) * cmath.exp(-1j * phi))
    sc = math.sin(theta) * math.cos(theta)
    return _channel_map(channel, 0.0, 0.0, -1j * sc * cmath.exp(-1j * phi))


def _block_eigen(a: float, b: float, c: complex) -> tuple[tuple, tuple]:
    """Eigenvalues and unit eigenvectors of the PSD block [[a, c], [c*, b]].

    Returns (lam_plus, lam_minus) and the eigenvector matrix as row tuples,
    column k belonging to eigenvalue k.  lam_plus = (a + b)/2 + alpha with
    alpha = hypot((a - b)/2, |c|); lam_minus = det / lam_plus avoids the
    cancellation in (a + b)/2 - alpha.  The eigenvectors are built from the
    larger of the two gaps lam_plus - a, lam_plus - b, which never cancels.
    A block with c = 0 returns (a, b) with the basis vectors.
    """
    r = abs(c)
    if r == 0.0:
        return (a, b), ((1.0, 0.0), (0.0, 1.0))
    u = 0.5 * (a - b)
    alpha = math.hypot(u, r)
    lam_plus = 0.5 * (a + b) + alpha
    lam_minus = (a * b - r * r) / lam_plus
    if u >= 0.0:
        g = u + alpha  # lam_plus - b
        v = ((g, -c), (c.conjugate(), g))
    else:
        g = alpha - u  # lam_plus - a
        v = ((c, g), (g, -c.conjugate()))
    n = math.hypot(g, r)
    return (lam_plus, lam_minus), tuple((x / n, y / n) for x, y in v)


def _x_eigensystem(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvector columns of an X-shaped 4x4 state.

    Columns 0-1 hold the {|00>, |11>} block's pair, columns 2-3 the
    {|01>, |10>} block's.
    """
    m = rho.tolist()
    w_outer, v_outer = _block_eigen(m[0][0].real, m[3][3].real, m[0][3])
    w_mid, v_mid = _block_eigen(m[1][1].real, m[2][2].real, m[1][2])
    v = np.array(
        [
            [*v_outer[0], 0.0, 0.0],
            [0.0, 0.0, *v_mid[0]],
            [0.0, 0.0, *v_mid[1]],
            [*v_outer[1], 0.0, 0.0],
        ],
        dtype=complex,
    )
    return np.array([*w_outer, *w_mid]), v


def closed_form_qfi(channel: ChannelSpec, theta: float, phi: float, param: Param) -> float:
    """QFI of the channel output for the Phi+ probe, fully analytic.

    Defined at every valid setting: the SLD sum over the closed-form block
    eigensystems has no singular gauge to avoid.
    """
    w, v = _x_eigensystem(output_density(channel, theta, phi))
    d_rho = _output_derivative(channel, theta, phi, param)
    return _qfi_from_eigensystem(w, v, d_rho)
