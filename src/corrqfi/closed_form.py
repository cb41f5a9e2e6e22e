"""Analytic output states and spectra for two-qubit probes.

For the ``cos(theta)|00> + e^{i phi} sin(theta)|11>`` probe, every channel
kind produces an X-shaped output: a 2x2 block on the {|00>, |11>} subspace
plus a 2x2 block on {|01>, |10>}.  The nonzero elements are polynomial in
the channel coefficients, so the full eigen-system and its theta/phi
derivatives come out in closed form and feed the spectral QFI formula.
This gives a path to the Fisher information that is completely independent
of the numeric SLD route and serves as its cross-check.

The {|00>, |11>} block carries the coherence

    rho_14 = (d1 e^{-i phi} + d2 e^{i phi}) sin(theta) cos(theta)

with channel-specific weights (d1, d2).  Internally the coherence is
rewritten as G e^{-i gamma} with G = |d1 e^{-i phi} + d2 e^{i phi}|, which
makes the block formulas exact for every phi: treating the magnitude as
d1 + d2 is only correct when the two phase components align (sin(phi) = 0
or d1 d2 = 0).  With the exact magnitude, both eigenvalues and eigenvectors
generally depend on phi whenever d1 d2 != 0.

Eigenvector gauge: amplitudes are carried on |00> and |11> directly (or on
the fixed Bell combinations for the middle block), with no re-phasing.
The gauge is singular where the normalizers vanish; those points raise
DegenerateSpectrumError so callers fall back to the SLD route instead of
dividing by a vanishing quantity.
"""

from __future__ import annotations

import numpy as np

from .channels import ChannelKind, ChannelSpec
from .probes import Param
from .qfi import SpectralData, qfi_spectral

__all__ = [
    "DEGENERACY_TOL",
    "DegenerateSpectrumError",
    "depolarizing_coefficients",
    "flip_coefficients",
    "phase_flip_weight",
    "output_density",
    "depolarizing_spectrum",
    "bitflip_spectrum",
    "phaseflip_spectrum",
    "closed_form_qfi",
]

# Below this scale the spectral gap alpha (or the gauge normalizer) is
# treated as vanishing and the closed form refuses to evaluate.
DEGENERACY_TOL = 1e-9


class DegenerateSpectrumError(RuntimeError):
    """Closed-form gauge is singular here; compute via the SLD route."""


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


def output_density(channel: ChannelSpec, theta: float, phi: float) -> np.ndarray:
    """Closed-form 4x4 output state for the Phi+ probe.

    The bit-phase flip output equals the bit flip one with the {|01>, |10>}
    coherences negated.
    """
    kind = ChannelKind(channel.kind)
    p, mu = channel.p, channel.mu
    c2 = np.cos(theta) ** 2
    s2 = np.sin(theta) ** 2
    sc = np.sin(theta) * np.cos(theta)
    rho = np.zeros((4, 4), dtype=complex)
    if kind is ChannelKind.DEPOLARIZING:
        a, b, c, d, e = depolarizing_coefficients(p, mu)
        rho[0, 0] = a * c2 + c * s2
        rho[1, 1] = rho[2, 2] = b
        rho[3, 3] = 1.0 - rho[0, 0].real - 2.0 * b
        rho[0, 3] = (d * np.exp(-1j * phi) + e * np.exp(1j * phi)) * sc
    elif kind in (ChannelKind.BIT_FLIP, ChannelKind.BIT_PHASE_FLIP):
        x, y, z = flip_coefficients(p, mu)
        sign = 1.0 if kind is ChannelKind.BIT_FLIP else -1.0
        rho[0, 0] = x * c2 + z * s2
        rho[1, 1] = rho[2, 2] = y
        rho[3, 3] = 1.0 - rho[0, 0].real - 2.0 * y
        rho[1, 2] = rho[2, 1] = sign * y * np.sin(2.0 * theta) * np.cos(phi)
        rho[0, 3] = (x * np.exp(-1j * phi) + z * np.exp(1j * phi)) * sc
    else:  # phase flip
        w = phase_flip_weight(p, mu)
        rho[0, 0] = c2
        rho[3, 3] = s2
        rho[0, 3] = w * np.exp(-1j * phi) * sc
    rho[3, 0] = np.conj(rho[0, 3])
    return rho


def _outer_block(
    ssum: float,
    sdiff: float,
    d1: float,
    d2: float,
    theta: float,
    phi: float,
    param: Param,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eigen-pairs of the {|00>, |11>} block with parameter derivatives.

    The block is [[rho11, rho14], [rho14*, rho44]] with

        rho11 = (ssum + u)/2,  rho44 = (ssum - u)/2,  u = sdiff cos(2 theta),
        rho14 = (d1 e^{-i phi} + d2 e^{i phi}) sin(theta) cos(theta).

    Returns (lams, dlams, amps, damps): eigenvalues ascending-by-formula
    (ssum -/+ alpha)/2, their derivatives, and 2x2 amplitude columns
    (component on |00>, component on |11>) with their derivatives.
    """
    s2 = np.sin(2.0 * theta)
    c2 = np.cos(2.0 * theta)
    u = sdiff * c2
    # The block depends on the parameter only through u, sin(2 theta) and
    # the coherence coefficient kapbar; the parameter picks their rates and
    # one chain rule does the rest.
    if Param(param) is Param.THETA:
        du, ds2, dkapbar = -2.0 * sdiff * s2, 2.0 * c2, 0.0
    else:
        du, ds2 = 0.0, 0.0
        dkapbar = 1j * (d1 * np.exp(1j * phi) - d2 * np.exp(-1j * phi))

    if d1 + d2 <= DEGENERACY_TOL:
        # Coherence is identically zero: the block is diagonal for every
        # (theta, phi), so eigenvectors are constant basis vectors.
        alpha = abs(u)
        if alpha <= DEGENERACY_TOL:
            raise DegenerateSpectrumError("block is proportional to the identity")
        lams = np.array([(ssum - alpha) / 2.0, (ssum + alpha) / 2.0])
        dalpha = np.sign(u) * du
        dlams = np.array([-dalpha / 2.0, dalpha / 2.0])
        amps = np.zeros((2, 2), dtype=complex)
        if u > 0:  # smaller eigenvalue sits on |11>
            amps[1, 0] = 1.0
            amps[0, 1] = 1.0
        else:
            amps[0, 0] = 1.0
            amps[1, 1] = 1.0
        return lams, dlams, amps, np.zeros((2, 2), dtype=complex)

    kapbar = d1 * np.exp(1j * phi) + d2 * np.exp(-1j * phi)  # rho41 coefficient
    g = abs(kapbar)
    h = g * s2
    alpha = float(np.hypot(u, h))
    if alpha <= DEGENERACY_TOL:
        raise DegenerateSpectrumError("spectral gap of the coherent block vanishes")
    if g <= DEGENERACY_TOL or abs(s2) <= DEGENERACY_TOL:
        raise DegenerateSpectrumError("eigenvector gauge is singular (normalizer -> 0)")
    phase = kapbar / g  # e^{i gamma}

    # Stable splits of alpha -/+ u (avoids cancellation when h is small).
    if u >= 0.0:
        dminus = h**2 / (alpha + u)
        dplus = alpha + u
    else:
        dplus = h**2 / (alpha - u)
        dminus = alpha - u
    beta1 = np.sqrt(2.0 * alpha * dminus)
    beta2 = np.sqrt(2.0 * alpha * dplus)

    lams = np.array([(ssum - alpha) / 2.0, (ssum + alpha) / 2.0])
    amps = np.array(
        [
            [-np.conj(phase) * dminus / beta1, np.conj(phase) * dplus / beta2],
            [h / beta1, h / beta2],
        ]
    )

    shift = dkapbar * np.conj(phase)  # = G' + i G gamma'
    dgamma = shift.imag / g
    dh = shift.real * s2 + g * ds2
    dalpha = (u * du + h * dh) / alpha
    dlams = np.array([-dalpha / 2.0, dalpha / 2.0])
    dbeta1 = (2.0 * alpha * dalpha - (du * alpha + u * dalpha)) / beta1
    dbeta2 = (2.0 * alpha * dalpha + (du * alpha + u * dalpha)) / beta2
    g1 = (u - alpha) / beta1
    g2 = (u + alpha) / beta2
    dg1 = ((du - dalpha) * beta1 - (u - alpha) * dbeta1) / beta1**2
    dg2 = ((du + dalpha) * beta2 - (u + alpha) * dbeta2) / beta2**2
    damps = np.array(
        [
            [
                np.conj(phase) * (-1j * dgamma * g1 + dg1),
                np.conj(phase) * (-1j * dgamma * g2 + dg2),
            ],
            [
                (dh * beta1 - h * dbeta1) / beta1**2,
                (dh * beta2 - h * dbeta2) / beta2**2,
            ],
        ]
    )
    return lams, dlams, amps, damps


def _pure_terms(vectors: np.ndarray, d_vectors: np.ndarray) -> np.ndarray:
    """Per-eigenstate pure QFI 4(<psi'|psi'> - |<psi'|psi>|^2), clipped at 0."""
    norms = np.einsum("ij,ij->j", d_vectors.conj(), d_vectors).real
    mixed = np.einsum("ij,ij->j", d_vectors.conj(), vectors)
    return np.maximum(4.0 * (norms - np.abs(mixed) ** 2), 0.0)


def _assemble(
    outer_first: bool,
    outer: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    mid_lams: np.ndarray,
    mid_dlams: np.ndarray,
    mid_vectors: np.ndarray,
) -> SpectralData:
    """Embed the {|00>,|11>} block and the middle pair into 4-dim data."""
    lams_o, dlams_o, amps, damps = outer
    vec_o = np.zeros((4, 2), dtype=complex)
    dvec_o = np.zeros((4, 2), dtype=complex)
    vec_o[0, :] = amps[0, :]
    vec_o[3, :] = amps[1, :]
    dvec_o[0, :] = damps[0, :]
    dvec_o[3, :] = damps[1, :]

    vectors = np.zeros((4, 4), dtype=complex)
    d_vectors = np.zeros((4, 4), dtype=complex)
    if outer_first:
        lams = np.concatenate([lams_o, mid_lams])
        dlams = np.concatenate([dlams_o, mid_dlams])
        vectors[:, :2] = vec_o
        d_vectors[:, :2] = dvec_o
        vectors[:, 2:] = mid_vectors
    else:
        lams = np.concatenate([mid_lams, lams_o])
        dlams = np.concatenate([mid_dlams, dlams_o])
        vectors[:, :2] = mid_vectors
        vectors[:, 2:] = vec_o
        d_vectors[:, 2:] = dvec_o
    return SpectralData(
        eigenvalues=lams,
        eigenvectors=vectors,
        d_eigenvalues=dlams,
        d_eigenvectors=d_vectors,
        pure_term_qfi=_pure_terms(vectors, d_vectors),
    )


def depolarizing_spectrum(
    theta: float, phi: float, p: float, mu: float, param: Param
) -> SpectralData:
    """Analytic spectrum of the depolarizing output with derivatives.

    Ordering: the two coherent-block states first, then |01> and |10> with
    the doubly degenerate eigenvalue B and zero derivatives.
    """
    a, b, c, d, e = depolarizing_coefficients(p, mu)
    outer = _outer_block(a + c, a - c, d, e, theta, phi, param)
    mid_vectors = np.zeros((4, 2), dtype=complex)
    mid_vectors[1, 0] = 1.0
    mid_vectors[2, 1] = 1.0
    return _assemble(True, outer, np.array([b, b]), np.zeros(2), mid_vectors)


def bitflip_spectrum(
    theta: float, phi: float, p: float, mu: float, param: Param
) -> SpectralData:
    """Analytic spectrum of the bit flip output with derivatives.

    Ordering: the fixed Bell pair (|10> +/- |01>)/sqrt(2) first (their
    eigenvectors never move, only the eigenvalues y (1 +/- sin2theta cosphi)
    do), then the two coherent-block states.
    """
    x, y, z = flip_coefficients(p, mu)
    s2 = np.sin(2.0 * theta)
    outer = _outer_block(x + z, x - z, x, z, theta, phi, param)
    mid_lams = np.array([y * (1.0 + s2 * np.cos(phi)), y * (1.0 - s2 * np.cos(phi))])
    if Param(param) is Param.THETA:
        d = 2.0 * y * np.cos(2.0 * theta) * np.cos(phi)
    else:
        d = -y * s2 * np.sin(phi)
    mid_dlams = np.array([d, -d])
    inv = 1.0 / np.sqrt(2.0)
    mid_vectors = np.zeros((4, 2), dtype=complex)
    mid_vectors[2, 0] = inv  # (|10> + |01>)/sqrt(2)
    mid_vectors[1, 0] = inv
    mid_vectors[2, 1] = inv  # (|10> - |01>)/sqrt(2)
    mid_vectors[1, 1] = -inv
    return _assemble(False, outer, mid_lams, mid_dlams, mid_vectors)


def phaseflip_spectrum(
    theta: float, phi: float, p: float, mu: float, param: Param
) -> SpectralData:
    """Analytic spectrum of the phase flip output with derivatives.

    This is the depolarizing machinery specialized to a unit-weight diagonal
    and a single coherence component w, leaving a rank-2 spectrum with two
    exact zeros on |01> and |10>.
    """
    w = phase_flip_weight(p, mu)
    outer = _outer_block(1.0, 1.0, w, 0.0, theta, phi, param)
    mid_vectors = np.zeros((4, 2), dtype=complex)
    mid_vectors[1, 0] = 1.0
    mid_vectors[2, 1] = 1.0
    return _assemble(True, outer, np.zeros(2), np.zeros(2), mid_vectors)


_SPECTRUM_BY_KIND = {
    ChannelKind.DEPOLARIZING: depolarizing_spectrum,
    ChannelKind.BIT_FLIP: bitflip_spectrum,
    # Same Fisher information as bit flip: the sign of the {|01>,|10>}
    # coherence swaps the middle eigenvectors without changing any term.
    ChannelKind.BIT_PHASE_FLIP: bitflip_spectrum,
    ChannelKind.PHASE_FLIP: phaseflip_spectrum,
}


def closed_form_qfi(channel: ChannelSpec, theta: float, phi: float, param: Param) -> float:
    """QFI of the channel output for the Phi+ probe, fully analytic.

    Raises DegenerateSpectrumError where the gauge degenerates; callers are
    expected to fall back to the numeric SLD route there.
    """
    spectrum = _SPECTRUM_BY_KIND[ChannelKind(channel.kind)]
    data = spectrum(theta, phi, channel.p, channel.mu, Param(param))
    return qfi_spectral(data)
