"""Probe states and their exact parameter derivatives.

The probes carry two phases to be estimated: an amplitude angle ``theta``
and a relative phase ``phi``.  Bell-type probes are two-qubit pure states;
the extended Werner-like (EWL) family mixes an N-qubit GHZ-type component
with white noise,

    rho = r |Xi><Xi| + (1 - r) I / 2^N,
    |Xi> = cos(theta)|0...0> + e^{i phi} sin(theta)|1...1>.

Qubit 1 is the most significant bit of the computational-basis index, so
``|i_1 ... i_N>`` maps to integer ``i_1 * 2^(N-1) + ... + i_N``.

All functions are pure and return fresh arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import math

import numpy as np

__all__ = [
    "ProbeFamily",
    "Param",
    "ProbeSpec",
    "DEFAULT_EWL_RATIO",
    "bell_state_vector",
    "density",
    "density_derivative",
]

# Fallback mixing ratio for EWL probes when none is given.  This is an
# implementation default, recorded in all emitted data so it stays visible.
DEFAULT_EWL_RATIO = 0.9


class ProbeFamily(str, Enum):
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    EWL = "ewl"


class Param(str, Enum):
    """Which encoded parameter a derivative or estimate refers to."""

    THETA = "theta"
    PHI = "phi"


@dataclass(frozen=True)
class ProbeSpec:
    """Input-state description: family tag plus (theta, phi, r, n_qubits).

    ``r`` is the EWL mixing ratio; ``None`` resolves to DEFAULT_EWL_RATIO.
    Bell-type probes are pure, so they accept only ``None`` or 1.0 and
    record 1.0.  Bell-type probes are two-qubit by definition; EWL supports
    2..6 qubits.
    """

    family: ProbeFamily
    theta: float
    phi: float
    r: float | None = None
    n_qubits: int = 2

    def __post_init__(self) -> None:
        family = ProbeFamily(self.family)
        object.__setattr__(self, "family", family)
        theta = float(self.theta)
        phi = float(self.phi)
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ValueError("theta and phi must be finite")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)
        if family is ProbeFamily.EWL:
            if not 2 <= self.n_qubits <= 6:
                raise ValueError(f"EWL probes support 2..6 qubits, got {self.n_qubits}")
            r = DEFAULT_EWL_RATIO if self.r is None else float(self.r)
        else:
            if self.n_qubits != 2:
                raise ValueError(f"{family.value} probes are two-qubit, got n_qubits={self.n_qubits}")
            r = 1.0 if self.r is None else float(self.r)
            if r != 1.0:
                raise ValueError(
                    f"{family.value} probes are pure (r = 1); the mixing ratio r "
                    f"applies only to the ewl family, got r={r}"
                )
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"mixing ratio r must lie in [0, 1], got {r}")
        object.__setattr__(self, "r", r)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


# Basis slots occupied by (cos-term, sin-term) for each family, together
# with the sign in front of the e^{i phi} sin component; the EWL sin slot
# is the last one, |1...1>, whatever N.
_LAYOUT = {
    ProbeFamily.PHI_PLUS: (0, 3, +1.0),
    ProbeFamily.PHI_MINUS: (0, 3, -1.0),
    ProbeFamily.PSI_PLUS: (1, 2, +1.0),
    ProbeFamily.PSI_MINUS: (1, 2, -1.0),
    ProbeFamily.EWL: (0, -1, +1.0),
}


def bell_state_vector(spec: ProbeSpec) -> np.ndarray:
    """State vector of a Bell-type probe in the 4-dim computational basis.

    Raises ValueError for the EWL family, which is mixed and has no vector.
    """
    if spec.family is ProbeFamily.EWL:
        raise ValueError("bell_state_vector is defined for Bell-type families only")
    return _pure_component(spec)


def _pure_component(spec: ProbeSpec) -> np.ndarray:
    """Pure component vector: Bell vector, or |Xi> for EWL."""
    lo, hi, sign = _LAYOUT[spec.family]
    v = np.zeros(spec.dim, dtype=complex)
    v[lo] = np.cos(spec.theta)
    v[hi] = sign * np.exp(1j * spec.phi) * np.sin(spec.theta)
    return v


def _pure_component_derivative(spec: ProbeSpec, param: Param) -> np.ndarray:
    lo, hi, sign = _LAYOUT[spec.family]
    v = np.zeros(spec.dim, dtype=complex)
    if Param(param) is Param.THETA:
        v[lo] = -np.sin(spec.theta)
        v[hi] = sign * np.exp(1j * spec.phi) * np.cos(spec.theta)
    else:
        v[hi] = sign * 1j * np.exp(1j * spec.phi) * np.sin(spec.theta)
    return v


def density(spec: ProbeSpec) -> np.ndarray:
    """Density matrix of the probe (unit trace, positive semidefinite)."""
    psi = _pure_component(spec)
    rho = np.outer(psi, psi.conj())
    if spec.family is ProbeFamily.EWL:
        d = spec.dim
        rho = spec.r * rho + (1.0 - spec.r) / d * np.eye(d, dtype=complex)
    return rho


def density_derivative(spec: ProbeSpec, param: Param) -> np.ndarray:
    """Exact analytic derivative of density() with respect to ``param``.

    Product rule on the pure projector, scaled by r for EWL (the white-noise
    part carries no parameter).  The result is Hermitian and traceless.
    """
    psi = _pure_component(spec)
    dpsi = _pure_component_derivative(spec, param)
    d = np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj())
    if spec.family is ProbeFamily.EWL:
        d = spec.r * d
    return d
