"""Classically correlated Pauli channels.

A single channel use applies one of the four Pauli operators to a qubit with
probabilities fixed by the channel kind and the decoherence strength ``p``.
Consecutive uses on a qubit sequence are Markov-correlated: the conditional
probability of repeating the previous Pauli index is boosted by the
correlation strength ``mu``,

    p(i | j) = (1 - mu) p_i + mu * delta_ij,

so ``mu = 0`` gives independent uses and ``mu = 1`` perfectly repeated ones.
The N-qubit action is a probabilistic mixture of Pauli strings,

    rho -> sum_s p_s (sigma_{s_1} x ... x sigma_{s_N}) rho (same operator),

with the string probabilities given by the Markov chain product.

The chain's one-step rule is the transfer matrix ``T[i, j] = p(i | j)``,
built in one place (``transfer_matrix``) and shared by every function here.
``apply_channel`` never lists the strings: it walks the qubits one at a
time and keeps one accumulator per last Pauli index,

    acc'[i] = P_i^(k) (sum_j T[i, j] acc[j]) P_i^(k),

restricted to the indices with p_i > 0 (two for flip channels, four for
depolarizing noise), so a call costs O(N 4^N) instead of O(8^N 4^N).
Pauli conjugation is exact, with no complex arithmetic: X and Y flip row
and column bit k, and Y and Z negate the entries where those bits differ.
``joint_distribution`` still enumerates the nonzero strings, for callers
that want them one by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import math

import numpy as np

__all__ = [
    "ChannelKind",
    "ChannelSpec",
    "JointDistribution",
    "single_use_distribution",
    "transfer_matrix",
    "joint_distribution",
    "apply_channel",
]


class ChannelKind(str, Enum):
    DEPOLARIZING = "depolarizing"
    BIT_FLIP = "bitflip"
    BIT_PHASE_FLIP = "bitphaseflip"
    PHASE_FLIP = "phaseflip"


# Pauli index applied by each flip channel.
_FLIP_INDEX = {
    ChannelKind.BIT_FLIP: 1,
    ChannelKind.BIT_PHASE_FLIP: 2,
    ChannelKind.PHASE_FLIP: 3,
}


def _check_unit_interval(value: float, name: str) -> float:
    value = float(value)
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class ChannelSpec:
    """Channel kind plus decoherence strength p and correlation strength mu."""

    kind: ChannelKind
    p: float
    mu: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ChannelKind(self.kind))
        object.__setattr__(self, "p", _check_unit_interval(self.p, "p"))
        object.__setattr__(self, "mu", _check_unit_interval(self.mu, "mu"))


@dataclass(frozen=True)
class JointDistribution:
    """Nonzero-probability Pauli strings for N correlated channel uses."""

    n_qubits: int
    terms: tuple[tuple[tuple[int, ...], float], ...]

    def total(self) -> float:
        return math.fsum(p for _, p in self.terms)


def single_use_distribution(kind: ChannelKind, p: float) -> np.ndarray:
    """Probability 4-vector over Pauli indices for one channel use."""
    kind = ChannelKind(kind)
    p = _check_unit_interval(p, "p")
    if kind is ChannelKind.DEPOLARIZING:
        return np.array([1.0 - p, p / 3.0, p / 3.0, p / 3.0])
    dist = np.zeros(4)
    dist[0] = 1.0 - p
    dist[_FLIP_INDEX[kind]] = p
    return dist


def transfer_matrix(kind: ChannelKind, p: float, mu: float) -> np.ndarray:
    """Markov step T[i, j] = p(i | previous j) = (1 - mu) p_i + mu delta_ij."""
    mu = _check_unit_interval(mu, "mu")
    base = single_use_distribution(kind, p)
    return (1.0 - mu) * base[:, None] + mu * np.eye(4)


def joint_distribution(
    kind: ChannelKind, p: float, mu: float, n_qubits: int
) -> JointDistribution:
    """Enumerate all nonzero-probability index strings for N channel uses.

    Chains are extended depth first and abandoned as soon as the running
    probability product is exactly zero (no epsilon cutoff).
    """
    if not 1 <= n_qubits <= 6:
        raise ValueError(f"n_qubits must be in 1..6, got {n_qubits}")
    base = single_use_distribution(kind, p)
    step = transfer_matrix(kind, p, mu)
    terms: list[tuple[tuple[int, ...], float]] = []

    def extend(prefix: list[int], prob: float) -> None:
        if len(prefix) == n_qubits:
            terms.append((tuple(prefix), prob))
            return
        for i in range(4):
            q = float(base[i] if not prefix else step[i, prefix[-1]])
            branch = prob * q
            if branch == 0.0:
                continue
            extend(prefix + [i], branch)

    extend([], 1.0)
    return JointDistribution(n_qubits, tuple(terms))


def apply_channel(rho0: np.ndarray, spec: ChannelSpec) -> np.ndarray:
    """Push an operator through the correlated channel.

    ``rho0`` may be any 2^N x 2^N matrix (the map is linear, so derivative
    matrices go through the same way as states).  Qubit k is handled in one
    step for all accumulators at once: a matrix product with the transfer
    matrix mixes them, then an index flip (X, Y) and the sign grid
    [[1, -1], [-1, 1]] (Y, Z) on bit k conjugate accumulator i by Pauli i.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim != 2 or rho0.shape[0] != rho0.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho0.shape}")
    dim = rho0.shape[0]
    n = dim.bit_length() - 1
    if dim != 2**n or not 1 <= n <= 6:
        raise ValueError(f"dimension {dim} is not 2^N with N in 1..6")
    base = single_use_distribution(spec.kind, spec.p)
    support = np.flatnonzero(base)
    step = transfer_matrix(spec.kind, spec.p, spec.mu)[np.ix_(support, support)]
    m = len(support)
    # support is sorted, so the X/Y accumulators and the Y/Z ones are runs.
    lo, mid, hi = np.searchsorted(support, (1, 2, 3))

    acc = base[support, None] * rho0.reshape(1, dim * dim)
    for k in range(n):
        if k:
            acc = step @ acc
        view = acc.reshape(m, 2**k, 2, 2 ** (n - k - 1), 2**k, 2, 2 ** (n - k - 1))
        if lo < hi:
            view[lo:hi] = view[lo:hi, :, ::-1, :, :, ::-1]
        if mid < m:
            for corner in (view[mid:, :, 0, :, :, 1], view[mid:, :, 1, :, :, 0]):
                np.negative(corner, out=corner)
    return acc.sum(axis=0).reshape(dim, dim)
