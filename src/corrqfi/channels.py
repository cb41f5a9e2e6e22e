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
built in one place (``transfer_matrix``, which broadcasts over arrays of p
and mu) and shared by every function here and by the closed route's chain
sums.
The private kernel ``_push`` never lists the strings: it pushes a stack of
K operators through the channel at B (p, mu) points, one operator after
another.  It builds the distribution and transfer matrix once per call, for
all points, from p and mu that the caller has checked (``ChannelSpec``
checks them for ``apply_channel``).  It walks the qubits one at a time and
keeps one accumulator per last Pauli index,

    acc'[i] = P_i^(k) (sum_j T[i, j] acc[j]) P_i^(k),

restricted to the indices with p_i > 0 (two for flip channels, four for
depolarizing noise), so a push costs O(N 4^N) instead of O(8^N 4^N).  Points
are grouped by that support pattern (p = 0, 0 < p < 1, p = 1) with plain
masks; each transfer-matrix product keeps the shape of a single push per
point, so a stacked push equals the pushes one at a time bit for bit and
never grows into one large BLAS call.  T is real, so the product runs on
the float view of the complex accumulators, (m, m) @ (m, 2 4^N), with the
same bits as the complex product and without its zero imaginary terms.
``apply_channel`` is its one-operator, one-point case.
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


# Pauli indices that share the error probability p of each channel kind.
_ERRORS = {
    ChannelKind.DEPOLARIZING: slice(1, 4),
    ChannelKind.BIT_FLIP: slice(1, 2),
    ChannelKind.BIT_PHASE_FLIP: slice(2, 3),
    ChannelKind.PHASE_FLIP: slice(3, 4),
}


def _check_unit_interval(value, name: str) -> np.ndarray:
    """``value`` as a float array, checked elementwise to lie in [0, 1]."""
    array = np.asarray(value, dtype=float)
    if array.ndim:
        low, high = array.min(initial=1.0), array.max(initial=0.0)
    else:  # min/max cost microseconds, and every channel application checks
        low = high = float(array)
    if not (low >= 0.0 and high <= 1.0):  # NaN fails both
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return array


@dataclass(frozen=True)
class ChannelSpec:
    """Channel kind plus decoherence strength p and correlation strength mu."""

    kind: ChannelKind
    p: float
    mu: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ChannelKind(self.kind))
        object.__setattr__(self, "p", float(_check_unit_interval(self.p, "p")))
        object.__setattr__(self, "mu", float(_check_unit_interval(self.mu, "mu")))


@dataclass(frozen=True)
class JointDistribution:
    """Nonzero-probability Pauli strings for N correlated channel uses."""

    n_qubits: int
    terms: tuple[tuple[tuple[int, ...], float], ...]

    def total(self) -> float:
        return math.fsum(p for _, p in self.terms)


def _distribution(kind: ChannelKind, p: np.ndarray) -> np.ndarray:
    """``single_use_distribution`` of an already checked float array ``p``."""
    errors = _ERRORS[kind]
    dist = np.zeros(p.shape + (4,))
    dist[..., 0] = 1.0 - p
    dist[..., errors] = p[..., None] / (errors.stop - errors.start)
    return dist


def _transfer(dist: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """``transfer_matrix`` from a built distribution and a checked ``mu``."""
    mu = mu[..., None, None]
    return (1.0 - mu) * dist[..., :, None] + mu * np.eye(4)


def single_use_distribution(kind: ChannelKind, p) -> np.ndarray:
    """Probability 4-vectors over Pauli indices for one channel use.

    ``p`` may be an array; the result has shape ``np.shape(p) + (4,)``.
    """
    return _distribution(ChannelKind(kind), _check_unit_interval(p, "p"))


def transfer_matrix(kind: ChannelKind, p, mu) -> np.ndarray:
    """Markov step T[i, j] = p(i | previous j) = (1 - mu) p_i + mu delta_ij.

    ``p`` and ``mu`` broadcast; the result has shape ``(..., 4, 4)``.
    """
    mu = _check_unit_interval(mu, "mu")
    return _transfer(single_use_distribution(kind, p), mu)


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
    matrices go through the same way as states).  This is the one-operator,
    one-point case of the stacked kernel ``_push``.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim != 2 or rho0.shape[0] != rho0.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho0.shape}")
    dim = rho0.shape[0]
    n = dim.bit_length() - 1
    if dim != 2**n or not 1 <= n <= 6:
        raise ValueError(f"dimension {dim} is not 2^N with N in 1..6")
    return _push(rho0[None], spec.kind, np.array([spec.p]), np.array([spec.mu]))[0, 0]


# Bit weights that turn a row of the support mask into one pattern code.
_PATTERN_BITS = np.array([1, 2, 4, 8])


def _push(ops: np.ndarray, kind: ChannelKind, ps: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """Push K operators through the channel at B points in one pass.

    ``ops`` is a (K, 2^N, 2^N) complex stack and ``ps``, ``mus`` are checked
    float arrays of B points; the result is (B, K, 2^N, 2^N).  The
    distribution and transfer matrix are built once for all points.  Points
    are grouped by their support pattern (p = 0, 0 < p < 1, p = 1), and the
    K operators go through a group of G points one after another, each with
    (G, m, 4^N) accumulators over the m supported Pauli indices.  Qubit k is
    one step for all of them: a product with the real transfer matrix mixes
    the accumulators ((m, m) @ (m, 2 4^N) per point on the float view of the
    complex entries, the shape a single push has), then an index flip (X, Y)
    and the sign grid [[1, -1], [-1, 1]] (Y, Z) on bit k conjugate
    accumulator i by Pauli i.
    """
    dim = ops.shape[-1]
    n = dim.bit_length() - 1
    base = _distribution(kind, ps)
    step = _transfer(base, mus)
    nonzero = base != 0.0
    pattern = nonzero @ _PATTERN_BITS
    out = np.empty((len(ps), len(ops), dim, dim), dtype=complex)
    for code in dict.fromkeys(pattern.tolist()):
        group = pattern == code
        support = np.flatnonzero(nonzero[np.argmax(group)])
        m = len(support)
        # support is sorted, so the X/Y accumulators and the Y/Z ones are runs.
        lo, mid, hi = np.searchsorted(support, (1, 2, 3))
        weights = base[group][:, support, None]
        mix = step[group][:, support[:, None], support]
        for j, op in enumerate(ops):
            acc = weights * op.reshape(1, 1, dim * dim)
            for k in range(n):
                if k:
                    acc = (mix @ acc.view(float)).view(complex)
                view = acc.reshape(-1, m, 2**k, 2, 2 ** (n - k - 1), 2**k, 2, 2 ** (n - k - 1))
                if lo < hi:
                    view[:, lo:hi] = view[:, lo:hi, :, ::-1, :, :, ::-1]
                if mid < m:
                    for row, col in ((0, 1), (1, 0)):
                        corner = view[:, mid:, :, row, :, :, col]
                        np.negative(corner, out=corner)
                    del corner  # a live view would hold this acc through the next product
            out[group, j] = acc.sum(axis=1).reshape(-1, dim, dim)
    return out
