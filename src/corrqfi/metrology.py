"""Monte-Carlo check that estimator variance respects the Cramer-Rao bound.

The pipeline is deliberately simple: measure the channel output with one
fixed measurement, estimate the single free parameter by maximum likelihood
on the multinomial counts, and compare the empirical variance over many
trials with 1 / (M F).

The measurement interleaves the computational basis with the
Hadamard-rotated basis, each taken with probability 1/2, so its 2 * 2^N
outcome probabilities are diag(rho) / 2 followed by diag(H rho H) / 2 with
H = H^(x N); no POVM element is ever built.  The computational basis alone
carries no phase information, so the rotated half supplies it.  This
measurement is a pragmatic choice, not an optimal one: it cannot be
expected to saturate the bound, only to respect it.  Note the rotated basis
senses the phase only through cos(phi), so the likelihood is even,
L(phi) = L(2 pi - phi), and its two maxima tie up to round-off.  Left to
round-off, some trials land on the mirror branch and inflate the empirical
variance by orders of magnitude, so ``mle_estimate`` folds the estimate of
an even likelihood into the first half period.

The probe density is a trigonometric polynomial in either parameter,
rho(v) = A + B cos(w v) + C sin(w v) with w = 2 for theta and w = 1 for
phi, and the channel and the Born rule are linear.  So three channel
applications fix every outcome probability exactly,
p_k(v) = a_k + b_k cos(w v) + c_k sin(w v), and the likelihood search never
calls the channel again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
import math

import numpy as np

from .channels import ChannelSpec, apply_channel
from .probes import Param, ProbeSpec, density
from .qfi import cramer_rao_bound, qfi_numeric

__all__ = [
    "EstimationConfig",
    "EstimationReport",
    "outcome_probabilities",
    "TrigLikelihood",
    "likelihood_model",
    "mle_estimate",
    "cramer_rao_report",
]

_PROBABILITY_TOL = 1e-9

# Below this the computed information is numerical noise around an exact
# zero and the variance bound is reported as unbounded.
_QFI_FLOOR = 1e-12

# Angular frequency w of each parameter in the probe density, so the
# natural period 2 pi / w is pi for theta and 2 pi for phi.
_FREQUENCY = {Param.THETA: 2.0, Param.PHI: 1.0}

# A likelihood whose sine coefficients all lie below this is even in the
# parameter: they are round-off around an exact zero.
_EVEN_TOL = 1e-12

# Likelihood scan points per pass, and the passes: each rescan shrinks the
# spacing 200x, so the fourth reaches about 1e-9, below the ~2e-7 plateau
# of round-off around the log-likelihood's maximum at M = 1e4.
_GRID_POINTS = 401
_PASSES = 4

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


@dataclass(frozen=True)
class EstimationConfig:
    """Repetitions per trial (M), number of trials, and the RNG seed."""

    repetitions: int
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.trials < 2:
            raise ValueError("trials must be >= 2: a sample variance needs two estimates")


@dataclass(frozen=True)
class EstimationReport:
    """Outcome of a Cramer-Rao compliance run."""

    param: Param
    true_value: float
    estimates: np.ndarray
    empirical_variance: float
    qfi: float
    bound: float
    repetitions: int
    trials: int
    seed: int

    @property
    def bound_unbounded(self) -> bool:
        return math.isinf(self.bound)

    def format(self) -> str:
        lines = [
            f"parameter        : {self.param.value}",
            f"true value       : {self.true_value:.17g}",
            f"qfi              : {self.qfi:.17g}",
            f"repetitions M    : {self.repetitions}",
            f"trials           : {self.trials}",
            f"seed             : {self.seed}",
            "bound 1/(M*F)    : "
            + ("unbounded (qfi <= 0)" if self.bound_unbounded else f"{self.bound:.17g}"),
            f"empirical var    : {self.empirical_variance:.17g}",
        ]
        if not self.bound_unbounded:
            lines.append(f"var / bound      : {self.empirical_variance / self.bound:.17g}")
        return "\n".join(lines)


def _hadamard_power(n_qubits: int) -> np.ndarray:
    """H^(x N) with qubit 0 as the most significant factor."""
    had = np.ones((1, 1))
    for _ in range(n_qubits):
        had = np.kron(had, _HADAMARD)
    return had


def _born(rho: np.ndarray) -> np.ndarray:
    """Raw probabilities of the interleaved measurement, before validation.

    The z outcomes are diag(rho) / 2, the x outcomes diag(H rho H) / 2 with
    H = H^(x N); both halves run in computational-basis order.
    """
    rho = np.asarray(rho)
    dim = rho.shape[0] if rho.ndim == 2 else 0
    n_qubits = dim.bit_length() - 1
    if rho.ndim != 2 or rho.shape[1] != dim or n_qubits < 1 or dim != 2**n_qubits:
        raise ValueError(f"expected a 2^N x 2^N state with N >= 1, got shape {rho.shape}")
    had = _hadamard_power(n_qubits)
    # H is real and symmetric, so (H rho H)_kk = sum_j (H rho)_kj H_kj.
    rotated = np.sum((had @ rho) * had, axis=1)
    return 0.5 * np.concatenate([np.diagonal(rho).real, rotated.real])


def _normalized(probs: np.ndarray) -> np.ndarray:
    """Check each row sums to 1, clip round-off negatives, renormalize."""
    total = probs.sum(axis=-1, keepdims=True)
    worst = total.flat[int(np.argmax(np.abs(total - 1.0)))]
    if abs(worst - 1.0) > _PROBABILITY_TOL:
        raise ValueError(f"outcome probabilities sum to {worst}, not 1")
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum(axis=-1, keepdims=True)


def outcome_probabilities(rho: np.ndarray) -> np.ndarray:
    """Outcome probabilities of the interleaved measurement, validated.

    Returns the 2^N z outcomes then the 2^N x outcomes, each half in
    computational-basis order, checked to sum to 1, clipped and
    renormalized exactly.
    """
    return _normalized(_born(rho))


@dataclass(frozen=True)
class TrigLikelihood:
    """Outcome probabilities p_k(v) = a_k + b_k cos(w v) + c_k sin(w v).

    Exact for a probe parameter v pushed through a fixed channel and the
    interleaved measurement; ``probabilities`` validates, clips and
    renormalizes like ``outcome_probabilities``.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    omega: float

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega

    @property
    def even(self) -> bool:
        """True when p(v) = p(-v), so v and period - v are indistinguishable."""
        return float(np.max(np.abs(self.c))) <= _EVEN_TOL

    def probabilities(self, values: np.ndarray | float) -> np.ndarray:
        """Probabilities at each value: shape (..., outcomes)."""
        wv = self.omega * np.asarray(values, dtype=float)[..., None]
        return _normalized(self.a + self.b * np.cos(wv) + self.c * np.sin(wv))

    def log_likelihood(self, counts: np.ndarray, values: np.ndarray | float) -> np.ndarray:
        return self._log_probabilities(values) @ counts

    def _log_probabilities(self, values: np.ndarray | float) -> np.ndarray:
        return np.log(np.clip(self.probabilities(values), 1e-300, None))

    @cached_property
    def _period_scan(self) -> tuple[np.ndarray, np.ndarray]:
        """``mle_estimate``'s first grid over the period and its log-probabilities.

        Only the counts change between trials, so every trial reuses them.
        """
        grid = np.linspace(0.0, self.period, _GRID_POINTS, endpoint=False)
        return grid, self._log_probabilities(grid)


def likelihood_model(probe: ProbeSpec, channel: ChannelSpec, param: Param) -> TrigLikelihood:
    """Fix the trigonometric coefficients from three channel applications.

    At w v = 0, pi/2 and pi the probabilities are a + b, a + c and a - b.
    """
    param = Param(param)
    omega = _FREQUENCY[param]
    q0, q1, q2 = (
        _born(apply_channel(density(replace(probe, **{param.value: wv / omega})), channel))
        for wv in (0.0, math.pi / 2.0, math.pi)
    )
    a = (q0 + q2) / 2.0
    return TrigLikelihood(a=a, b=(q0 - q2) / 2.0, c=q1 - a, omega=omega)


def mle_estimate(counts: np.ndarray, likelihood: TrigLikelihood) -> float:
    """Maximum-likelihood value of one parameter from multinomial counts.

    ``likelihood`` comes from ``likelihood_model``, which holds all other
    parameters at their true values.  It is scanned on a uniform grid over
    the parameter's natural period, and then ``_PASSES - 1`` times on a
    grid of the same size over the best point's two neighbouring cells;
    the estimate is the best point of the last pass; the first scan's end
    cells wrap around the period.  The spacing there is about 1e-9, below
    the ~2e-7 to which the log-likelihood (about 1e4 in size at M = 1e4)
    resolves its maximum at all, so equivalent likelihood formulas can move
    the estimate by that much.  The procedure is deterministic.  Estimates
    lie in [0, period); an even likelihood cannot tell v from period - v,
    and its estimate is folded into [0, period / 2].
    """
    counts = np.asarray(counts)
    if counts.sum() <= 0:
        raise ValueError("counts must contain at least one outcome")
    period = likelihood.period
    grid, table = likelihood._period_scan
    best = 1 + int(np.argmax(table @ counts))
    # Wrapped neighbours of the end points.  For an even likelihood the cell
    # below 0 mirrors the one above it, so the scan stops at 0 there.
    below = 0.0 if likelihood.even else grid[-1] - period
    grid = np.concatenate([[below], grid, [period]])
    for _ in range(_PASSES - 1):
        lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
        grid = np.linspace(lo, hi, _GRID_POINTS)
        best = int(np.argmax(likelihood.log_likelihood(counts, grid)))
    estimate = float(grid[best]) % period
    if estimate == period:  # -1e-20 % period rounds up to the period
        estimate = 0.0
    if likelihood.even and estimate > period / 2.0:
        estimate = period - estimate
    return estimate


def cramer_rao_report(
    probe: ProbeSpec,
    channel: ChannelSpec,
    param: Param,
    config: EstimationConfig,
) -> EstimationReport:
    """Estimate the parameter over many trials and compare with 1/(M F).

    Each trial draws its own RNG stream deterministically from (seed, trial
    index), so trials are independent and the whole report reproduces
    exactly for a fixed config.
    """
    param = Param(param)
    qfi = qfi_numeric(probe, channel, param)
    bound = cramer_rao_bound(qfi if qfi > _QFI_FLOOR else 0.0, config.repetitions)
    rho = apply_channel(density(probe), channel)
    probs = outcome_probabilities(rho)
    likelihood = likelihood_model(probe, channel, param)

    estimates = np.empty(config.trials)
    for trial in range(config.trials):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(trial,))
        )
        counts = rng.multinomial(config.repetitions, probs)
        estimates[trial] = mle_estimate(counts, likelihood)

    variance = float(np.var(estimates, ddof=1))
    true_value = probe.theta if param is Param.THETA else probe.phi
    return EstimationReport(
        param=param,
        true_value=true_value,
        estimates=estimates,
        empirical_variance=variance,
        qfi=qfi,
        bound=bound,
        repetitions=config.repetitions,
        trials=config.trials,
        seed=config.seed,
    )
