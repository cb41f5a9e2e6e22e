"""Monte-Carlo check that estimator variance respects the Cramer-Rao bound.

The pipeline is deliberately simple: measure the channel output with a fixed
POVM, estimate the single free parameter by maximum likelihood on the
multinomial counts, and compare the empirical variance over many trials with
1 / (M F).

The default measurement interleaves the computational basis with the
Hadamard-rotated basis, each taken with probability 1/2.  The computational
basis alone carries no phase information, so the rotated half supplies it.
This POVM is a pragmatic choice, not an optimal one: it cannot be expected
to saturate the bound, only to respect it.  Note the rotated basis senses
the phase only through cos(phi), so the likelihood is even,
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
import math

import numpy as np

from .channels import ChannelSpec, apply_channel
from .linalg import kron_all
from .probes import Param, ProbeSpec, density
from .qfi import cramer_rao_bound, qfi_numeric

__all__ = [
    "MeasurementModel",
    "EstimationConfig",
    "EstimationReport",
    "computational_basis_model",
    "interleaved_basis_model",
    "outcome_probabilities",
    "sample_outcomes",
    "TrigLikelihood",
    "likelihood_model",
    "mle_estimate",
    "cramer_rao_report",
]

_COMPLETENESS_TOL = 1e-12
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

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class MeasurementModel:
    """POVM: positive elements summing to the identity, with outcome labels."""

    elements: tuple[np.ndarray, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.elements) != len(self.labels):
            raise ValueError("one label per POVM element required")
        total = sum(self.elements)
        dim = total.shape[0]
        if np.max(np.abs(total - np.eye(dim))) > _COMPLETENESS_TOL:
            raise ValueError("POVM elements do not sum to the identity")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


@dataclass(frozen=True)
class EstimationConfig:
    """Repetitions per trial (M), number of trials, and the RNG seed."""

    repetitions: int
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


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


def _projector_basis(n_qubits: int, rotate: bool) -> list[np.ndarray]:
    dim = 2**n_qubits
    eye = np.eye(dim, dtype=complex)
    if not rotate:
        return [np.outer(eye[:, k], eye[:, k].conj()) for k in range(dim)]
    had = kron_all([_HADAMARD] * n_qubits)
    return [np.outer(had[:, k], had[:, k].conj()) for k in range(dim)]


def computational_basis_model(n_qubits: int) -> MeasurementModel:
    """Projective measurement in the computational basis."""
    dim = 2**n_qubits
    labels = tuple(format(k, f"0{n_qubits}b") for k in range(dim))
    return MeasurementModel(tuple(_projector_basis(n_qubits, rotate=False)), labels)


def interleaved_basis_model(n_qubits: int) -> MeasurementModel:
    """Default model: computational and Hadamard bases, each with weight 1/2."""
    comp = _projector_basis(n_qubits, rotate=False)
    rot = _projector_basis(n_qubits, rotate=True)
    elements = tuple(0.5 * e for e in comp + rot)
    labels = tuple(
        [f"z:{format(k, f'0{n_qubits}b')}" for k in range(2**n_qubits)]
        + [f"x:{format(k, f'0{n_qubits}b')}" for k in range(2**n_qubits)]
    )
    return MeasurementModel(elements, labels)


def _born(rho: np.ndarray, model: MeasurementModel) -> np.ndarray:
    """Raw Born probabilities Tr(rho E_k), before any validation."""
    if rho.shape[0] != model.dim:
        raise ValueError("state and measurement dimensions differ")
    return np.array([np.trace(rho @ e).real for e in model.elements])


def _normalized(probs: np.ndarray) -> np.ndarray:
    """Check each row sums to 1, clip round-off negatives, renormalize."""
    total = probs.sum(axis=-1, keepdims=True)
    worst = total.flat[int(np.argmax(np.abs(total - 1.0)))]
    if abs(worst - 1.0) > _PROBABILITY_TOL:
        raise ValueError(f"model probabilities sum to {worst}, not 1")
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum(axis=-1, keepdims=True)


def outcome_probabilities(rho: np.ndarray, model: MeasurementModel) -> np.ndarray:
    """Born probabilities Tr(rho E_k), validated and renormalized exactly."""
    return _normalized(_born(rho, model))


def sample_outcomes(
    rho: np.ndarray,
    model: MeasurementModel,
    shots: int,
    seed: int | np.random.SeedSequence,
) -> np.ndarray:
    """Multinomial outcome counts; deterministic for a fixed seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = outcome_probabilities(rho, model)
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, probs)


@dataclass(frozen=True)
class TrigLikelihood:
    """Outcome probabilities p_k(v) = a_k + b_k cos(w v) + c_k sin(w v).

    Exact for a probe parameter v pushed through a fixed channel and POVM;
    ``probabilities`` validates, clips and renormalizes like
    ``outcome_probabilities``.
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
        probs = self.probabilities(values)
        return np.log(np.clip(probs, 1e-300, None)) @ counts


def likelihood_model(
    model: MeasurementModel, probe: ProbeSpec, channel: ChannelSpec, param: Param
) -> TrigLikelihood:
    """Fix the trigonometric coefficients from three channel applications.

    At w v = 0, pi/2 and pi the probabilities are a + b, a + c and a - b.
    """
    param = Param(param)
    omega = _FREQUENCY[param]
    q0, q1, q2 = (
        _born(apply_channel(density(replace(probe, **{param.value: wv / omega})), channel), model)
        for wv in (0.0, math.pi / 2.0, math.pi)
    )
    a = (q0 + q2) / 2.0
    return TrigLikelihood(a=a, b=(q0 - q2) / 2.0, c=q1 - a, omega=omega)


def mle_estimate(
    counts: np.ndarray,
    model: MeasurementModel,
    probe: ProbeSpec,
    channel: ChannelSpec,
    param: Param,
    grid_points: int = 401,
) -> float:
    """Maximum-likelihood value of one parameter from multinomial counts.

    All other parameters are held at their true values in ``probe``.  The
    likelihood is scanned on a uniform grid over the parameter's natural
    period and the best cell is refined by one golden-section pass; the
    procedure is deterministic.  When the likelihood is even in the
    parameter, the estimate is folded into [0, period / 2].
    """
    counts = np.asarray(counts)
    if counts.sum() <= 0:
        raise ValueError("counts must contain at least one outcome")
    likelihood = likelihood_model(model, probe, channel, param)
    period = likelihood.period
    grid = np.linspace(0.0, period, grid_points, endpoint=False)

    def loglik(value: float) -> float:
        return float(likelihood.log_likelihood(counts, value))

    best = int(np.argmax(likelihood.log_likelihood(counts, grid)))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid_points - 1)]

    # Golden-section maximization on [lo, hi]; ~1e-13 interval at 60 steps.
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = loglik(c), loglik(d)
    for _ in range(60):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = loglik(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = loglik(d)
    estimate = (a + b) / 2.0
    if likelihood.even and estimate > period / 2.0:
        estimate = period - estimate
    return estimate


def cramer_rao_report(
    probe: ProbeSpec,
    channel: ChannelSpec,
    param: Param,
    config: EstimationConfig,
    model: MeasurementModel | None = None,
    grid_points: int = 401,
) -> EstimationReport:
    """Estimate the parameter over many trials and compare with 1/(M F).

    Each trial draws its own RNG stream deterministically from (seed, trial
    index), so trials are independent and the whole report reproduces
    exactly for a fixed config.
    """
    param = Param(param)
    if model is None:
        model = interleaved_basis_model(probe.n_qubits)
    qfi = qfi_numeric(probe, channel, param)
    bound = cramer_rao_bound(qfi if qfi > _QFI_FLOOR else 0.0, config.repetitions)
    rho = apply_channel(density(probe), channel)
    probs = outcome_probabilities(rho, model)

    estimates = np.empty(config.trials)
    for trial in range(config.trials):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(trial,))
        )
        counts = rng.multinomial(config.repetitions, probs)
        estimates[trial] = mle_estimate(counts, model, probe, channel, param, grid_points)

    variance = float(np.var(estimates, ddof=1)) if config.trials > 1 else 0.0
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
