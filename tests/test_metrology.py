from dataclasses import replace

import numpy as np
import pytest

from corrqfi.channels import ChannelKind, ChannelSpec, apply_channel
from corrqfi.metrology import (
    EstimationConfig,
    _born,
    cramer_rao_report,
    likelihood_model,
    mle_estimate,
    outcome_probabilities,
)
from corrqfi.probes import Param, ProbeFamily, ProbeSpec, density

SEED = 20250810


def phi_plus(theta=np.pi / 8, phi=np.pi / 6):
    return ProbeSpec(ProbeFamily.PHI_PLUS, theta, phi)


def draw_counts(rho, m, seed):
    return np.random.default_rng(seed).multinomial(m, outcome_probabilities(rho))


def hadamard_projectors(n):
    """Rank-one projectors onto the columns of H^(x N), built by outer products."""
    had = np.array([[1.0]])
    for _ in range(n):
        had = np.kron(had, np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    return [np.outer(had[:, k], had[:, k]) for k in range(2**n)]


def random_state(rng, n):
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_models_are_complete():
    # The raw probabilities of any state sum to its trace and are
    # nonnegative, before outcome_probabilities renormalizes them.
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3):
        rho = 3.0 * random_state(rng, n)
        raw = _born(rho)
        assert raw.shape == (2 * 2**n,)
        assert raw.sum() == pytest.approx(3.0, rel=1e-13)
        assert raw.min() >= 0.0


def test_deterministic_outcome():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    np.testing.assert_allclose(outcome_probabilities(rho), [0.5, 0, 0, 0] + [0.125] * 4, atol=1e-16)
    counts = draw_counts(rho, 500, seed=1)
    assert counts[1:4].sum() == 0
    assert counts.sum() == 500


def test_uniform_outcomes_within_5_sigma():
    m = 4 * 10**6
    counts = draw_counts(np.eye(4, dtype=complex) / 4, m, seed=2)
    sigma = np.sqrt(m * 0.125 * 0.875)
    assert np.all(np.abs(counts - m / 8) <= 5 * sigma)


def test_probabilities_match_independent_traces():
    # Tr(rho E_k) with the POVM elements E_k built explicitly: the
    # computational projectors, then the Hadamard-basis ones, each halved.
    rng = np.random.default_rng(SEED)
    channel = ChannelSpec(ChannelKind.PHASE_FLIP, 0.3, 0.5)
    states = [apply_channel(density(phi_plus()), channel)]
    states += [random_state(rng, n) for n in (1, 2, 3)]
    for rho in states:
        n = rho.shape[0].bit_length() - 1
        elements = [np.diag(e) / 2 for e in np.eye(2**n)]
        elements += [e / 2 for e in hadamard_projectors(n)]
        probs = outcome_probabilities(rho)
        assert len(probs) == len(elements)
        for k, element in enumerate(elements):
            manual = np.trace(rho @ element).real
            assert probs[k] == pytest.approx(manual, abs=1e-15)


def test_probability_sum_guard():
    with pytest.raises(ValueError):
        outcome_probabilities(np.eye(4, dtype=complex) / 2.0)


@pytest.mark.parametrize("shape", [(4,), (4, 2), (3, 3), (1, 1), (2, 2, 2)])
def test_outcome_probabilities_rejects_non_qubit_shapes(shape):
    with pytest.raises(ValueError, match="2\\^N"):
        outcome_probabilities(np.zeros(shape))


def test_seed_reproducibility():
    rho = apply_channel(density(phi_plus()), ChannelSpec(ChannelKind.BIT_FLIP, 0.2, 0.1))
    np.testing.assert_array_equal(draw_counts(rho, 1000, seed=7), draw_counts(rho, 1000, seed=7))


def test_mle_recovers_theta_noiselessly():
    # asymptotic-normality scale check at large M
    probe = phi_plus(np.pi / 8, np.pi / 6)
    channel = ChannelSpec(ChannelKind.PHASE_FLIP, 0.0, 0.0)
    m = 10**5
    counts = draw_counts(apply_channel(density(probe), channel), m, seed=11)
    est = mle_estimate(counts, likelihood_model(probe, channel, Param.THETA))
    assert abs(est - np.pi / 8) <= 3.0 / np.sqrt(m * 4.0)


def test_mle_boundary_estimate():
    # At phi = pi/2 every x outcome has probability 1/8 for all theta, so
    # only the z outcomes inform theta and all their counts land on |00>.
    probe = phi_plus(0.0, np.pi / 2)
    channel = ChannelSpec(ChannelKind.PHASE_FLIP, 0.0, 0.0)
    counts = draw_counts(apply_channel(density(probe), channel), 1000, seed=3)
    est = mle_estimate(counts, likelihood_model(probe, channel, Param.THETA))
    assert est == pytest.approx(0.0, abs=1e-9)


def test_likelihood_model_matches_channel_outputs():
    rng = np.random.default_rng(SEED)
    ewl = ProbeSpec(ProbeFamily.EWL, np.pi / 8, np.pi / 6, r=0.9, n_qubits=3)
    for probe in (phi_plus(), ewl):
        for kind in ChannelKind:
            channel = ChannelSpec(kind, 0.3, 0.4)
            for param in Param:
                likelihood = likelihood_model(probe, channel, param)
                # The rotated basis sees phi only through cos(phi).
                assert likelihood.even == (param is Param.PHI)
                values = rng.uniform(0.0, likelihood.period, 20)
                for value, got in zip(values, likelihood.probabilities(values)):
                    rho = apply_channel(density(replace(probe, **{param.value: value})), channel)
                    want = outcome_probabilities(rho)
                    assert np.max(np.abs(got - want)) <= 1e-12, (probe.family, kind, param)


def test_phi_estimates_stay_on_the_true_branch():
    # L(phi) = L(2 pi - phi) under the interleaved POVM; without the fold,
    # round-off sent one of these trials to the mirror maximum near 11 pi / 6.
    probe = phi_plus()
    config = EstimationConfig(repetitions=10**4, trials=25, seed=SEED)
    report = cramer_rao_report(
        probe, ChannelSpec(ChannelKind.PHASE_FLIP, 0.3, 0.5), Param.PHI, config
    )
    assert np.all(np.abs(report.estimates - probe.phi) < np.pi / 2)


def likelihood_root(counts, likelihood, start):
    """Root of the exact l'(v) = sum_k n_k p_k'(v) / p_k(v) next to ``start``.

    Float64 Newton steps with the analytic l''; the root is folded like
    ``mle_estimate`` folds an estimate.
    """
    seen = counts > 0
    n, a, b, c = counts[seen], likelihood.a[seen], likelihood.b[seen], likelihood.c[seen]
    w = likelihood.omega
    v = start
    for _ in range(20):
        cos, sin = np.cos(w * v), np.sin(w * v)
        prob = a + b * cos + c * sin
        slope = w * (c * cos - b * sin) / prob
        curvature = -w * w * (b * cos + c * sin) / prob - slope**2
        v -= np.sum(n * slope) / np.sum(n * curvature)
    if likelihood.even and v > likelihood.period / 2.0:
        v = likelihood.period - v
    return v


@pytest.mark.parametrize(
    "probe, channel, param",
    [
        (phi_plus(), ChannelSpec(ChannelKind.PHASE_FLIP, 0.3, 0.5), Param.PHI),
        (phi_plus(), ChannelSpec(ChannelKind.DEPOLARIZING, 0.3, 0.5), Param.THETA),
        (ProbeSpec(ProbeFamily.EWL, np.pi / 8, np.pi / 6, r=0.9, n_qubits=3),
         ChannelSpec(ChannelKind.BIT_FLIP, 0.2, 0.6), Param.PHI),
    ],
    ids=["phi-phaseflip", "theta-depolarizing", "ewl3-phi-bitflip"],
)
def test_mle_lands_on_the_likelihood_maximum(probe, channel, param):
    # The estimate must sit at the root of the exact score, up to the
    # ~2e-7 round-off plateau of the log-likelihood at M = 1e4.
    likelihood = likelihood_model(probe, channel, param)
    probs = outcome_probabilities(apply_channel(density(probe), channel))
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        counts = rng.multinomial(10**4, probs)
        estimate = mle_estimate(counts, likelihood)
        assert abs(estimate - likelihood_root(counts, likelihood, estimate)) <= 2e-6


def test_mle_rejects_empty_counts():
    probe = phi_plus()
    channel = ChannelSpec(ChannelKind.PHASE_FLIP, 0.1, 0.1)
    with pytest.raises(ValueError):
        mle_estimate(np.zeros(8), likelihood_model(probe, channel, Param.THETA))


def test_independent_seeds_differ():
    probe = phi_plus()
    channel = ChannelSpec(ChannelKind.PHASE_FLIP, 0.3, 0.5)
    config_a = EstimationConfig(repetitions=500, trials=4, seed=1)
    config_b = EstimationConfig(repetitions=500, trials=4, seed=2)
    rep_a = cramer_rao_report(probe, channel, Param.PHI, config_a)
    rep_b = cramer_rao_report(probe, channel, Param.PHI, config_b)
    assert not np.array_equal(rep_a.estimates, rep_b.estimates)
    # both respect the bound in aggregate (loose smoke check)
    assert rep_a.empirical_variance >= 0.0
    assert rep_b.empirical_variance >= 0.0


def test_report_determinism():
    probe = phi_plus()
    channel = ChannelSpec(ChannelKind.PHASE_FLIP, 0.3, 0.5)
    config = EstimationConfig(repetitions=400, trials=5, seed=42)
    rep1 = cramer_rao_report(probe, channel, Param.PHI, config)
    rep2 = cramer_rao_report(probe, channel, Param.PHI, config)
    np.testing.assert_array_equal(rep1.estimates, rep2.estimates)
    assert rep1.format() == rep2.format()


def test_report_variance_respects_bound():
    # reduced-size version of the acceptance run
    probe = phi_plus()
    channel = ChannelSpec(ChannelKind.PHASE_FLIP, 0.3, 0.5)
    config = EstimationConfig(repetitions=2000, trials=40, seed=5)
    report = cramer_rao_report(probe, channel, Param.THETA, config)
    slack = 1.0 - 3.0 * np.sqrt(2.0 / (config.trials - 1))
    assert report.empirical_variance >= slack * report.bound


def test_unbounded_flag():
    probe = phi_plus()
    channel = ChannelSpec(ChannelKind.DEPOLARIZING, 0.75, 0.0)
    config = EstimationConfig(repetitions=50, trials=2, seed=0)
    report = cramer_rao_report(probe, channel, Param.PHI, config)
    assert report.bound_unbounded
    assert "unbounded" in report.format()


def test_config_rejects_a_single_trial():
    # One estimate has no sample variance; the parent reported 0 for it,
    # which read as beating the Cramer-Rao bound.
    with pytest.raises(ValueError, match="trials must be >= 2"):
        EstimationConfig(repetitions=100, trials=1, seed=0)
    EstimationConfig(repetitions=100, trials=2, seed=0)
