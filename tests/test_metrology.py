from dataclasses import replace

import numpy as np
import pytest

from corrqfi.channels import ChannelKind, ChannelSpec, apply_channel
from corrqfi.metrology import (
    EstimationConfig,
    MeasurementModel,
    computational_basis_model,
    cramer_rao_report,
    interleaved_basis_model,
    likelihood_model,
    mle_estimate,
    outcome_probabilities,
    sample_outcomes,
)
from corrqfi.probes import Param, ProbeFamily, ProbeSpec, density

SEED = 20250810


def phi_plus(theta=np.pi / 8, phi=np.pi / 6):
    return ProbeSpec(ProbeFamily.PHI_PLUS, theta, phi)


def test_models_are_complete():
    for n in (1, 2, 3):
        for model in (computational_basis_model(n), interleaved_basis_model(n)):
            total = sum(model.elements)
            np.testing.assert_allclose(total, np.eye(2**n), atol=1e-12)
            for e in model.elements:
                assert np.linalg.eigvalsh(e).min() >= -1e-12


def test_model_requires_completeness():
    bad = (np.eye(2, dtype=complex) * 0.5,)
    with pytest.raises(ValueError):
        MeasurementModel(bad, ("only",))


def test_deterministic_outcome():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    counts = sample_outcomes(rho, computational_basis_model(2), 500, seed=1)
    assert counts[0] == 500
    assert counts[1:].sum() == 0


def test_uniform_outcomes_within_5_sigma():
    m = 4 * 10**6
    counts = sample_outcomes(np.eye(4, dtype=complex) / 4, computational_basis_model(2), m, seed=2)
    sigma = np.sqrt(m * 0.25 * 0.75)
    assert np.all(np.abs(counts - m / 4) <= 5 * sigma)


def test_probabilities_match_independent_traces():
    channel = ChannelSpec(ChannelKind.PHASE_FLIP, 0.3, 0.5)
    rho = apply_channel(density(phi_plus()), channel)
    model = interleaved_basis_model(2)
    probs = outcome_probabilities(rho, model)
    for k, element in enumerate(model.elements):
        manual = np.trace(rho @ element).real
        assert probs[k] == pytest.approx(manual, abs=1e-12)


def test_probability_sum_guard():
    with pytest.raises(ValueError):
        outcome_probabilities(np.eye(4, dtype=complex) / 2.0, computational_basis_model(2))


def test_seed_reproducibility():
    rho = apply_channel(density(phi_plus()), ChannelSpec(ChannelKind.BIT_FLIP, 0.2, 0.1))
    model = interleaved_basis_model(2)
    a = sample_outcomes(rho, model, 1000, seed=7)
    b = sample_outcomes(rho, model, 1000, seed=7)
    np.testing.assert_array_equal(a, b)


def test_mle_recovers_theta_noiselessly():
    # asymptotic-normality scale check at large M
    probe = phi_plus(np.pi / 8, np.pi / 6)
    channel = ChannelSpec(ChannelKind.PHASE_FLIP, 0.0, 0.0)
    model = interleaved_basis_model(2)
    m = 10**5
    rho = apply_channel(density(probe), channel)
    counts = sample_outcomes(rho, model, m, seed=11)
    est = mle_estimate(counts, model, probe, channel, Param.THETA)
    assert abs(est - np.pi / 8) <= 3.0 / np.sqrt(m * 4.0)


def test_mle_boundary_estimate():
    probe = phi_plus(0.0, 0.0)
    channel = ChannelSpec(ChannelKind.PHASE_FLIP, 0.0, 0.0)
    model = computational_basis_model(2)
    counts = sample_outcomes(apply_channel(density(probe), channel), model, 1000, seed=3)
    est = mle_estimate(counts, model, probe, channel, Param.THETA)
    assert est == pytest.approx(0.0, abs=1e-9)


def test_likelihood_model_matches_channel_outputs():
    rng = np.random.default_rng(SEED)
    ewl = ProbeSpec(ProbeFamily.EWL, np.pi / 8, np.pi / 6, r=0.9, n_qubits=3)
    for probe in (phi_plus(), ewl):
        model = interleaved_basis_model(probe.n_qubits)
        for kind in ChannelKind:
            channel = ChannelSpec(kind, 0.3, 0.4)
            for param in Param:
                likelihood = likelihood_model(model, probe, channel, param)
                # The rotated basis sees phi only through cos(phi).
                assert likelihood.even == (param is Param.PHI)
                values = rng.uniform(0.0, likelihood.period, 20)
                for value, got in zip(values, likelihood.probabilities(values)):
                    rho = apply_channel(density(replace(probe, **{param.value: value})), channel)
                    want = outcome_probabilities(rho, model)
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


def test_sample_outcomes_rejects_zero_shots():
    with pytest.raises(ValueError):
        sample_outcomes(np.eye(4, dtype=complex) / 4, computational_basis_model(2), 0, seed=1)


def test_mle_rejects_empty_counts():
    probe = phi_plus()
    channel = ChannelSpec(ChannelKind.PHASE_FLIP, 0.1, 0.1)
    with pytest.raises(ValueError):
        mle_estimate(np.zeros(8), interleaved_basis_model(2), probe, channel, Param.THETA)


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
    report = cramer_rao_report(probe, channel, Param.PHI, config, grid_points=41)
    assert report.bound_unbounded
    assert "unbounded" in report.format()
