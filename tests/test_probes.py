import numpy as np
import pytest

from corrqfi.probes import (
    DEFAULT_EWL_RATIO,
    Param,
    ProbeFamily,
    ProbeSpec,
    density,
    density_derivative,
)

SEED = 20250810

FAMILIES = [ProbeFamily.PHI_PLUS, ProbeFamily.PHI_MINUS, ProbeFamily.PSI_PLUS,
            ProbeFamily.PSI_MINUS, ProbeFamily.EWL]


def projector(v):
    return np.outer(v, np.conj(v))


def test_phi_plus_at_zero_is_00():
    rho = density(ProbeSpec(ProbeFamily.PHI_PLUS, 0.0, 0.3))
    np.testing.assert_allclose(rho, projector([1, 0, 0, 0]), atol=0)


def test_phi_plus_balanced():
    rho = density(ProbeSpec(ProbeFamily.PHI_PLUS, np.pi / 4, 0.0))
    np.testing.assert_allclose(rho, projector(np.array([1, 0, 0, 1]) / np.sqrt(2)), atol=1e-15)


def test_psi_minus_direct_substitution():
    rho = density(ProbeSpec(ProbeFamily.PSI_MINUS, np.pi / 8, np.pi / 6))
    expected = np.zeros(4, dtype=complex)
    expected[1] = np.cos(np.pi / 8)
    expected[2] = -np.exp(1j * np.pi / 6) * np.sin(np.pi / 8)
    np.testing.assert_allclose(rho, projector(expected), atol=1e-15)


def test_bell_vector_unit_norm():
    # a unit vector's projector has unit trace and squares to itself
    rng = np.random.default_rng(SEED)
    for family in FAMILIES[:4]:
        rho = density(ProbeSpec(family, rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(rho @ rho, rho, atol=1e-14)


def test_ewl_r1_equals_phi_plus_density():
    ewl = density(ProbeSpec(ProbeFamily.EWL, np.pi / 4, 0.0, r=1.0, n_qubits=2))
    bell = density(ProbeSpec(ProbeFamily.PHI_PLUS, np.pi / 4, 0.0))
    np.testing.assert_allclose(ewl, bell, atol=1e-15)


def test_ewl_r0_fully_mixed():
    rho = density(ProbeSpec(ProbeFamily.EWL, 0.7, 1.1, r=0.0, n_qubits=3))
    np.testing.assert_allclose(rho, np.eye(8) / 8.0, atol=0)


def test_phi_plus_density_entries_by_hand():
    # outer product of (cos t, 0, 0, e^{i phi} sin t)
    t, f = np.pi / 8, np.pi / 6
    rho = density(ProbeSpec(ProbeFamily.PHI_PLUS, t, f))
    assert rho[0, 0] == pytest.approx(np.cos(t) ** 2, abs=1e-15)
    assert rho[3, 3] == pytest.approx(np.sin(t) ** 2, abs=1e-15)
    assert rho[0, 3] == pytest.approx(np.exp(-1j * f) * np.sin(t) * np.cos(t), abs=1e-15)
    assert rho[3, 0] == pytest.approx(np.conj(rho[0, 3]), abs=0)


def test_density_unit_trace_and_psd():
    rng = np.random.default_rng(SEED)
    for family in FAMILIES:
        ewl = family is ProbeFamily.EWL
        n = int(rng.integers(2, 7)) if ewl else 2
        spec = ProbeSpec(family, rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi),
                         r=float(rng.random()) if ewl else None, n_qubits=n)
        rho = density(spec)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-14
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_theta_derivative_at_zero():
    f = 0.4
    d = density_derivative(ProbeSpec(ProbeFamily.PHI_PLUS, 0.0, f), Param.THETA)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = np.exp(-1j * f)
    expected[3, 0] = np.exp(1j * f)
    np.testing.assert_allclose(d, expected, atol=1e-15)


def test_phi_derivative_traceless():
    rng = np.random.default_rng(SEED)
    for family in FAMILIES:
        n = 3 if family is ProbeFamily.EWL else 2
        spec = ProbeSpec(family, rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), n_qubits=n)
        for param in (Param.THETA, Param.PHI):
            d = density_derivative(spec, param)
            assert abs(np.trace(d)) <= 1e-14
            assert np.max(np.abs(d - d.conj().T)) <= 1e-14


def test_ewl_r0_derivative_vanishes():
    spec = ProbeSpec(ProbeFamily.EWL, 0.5, 0.9, r=0.0, n_qubits=2)
    for param in (Param.THETA, Param.PHI):
        np.testing.assert_array_equal(density_derivative(spec, param), np.zeros((4, 4)))


def test_derivative_matches_finite_difference():
    # 200 random specs, central difference with step 1e-5, max element 1e-8
    rng = np.random.default_rng(SEED)
    h = 1e-5
    for _ in range(200):
        family = FAMILIES[rng.integers(len(FAMILIES))]
        ewl = family is ProbeFamily.EWL
        n = int(rng.integers(2, 7)) if ewl else 2
        theta = rng.uniform(0, np.pi)
        phi = rng.uniform(0, 2 * np.pi)
        r = float(rng.random()) if ewl else None
        param = Param.THETA if rng.integers(2) == 0 else Param.PHI
        spec = ProbeSpec(family, theta, phi, r=r, n_qubits=n)
        analytic = density_derivative(spec, param)
        args = {"family": family, "theta": theta, "phi": phi, "r": r, "n_qubits": n}
        lo, hi = dict(args), dict(args)
        lo[param.value] -= h
        hi[param.value] += h
        fd = (density(ProbeSpec(**hi)) - density(ProbeSpec(**lo))) / (2 * h)
        assert np.max(np.abs(fd - analytic)) <= 1e-8


def test_ewl_default_ratio():
    assert ProbeSpec(ProbeFamily.EWL, 0.1, 0.2).r == DEFAULT_EWL_RATIO
    assert ProbeSpec(ProbeFamily.EWL, 0.1, 0.2, r=0.25).r == 0.25
    assert ProbeSpec(ProbeFamily.PHI_PLUS, 0.1, 0.2).r == 1.0


@pytest.mark.parametrize("family", FAMILIES[:4])
def test_bell_probes_accept_only_r_one(family):
    # a Bell probe is pure, so any other r would be recorded but never used
    assert ProbeSpec(family, 0.1, 0.2, r=1.0).r == 1.0
    for r in (0.5, 0.0):
        with pytest.raises(ValueError, match="only to the ewl family"):
            ProbeSpec(family, 0.1, 0.2, r=r)


def test_spec_validation():
    with pytest.raises(ValueError):
        ProbeSpec(ProbeFamily.PHI_PLUS, 0.1, 0.2, n_qubits=3)
    with pytest.raises(ValueError):
        ProbeSpec(ProbeFamily.EWL, 0.1, 0.2, n_qubits=7)
    with pytest.raises(ValueError):
        ProbeSpec(ProbeFamily.EWL, 0.1, 0.2, r=1.5)
    with pytest.raises(ValueError):
        ProbeSpec(ProbeFamily.PHI_PLUS, np.nan, 0.2)


@pytest.mark.parametrize(
    "family, n_qubits", [(ProbeFamily.EWL, 2.5), (ProbeFamily.EWL, 3.0), (ProbeFamily.PHI_PLUS, 2.0)]
)
def test_n_qubits_must_be_an_integer(family, n_qubits):
    with pytest.raises(TypeError, match="n_qubits must be an integer"):
        ProbeSpec(family, 0.1, 0.2, n_qubits=n_qubits)


def test_n_qubits_accepts_numpy_integers():
    spec = ProbeSpec(ProbeFamily.EWL, 0.1, 0.2, n_qubits=np.int64(3))
    assert type(spec.n_qubits) is int and spec.n_qubits == 3
    assert density(spec).shape == (8, 8)


def test_family_accepts_plain_strings():
    spec = ProbeSpec("psi+", 0.3, 0.4)
    assert spec.family is ProbeFamily.PSI_PLUS
