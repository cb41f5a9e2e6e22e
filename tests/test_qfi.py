import tracemalloc

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from corrqfi.channels import ChannelKind, ChannelSpec, apply_channel
from corrqfi.closed_form import closed_form_qfi
from corrqfi.probes import Param, ProbeFamily, ProbeSpec, density, density_derivative
from corrqfi.qfi import (
    _qfi_from_eigensystem,
    _qfi_numeric,
    build_sld,
    cramer_rao_bound,
    qfi_numeric,
    qfi_numeric_fd,
    qfi_sld,
)

SEED = 20250810


def phi_plus(theta=np.pi / 8, phi=np.pi / 6):
    return ProbeSpec(ProbeFamily.PHI_PLUS, theta, phi)


def test_pure_state_theta_qfi_is_4():
    for theta, phi in [(np.pi / 8, np.pi / 6), (0.3, 1.2), (1.1, 4.0)]:
        spec = phi_plus(theta, phi)
        f = qfi_sld(density(spec), density_derivative(spec, Param.THETA))
        assert f == pytest.approx(4.0, abs=1e-11)


def test_pure_state_phi_qfi_is_sin_squared():
    for theta, phi in [(np.pi / 8, np.pi / 6), (0.3, 1.2), (1.1, 4.0)]:
        spec = phi_plus(theta, phi)
        f = qfi_sld(density(spec), density_derivative(spec, Param.PHI))
        assert f == pytest.approx(np.sin(2 * theta) ** 2, abs=1e-11)


def test_maximally_mixed_output_zero_qfi():
    spec = phi_plus()
    channel = ChannelSpec(ChannelKind.DEPOLARIZING, 0.75, 0.0)
    rho = apply_channel(density(spec), channel)
    for param in (Param.THETA, Param.PHI):
        d_rho = apply_channel(density_derivative(spec, param), channel)
        assert qfi_sld(rho, d_rho) == pytest.approx(0.0, abs=1e-12)


def test_qfi_sld_rejects_non_hermitian():
    with pytest.raises(ValueError):
        qfi_sld(np.array([[0.5, 1.0], [0.0, 0.5]]), np.zeros((2, 2)))


def test_sld_defining_relation_full_rank():
    spec = phi_plus()
    channel = ChannelSpec(ChannelKind.DEPOLARIZING, 0.3, 0.5)
    rho = apply_channel(density(spec), channel)
    for param in (Param.THETA, Param.PHI):
        d_rho = apply_channel(density_derivative(spec, param), channel)
        sld = build_sld(rho, d_rho)
        residual = np.max(np.abs(d_rho - 0.5 * (sld @ rho + rho @ sld)))
        assert residual <= 1e-9
        f = np.trace(sld @ sld @ rho).real
        assert f == pytest.approx(qfi_sld(rho, d_rho), abs=1e-10)


def test_sld_zero_derivative():
    sld = build_sld(np.eye(4) / 4, np.zeros((4, 4)))
    np.testing.assert_array_equal(sld, np.zeros((4, 4)))


def test_sld_pure_state_reduction():
    spec = phi_plus(0.4, 1.0)
    rho = density(spec)
    d_rho = density_derivative(spec, Param.PHI)
    sld = build_sld(rho, d_rho)
    f = np.trace(sld @ sld @ rho).real
    assert f == pytest.approx(np.sin(2 * 0.4) ** 2, abs=1e-10)


def test_spectral_rank_one_reduces_to_pure_term():
    # rho = |0><0| with d|psi> = 0.5i |1>: F = 4 <psi'|psi'> = 1
    rho = np.diag([1.0, 0.0]).astype(complex)
    d_rho = np.array([[0.0, -0.5j], [0.5j, 0.0]])
    pure = 4 * (0.25 - 0.0)
    assert qfi_sld(rho, d_rho) == pytest.approx(pure, abs=1e-15)


def test_spectral_diagonal_family_is_classical_fisher():
    lams = np.array([0.2, 0.3, 0.5])
    dlams = np.array([0.04, -0.1, 0.06])
    expected = np.sum(dlams**2 / lams)
    assert qfi_sld(np.diag(lams), np.diag(dlams)) == pytest.approx(expected, abs=1e-15)


def test_spectral_and_sld_share_the_support_cut():
    # 2 lam lies above SUPPORT_TOL while lam alone does not: the classical
    # term dlam^2 / lam must count
    lam, dlam = 0.75e-12, 1e-7
    rho = np.diag([lam, 1.0 - lam])
    d_rho = np.diag([dlam, -dlam])
    expected = dlam**2 / lam + dlam**2 / (1.0 - lam)
    assert qfi_sld(rho, d_rho) == pytest.approx(expected, rel=1e-14)
    # the same cut on both routes: a fully dephased output whose |11>
    # population is 0.75e-12 keeps its classical term, so F_theta = 4
    theta = float(np.arcsin(np.sqrt(lam)))
    channel = ChannelSpec(ChannelKind.PHASE_FLIP, 0.5, 0.0)
    closed = closed_form_qfi(channel, theta, 0.3, Param.THETA)
    numeric = qfi_numeric(phi_plus(theta, 0.3), channel, Param.THETA)
    assert closed == pytest.approx(4.0, abs=1e-12)
    assert numeric == pytest.approx(4.0, abs=1e-12)


def test_spectral_matches_sld_on_analytic_data():
    theta, phi, p, mu = np.pi / 8, np.pi / 6, 0.3, 0.5
    spec = phi_plus(theta, phi)
    channel = ChannelSpec(ChannelKind.DEPOLARIZING, p, mu)
    rho = apply_channel(density(spec), channel)
    d_rho = apply_channel(density_derivative(spec, Param.THETA), channel)
    closed = closed_form_qfi(channel, theta, phi, Param.THETA)
    assert closed == pytest.approx(qfi_sld(rho, d_rho), abs=1e-12)


def test_oracle_equivalence_500_tuples():
    # qfi_sld on the channel output vs the closed route, at every draw
    rng = np.random.default_rng(SEED)
    kinds = list(ChannelKind)
    for _ in range(500):
        kind = kinds[rng.integers(len(kinds))]
        p, mu = float(rng.random()), float(rng.random())
        theta = float(rng.uniform(0.0, np.pi / 2))
        phi = float(rng.uniform(0.0, 2 * np.pi))
        param = Param.THETA if rng.integers(2) == 0 else Param.PHI
        spec = phi_plus(theta, phi)
        channel = ChannelSpec(kind, p, mu)
        rho = apply_channel(density(spec), channel)
        d_rho = apply_channel(density_derivative(spec, param), channel)
        closed = closed_form_qfi(channel, theta, phi, param)
        assert closed == pytest.approx(qfi_sld(rho, d_rho), abs=1e-12)


def test_gauge_invariance_of_sld_formula():
    rng = np.random.default_rng(SEED)
    spec = phi_plus(0.37, 2.2)
    channel = ChannelSpec(ChannelKind.BIT_FLIP, 0.25, 0.6)
    rho = apply_channel(density(spec), channel)
    d_rho = apply_channel(density_derivative(spec, Param.PHI), channel)
    w = np.linalg.eigvalsh(rho)
    _, v = np.linalg.eigh(rho)
    base = _qfi_from_eigensystem(w, v, d_rho)
    for _ in range(10):
        phases = np.exp(2j * np.pi * rng.random(4))
        rotated = _qfi_from_eigensystem(w, v * phases[None, :], d_rho)
        assert rotated == pytest.approx(base, abs=1e-10)


def test_phase_flip_theta_invariance():
    for p in (0.1, 0.5, 0.9):
        for mu in (0.0, 0.5, 1.0):
            f = qfi_numeric(phi_plus(), ChannelSpec(ChannelKind.PHASE_FLIP, p, mu), Param.THETA)
            assert f == pytest.approx(4.0, abs=1e-10)


def test_jacobi_keeps_phase_flip_theta_exact_near_pi_over_2():
    # A phase flip leaves F_theta = 4 at every setting.  Just past
    # theta = pi/2 the small eigenvalue of the {|0..0>, |1..1>} block is
    # ~1e-8..1e-10 and its term is of order one, so it is needed to full
    # relative accuracy: Jacobi delivers that; LAPACK's eigh misses by up to 9e-6.
    for family, n in ((ProbeFamily.PHI_PLUS, 2), (ProbeFamily.EWL, 3), (ProbeFamily.EWL, 4)):
        for p, mu in ((0.75, 0.5), (0.3, 0.5)):
            channel = ChannelSpec(ChannelKind.PHASE_FLIP, p, mu)
            for offset in (1e-4, 1e-5):
                probe = ProbeSpec(family, np.pi / 2 + offset, np.pi / 6, r=1.0, n_qubits=n)
                assert qfi_numeric(probe, channel, Param.THETA) == pytest.approx(4.0, abs=1e-12)


def test_phase_flip_phi_maximum_at_full_correlation():
    for theta in (np.pi / 8, np.pi / 5):
        for p in (0.2, 0.7):
            spec = phi_plus(theta, np.pi / 6)
            f = qfi_numeric(spec, ChannelSpec(ChannelKind.PHASE_FLIP, p, 1.0), Param.PHI)
            assert f == pytest.approx(np.sin(2 * theta) ** 2, abs=1e-10)
    f = qfi_numeric(phi_plus(), ChannelSpec(ChannelKind.PHASE_FLIP, 0.5, 1.0), Param.PHI)
    assert f == pytest.approx(0.5, abs=1e-10)


def test_qfi_numeric_zero_at_critical_depolarizing():
    channel = ChannelSpec(ChannelKind.DEPOLARIZING, 0.75, 0.0)
    for param in (Param.THETA, Param.PHI):
        assert qfi_numeric(phi_plus(), channel, param) == pytest.approx(0.0, abs=1e-12)


def test_finite_difference_oracle():
    rng = np.random.default_rng(SEED)
    for _ in range(40):
        kind = list(ChannelKind)[rng.integers(4)]
        channel = ChannelSpec(kind, float(rng.random()), float(rng.random()))
        spec = phi_plus(float(rng.uniform(0.1, np.pi / 2 - 0.1)), float(rng.uniform(0.1, 6.1)))
        param = Param.THETA if rng.integers(2) == 0 else Param.PHI
        exact = qfi_numeric(spec, channel, param)
        approx = qfi_numeric_fd(spec, channel, param)
        assert abs(exact - approx) <= 1e-5 * max(1.0, abs(exact))


def test_qfi_nonnegative():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(60):
        kind = list(ChannelKind)[rng.integers(4)]
        channel = ChannelSpec(kind, float(rng.random()), float(rng.random()))
        spec = phi_plus(float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi)))
        param = Param.THETA if rng.integers(2) == 0 else Param.PHI
        assert qfi_numeric(spec, channel, param) >= -1e-10


def test_ewl_convexity_sanity():
    # mixing with white noise never increases the information
    channel = ChannelSpec(ChannelKind.DEPOLARIZING, 0.2, 0.5)
    for param in (Param.THETA, Param.PHI):
        pure = qfi_numeric(
            ProbeSpec(ProbeFamily.EWL, np.pi / 8, np.pi / 6, r=1.0), channel, param
        )
        for r in (0.0, 0.3, 0.6, 0.9):
            mixed = qfi_numeric(
                ProbeSpec(ProbeFamily.EWL, np.pi / 8, np.pi / 6, r=r), channel, param
            )
            assert mixed <= pure + 1e-10


def test_cramer_rao_bound_values():
    assert cramer_rao_bound(4.0, 1) == pytest.approx(0.25)
    assert cramer_rao_bound(4.0, 100) == pytest.approx(0.0025)
    assert cramer_rao_bound(0.5, 10**4) == pytest.approx(2e-4)


def test_cramer_rao_bound_unbounded_signal():
    assert cramer_rao_bound(0.0, 10) == np.inf
    assert cramer_rao_bound(-1.0, 10) == np.inf


def test_cramer_rao_bound_rejects_bad_m():
    with pytest.raises(ValueError):
        cramer_rao_bound(1.0, 0)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    st.sampled_from(list(ChannelKind)),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, np.pi / 2),
    st.floats(0.0, 2 * np.pi),
)
def test_bell_family_invariance(kind, p, mu, theta, phi):
    # On the dense route: psi+ = (I x X) phi+ and X commutes with a Pauli
    # channel up to sign, so psi+ has phi+'s QFI; phi- and psi- are phi+ and
    # psi+ at phi + pi.  The closed route relies on this mapping.
    channel = ChannelSpec(kind, p, mu)
    params = tuple(Param)
    plus = _qfi_numeric(phi_plus(theta, phi), kind, [channel.p], [channel.mu], params)[0]
    shifted = _qfi_numeric(phi_plus(theta, phi + np.pi), kind, [channel.p], [channel.mu], params)[0]
    for family, want in (
        (ProbeFamily.PSI_PLUS, plus),
        (ProbeFamily.PHI_MINUS, shifted),
        (ProbeFamily.PSI_MINUS, shifted),
    ):
        got = _qfi_numeric(ProbeSpec(family, theta, phi), kind, [channel.p], [channel.mu], params)[0]
        assert np.all(np.abs(got - want) <= 1e-12), (family, got, want)


_GRID_AXIS = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(
    st.sampled_from(list(ProbeFamily)),
    st.integers(2, 6),
    st.sampled_from(list(ChannelKind)),
    st.floats(0.0, np.pi / 2),
    st.floats(0.0, 2 * np.pi),
    st.floats(0.0, 1.0),
    st.lists(st.tuples(_GRID_AXIS, _GRID_AXIS), min_size=1, max_size=4),
)
@example(ProbeFamily.EWL, 4, ChannelKind.DEPOLARIZING, 0.0, 0.5, 0.9,
         [(0.0, 0.0), (1.0, 1.0), (0.75, 0.0), (0.3, 0.7)])
@example(ProbeFamily.EWL, 5, ChannelKind.BIT_FLIP, np.pi / 4, 0.0, 1.0, [(1.0, 0.5), (0.5, 1.0)])
@example(ProbeFamily.EWL, 6, ChannelKind.DEPOLARIZING, np.pi / 8, np.pi / 6, 0.9,
         [(0.3, 0.25), (1.0, 0.0)])
# more points than one chunk holds (8 at N = 5, 2 at N = 6)
@example(ProbeFamily.EWL, 5, ChannelKind.PHASE_FLIP, np.pi / 8, np.pi / 6, 0.9,
         [(0.3, 0.1 * i) for i in range(8)] + [(0.0, 0.5), (1.0, 1.0)])
@example(ProbeFamily.EWL, 5, ChannelKind.DEPOLARIZING, 0.4, 1.0, 0.7,
         [(0.75, 0.0), (0.3, 1.0)] + [(0.1 * i, 0.5) for i in range(8)])
@example(ProbeFamily.EWL, 6, ChannelKind.BIT_PHASE_FLIP, np.pi / 8, np.pi / 6, 0.9,
         [(0.3, 0.25), (0.6, 0.75), (1.0, 0.0)])
def test_grid_route_equals_qfi_numeric_bit_for_bit(family, n, kind, theta, phi, r, points):
    # the stacked push, stacked Jacobi and chunked SLD sum give every point
    # the bits of the one-point route, whatever the points around it
    if family is ProbeFamily.EWL:
        probe = ProbeSpec(family, theta, phi, r=r, n_qubits=n)
    else:
        probe = ProbeSpec(family, theta, phi)
    ps, mus = (np.array(axis) for axis in zip(*points))
    grid = _qfi_numeric(probe, kind, ps, mus, tuple(Param))
    assert grid.shape == (len(points), 2)
    for (p, mu), values in zip(points, grid):
        channel = ChannelSpec(kind, p, mu)
        assert values.tolist() == [qfi_numeric(probe, channel, param) for param in Param]


# qfi_numeric at figure-4 points (EWL r = 0.9, theta = pi/8, phi = pi/6,
# p = 0.3, mu = 0.5) as float.hex, (theta, phi): the dense route's exact
# bits, so a change that moves any last bit shows here.
_FIGURE_4_BITS = {
    (ChannelKind.DEPOLARIZING, 2): ("0x1.8a85ee6ca2b93p+0", "0x1.3527fd3e810a2p-3"),
    (ChannelKind.DEPOLARIZING, 5): ("0x1.a5091d78a4bf9p+0", "0x1.7525790ef3b3fp-4"),
    (ChannelKind.BIT_FLIP, 2): ("0x1.06dc0c9fd0cc6p+1", "0x1.989bf7fbd17b1p-3"),
    (ChannelKind.BIT_FLIP, 5): ("0x1.231870c6cc72ap+1", "0x1.de9f6f828927cp-3"),
    (ChannelKind.PHASE_FLIP, 2): ("0x1.8f75a0fef9cfap+1", "0x1.25b58593b810ep-3"),
    (ChannelKind.PHASE_FLIP, 5): ("0x1.c36d2639e541ep+1", "0x1.7ec3a5c1b216ep-6"),
}


@pytest.mark.parametrize("kind, n", list(_FIGURE_4_BITS))
def test_qfi_numeric_keeps_its_figure_4_bits(kind, n):
    probe = ProbeSpec(ProbeFamily.EWL, np.pi / 8, np.pi / 6, r=0.9, n_qubits=n)
    channel = ChannelSpec(kind, 0.3, 0.5)
    bits = tuple(qfi_numeric(probe, channel, param).hex() for param in Param)
    assert bits == _FIGURE_4_BITS[kind, n]


def test_a_second_parameter_adds_little_to_the_dense_route_peak():
    # the push takes one operator at a time, so a second derivative adds
    # its output, not another set of accumulators
    probe = ProbeSpec(ProbeFamily.EWL, np.pi / 8, np.pi / 6, r=0.9, n_qubits=6)
    ps, mus = np.array([0.3, 0.6]), np.array([0.25, 0.75])
    _qfi_numeric(probe, ChannelKind.DEPOLARIZING, ps, mus, tuple(Param))  # fill the caches
    peaks = []
    for params in ((Param.THETA,), tuple(Param)):
        tracemalloc.start()
        try:
            _qfi_numeric(probe, ChannelKind.DEPOLARIZING, ps, mus, params)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]
