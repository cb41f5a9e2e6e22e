from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from corrqfi.channels import (
    ChannelKind,
    ChannelSpec,
    apply_channel,
    joint_distribution,
    single_use_distribution,
    transfer_matrix,
)
from corrqfi.probes import Param, ProbeFamily, ProbeSpec, density, density_derivative

SEED = 20250810

ALL_KINDS = list(ChannelKind)

# I, X, Y, Z: the oracle's own Pauli table
PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def random_state(rng, dim):
    # random rank-3 mixture, unit trace
    rho = np.zeros((dim, dim), dtype=complex)
    for _ in range(3):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        rho += rng.random() * np.outer(v, v.conj())
    return rho / np.trace(rho).real


def test_depolarizing_distribution():
    np.testing.assert_allclose(
        single_use_distribution(ChannelKind.DEPOLARIZING, 0.3), [0.7, 0.1, 0.1, 0.1]
    )


def test_phase_flip_distribution():
    np.testing.assert_allclose(
        single_use_distribution(ChannelKind.PHASE_FLIP, 0.3), [0.7, 0.0, 0.0, 0.3]
    )


def test_noiseless_distribution():
    for kind in ALL_KINDS:
        np.testing.assert_array_equal(single_use_distribution(kind, 0.0), [1, 0, 0, 0])


def test_flip_channels_use_their_pauli_index():
    assert single_use_distribution(ChannelKind.BIT_FLIP, 0.2)[1] == 0.2
    assert single_use_distribution(ChannelKind.BIT_PHASE_FLIP, 0.2)[2] == 0.2


def test_distribution_rejects_bad_p():
    with pytest.raises(ValueError):
        single_use_distribution(ChannelKind.DEPOLARIZING, 1.2)
    with pytest.raises(ValueError):
        single_use_distribution(ChannelKind.DEPOLARIZING, -0.1)


def test_conditional_uncorrelated_limit():
    step = transfer_matrix(ChannelKind.DEPOLARIZING, 0.3, 0.0)
    for i in range(4):
        for j in range(4):
            want = single_use_distribution(ChannelKind.DEPOLARIZING, 0.3)[i]
            assert step[i, j] == pytest.approx(want, abs=0)


def test_conditional_fully_correlated_limit():
    step = transfer_matrix(ChannelKind.BIT_FLIP, 0.3, 1.0)
    for i in range(4):
        for j in range(4):
            assert step[i, j] == (1.0 if i == j else 0.0)


def test_conditional_direct_value():
    got = transfer_matrix(ChannelKind.DEPOLARIZING, 0.3, 0.5)[0, 0]
    assert got == pytest.approx(0.85, abs=1e-15)


def test_joint_chain_value():
    jd = joint_distribution(ChannelKind.DEPOLARIZING, 0.3, 0.5, 2)
    probs = dict(jd.terms)
    assert probs[(0, 0)] == pytest.approx(0.595, abs=1e-15)


def test_joint_fully_correlated_phase_flip():
    p = 0.3
    jd = joint_distribution(ChannelKind.PHASE_FLIP, p, 1.0, 3)
    assert dict(jd.terms) == {(0, 0, 0): pytest.approx(1 - p), (3, 3, 3): pytest.approx(p)}


def test_joint_uncorrelated_factorizes():
    for kind in ALL_KINDS:
        base = single_use_distribution(kind, 0.35)
        jd = joint_distribution(kind, 0.35, 0.0, 2)
        for (i, j), prob in jd.terms:
            assert prob == pytest.approx(base[i] * base[j], abs=1e-15)


def test_joint_sums_to_one():
    for kind in ALL_KINDS:
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            for mu in (0.0, 0.5, 1.0):
                for n in range(2, 7):
                    jd = joint_distribution(kind, p, mu, n)
                    assert abs(jd.total() - 1.0) <= 1e-12
                    assert all(prob > 0.0 for _, prob in jd.terms)


def test_flip_channels_prune_to_two_indices():
    jd = joint_distribution(ChannelKind.BIT_FLIP, 0.4, 0.3, 5)
    assert len(jd.terms) <= 2**5
    assert all(set(idx) <= {0, 1} for idx, _ in jd.terms)


def test_apply_channel_noiseless_identity():
    rng = np.random.default_rng(SEED)
    rho = random_state(rng, 4)
    for kind in ALL_KINDS:
        out = apply_channel(rho, ChannelSpec(kind, 0.0, 0.7))
        np.testing.assert_allclose(out, rho, atol=1e-15)


def test_phase_flip_matches_coherence_decay():
    # output coherence scales by w = 1 - 4 p (1 - p)(1 - mu)
    t, f, p, mu = np.pi / 8, np.pi / 6, 0.3, 0.4
    rho0 = density(ProbeSpec(ProbeFamily.PHI_PLUS, t, f))
    out = apply_channel(rho0, ChannelSpec(ChannelKind.PHASE_FLIP, p, mu))
    w = 1 - 4 * p * (1 - p) * (1 - mu)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = np.cos(t) ** 2
    expected[3, 3] = np.sin(t) ** 2
    expected[0, 3] = w * np.exp(-1j * f) * np.sin(t) * np.cos(t)
    expected[3, 0] = np.conj(expected[0, 3])
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_depolarizing_critical_point_fully_mixes():
    rho0 = density(ProbeSpec(ProbeFamily.PHI_PLUS, np.pi / 8, np.pi / 6))
    out = apply_channel(rho0, ChannelSpec(ChannelKind.DEPOLARIZING, 0.75, 0.0))
    np.testing.assert_allclose(out, np.eye(4) / 4, atol=1e-15)


def test_trace_preservation_and_positivity():
    rng = np.random.default_rng(SEED)
    for kind in ALL_KINDS:
        for n in (1, 2, 3):
            rho = random_state(rng, 2**n)
            spec = ChannelSpec(kind, float(rng.random()), float(rng.random()))
            out = apply_channel(rho, spec)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(out).min() >= -1e-10


def test_unitality():
    for kind in ALL_KINDS:
        for n in (1, 2, 3):
            eye = np.eye(2**n, dtype=complex) / 2**n
            out = apply_channel(eye, ChannelSpec(kind, 0.6, 0.4))
            np.testing.assert_allclose(out, eye, atol=1e-12)


def test_linearity():
    rng = np.random.default_rng(SEED)
    spec = ChannelSpec(ChannelKind.DEPOLARIZING, 0.45, 0.3)
    r1, r2 = random_state(rng, 4), random_state(rng, 4)
    a = 0.37
    mix = apply_channel(a * r1 + (1 - a) * r2, spec)
    split = a * apply_channel(r1, spec) + (1 - a) * apply_channel(r2, spec)
    np.testing.assert_allclose(mix, split, atol=1e-12)


def test_derivative_commutes_with_channel():
    # channel is linear and parameter independent
    h = 1e-5
    spec = ChannelSpec(ChannelKind.BIT_FLIP, 0.3, 0.6)
    for param in (Param.THETA, Param.PHI):
        probe = ProbeSpec(ProbeFamily.PHI_PLUS, 0.4, 0.9)
        pushed = apply_channel(density_derivative(probe, param), spec)
        args = {"family": probe.family, "theta": probe.theta, "phi": probe.phi}
        lo, hi = dict(args), dict(args)
        lo[param.value] -= h
        hi[param.value] += h
        fd = (
            apply_channel(density(ProbeSpec(**hi)), spec)
            - apply_channel(density(ProbeSpec(**lo)), spec)
        ) / (2 * h)
        assert np.max(np.abs(fd - pushed)) <= 1e-8


def string_sum(rho, kind, p, mu):
    """Reference channel: sum_s p_s sigma_s rho sigma_s over joint_distribution."""
    n = rho.shape[0].bit_length() - 1
    out = np.zeros_like(rho)
    for string, prob in joint_distribution(kind, p, mu, n).terms:
        op = np.ones((1, 1), dtype=complex)
        for i in string:
            op = np.kron(op, PAULI[i])
        out += prob * (op @ rho @ op)
    return out


def test_apply_channel_matches_joint_distribution():
    # The transfer-matrix recursion and the string enumeration share one
    # Markov rule; non-Hermitian input checks the map, not just states.
    rng = np.random.default_rng(SEED)
    for n in range(1, 6):
        for kind in ALL_KINDS:
            for p in (0.0, 0.3, 0.75, 1.0):
                for mu in (0.0, 0.4, 1.0):
                    rho = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
                    got = apply_channel(rho, ChannelSpec(kind, p, mu))
                    want = string_sum(rho, kind, p, mu)
                    assert np.max(np.abs(got - want)) <= 1e-13, (n, kind, p, mu)


def test_single_flip_channels_are_exact_conjugations():
    # At p = 1 a flip channel applies one Pauli string; the index flip and
    # sign grid must reproduce the Kronecker product bit for bit.
    rng = np.random.default_rng(SEED)
    for kind, index in ((ChannelKind.BIT_FLIP, 1), (ChannelKind.BIT_PHASE_FLIP, 2),
                        (ChannelKind.PHASE_FLIP, 3)):
        for n in range(1, 7):
            op = np.ones((1, 1), dtype=complex)
            for _ in range(n):
                op = np.kron(PAULI[index], op)
            rho = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            for mu in (0.0, 0.5, 1.0):
                got = apply_channel(rho, ChannelSpec(kind, 1.0, mu))
                np.testing.assert_array_equal(got, op @ rho @ op, err_msg=f"{kind} {n} {mu}")


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    st.sampled_from(ALL_KINDS),
    st.sampled_from([0.0, 0.75, 1.0]) | st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_apply_channel_properties(kind, p, mu, n, seed):
    rng = np.random.default_rng(seed)
    rho = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    spec = ChannelSpec(kind, p, mu)
    before = rho.copy()
    out = apply_channel(rho, spec)
    np.testing.assert_array_equal(rho, before)  # the in-place flips work on a copy
    assert abs(np.trace(out) - np.trace(rho)) <= 1e-13
    assert np.max(np.abs(out - string_sum(rho, kind, p, mu))) <= 1e-13
    hermitian = apply_channel(rho + rho.conj().T, spec)
    assert np.max(np.abs(hermitian - hermitian.conj().T)) <= 1e-13


def test_apply_channel_rejects_bad_dimension():
    with pytest.raises(ValueError):
        apply_channel(np.eye(3), ChannelSpec(ChannelKind.BIT_FLIP, 0.1, 0.0))


def test_joint_rejects_bad_qubit_count():
    with pytest.raises(ValueError):
        joint_distribution(ChannelKind.BIT_FLIP, 0.1, 0.1, 0)
    with pytest.raises(ValueError):
        joint_distribution(ChannelKind.BIT_FLIP, 0.1, 0.1, 7)


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(ChannelKind.BIT_FLIP, 1.4, 0.0)
    with pytest.raises(ValueError):
        ChannelSpec(ChannelKind.BIT_FLIP, 0.4, -0.2)
    assert ChannelSpec("depolarizing", 0.1, 0.2).kind is ChannelKind.DEPOLARIZING


def test_push_equals_apply_channel_bit_for_bit():
    # the stacked kernel at mixed support patterns (p = 0, generic, 1, and a
    # p whose error weight underflows to 0) equals one push per operator
    # and point, bit for bit
    from corrqfi.channels import _push

    rng = np.random.default_rng(SEED + 7)
    ps = np.array([0.0, 0.3, 1.0, 5e-324, 0.75, 1.0, 0.0])
    mus = np.array([0.5, 0.0, 0.2, 0.9, 1.0, 1.0, 0.0])
    for n in (1, 2, 3, 4):
        ops = rng.normal(size=(3, 2**n, 2**n)) + 1j * rng.normal(size=(3, 2**n, 2**n))
        for kind in ALL_KINDS:
            stacked = _push(ops, kind, ps, mus)
            assert stacked.shape == (len(ps), 3, 2**n, 2**n)
            for i, (p, mu) in enumerate(zip(ps, mus)):
                for k, op in enumerate(ops):
                    one = apply_channel(op, ChannelSpec(kind, p, mu))
                    assert stacked[i, k].tobytes() == one.tobytes(), (n, kind, p, mu, k)
