import itertools
import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from corrqfi.channels import ChannelKind, ChannelSpec, apply_channel, single_use_distribution
from corrqfi.closed_form import (
    _block_eigen,
    _chain_sums,
    _entries,
    _x_matrix,
    closed_form_qfi,
    closed_form_qfi_grid,
    output_density,
)
from corrqfi.probes import Param, ProbeFamily, ProbeSpec, density, density_derivative
from corrqfi.qfi import SUPPORT_TOL, _qfi_numeric, qfi_numeric

SEED = 20250810

ALL_KINDS = list(ChannelKind)
FLIP_KINDS = (ChannelKind.BIT_FLIP, ChannelKind.BIT_PHASE_FLIP, ChannelKind.PHASE_FLIP)


def phi_plus_density(theta, phi):
    return density(ProbeSpec(ProbeFamily.PHI_PLUS, theta, phi))


def block_entries(channel, theta, phi):
    """(a, d, k) of the phi+ output and its two derivatives, each (3, 2)."""
    return _entries(channel.kind, channel.p, channel.mu, theta, phi, ProbeFamily.PHI_PLUS, 1.0, 2)


def output_derivative(channel, theta, phi, param):
    """Exact 4x4 parameter derivative of ``output_density``."""
    i = 1 + list(Param).index(param)
    a, d, k = block_entries(channel, theta, phi)
    return _x_matrix(a[i], d[i], k[i], ProbeFamily.PHI_PLUS)


def block_matrices(channel, theta, phi):
    """The {|00>, |11>} and {|01>, |10>} blocks of the phi+ output, shape (2, 2, 2)."""
    a, d, k = (x[0] for x in block_entries(channel, theta, phi))
    return np.stack([a, k, np.conj(k), d], axis=-1).reshape(2, 2, 2)


# ---------------------------------------------------------------------------
# the Markov chain: chain sums P(b) and S(b)
# ---------------------------------------------------------------------------

# The two-qubit output weights of the phi+ probe, written out by hand from
# the Markov rule: out00 = A d00 + C d33, out11 = out22 = B (d00 + d33),
# out03 = D d03 + E d03*, out12 = m (d03 + d03*).  At N = 2 they are the
# chain sums: P = (A, B, B, C) and S = (D, m, m, E).

def _mixing_weights(eta, mu):
    a = (1.0 - eta) * (1.0 - eta + eta * mu)
    b = eta * (1.0 - eta) * (1.0 - mu)
    c = eta * eta + eta * (1.0 - eta) * mu
    return a, b, c


def depolarizing_coefficients(p, mu):
    eta = 2.0 * p / 3.0
    a, b, c = _mixing_weights(eta, mu)
    d = (1.0 - 2.0 * eta) ** 2 + (3.0 - 4.0 * eta) * eta * mu
    return a, b, c, d, eta * mu


def flip_coefficients(p, mu):
    return _mixing_weights(p, mu)


def phase_flip_weight(p, mu):
    return 1.0 - 4.0 * p * (1.0 - p) * (1.0 - mu)


def two_qubit_weights(kind, p, mu):
    """(A, B, C, D, E, m) for one channel kind."""
    if kind is ChannelKind.DEPOLARIZING:
        return (*depolarizing_coefficients(p, mu), 0.0)
    if kind is ChannelKind.PHASE_FLIP:
        return 1.0, 0.0, 0.0, phase_flip_weight(p, mu), 0.0, 0.0
    x, y, z = flip_coefficients(p, mu)
    return x, y, z, x, z, (y if kind is ChannelKind.BIT_FLIP else -y)


GRID = np.linspace(0.0, 1.0, 9)


def grid_sums(kind, n):
    """P and S on the 9 x 9 (p, mu) grid, shape (2, 9, 9, 2^N)."""
    return _chain_sums(kind, GRID[:, None], GRID[None, :], n)


def test_chain_sums_match_the_hand_written_two_qubit_weights():
    for kind in ALL_KINDS:
        for p, mu in itertools.product(GRID, GRID):
            a, b, c, d, e, m = two_qubit_weights(kind, p, mu)
            sums = _chain_sums(kind, p, mu, 2)
            np.testing.assert_allclose(sums, [[a, b, b, c], [d, m, m, e]], rtol=0, atol=1e-15)
        # one broadcast call equals the point calls
        for i, j in ((0, 0), (3, 7), (8, 8)):
            assert np.array_equal(grid_sums(kind, 2)[:, i, j], _chain_sums(kind, GRID[i], GRID[j], 2))


def test_depolarizing_trace_identity():
    # A + 2B + C == 1 keeps the output trace at exactly one, in the
    # hand-written weights and in the chain sums they stand for
    for p, mu in itertools.product(GRID, GRID):
        a, b, c, _, _ = depolarizing_coefficients(p, mu)
        assert a + 2 * b + c == pytest.approx(1.0, abs=1e-14)
        p_sums = _chain_sums(ChannelKind.DEPOLARIZING, p, mu, 2)[0]
        assert p_sums.sum() == pytest.approx(1.0, abs=1e-14)


def test_flip_trace_identity():
    for p, mu in itertools.product(GRID, GRID):
        x, y, z = flip_coefficients(p, mu)
        assert x + 2 * y + z == pytest.approx(1.0, abs=1e-14)
        for kind in FLIP_KINDS:
            p_sums = _chain_sums(kind, p, mu, 2)[0]
            assert p_sums.sum() == pytest.approx(1.0, abs=1e-14)


def test_flip_p_reflection_swaps_x_and_z():
    # p -> 1 - p swaps x and z and keeps y; in the bit and bit-phase flip
    # chains that is P(00) <-> P(11) with P(01) = P(10) kept
    for p in (0.1, 0.3, 0.45):
        for mu in (0.0, 0.4, 1.0):
            x, y, z = flip_coefficients(p, mu)
            xr, yr, zr = flip_coefficients(1 - p, mu)
            assert xr == pytest.approx(z, abs=1e-15)
            assert zr == pytest.approx(x, abs=1e-15)
            assert yr == pytest.approx(y, abs=1e-15)
            for kind in (ChannelKind.BIT_FLIP, ChannelKind.BIT_PHASE_FLIP):
                p_sums = _chain_sums(kind, p, mu, 2)[0]
                p_mirror = _chain_sums(kind, 1 - p, mu, 2)[0]
                np.testing.assert_allclose(p_mirror, p_sums[::-1], rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pattern_weights_sum_to_one(n):
    # sum_b P(b) = 1 at every N, and |S(b)| <= P(b)
    for kind in ALL_KINDS:
        p_sums, s_sums = grid_sums(kind, n)
        np.testing.assert_allclose(p_sums.sum(axis=-1), 1.0, rtol=0, atol=1e-14)
        assert np.all(p_sums >= 0.0) and np.all(np.abs(s_sums) <= p_sums + 1e-15)


def test_depolarizing_fully_correlated_identities():
    # mu = 1, N = 2: B = 0 and D + E = 1
    for p in GRID:
        p_sums, s_sums = _chain_sums(ChannelKind.DEPOLARIZING, p, 1.0, 2)
        assert p_sums[1] == p_sums[2] == 0.0
        assert s_sums[0] + s_sums[3] == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_fully_correlated_chain_repeats_one_pauli(n):
    # the criterion-7 reduction: at mu = 1 only the strings sigma_i^(x N)
    # act, so only b = 0...0 and 1...1 carry weight, and the coherence sign
    # of Y^(x N) and Z^(x N) is (-1)^N
    sign = (-1.0) ** n
    for kind in ALL_KINDS:
        for p in GRID:
            q = single_use_distribution(kind, p)
            p_sums, s_sums = _chain_sums(kind, p, 1.0, n)
            np.testing.assert_allclose(p_sums[1:-1], 0.0, rtol=0, atol=0)
            np.testing.assert_allclose(
                [p_sums[0], p_sums[-1], s_sums[0], s_sums[-1]],
                [q[0] + q[3], q[1] + q[2], q[0] + sign * q[3], q[1] + sign * q[2]],
                rtol=0, atol=1e-15,
            )


@pytest.mark.parametrize("n", [3, 5])
def test_odd_n_depolarizing_theta_reduction(n):
    # criterion 7's exact value: F_theta(mu=1) = 4 r^2 eta^2 / (r + (1-r) 2^(1-N))
    r, p = 0.9, 0.3
    eta = 1.0 - 4.0 * p / 3.0
    channel = ChannelSpec(ChannelKind.DEPOLARIZING, p, 1.0)
    f = closed_form_qfi(channel, np.pi / 8, np.pi / 6, Param.THETA, ProbeFamily.EWL, r, n)
    assert f == pytest.approx(4 * r**2 * eta**2 / (r + (1 - r) * 2.0 ** (1 - n)), abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_flip_p_reflection_relabels_the_chain(n):
    # p -> 1 - p swaps I with the flip's Pauli: bit flip and bit-phase flip
    # complement the pattern, and bit-phase and phase flip turn (-1)^#Y or
    # (-1)^#Z into (-1)^(N - #), a sign (-1)^N on S
    sign = (-1.0) ** n
    for kind in FLIP_KINDS:
        p_sums, s_sums = grid_sums(kind, n)
        p_mirror, s_mirror = grid_sums(kind, n)[:, ::-1]
        if kind is not ChannelKind.PHASE_FLIP:
            p_mirror, s_mirror = p_mirror[..., ::-1], s_mirror[..., ::-1]
        if kind is not ChannelKind.BIT_FLIP:
            s_mirror = sign * s_mirror
        np.testing.assert_allclose(p_mirror, p_sums, rtol=0, atol=1e-15)
        np.testing.assert_allclose(s_mirror, s_sums, rtol=0, atol=1e-15)


def test_phase_flip_weight_properties():
    # the coherence survival factor w = S(00) of the phase flip at N = 2
    def w(p, mu):
        return _chain_sums(ChannelKind.PHASE_FLIP, p, mu, 2)[1, 0]

    assert w(0.5, 0.0) == pytest.approx(0.0, abs=1e-16)
    for p in np.linspace(0, 1, 11):
        for mu in np.linspace(0, 1, 5):
            assert 0.0 <= w(p, mu) <= 1.0
            assert w(p, mu) == pytest.approx(w(1 - p, mu), abs=1e-15)


# ---------------------------------------------------------------------------
# output_density
# ---------------------------------------------------------------------------

def test_output_density_noiseless_is_probe():
    t, f = 0.42, 1.3
    for kind in ALL_KINDS:
        out = output_density(ChannelSpec(kind, 0.0, 0.6), t, f)
        np.testing.assert_allclose(out, phi_plus_density(t, f), atol=1e-15)


def test_output_density_critical_depolarizing():
    out = output_density(ChannelSpec(ChannelKind.DEPOLARIZING, 0.75, 0.0), 0.7, 2.0)
    np.testing.assert_allclose(out, np.eye(4) / 4, atol=1e-15)


def test_output_density_phase_flip_diagonalizes():
    t = np.pi / 8
    out = output_density(ChannelSpec(ChannelKind.PHASE_FLIP, 0.5, 0.0), t, 1.0)
    np.testing.assert_allclose(
        out, np.diag([np.cos(t) ** 2, 0, 0, np.sin(t) ** 2]).astype(complex), atol=1e-15
    )


def test_output_density_matches_channel_on_grid():
    # all four kinds over a 5x5x3x3 (p, mu, theta, phi) grid, 1e-12
    thetas = np.linspace(0.2, 1.3, 3)
    phis = np.linspace(0.3, 5.5, 3)
    worst = 0.0
    for kind in ALL_KINDS:
        for p in np.linspace(0, 1, 5):
            for mu in np.linspace(0, 1, 5):
                spec = ChannelSpec(kind, float(p), float(mu))
                for t in thetas:
                    for f in phis:
                        brute = apply_channel(phi_plus_density(t, f), spec)
                        closed = output_density(spec, t, f)
                        worst = max(worst, np.max(np.abs(brute - closed)))
    assert worst <= 1e-12


def test_output_density_matches_channel_for_every_probe():
    # all five families, EWL at N = 2..6 with a random mixing ratio
    rng = np.random.default_rng(SEED + 4)
    for family in ProbeFamily:
        for n in (2, 3, 4, 5, 6) if family is ProbeFamily.EWL else (2,):
            for kind in ALL_KINDS:
                r = float(rng.random()) if family is ProbeFamily.EWL else 1.0
                t, f = float(rng.uniform(0, np.pi / 2)), float(rng.uniform(0, 2 * np.pi))
                probe = ProbeSpec(family, t, f, r=r, n_qubits=n)
                channel = ChannelSpec(kind, float(rng.random()), float(rng.random()))
                brute = apply_channel(density(probe), channel)
                closed = output_density(channel, t, f, family, r, n)
                assert np.max(np.abs(brute - closed)) <= 1e-14, (family, n, kind)
                if n == 2 and kind is ChannelKind.DEPOLARIZING:
                    noiseless = output_density(ChannelSpec(kind, 0.0, 0.5), t, f, family, r, n)
                    np.testing.assert_allclose(noiseless, density(probe), rtol=0, atol=1e-15)


def test_bit_phase_flip_negates_middle_coherence():
    t, f = 0.5, 0.8
    bf = output_density(ChannelSpec(ChannelKind.BIT_FLIP, 0.3, 0.4), t, f)
    bpf = output_density(ChannelSpec(ChannelKind.BIT_PHASE_FLIP, 0.3, 0.4), t, f)
    assert bpf[1, 2] == pytest.approx(-bf[1, 2], abs=0)
    flipped = bf.copy()
    flipped[1, 2] *= -1
    flipped[2, 1] *= -1
    np.testing.assert_allclose(bpf, flipped, atol=0)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def spectrum(kind, theta, phi, p, mu):
    """Eigenvalues (outer pair, then middle pair) and block eigenvectors."""
    a, d, k = (x[0] for x in block_entries(ChannelSpec(kind, p, mu), theta, phi))
    w, v = _block_eigen(a, d, k)
    return w.reshape(4), v


def test_depolarizing_spectrum_noiseless():
    w, _ = spectrum(ChannelKind.DEPOLARIZING, 0.6, 1.1, 0.0, 0.3)
    np.testing.assert_allclose(np.sort(w), [0.0, 0.0, 0.0, 1.0], atol=1e-15)


def test_depolarizing_spectrum_balanced_theta():
    # at theta = pi/4 and phi = 0 the gap is exactly D + E
    p, mu = 0.3, 0.5
    a, b, c, d, e = depolarizing_coefficients(p, mu)
    w, _ = spectrum(ChannelKind.DEPOLARIZING, np.pi / 4, 0.0, p, mu)
    assert w[0] == pytest.approx((a + c + (d + e)) / 2, abs=1e-14)
    assert w[1] == pytest.approx((a + c - (d + e)) / 2, abs=1e-14)


def test_bitflip_spectrum_noiseless():
    w, _ = spectrum(ChannelKind.BIT_FLIP, 0.6, 1.1, 0.0, 0.3)
    assert sorted(np.round(w, 14)) == [0.0, 0.0, 0.0, 1.0]


def test_bitflip_middle_pair_at_quarter_phase():
    # phi = pi/2 collapses the middle split; its phi-derivative survives as
    # the splitting of the degenerate pair, the eigenvalues of the middle
    # block of d_rho
    theta, p, mu = np.pi / 8, 0.3, 0.4
    _, y, _ = flip_coefficients(p, mu)
    channel = ChannelSpec(ChannelKind.BIT_FLIP, p, mu)
    w, _ = spectrum(ChannelKind.BIT_FLIP, theta, np.pi / 2, p, mu)
    assert w[2] == pytest.approx(y, abs=1e-14)
    assert w[3] == pytest.approx(y, abs=1e-14)
    d_rho = output_derivative(channel, theta, np.pi / 2, Param.PHI)
    split = np.linalg.eigvalsh(d_rho[1:3, 1:3])
    np.testing.assert_allclose(split, [-y * np.sin(np.pi / 4), y * np.sin(np.pi / 4)], atol=1e-14)


def test_bitflip_balanced_coefficients():
    x, y, z = flip_coefficients(0.5, 0.0)
    assert (x, y, z) == (pytest.approx(0.25), pytest.approx(0.25), pytest.approx(0.25))
    channel = ChannelSpec(ChannelKind.BIT_FLIP, 0.5, 0.0)
    blocks = block_matrices(channel, np.pi / 8, np.pi / 6)
    w, v = spectrum(channel.kind, np.pi / 8, np.pi / 6, channel.p, channel.mu)
    w = w.reshape(2, 2)
    residual = np.max(np.abs(blocks @ v - v * w[..., None, :]))
    assert residual <= 1e-9


def test_phaseflip_spectrum_fully_correlated_pure():
    w, _ = spectrum(ChannelKind.PHASE_FLIP, 0.7, 0.9, 0.4, 1.0)
    np.testing.assert_allclose(np.sort(w), [0.0, 0.0, 0.0, 1.0], atol=1e-15)


def test_phaseflip_spectrum_vanishing_coherence():
    t = np.pi / 8
    w, v = spectrum(ChannelKind.PHASE_FLIP, t, 0.8, 0.5, 0.0)
    np.testing.assert_allclose(
        np.sort(w), [0.0, 0.0, np.sin(t) ** 2, np.cos(t) ** 2], atol=1e-15
    )
    # diagonal output: the eigenvectors are the basis vectors themselves
    assert np.array_equal(v, [np.eye(2), np.eye(2)])


def test_phaseflip_spectrum_matches_numeric_diagonalization():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        t = float(rng.uniform(0.05, np.pi / 2 - 0.05))
        f = float(rng.uniform(0.05, 2 * np.pi - 0.05))
        p, mu = float(rng.random()), float(rng.random())
        channel = ChannelSpec(ChannelKind.PHASE_FLIP, p, mu)
        w, _ = spectrum(channel.kind, t, f, p, mu)
        rho = output_density(channel, t, f)
        np.testing.assert_allclose(np.sort(w), np.linalg.eigvalsh(rho), atol=1e-10)


def test_spectra_residuals_and_orthonormality():
    # every 2x2 block of every kind: _block_eigen gives eigenpairs and an
    # orthonormal basis, and the pairs add up to the unit trace
    rng = np.random.default_rng(SEED + 1)
    for kind in ALL_KINDS:
        for _ in range(60):
            t = float(rng.uniform(0.05, np.pi / 2 - 0.05))
            f = float(rng.uniform(0.05, 2 * np.pi - 0.05))
            p, mu = float(rng.random()), float(rng.random())
            param = Param.THETA if rng.integers(2) == 0 else Param.PHI
            channel = ChannelSpec(kind, p, mu)
            rho = output_density(channel, t, f)
            total = 0.0
            for i, j in ((0, 3), (1, 2)):
                block = rho[np.ix_([i, j], [i, j])]
                lams, rows = _block_eigen(block[0, 0].real, block[1, 1].real, block[0, 1])
                v = np.array(rows)
                residual = np.max(np.abs(block @ v - v * np.array(lams)))
                assert residual <= 1e-9
                assert np.max(np.abs(v.conj().T @ v - np.eye(2))) <= 1e-12
                total += sum(lams)
            assert total == pytest.approx(1.0, abs=1e-12)
            assert abs(np.trace(output_derivative(channel, t, f, param))) <= 1e-10


def test_spectra_derivatives_match_finite_differences():
    # the channel map applied to the probe derivative is the derivative of
    # the output: it matches a central difference of output_density and the
    # numeric route's channel applied to the probe derivative
    rng = np.random.default_rng(SEED + 2)
    h = 1e-6
    for kind in ALL_KINDS:
        for _ in range(40):
            t = float(rng.uniform(0.1, np.pi / 2 - 0.1))
            f = float(rng.uniform(0.1, 2 * np.pi - 0.1))
            p, mu = float(rng.uniform(0.02, 0.98)), float(rng.uniform(0.02, 0.98))
            channel = ChannelSpec(kind, p, mu)
            probe = ProbeSpec(ProbeFamily.PHI_PLUS, t, f)
            for param in (Param.THETA, Param.PHI):
                d_rho = output_derivative(channel, t, f, param)
                if param is Param.THETA:
                    plus = output_density(channel, t + h, f)
                    minus = output_density(channel, t - h, f)
                else:
                    plus = output_density(channel, t, f + h)
                    minus = output_density(channel, t, f - h)
                fd = (plus - minus) / (2 * h)
                assert np.max(np.abs(fd - d_rho)) <= 1e-7
                pushed = apply_channel(density_derivative(probe, param), channel)
                assert np.max(np.abs(pushed - d_rho)) <= 1e-12


def test_phase_flip_phi_derivatives_exactly_zero():
    # single coherence component: phi moves only the coherence phase, so the
    # derivative has an exactly zero diagonal and the eigenvalues cannot move
    channel = ChannelSpec(ChannelKind.PHASE_FLIP, 0.3, 0.5)
    d_rho = output_derivative(channel, np.pi / 8, 1.234, Param.PHI)
    assert np.max(np.abs(np.diag(d_rho))) == 0.0
    w0, _ = spectrum(channel.kind, np.pi / 8, 1.234, channel.p, channel.mu)
    w1, _ = spectrum(channel.kind, np.pi / 8, 2.5, channel.p, channel.mu)
    np.testing.assert_allclose(w0, w1, atol=1e-15)


# ---------------------------------------------------------------------------
# closed_form_qfi
# ---------------------------------------------------------------------------

def test_closed_phase_flip_theta_grid():
    for p in np.linspace(0, 1, 11):
        for mu in np.linspace(0, 1, 11):
            f = closed_form_qfi(
                ChannelSpec(ChannelKind.PHASE_FLIP, float(p), float(mu)),
                np.pi / 8,
                np.pi / 6,
                Param.THETA,
            )
            assert f == pytest.approx(4.0, abs=1e-9)


def test_closed_phase_flip_phi_maximum():
    for theta in (np.pi / 12, np.pi / 8, np.pi / 6):
        for p in (0.0, 0.3, 0.8):
            f = closed_form_qfi(
                ChannelSpec(ChannelKind.PHASE_FLIP, p, 1.0), theta, np.pi / 6, Param.PHI
            )
            assert f == pytest.approx(np.sin(2 * theta) ** 2, abs=1e-9)


def test_closed_bitflip_p_reflection_symmetry():
    lo = closed_form_qfi(
        ChannelSpec(ChannelKind.BIT_FLIP, 0.2, 0.7), np.pi / 8, np.pi / 6, Param.PHI
    )
    hi = closed_form_qfi(
        ChannelSpec(ChannelKind.BIT_FLIP, 0.8, 0.7), np.pi / 8, np.pi / 6, Param.PHI
    )
    assert lo == pytest.approx(hi, abs=1e-9)


def test_closed_bit_phase_flip_delegates_to_bit_flip():
    for param in (Param.THETA, Param.PHI):
        bf = closed_form_qfi(
            ChannelSpec(ChannelKind.BIT_FLIP, 0.3, 0.4), 0.5, 0.9, param
        )
        bpf = closed_form_qfi(
            ChannelSpec(ChannelKind.BIT_PHASE_FLIP, 0.3, 0.4), 0.5, 0.9, param
        )
        assert bf == bpf


def test_closed_form_evaluates_at_former_gauge_poles():
    # the fully mixed output and theta = 0 with surviving coherence, where an
    # eigenvector-derivative gauge is singular
    settings = (
        (ChannelSpec(ChannelKind.DEPOLARIZING, 0.75, 0.0), np.pi / 8, np.pi / 6),
        (ChannelSpec(ChannelKind.DEPOLARIZING, 0.1, 0.3), 0.0, np.pi / 6),
    )
    for channel, theta, phi in settings:
        closed = closed_form_qfi(channel, theta, phi, Param.THETA)
        numeric = qfi_numeric(ProbeSpec(ProbeFamily.PHI_PLUS, theta, phi), channel, Param.THETA)
        assert closed == pytest.approx(numeric, abs=1e-12)


def test_dual_path_agreement_random_tuples():
    rng = np.random.default_rng(SEED + 3)
    checked = 0
    while checked < 150:
        kind = ALL_KINDS[rng.integers(4)]
        p, mu = float(rng.random()), float(rng.random())
        t = float(rng.uniform(0.0, np.pi / 2))
        f = float(rng.uniform(0.0, 2 * np.pi))
        param = Param.THETA if rng.integers(2) == 0 else Param.PHI
        channel = ChannelSpec(kind, p, mu)
        closed = closed_form_qfi(channel, t, f, param)
        numeric = qfi_numeric(ProbeSpec(ProbeFamily.PHI_PLUS, t, f), channel, param)
        assert closed == pytest.approx(numeric, abs=1e-7)
        checked += 1


def test_closed_form_agrees_at_general_phi_with_correlations():
    # correlated depolarizing at phi != 0: both coherence components active
    t, f, p, mu = np.pi / 8, np.pi / 6, 0.3, 0.5
    channel = ChannelSpec(ChannelKind.DEPOLARIZING, p, mu)
    for param in (Param.THETA, Param.PHI):
        closed = closed_form_qfi(channel, t, f, param)
        numeric = qfi_numeric(ProbeSpec(ProbeFamily.PHI_PLUS, t, f), channel, param)
        assert closed == pytest.approx(numeric, abs=1e-9)


# ---------------------------------------------------------------------------
# near the singular sets
# ---------------------------------------------------------------------------

def _nudge(x, offset):
    """x + offset, or x - offset where that leaves [0, 1]."""
    return x + offset if 0.0 <= x + offset <= 1.0 else x - offset


def test_near_singular_scan_stays_physical_and_agrees():
    # every coordinate a small signed offset away from a singular value:
    # theta in {0, pi/4, pi/2}, phi in {0, pi/2, pi}, depolarizing p = 3/4,
    # flip p = 1/2, mu in {0, 1}; 4608 evaluations per route, the closed
    # ones in one grid call per channel kind
    gaps = []
    for kind in ALL_KINDS:
        settings = [
            (_nudge(p, d), _nudge(mu, d), theta + d, phi + d, offset)
            for p, mu, theta, phi in itertools.product(
                (0.0, 0.5, 0.75, 1.0), (0.0, 1.0), (0.0, np.pi / 4, np.pi / 2), (0.0, np.pi / 2, np.pi)
            )
            for offset in (1e-12, 1e-9, 1e-6, 1e-3)
            for d in (offset, -offset)
        ]
        p, mu, t, f, offsets = (np.array(column) for column in zip(*settings))
        grid = closed_form_qfi_grid(kind, p, mu, t, f)
        for k, offset in enumerate(offsets):
            channel = ChannelSpec(kind, p[k], mu[k])
            probe = ProbeSpec(ProbeFamily.PHI_PLUS, t[k], f[k])
            numerics = _qfi_numeric(probe, channel, tuple(Param))
            for param, closed, numeric in zip(Param, grid[:, k], numerics):
                f0 = 4.0 if param is Param.THETA else math.sin(2.0 * t[k]) ** 2
                setting = (kind.value, channel.p, channel.mu, t[k], f[k], param.value)
                assert -1e-12 <= closed <= f0 + 1e-9, (setting, closed)
                assert -1e-12 <= numeric <= f0 + 1e-9, (setting, numeric)
                # At 1e-6 an outer-block eigenvalue can sit at SUPPORT_TOL,
                # where neither double-precision route resolves it.
                if offset != 1e-6 and abs(closed - numeric) > 1e-9:
                    gaps.append((setting, closed, numeric))
    assert not gaps, gaps[:5]


def test_near_singular_examples():
    # eigenvalue 1e-12 on |00>: the classical term 4 sin^2(theta) must survive
    channel = ChannelSpec(ChannelKind.PHASE_FLIP, 0.5, 0.0)
    f = closed_form_qfi(channel, np.pi / 2 + 1e-6, 0.3, Param.THETA)
    assert f == pytest.approx(4.0, abs=1e-12)
    # just past the fully mixing point with full correlation
    channel = ChannelSpec(ChannelKind.DEPOLARIZING, 0.75 + 1.1e-9, 1.0)
    f = closed_form_qfi(channel, np.pi / 4, np.pi / 2, Param.PHI)
    assert f == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# properties of the grid kernel, for every probe
# ---------------------------------------------------------------------------

def noiseless_qfi(theta, r, n):
    """(F_theta, F_phi) of the noiseless probe.

    The pure probe has (4, sin^2 2 theta); white noise scales both by
    r^2 / (r + (1 - r) 2^(1-N)).
    """
    return np.array([4.0, np.sin(2.0 * theta) ** 2]) * r**2 / (r + (1.0 - r) * 2.0 ** (1 - n))


def _off_the_cut(kind, p, mu, theta, phi, family, r, n):
    """True where no eigenvalue pair sum lies within 1e2 * SUPPORT_TOL of the cut."""
    a, d, k = (x[0] for x in _entries(kind, p, mu, theta, phi, family, r, n))
    w = _block_eigen(a, d, k)[0].reshape(np.shape(p) + (-1,))
    sums = w[..., :, None] + w[..., None, :]
    return np.all(np.abs(sums - SUPPORT_TOL) > 1e2 * SUPPORT_TOL, axis=(-2, -1))


_unit = st.floats(0.0, 1.0)
_probes = st.sampled_from(list(ProbeFamily)).flatmap(
    lambda family: st.tuples(st.just(family), st.just(1.0), st.just(2))
    if family is not ProbeFamily.EWL
    else st.tuples(st.just(family), _unit, st.integers(2, 6))
)
_grids = st.integers(1, 6).flatmap(
    lambda k: st.tuples(
        st.sampled_from(ALL_KINDS),
        *(st.lists(axis, min_size=k, max_size=k).map(np.array)
          for axis in (_unit, _unit, st.floats(0.0, np.pi / 2), st.floats(0.0, 2 * np.pi)))
    )
)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_grids, _probes)
def test_grid_kernel_properties(grid, probe_args):
    # the block route against the dense route within 1e-9 off the support
    # cut band, and 0 <= F <= F_noiseless, for every family, N and r
    kind, p, mu, theta, phi = grid
    family, r, n = probe_args
    f = closed_form_qfi_grid(kind, p, mu, theta, phi, family, r, n)
    assert f.shape == (2, len(p))
    off = _off_the_cut(kind, p, mu, theta, phi, family, r, n)
    for k in range(len(p)):
        channel = ChannelSpec(kind, p[k], mu[k])
        probe = ProbeSpec(family, theta[k], phi[k], r=r, n_qubits=n)
        f0 = noiseless_qfi(theta[k], r, n)
        assert np.all(f[:, k] >= -1e-12) and np.all(f[:, k] <= f0 + 1e-9), (channel, probe)
        for i, param in enumerate(Param):
            one = closed_form_qfi(channel, theta[k], phi[k], param, family, r, n)
            assert abs(f[i, k] - one) <= 1e-14
        if off[k]:
            numeric = _qfi_numeric(probe, channel, tuple(Param))
            assert np.all(np.abs(f[:, k] - numeric) <= 1e-9), (channel, probe)
    if kind in (ChannelKind.BIT_FLIP, ChannelKind.BIT_PHASE_FLIP):
        mirrored = closed_form_qfi_grid(kind, 1.0 - p, mu, theta, phi, family, r, n)
        both = off & _off_the_cut(kind, 1.0 - p, mu, theta, phi, family, r, n)
        assert np.all(np.abs(f - mirrored)[:, both] <= 1e-9)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_ewl_near_singular_scan_stays_physical_and_agrees(n):
    # EWL probes an offset d in {0, 1e-9, 1e-3} away from the singular
    # values theta in {0, pi/4, pi/2}, phi in {0, pi/2}, p in {0, 1/2, 3/4, 1}
    # and mu in {0, 1}.  Each N takes a third of the (setting, offset) pairs,
    # each offset on a third of the settings, and gives each kind r = 1 or
    # r = 0.9 in turn; the closed values come from one grid call per kind.
    # N = 6 (1.6 s on the dense route) is left to test_grid_kernel_properties.
    for i, kind in enumerate(ALL_KINDS):
        r = (1.0, 0.9)[(i + n) % 2]
        settings = [
            (_nudge(p, d), _nudge(mu, d), theta + d, phi + d)
            for i, (p, mu, theta, phi) in enumerate(itertools.product(
                (0.0, 0.5, 0.75, 1.0), (0.0, 1.0), (0.0, np.pi / 4, np.pi / 2), (0.0, np.pi / 2)
            ))
            for j, d in enumerate((0.0, 1e-9, 1e-3))
            if (i + j - n) % 3 == 0
        ]
        p, mu, t, f = (np.array(column) for column in zip(*settings))
        grid = closed_form_qfi_grid(kind, p, mu, t, f, ProbeFamily.EWL, r, n)
        for k in range(len(p)):
            channel = ChannelSpec(kind, p[k], mu[k])
            probe = ProbeSpec(ProbeFamily.EWL, t[k], f[k], r=r, n_qubits=n)
            numerics = _qfi_numeric(probe, channel, tuple(Param))
            f0s = noiseless_qfi(t[k], r, n)
            for param, closed, numeric, f0 in zip(Param, grid[:, k], numerics, f0s):
                setting = (kind.value, r, channel.p, channel.mu, t[k], f[k], param.value)
                assert -1e-12 <= closed <= f0 + 1e-9, (setting, closed)
                assert abs(closed - numeric) <= 1e-9, (setting, closed, numeric)
