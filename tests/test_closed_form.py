import itertools
import math

import numpy as np
import pytest

from corrqfi.channels import ChannelKind, ChannelSpec, apply_channel
from corrqfi.closed_form import (
    _block_eigen,
    _output_derivative,
    _x_eigensystem,
    closed_form_qfi,
    depolarizing_coefficients,
    flip_coefficients,
    output_density,
    phase_flip_weight,
)
from corrqfi.probes import Param, ProbeFamily, ProbeSpec, density, density_derivative
from corrqfi.qfi import qfi_numeric

SEED = 20250810

ALL_KINDS = list(ChannelKind)


def phi_plus_density(theta, phi):
    return density(ProbeSpec(ProbeFamily.PHI_PLUS, theta, phi))


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def test_depolarizing_trace_identity():
    # A + 2B + C == 1 keeps the output trace at exactly one
    for p in np.linspace(0, 1, 9):
        for mu in np.linspace(0, 1, 9):
            a, b, c, _, _ = depolarizing_coefficients(p, mu)
            assert a + 2 * b + c == pytest.approx(1.0, abs=1e-14)


def test_depolarizing_fully_correlated_identities():
    for p in np.linspace(0, 1, 9):
        a, b, c, d, e = depolarizing_coefficients(p, 1.0)
        assert b == pytest.approx(0.0, abs=1e-15)
        assert d + e == pytest.approx(1.0, abs=1e-14)


def test_flip_trace_identity():
    for p in np.linspace(0, 1, 9):
        for mu in np.linspace(0, 1, 9):
            x, y, z = flip_coefficients(p, mu)
            assert x + 2 * y + z == pytest.approx(1.0, abs=1e-14)


def test_flip_p_reflection_swaps_x_and_z():
    for p in (0.1, 0.3, 0.45):
        for mu in (0.0, 0.4, 1.0):
            x, y, z = flip_coefficients(p, mu)
            xr, yr, zr = flip_coefficients(1 - p, mu)
            assert xr == pytest.approx(z, abs=1e-15)
            assert zr == pytest.approx(x, abs=1e-15)
            assert yr == pytest.approx(y, abs=1e-15)


def test_phase_flip_weight_properties():
    assert phase_flip_weight(0.5, 0.0) == pytest.approx(0.0, abs=0)
    for p in np.linspace(0, 1, 11):
        for mu in np.linspace(0, 1, 5):
            w = phase_flip_weight(p, mu)
            assert 0.0 <= w <= 1.0
            assert w == pytest.approx(phase_flip_weight(1 - p, mu), abs=1e-15)


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
    return _x_eigensystem(output_density(ChannelSpec(kind, p, mu), theta, phi))


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
    w, _ = _x_eigensystem(output_density(channel, theta, np.pi / 2))
    assert w[2] == pytest.approx(y, abs=1e-14)
    assert w[3] == pytest.approx(y, abs=1e-14)
    d_rho = _output_derivative(channel, theta, np.pi / 2, Param.PHI)
    split = np.linalg.eigvalsh(d_rho[1:3, 1:3])
    np.testing.assert_allclose(split, [-y * np.sin(np.pi / 4), y * np.sin(np.pi / 4)], atol=1e-14)


def test_bitflip_balanced_coefficients():
    x, y, z = flip_coefficients(0.5, 0.0)
    assert (x, y, z) == (pytest.approx(0.25), pytest.approx(0.25), pytest.approx(0.25))
    rho = output_density(ChannelSpec(ChannelKind.BIT_FLIP, 0.5, 0.0), np.pi / 8, np.pi / 6)
    w, v = _x_eigensystem(rho)
    residual = np.max(np.abs(rho @ v - v * w))
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
    assert np.array_equal(v, np.eye(4)[:, [0, 3, 1, 2]])


def test_phaseflip_spectrum_matches_numeric_diagonalization():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        t = float(rng.uniform(0.05, np.pi / 2 - 0.05))
        f = float(rng.uniform(0.05, 2 * np.pi - 0.05))
        p, mu = float(rng.random()), float(rng.random())
        rho = output_density(ChannelSpec(ChannelKind.PHASE_FLIP, p, mu), t, f)
        w, _ = _x_eigensystem(rho)
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
            assert abs(np.trace(_output_derivative(channel, t, f, param))) <= 1e-10


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
                d_rho = _output_derivative(channel, t, f, param)
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
    d_rho = _output_derivative(channel, np.pi / 8, 1.234, Param.PHI)
    assert np.max(np.abs(np.diag(d_rho))) == 0.0
    w0, _ = _x_eigensystem(output_density(channel, np.pi / 8, 1.234))
    w1, _ = _x_eigensystem(output_density(channel, np.pi / 8, 2.5))
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
    # flip p = 1/2, mu in {0, 1}; 4608 evaluations per route
    gaps = []
    grid = itertools.product(
        ALL_KINDS, (0.0, 0.5, 0.75, 1.0), (0.0, 1.0),
        (0.0, np.pi / 4, np.pi / 2), (0.0, np.pi / 2, np.pi),
    )
    for kind, p, mu, theta, phi in grid:
        for offset in (1e-12, 1e-9, 1e-6, 1e-3):
            for d in (offset, -offset):
                channel = ChannelSpec(kind, _nudge(p, d), _nudge(mu, d))
                t, f = theta + d, phi + d
                probe = ProbeSpec(ProbeFamily.PHI_PLUS, t, f)
                for param in Param:
                    f0 = 4.0 if param is Param.THETA else math.sin(2.0 * t) ** 2
                    closed = closed_form_qfi(channel, t, f, param)
                    numeric = qfi_numeric(probe, channel, param)
                    setting = (kind.value, channel.p, channel.mu, t, f, param.value)
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
