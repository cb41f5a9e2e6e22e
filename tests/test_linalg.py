import numpy as np
import pytest

from corrqfi.linalg import MAX_DIM, eigh, pauli

SEED = 20250810


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m + m.conj().T


def test_pauli_identity():
    np.testing.assert_array_equal(pauli(0), np.eye(2))


def test_pauli_z():
    np.testing.assert_array_equal(pauli(3), np.diag([1.0, -1.0]))


def test_pauli_y():
    np.testing.assert_array_equal(pauli(2), np.array([[0, -1j], [1j, 0]]))


def test_pauli_x_hermitian_unitary():
    for k in range(4):
        s = pauli(k)
        np.testing.assert_array_equal(s, s.conj().T)
        np.testing.assert_allclose(s @ s, np.eye(2), atol=0)


@pytest.mark.parametrize("bad", [-1, 4, 10])
def test_pauli_out_of_range(bad):
    with pytest.raises(ValueError):
        pauli(bad)


def test_pauli_returns_copy():
    s = pauli(1)
    s[0, 0] = 99.0
    np.testing.assert_array_equal(pauli(1), np.array([[0, 1], [1, 0]]))


def test_eigh_sigma_z():
    w, _ = eigh(pauli(3))
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)


def test_eigh_sigma_x_vectors():
    w, v = eigh(pauli(1))
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    assert abs(np.vdot(minus, v[:, 0])) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(plus, v[:, 1])) == pytest.approx(1.0, abs=1e-12)


def test_eigh_balanced_block():
    # 2x2 coherence block of a pure balanced superposition
    w, _ = eigh(np.array([[0.5, 0.5], [0.5, 0.5]]))
    np.testing.assert_allclose(w, [0.0, 1.0], atol=1e-14)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigh_rejects_non_square():
    with pytest.raises(ValueError):
        eigh(np.zeros((2, 3)))


def test_eigh_rejects_nan():
    with pytest.raises(ValueError):
        eigh(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_eigh_rejects_oversize():
    with pytest.raises(ValueError, match="exceeds the 64 capacity"):
        eigh(np.eye(MAX_DIM + 1))


def test_eigh_zero_matrix():
    w, v = eigh(np.zeros((4, 4)))
    np.testing.assert_array_equal(w, np.zeros(4))
    np.testing.assert_array_equal(v, np.eye(4))


def test_eigh_random_reconstruction():
    # 1000 random Hermitian matrices, dims 4..32
    rng = np.random.default_rng(SEED)
    dims = rng.integers(4, 33, size=1000)
    for n in dims:
        h = random_hermitian(rng, int(n))
        scale = np.max(np.abs(h))
        w, v = eigh(h)
        assert np.all(np.diff(w) >= 0.0)
        recon = np.max(np.abs(v @ np.diag(w) @ v.conj().T - h))
        assert recon <= 1e-9 * scale
        orth = np.max(np.abs(v.conj().T @ v - np.eye(int(n))))
        assert orth <= 1e-10


def test_round_robin_schedule_covers_every_pair_once():
    from corrqfi.linalg import _round_robin_pairs

    for n in (2, 3, 4, 5, 8, 9, 16):
        rounds = _round_robin_pairs(n)
        seen = [pair for pairs in rounds for pair in pairs]
        assert len(seen) == len(set(seen)) == n * (n - 1) // 2
        for pairs in rounds:
            touched = [i for pair in pairs for i in pair]
            assert len(touched) == len(set(touched))
        # Built once per dimension and immutable, so sharing it is safe.
        assert _round_robin_pairs(n) is rounds
        assert isinstance(rounds, tuple) and all(isinstance(p, tuple) for p in rounds)


def test_eigh_trace_matches_eigenvalue_sum():
    rng = np.random.default_rng(SEED + 1)
    for n in (4, 8, 16, 32):
        h = random_hermitian(rng, n)
        w, _ = eigh(h)
        trace = np.trace(h).real
        assert abs(w.sum() - trace) <= 1e-10 * max(1.0, abs(trace))


def _mixed_stack(rng, n):
    """Dense, X-shaped, diagonal, zero, rank-2 and near-degenerate matrices."""
    dense = random_hermitian(rng, n)
    x = np.zeros((n, n), dtype=complex)
    i = np.arange(n)
    x[i, i] = rng.normal(size=n)
    x[i, n - 1 - i] += rng.normal(size=n) + 1j * rng.normal(size=n)
    x = x + x.conj().T
    diagonal = np.diag(rng.normal(size=n)).astype(complex)
    u = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    near = q @ np.diag(1.0 + 1e-13 * rng.normal(size=n)) @ q.conj().T
    return np.stack([dense, x, diagonal, np.zeros((n, n)), u @ u.conj().T,
                     0.5 * (near + near.conj().T)])


def test_eigh_stack_equals_one_matrix_eigh_bit_for_bit():
    # every matrix of a mixed stack gets the bits it gets alone, although
    # the stack's matrices leave the sweeps at different times
    from corrqfi.linalg import _eigh_stack

    rng = np.random.default_rng(SEED + 2)
    for n in (1, 2, 3, 4, 7, 16, 33, 64):
        stack = _mixed_stack(rng, n)
        w, v = _eigh_stack(stack)
        for k, h in enumerate(stack):
            one = eigh(h)
            assert w[k].tobytes() == one.eigenvalues.tobytes(), (n, k)
            assert v[k].tobytes() == one.eigenvectors.tobytes(), (n, k)


def test_eigh_stack_matrices_converge_after_different_sweep_counts(monkeypatch):
    import corrqfi.linalg
    from corrqfi.linalg import JacobiConvergenceError, _eigh_stack

    rng = np.random.default_rng(SEED + 3)
    dense, x, diagonal, zero = _mixed_stack(rng, 8)[:4]
    monkeypatch.setattr(corrqfi.linalg, "MAX_SWEEPS", 1)
    for h in (x, diagonal, zero):  # converged after at most one sweep
        eigh(h)
    with pytest.raises(JacobiConvergenceError, match=r"no convergence after 1 sweeps \(n=8\)"):
        eigh(dense)
    with pytest.raises(JacobiConvergenceError, match=r"no convergence after 1 sweeps \(n=8\)"):
        _eigh_stack(np.stack([x, dense, diagonal]))
