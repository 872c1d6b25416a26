import numpy as np
import pytest

from oscnet import (InvalidInputError, complex_eig, nullspace_basis,
                    spectral_norm, sym_eig)

from conftest import assert_multiset_close, charpoly_roots, random_orthogonal


def edge_laplacian(w):
    w = np.atleast_2d(np.asarray(w, float))
    return np.block([[w, -w], [-w, w]])


class TestSymEig:
    def test_identity(self):
        w, q = sym_eig(np.eye(3))
        assert np.allclose(w, 1.0)
        assert np.allclose(q.T @ q, np.eye(3), atol=1e-12)

    def test_2x2_analytic(self):
        w, _ = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_random_reconstruction(self, rng):
        a = rng.standard_normal((8, 8))
        a = a + a.T
        w, q = sym_eig(a)
        resid = np.linalg.norm(a @ q - q @ np.diag(w))
        assert resid <= 1e-10 * max(np.linalg.norm(a), 1.0)
        assert np.all(np.diff(w) >= 0)

    def test_orthogonality(self, rng):
        for _ in range(5):
            a = rng.standard_normal((12, 12))
            a = a + a.T
            _, q = sym_eig(a)
            assert np.linalg.norm(q.T @ q - np.eye(12)) <= 1e-10

    def test_zero_matrix(self):
        w, q = sym_eig(np.zeros((4, 4)))
        assert np.all(w == 0.0)
        assert np.allclose(q.T @ q, np.eye(4))

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInputError):
            sym_eig(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nan(self):
        a = np.eye(3)
        a[0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            sym_eig(a)


class TestComplexEig:
    def test_diagonal(self):
        vals = complex_eig(np.diag([1j, 2 + 1j]))
        assert np.allclose(vals, [1j, 2 + 1j], atol=1e-14)

    def test_two_oscillator_criterion_matrix(self):
        # damper of weight 1 between two units with squared frequency 4
        gam = edge_laplacian(1.0) + 4j * np.eye(2)
        assert_multiset_close(complex_eig(gam), [4j, 2 + 4j], 1e-12)

    def test_random_vs_charpoly_oracle(self, rng):
        for _ in range(10):
            a = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
            scale = max(np.linalg.norm(a), 1.0)
            assert_multiset_close(complex_eig(a), charpoly_roots(a), 1e-6 * scale)

    def test_real_symmetric_matches_sym_eig(self, rng):
        a = rng.standard_normal((9, 9))
        a = a + a.T
        w, _ = sym_eig(a)
        assert_multiset_close(complex_eig(a), w.astype(complex),
                              1e-8 * max(np.linalg.norm(a), 1.0))

    def test_psd_pair_stays_right_of_axis(self, rng):
        # real parts of eigenvalues of X + jY are nonnegative for PSD X, Y
        for _ in range(30):
            n = int(rng.integers(1, 13))
            f = rng.standard_normal((n, n))
            g = rng.standard_normal((n, n))
            x = f @ f.T
            y = g @ g.T
            vals = complex_eig(x + 1j * y)
            assert vals.real.min() >= -1e-8 * np.linalg.norm(x + 1j * y)

    def test_defective_block(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        assert_multiset_close(complex_eig(a), [0.0, 0.0], 1e-12)

    def test_sorted_by_real_then_imag(self, rng):
        vals = complex_eig(rng.standard_normal((8, 8)))
        key = np.lexsort((vals.imag, vals.real))
        assert np.array_equal(key, np.arange(8))

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInputError):
            complex_eig(np.zeros((3, 2)))


class TestNullspace:
    def test_edge_laplacian_kernel(self):
        basis = nullspace_basis(edge_laplacian(1.0))
        assert basis.shape == (2, 1)
        v = basis[:, 0]
        assert abs(abs(v @ np.full(2, np.sqrt(0.5))) - 1.0) < 1e-12

    def test_zero_matrix_full_space(self):
        basis = nullspace_basis(np.zeros((5, 5)))
        assert basis.shape == (5, 5)

    def test_dimension_matches_zero_eigen_count(self, rng):
        # 3-node path with matrix weights; nullity = count of tiny eigenvalues
        from oscnet import build_laplacian
        w12 = rng.standard_normal((2, 2))
        w12 = w12 @ w12.T
        w23 = rng.standard_normal((2, 1))
        w23 = w23 @ w23.T
        lap = build_laplacian([(1, 2, w12), (2, 3, w23)], 3, 2)
        basis = nullspace_basis(lap)
        vals, _ = sym_eig(lap)
        expected = int(np.count_nonzero(vals <= 1e-9 * vals[-1]))
        assert basis.shape == (6, expected)
        assert np.linalg.norm(lap @ basis) <= 1e-8 * max(vals[-1], 1.0)

    def test_nullity_plus_rank_is_ambient(self, rng):
        q = random_orthogonal(rng, 6)
        vals = np.array([0.0, 0.0, 0.0, 1.3, 2.2, 5.0])
        a = q @ np.diag(vals) @ q.T
        basis = nullspace_basis(0.5 * (a + a.T))
        assert basis.shape == (6, 3)

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidInputError):
            nullspace_basis(np.diag([1.0, -1.0]))


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_edge_laplacian(self):
        assert spectral_norm(edge_laplacian(1.0)) == pytest.approx(2.0, abs=1e-12)

    def test_random_vs_svd_oracle(self, rng):
        for _ in range(5):
            a = rng.standard_normal((6, 6))
            ref = np.linalg.svd(a, compute_uv=False)[0]
            assert spectral_norm(a) == pytest.approx(ref, rel=1e-10)

    def test_rectangular(self, rng):
        a = rng.standard_normal((3, 7))
        ref = np.linalg.svd(a, compute_uv=False)[0]
        assert spectral_norm(a) == pytest.approx(ref, rel=1e-10)

    def test_psd_matches_largest_eigenvalue(self, rng):
        f = rng.standard_normal((5, 5))
        a = f @ f.T
        vals, _ = sym_eig(a)
        assert spectral_norm(a) == pytest.approx(vals[-1], rel=1e-10)

    def test_complex_matches_real_embedding(self, rng):
        # [[X, -Y], [Y, X]] has the singular values of X + jY, each doubled
        x = rng.standard_normal((5, 5))
        y = rng.standard_normal((5, 5))
        embed = np.block([[x, -y], [y, x]])
        ref = np.linalg.svd(embed, compute_uv=False)[0]
        assert spectral_norm(x + 1j * y) == pytest.approx(ref, rel=1e-10)
