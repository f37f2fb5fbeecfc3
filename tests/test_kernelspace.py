import tracemalloc

import numpy as np
import pytest

from kpca_ood import kernelspace
from kpca_ood.detector import fit as fit_detector
from kpca_ood.errors import (
    DimMismatchError,
    InvalidBandwidthError,
    InvalidSpecError,
    ZeroVectorError,
)
from kpca_ood.featmap import cosine_spec, normalize_rows
from kpca_ood.kernelspace import (
    fit_kernelspace,
    gram,
    score_kernelspace,
)
from kpca_ood.linalg import sym_eig

THREE_POINTS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])


class TestGram:
    def test_cosine_orthogonal_rows(self):
        k = gram("cosine", None, [[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(k, np.eye(2), atol=1e-15)

    def test_duplicated_row_entry_one(self):
        k = gram("cosine", None, [[2.0, 0.0], [4.0, 0.0], [0.0, 1.0]])
        assert abs(k[0, 1] - 1.0) <= 1e-12
        assert abs(k[1, 0] - 1.0) <= 1e-12

    def test_gaussian_diagonal_ones(self):
        rng = np.random.default_rng(0)
        k = gram("gaussian", 3.7, rng.normal(size=(6, 4)))
        assert np.array_equal(np.diag(k), np.ones(6))

    def test_gaussian_needs_gamma(self):
        with pytest.raises(InvalidBandwidthError):
            gram("gaussian", None, [[1.0, 0.0]])
        with pytest.raises(InvalidBandwidthError):
            gram("gaussian", -1.0, [[1.0, 0.0]])
        with pytest.raises(InvalidBandwidthError):
            gram("gaussian", np.inf, [[1.0, 0.0]])
        with pytest.raises(InvalidBandwidthError):
            fit_kernelspace(THREE_POINTS, "gaussian", gamma=np.inf)

    def test_unknown_kernel(self):
        with pytest.raises(InvalidSpecError):
            gram("polynomial", None, [[1.0, 0.0]])

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroVectorError):
            gram("cosine", None, [[1.0, 0.0], [0.0, 0.0]])

    def test_gram_psd(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 5))
        for kind, g in [("cosine", None), ("gaussian", 0.8)]:
            lam = sym_eig(gram(kind, g, x)).eigenvalues
            assert np.all(lam >= -1e-8)

    def test_scale_invariance_of_normalization(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(8, 3))
        k1 = gram("cosine", None, x)
        k2 = gram("cosine", None, 5.0 * x)
        assert np.max(np.abs(k1 - k2)) <= 1e-12

    @pytest.mark.parametrize("kind, g", [("cosine", None), ("gaussian", 0.8)])
    @pytest.mark.parametrize("n, d", [(1, 3), (2, 1), (7, 40), (65, 16), (300, 9)])
    def test_exactly_symmetric(self, kind, g, n, d):
        x = np.random.default_rng(n * d).normal(size=(n, d))
        k = gram(kind, g, x)
        assert np.array_equal(k, k.T)

    def test_traced_peak_is_one_gram_matrix(self):
        n, d = 1000, 8
        x = np.random.default_rng(3).normal(size=(n, d))
        tracemalloc.start()
        try:
            k = gram("gaussian", 0.8, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert k.shape == (n, n)
        assert peak <= 1.25 * n * n * 8, peak / (n * n * 8)


class TestKernelClamp:
    @pytest.mark.parametrize("gamma", [0.26, 2.0, 7.5])
    def test_bits_of_the_clip_expression(self, gamma):
        # Inner products at and past +-1 (where 2 - 2 a.b rounds to 0 or
        # below it), tiny ones and random ones; np.maximum must give
        # np.clip's bits.
        special = np.array([1.0, -1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53, 0.0, -0.0,
                            1e-300, -1e-300, 1.0 + 2.0**-50, -1.0 - 2.0**-52])
        dots = np.concatenate([special,
                               np.random.default_rng(5).uniform(-1.1, 1.1, 20000)])
        expected = np.exp(-gamma * np.clip(2.0 - 2.0 * dots, 0.0, None))
        got = kernelspace._kernel("gaussian", gamma, dots.copy())
        assert got.tobytes() == expected.tobytes()


class TestThreePointOracle:
    """Unit-circle points at 0, 90, 180 degrees; K worked by brute force."""

    def test_gram_matrix_exact(self):
        k = gram("cosine", None, THREE_POINTS)
        want = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        assert np.allclose(k, want, atol=1e-15)

    def test_trailing_vector_matches_brute_force(self):
        # oracle: LAPACK eigendecomposition of the hand-built 3x3
        k = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        lam_o, vec_o = np.linalg.eigh(k)  # ascending
        model = fit_kernelspace(THREE_POINTS, "cosine", evr_target=0.8)
        assert model.l == 1
        a = model.residual_vectors[:, 0]
        oracle = vec_o[:, 0]  # eigenvalue 0
        assert min(
            np.max(np.abs(a - oracle)), np.max(np.abs(a + oracle))
        ) <= 1e-9

    def test_training_point_score_matches_oracle(self):
        model = fit_kernelspace(THREE_POINTS, "cosine", evr_target=0.8)
        k = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        lam_o, vec_o = np.linalg.eigh(k)
        a_o = vec_o[:, :1]
        for i in range(3):
            want = -np.linalg.norm(a_o.T @ k[:, i])
            got = score_kernelspace(model, THREE_POINTS[i : i + 1])
            assert abs(got[0] - want) <= 1e-9


class TestFit:
    def test_duplicated_rows_fit_succeeds(self):
        x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.3, 0.9]])
        model = fit_kernelspace(x, "cosine", evr_target=0.9)
        assert model.l >= 1

    def test_residual_clamped_to_one(self):
        # orthogonal rows give a flat spectrum; a target close to 1 then
        # wants q = N, forcing the clamp
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.warns(UserWarning):
            model = fit_kernelspace(x, "cosine", evr_target=0.999999)
        assert model.l == 1

    def test_evr_target_open_interval(self):
        with pytest.raises(ValueError):
            fit_kernelspace(THREE_POINTS, "cosine", evr_target=1.0)

    def test_columns_orthonormal(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(25, 4))
        model = fit_kernelspace(x, "gaussian", gamma=0.5, evr_target=0.7)
        # Here 2q < l, so the model holds the q = N - l leading vectors.
        assert model.residual_vectors is None
        v = model.leading_vectors
        assert np.max(np.abs(v.T @ v - np.eye(25 - model.l))) <= 1e-9

    @pytest.mark.parametrize("kernel, gamma, evr", [
        ("cosine", None, 0.5), ("cosine", None, 0.99),
        ("gaussian", 0.5, 0.7), ("gaussian", 4.0, 0.95), ("gaussian", 4.0, 0.5),
    ])
    def test_holds_the_narrower_basis(self, kernel, gamma, evr):
        x = np.random.default_rng(8).normal(size=(40, 5))
        model = fit_kernelspace(x, kernel, gamma=gamma, evr_target=evr)
        n, l = 40, model.l
        eig = sym_eig(gram(kernel, gamma, x))
        if 2 * (n - l) < l:
            assert model.residual_vectors is None
            assert np.array_equal(model.leading_vectors, eig.eigenvectors[:, : n - l])
        else:
            assert model.leading_vectors is None
            assert np.array_equal(model.residual_vectors, eig.eigenvectors[:, n - l :])


class TestScore:
    def test_duplicate_queries_identical_scores(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(15, 3))
        model = fit_kernelspace(x, "gaussian", gamma=1.0, evr_target=0.8)
        q = rng.normal(size=(1, 3))
        s = score_kernelspace(model, np.vstack([q, q]))
        assert s[0] == s[1]

    def test_full_residual_recovers_kernel_vector_norm(self):
        # with every eigenvector kept, the projection preserves the norm
        rng = np.random.default_rng(5)
        x = rng.normal(size=(10, 3))
        model = fit_kernelspace(x, "cosine", evr_target=0.5)
        full = sym_eig(gram("cosine", None, x)).eigenvectors
        model.residual_vectors = full
        model.l = 10
        q = rng.normal(size=(4, 3))
        qn = q / np.linalg.norm(q, axis=1)[:, None]
        kq = qn @ model.train.T
        want = -np.linalg.norm(kq, axis=1)
        got = score_kernelspace(model, q)
        assert np.max(np.abs(got - want)) <= 1e-9

    def test_permuting_training_rows_preserves_scores(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(18, 4))
        q = rng.normal(size=(7, 4))
        m1 = fit_kernelspace(x, "gaussian", gamma=0.7, evr_target=0.8)
        perm = rng.permutation(18)
        m2 = fit_kernelspace(x[perm], "gaussian", gamma=0.7, evr_target=0.8)
        s1 = score_kernelspace(m1, q)
        s2 = score_kernelspace(m2, q)
        assert np.max(np.abs(s1 - s2)) <= 1e-9

    def test_dim_mismatch(self):
        model = fit_kernelspace(THREE_POINTS, "cosine", evr_target=0.8)
        with pytest.raises(DimMismatchError):
            score_kernelspace(model, [[1.0, 2.0, 3.0]])


class TestLeadingVectors:
    """||A^T k|| through the trailing vectors equals ||k - V V^T k|| through
    the leading ones: [V A] is an orthonormal eigenbasis."""

    @pytest.mark.parametrize("kernel, gamma, n, d", [
        ("cosine", None, 60, 6), ("gaussian", 2.0, 200, 16), ("gaussian", 0.3, 120, 8),
    ])
    def test_same_scores_through_either_basis(self, kernel, gamma, n, d):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(n, d))
        model = fit_kernelspace(x, kernel, gamma=gamma, evr_target=0.9)
        eig = sym_eig(gram(kernel, gamma, x))
        l = model.l
        v = np.ascontiguousarray(eig.eigenvectors[:, : n - l])
        a = np.ascontiguousarray(eig.eigenvectors[:, n - l :])
        q = rng.normal(size=(300, d))
        through_a = score_kernelspace(
            kernelspace.KernelSpaceModel(kernel, model.gamma, model.train, a, l, 0.9), q
        )
        through_v = score_kernelspace(
            kernelspace.KernelSpaceModel(kernel, model.gamma, model.train, None, l, 0.9,
                                         leading_vectors=v), q
        )
        rel = np.max(np.abs(through_a - through_v) / np.abs(through_a))
        assert rel <= 1e-12, rel

    def test_query_rows_unchanged(self):
        rng = np.random.default_rng(10)
        model = fit_kernelspace(rng.normal(size=(30, 4)), "cosine", evr_target=0.8)
        assert model.leading_vectors is not None
        q = rng.normal(size=(5, 4))
        before = q.tobytes()
        score_kernelspace(model, q)
        assert q.tobytes() == before


class TestSpectralCorrespondence:
    """Non-zero eigenvalues of the doubly-centered Gram equal those of the
    unnormalized scatter of the normalized rows (classic duality)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_centered_gram_matches_scatter_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(20, 60)), int(rng.integers(3, 8))
        x = rng.normal(size=(n, m))

        model = fit_detector(x, cosine_spec(m), evr_target=1.0)
        lam_cov = model.eigenvalues

        k = gram("cosine", None, x)
        h = np.eye(n) - np.ones((n, n)) / n
        hkh = h @ k @ h
        hkh = 0.5 * (hkh + hkh.T)
        lam_gram = np.clip(sym_eig(hkh).eigenvalues, 0.0, None)

        top = max(lam_cov.max(), lam_gram.max())
        nz_cov = lam_cov[lam_cov > 1e-10 * top]
        nz_gram = lam_gram[: nz_cov.size]
        assert np.all(np.abs(nz_cov - nz_gram) <= 1e-7 * np.maximum(nz_cov, 1e-30))
        # and the Gram side has no extra non-negligible eigenvalues
        if nz_cov.size < lam_gram.size:
            assert lam_gram[nz_cov.size] <= 1e-7 * top


class TestFitGram:
    @pytest.mark.parametrize("kernel, gamma", [("cosine", None), ("gaussian", 0.7)])
    def test_eigensolver_gets_the_gram_of_the_stored_rows(self, monkeypatch,
                                                        kernel, gamma):
        x = np.random.default_rng(7).normal(size=(200, 16))
        seen = []

        def spy(matrix):
            seen.append(matrix.copy())
            return sym_eig(matrix)

        monkeypatch.setattr(kernelspace, "sym_eig", spy)
        model = fit_kernelspace(x, kernel, gamma=gamma, evr_target=0.9)
        assert len(seen) == 1
        assert np.array_equal(seen[0], gram(kernel, gamma, x))
        assert np.array_equal(model.train, normalize_rows(x))
