import numpy as np
import pytest

from kpca_ood.baselines import build_knn, knn_score
from kpca_ood.detector import fit, score_reconstruction
from kpca_ood.errors import (
    DataError,
    DimMismatchError,
    NonFiniteError,
    NonSymmetricError,
)
from kpca_ood.featmap import cosine_spec
from kpca_ood.fileio import save_features
from kpca_ood.linalg import as_feature_matrix, sym_eig


class TestAsFeatureMatrix:
    def test_accepts_plain_lists(self):
        x = as_feature_matrix([[1.0, 2.0], [3.0, 4.0]])
        assert x.dtype == np.float64
        assert x.shape == (2, 2)

    def test_rejects_1d(self):
        with pytest.raises(DimMismatchError):
            as_feature_matrix([1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(DimMismatchError):
            as_feature_matrix(np.empty((0, 3)))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(NonFiniteError):
            as_feature_matrix([[1.0, np.nan]])
        with pytest.raises(NonFiniteError):
            as_feature_matrix([[np.inf, 0.0]])

    def test_float32_upcast(self):
        x = as_feature_matrix(np.ones((2, 2), dtype=np.float32))
        assert x.dtype == np.float64

    def test_width(self):
        assert as_feature_matrix(np.ones((2, 3)), dim=3).shape == (2, 3)
        with pytest.raises(DimMismatchError, match="x must have 4 columns, got 3"):
            as_feature_matrix(np.ones((2, 3)), "x", dim=4)


class TestComplexInputRejected:
    # Zero imaginary parts: a cast to float64 would keep every value, and
    # would still be wrong to make silently.
    ROWS = np.arange(1.0, 9.0).reshape(4, 2) + 0j

    @pytest.fixture(params=["ndarray", "list"])
    def rows(self, request):
        if request.param == "ndarray":
            return self.ROWS
        return [[complex(v) for v in row] for row in self.ROWS]

    def test_gate(self, rows):
        with pytest.raises(DataError, match="^x must be real, got dtype complex128$"):
            as_feature_matrix(rows, "x")

    def test_complex64_named(self):
        with pytest.raises(DataError, match="got dtype complex64$"):
            as_feature_matrix(self.ROWS.astype(np.complex64))

    def test_save_features_writes_no_file(self, rows, tmp_path):
        path = tmp_path / "x.oodf"
        with pytest.raises(DataError, match="^features must be real, got dtype complex128$"):
            save_features(path, rows)
        assert not path.exists()

    def test_fit(self, rows):
        with pytest.raises(DataError, match="must be real, got dtype complex128"):
            fit(rows, cosine_spec(2), evr_target=0.9)

    def test_scorers(self, rows):
        train = self.ROWS.real
        model = fit(train, cosine_spec(2), evr_target=0.9)
        knn = build_knn(train, k=1)
        for call in (lambda: score_reconstruction(model, rows),
                     lambda: knn_score(knn, rows)):
            with pytest.raises(DataError, match="must be real, got dtype complex128"):
                call()


class TestSymEigExamples:
    def test_diagonal_matrix(self):
        r = sym_eig([[2.0, 0.0], [0.0, 1.0]])
        assert np.allclose(r.eigenvalues, [2.0, 1.0])
        # eigenvectors are +-e1, +-e2
        assert np.allclose(np.abs(r.eigenvectors), np.eye(2), atol=1e-12)

    def test_zero_matrix(self):
        r = sym_eig(np.zeros((2, 2)))
        assert np.allclose(r.eigenvalues, [0.0, 0.0])
        assert np.allclose(r.eigenvectors.T @ r.eigenvectors, np.eye(2))

    def test_two_by_two_hand_solved(self):
        # char. poly of [[2,1],[1,2]]: (2-l)^2 - 1 = 0 -> l in {3, 1}
        r = sym_eig([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(r.eigenvalues, [3.0, 1.0], atol=1e-12)

    def test_one_by_one(self):
        r = sym_eig([[5.0]])
        assert r.eigenvalues[0] == 5.0
        assert r.eigenvectors[0, 0] == 1.0


class TestSymEigErrors:
    def test_non_square(self):
        with pytest.raises(NonSymmetricError):
            sym_eig(np.ones((2, 3)))

    def test_asymmetric(self):
        with pytest.raises(NonSymmetricError):
            sym_eig([[1.0, 2.0], [0.0, 1.0]])

    def test_tolerated_asymmetry(self):
        a = np.array([[1.0, 1.0], [1.0 + 1e-10, 1.0]])
        r = sym_eig(a)  # within 1e-9 tolerance
        assert r.eigenvalues.shape == (2,)

    def test_nonfinite(self):
        with pytest.raises(NonFiniteError):
            sym_eig([[np.nan, 0.0], [0.0, 1.0]])


class TestSymEigProperties:
    """Reconstruction/orthogonality/trace invariants over random inputs."""

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 48, 96])
    def test_random_symmetric(self, n):
        rng = np.random.default_rng(n)
        b = rng.normal(size=(n, n))
        a = b + b.T
        r = sym_eig(a)
        v, lam = r.eigenvectors, r.eigenvalues
        assert np.all(np.diff(lam) <= 1e-12)  # non-increasing
        assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-9
        scale = max(1.0, np.max(np.abs(a)))
        assert np.max(np.abs(v @ np.diag(lam) @ v.T - a)) <= 1e-8 * scale
        assert abs(np.trace(a) - lam.sum()) <= 1e-8 * max(1.0, abs(np.trace(a)))

    @pytest.mark.parametrize("n", [3, 9, 40])
    def test_psd_eigenvalue_floor(self, n):
        rng = np.random.default_rng(100 + n)
        b = rng.normal(size=(n + 5, n))
        gram = b.T @ b  # PSD by construction
        r = sym_eig(gram)
        assert np.all(r.eigenvalues >= -1e-8)

    def test_matches_hand_oracle_on_random_3x3(self):
        # Independent oracle: numpy's LAPACK eigensolver.
        rng = np.random.default_rng(7)
        for _ in range(20):
            b = rng.normal(size=(3, 3))
            a = b + b.T
            r = sym_eig(a)
            ref = np.sort(np.linalg.eigvalsh(a))[::-1]
            assert np.max(np.abs(r.eigenvalues - ref)) <= 1e-10

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(12, 12))
        a = b + b.T
        r1 = sym_eig(a)
        r2 = sym_eig(a.copy())
        assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
        assert np.array_equal(r1.eigenvectors, r2.eigenvectors)

    def test_repeated_eigenvalues(self):
        r = sym_eig(np.eye(4) * 3.0)
        assert np.allclose(r.eigenvalues, 3.0)
        assert np.max(np.abs(r.eigenvectors.T @ r.eigenvectors - np.eye(4))) <= 1e-12

    def test_rank_deficient(self):
        u = np.array([[1.0], [2.0], [3.0]])
        a = u @ u.T
        r = sym_eig(a)
        assert abs(r.eigenvalues[0] - 14.0) <= 1e-10
        assert np.all(np.abs(r.eigenvalues[1:]) <= 1e-10)


class TestSymEigLapack:
    """Sign rule, LAPACK oracle at scatter-matrix size, run-to-run identity."""

    @staticmethod
    def _scatter(n, seed):
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(2 * n, n)) * np.linspace(3.0, 0.01, n)
        centered = b - b.mean(axis=0)
        return centered.T @ centered  # PSD with a decaying spectrum

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 96])
    def test_sign_rule_largest_entry_positive(self, n):
        rng = np.random.default_rng(40 + n)
        b = rng.normal(size=(n, n))
        v = sym_eig(b + b.T).eigenvectors
        pivot = v[np.argmax(np.abs(v), axis=0), np.arange(n)]
        assert np.all(pivot > 0.0)

    def test_lapack_oracle_n256(self):
        a = self._scatter(256, 11)
        r = sym_eig(a)
        ref_lam, ref_vec = np.linalg.eigh(a)
        ref_lam, ref_vec = ref_lam[::-1], ref_vec[:, ::-1]
        rel = np.abs(r.eigenvalues - ref_lam) / np.abs(ref_lam).max()
        assert np.max(rel) <= 1e-10
        for q in (1, 16, 128, 200):
            u, w = r.eigenvectors[:, :q], ref_vec[:, :q]
            assert np.max(np.abs(u @ u.T - w @ w.T)) <= 1e-9

    def test_bit_equal_on_copies_n256(self):
        a = self._scatter(256, 12)
        r1 = sym_eig(a.copy())
        r2 = sym_eig(a.copy())
        assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
        assert np.array_equal(r1.eigenvectors, r2.eigenvectors)


def test_sym_eig_empty_matrix():
    r = sym_eig(np.empty((0, 0)))
    assert r.eigenvalues.shape == (0,)
    assert r.eigenvectors.shape == (0, 0)
