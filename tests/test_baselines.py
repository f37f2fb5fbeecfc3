import numpy as np
import pytest

from kpca_ood.baselines import (
    KnnScorer,
    as_logits_matrix,
    build_knn,
    energy_score,
    fuse,
    knn_score,
    msp_score,
    reg_pca_error,
)
from kpca_ood.detector import fit
from kpca_ood.errors import (
    DimMismatchError,
    KTooLargeError,
    LengthMismatchError,
    NonFiniteError,
    ZeroVectorError,
)
from kpca_ood.featmap import cosine_spec, identity_spec, normalize_rows

TRAIN = np.array([[1.0, 0.0], [0.0, 1.0]])


class TestKnn:
    def test_hand_distance(self):
        scorer = build_knn(TRAIN, k=1)
        s = knn_score(scorer, [[0.6, 0.8]])
        assert abs(s[0] + np.sqrt(0.4)) <= 1e-12

    def test_training_row_scores_zero(self):
        scorer = build_knn(TRAIN, k=1)
        s = knn_score(scorer, [[1.0, 0.0]])
        assert s[0] == 0.0

    def test_k_equals_n_takes_largest(self):
        scorer = build_knn(TRAIN, k=2)
        s = knn_score(scorer, [[0.6, 0.8]])
        assert abs(s[0] + np.sqrt(0.8)) <= 1e-12

    def test_k_too_large(self):
        with pytest.raises(KTooLargeError):
            build_knn(TRAIN, k=3)

    def test_scores_never_positive(self):
        rng = np.random.default_rng(0)
        scorer = build_knn(rng.normal(size=(50, 6)), k=3)
        s = knn_score(scorer, rng.normal(size=(40, 6)))
        assert np.all(s <= 0.0)

    def test_exchangeable_under_training_permutation(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 4))
        q = rng.normal(size=(10, 4))
        s1 = knn_score(build_knn(x, k=2), q)
        s2 = knn_score(build_knn(x[rng.permutation(30)], k=2), q)
        assert np.max(np.abs(s1 - s2)) <= 1e-12

    def test_scale_invariant_queries(self):
        scorer = build_knn(TRAIN, k=1)
        a = knn_score(scorer, [[0.6, 0.8]])
        b = knn_score(scorer, [[6.0, 8.0]])
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_zero_query_rejected(self):
        scorer = build_knn(TRAIN, k=1)
        with pytest.raises(ZeroVectorError):
            knn_score(scorer, [[0.0, 0.0]])

    def test_dim_mismatch(self):
        scorer = build_knn(TRAIN, k=1)
        with pytest.raises(DimMismatchError):
            knn_score(scorer, [[1.0, 0.0, 0.0]])

    @pytest.mark.parametrize("d", [16, 64])
    @pytest.mark.parametrize("c", [1, 5, 13, 33, 100])
    def test_narrow_remainder_keeps_whole_train_bits(self, d, c):
        # 4096 + c stored rows make two full 2048-row tiles and a remainder
        # of c; each query lies about 1e-3 from one of the last c rows, so
        # its nearest similarities come from that remainder. A GEMM kernel
        # that rounds a narrow tail differently would move them, were the
        # remainder a tile of its own. On a CPU whose GEMM kernel does not
        # change at a narrow tail, this passes with such a tile too.
        rng = np.random.default_rng(1000 * d + c)
        knn = build_knn(rng.normal(size=(4096 + c, d)), k=1)
        stored = knn.train_normalized
        queries = (stored[-c:][rng.integers(0, c, size=256)]
                   + 1e-3 * rng.normal(size=(256, d)))
        sims = np.sort(normalize_rows(queries) @ stored.T, axis=1)
        for k in (1, 2):
            knn.k = k
            oracle = -np.sqrt(np.clip(2.0 - 2.0 * sims[:, -k], 0.0, None))
            assert np.array_equal(knn_score(knn, queries), oracle)


class TestMsp:
    def test_uniform_logits(self):
        assert abs(msp_score([[0.0, 0.0]])[0] - 0.5) <= 1e-15

    def test_saturated_logits_no_overflow(self):
        s = msp_score([[1000.0, 0.0]])
        assert abs(s[0] - 1.0) <= 1e-12

    def test_three_class_value(self):
        # e^3/(e^1+e^2+e^3) = 1/(1+e^-1+e^-2)
        want = 1.0 / (1.0 + np.exp(-1.0) + np.exp(-2.0))
        s = msp_score([[1.0, 2.0, 3.0]])
        assert abs(s[0] - want) <= 1e-15

    def test_range(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(100, 7)) * 10
        s = msp_score(logits)
        assert np.all(s >= 1.0 / 7 - 1e-12)
        assert np.all(s <= 1.0 + 1e-12)

    def test_exact_shift_invariance_on_dyadic_grid(self):
        # logits on a 2^-18 grid: adding a grid constant is exact in
        # binary floating point, so invariance must hold bitwise
        rng = np.random.default_rng(3)
        logits = rng.integers(-(2**20), 2**20, size=(50, 5)) / 2.0**18
        c = 1.5
        assert np.array_equal(msp_score(logits), msp_score(logits + c))

    def test_single_class_rejected(self):
        # One logit per row would make every MSP exactly 1.
        with pytest.raises(DimMismatchError, match=r"logits need >= 2 classes, got 1"):
            msp_score([[1.0], [2.0]])


class TestEnergy:
    def test_two_zeros(self):
        assert abs(energy_score([[0.0, 0.0]])[0] - np.log(2.0)) <= 1e-15

    def test_single_class_identity(self):
        assert energy_score([[5.0]])[0] == 5.0

    def test_huge_logits_finite(self):
        s = energy_score([[1000.0, 1000.0]])
        assert np.isfinite(s[0])
        assert abs(s[0] - (1000.0 + np.log(2.0))) <= 1e-12

    def test_shift_property(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(40, 6))
        c = 3.7
        assert np.max(np.abs(energy_score(logits + c) - (energy_score(logits) + c))) <= 1e-10

    def test_logits_matrix_validation(self):
        with pytest.raises(DimMismatchError):
            as_logits_matrix([[1.0]])


class TestRegError:
    FOUR_POINTS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.1], [0.0, -0.1]])

    def test_hand_value(self):
        model = fit(self.FOUR_POINTS, identity_spec(2), evr_target=0.9)
        e = reg_pca_error(model, [[3.0, 4.0]])
        assert abs(e[0] - 0.8) <= 1e-9  # e=4 over norm 5

    def test_zero_in_subspace(self):
        model = fit(self.FOUR_POINTS, identity_spec(2), evr_target=0.9)
        e = reg_pca_error(model, [[2.0, 0.0]])
        assert e[0] <= 1e-12

    def test_scale_invariance_with_zero_mean(self):
        model = fit(self.FOUR_POINTS, identity_spec(2), evr_target=0.9)
        a = reg_pca_error(model, [[3.0, 4.0]])
        b = reg_pca_error(model, [[30.0, 40.0]])
        assert abs(a[0] - b[0]) <= 1e-12

    def test_zero_row_rejected(self):
        model = fit(self.FOUR_POINTS, identity_spec(2), evr_target=0.9)
        with pytest.raises(ZeroVectorError):
            reg_pca_error(model, [[0.0, 0.0]])

    def test_requires_identity_map(self):
        model = fit(self.FOUR_POINTS, cosine_spec(2), evr_target=0.9)
        with pytest.raises(ValueError):
            reg_pca_error(model, [[1.0, 1.0]])

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 5))
        model = fit(x, identity_spec(5), evr_target=0.7)
        assert np.all(reg_pca_error(model, rng.normal(size=(20, 5))) >= 0.0)


class TestFuse:
    def test_hand_value(self):
        out = fuse([0.8], [np.log(2.0)])
        assert abs(out[0] - 0.2 * np.log(2.0)) <= 1e-15

    def test_zero_error_identity(self):
        base = np.array([1.5, -2.0, 0.25])
        assert np.array_equal(fuse(np.zeros(3), base), base)

    def test_unit_error_annihilates(self):
        out = fuse(np.ones(3), [5.0, -1.0, 100.0])
        assert np.all(out == 0.0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            fuse([0.1, 0.2], [1.0])


class TestArgumentErrors:
    def test_build_knn_k_zero(self):
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            build_knn(TRAIN, k=0)

    def test_knn_score_k_above_stored_rows(self):
        scorer = KnnScorer(train_normalized=np.eye(3), k=5)
        with pytest.raises(KTooLargeError, match="k=5 exceeds 3 stored rows"):
            knn_score(scorer, [[1.0, 0.0, 0.0]])

    def test_fuse_non_finite(self):
        with pytest.raises(NonFiniteError, match="NaN or Inf"):
            fuse([np.nan], [1.0])
