import numpy as np
import pytest

from kpca_ood.detector import (
    choose_q,
    fit,
    reconstruction_errors,
    score_reconstruction,
    score_residual,
)
from kpca_ood.errors import (
    AllZeroSpectrumError,
    DegenerateSpectrumError,
    MissingResidualBasisError,
)
from kpca_ood.featmap import cosine_rff_spec, cosine_spec, identity_spec, rff_build

FOUR_POINTS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.1], [0.0, -0.1]])


class TestChooseQ:
    def test_dominant_first_component(self):
        # cumulative ratio 2/2.02 = 0.990 >= 0.9 at the first component
        assert choose_q([2.0, 0.02], 0.9) == 1

    def test_target_one_keeps_positive_components(self):
        assert choose_q([3.0, 1.0, 0.0, 0.0], 1.0) == 2
        assert choose_q([5.0], 1.0) == 1

    def test_exact_boundary_inclusive(self):
        assert choose_q([1.0, 1.0], 0.5) == 1

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroSpectrumError):
            choose_q([0.0, 0.0], 0.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            choose_q([1.0, 2.0], 0.9)  # increasing
        with pytest.raises(ValueError):
            choose_q([1.0, -0.5], 0.9)  # negative
        with pytest.raises(ValueError):
            choose_q([1.0], 0.0)  # target out of range

    def test_q_within_spectrum_over_random_spectra(self):
        # The last cumulative ratio can round to just below 1.0; q must
        # still stay within the spectrum and, at a target of 1.0, equal the
        # count of positive eigenvalues. Some spectra get an exact-zero or
        # a tiny tail so that the count is not always the full size.
        rng = np.random.default_rng(2024)
        for trial in range(2000):
            lam = np.sort(rng.exponential(size=8))[::-1]
            if trial % 3 == 1:
                lam[-rng.integers(1, 8):] = 0.0
            elif trial % 3 == 2:
                lam[-1] = 1e-30
            positive = int(np.count_nonzero(lam))
            for target in (0.5, 0.9, 0.99, 1.0 - 2.0**-53, 1.0):
                q = choose_q(lam, target)
                assert 1 <= q <= lam.size
                assert q <= positive
            assert choose_q(lam, 1.0) == positive


class TestFitFourPointOracle:
    """Hand-worked example: scatter = diag(2, 0.02)."""

    def test_model_artifacts(self):
        model = fit(FOUR_POINTS, identity_spec(2), evr_target=0.9)
        assert np.allclose(model.mean, [0.0, 0.0], atol=1e-15)
        assert np.allclose(model.eigenvalues, [2.0, 0.02], atol=1e-12)
        assert model.q == 1
        assert np.allclose(np.abs(model.basis[:, 0]), [1.0, 0.0], atol=1e-9)

    def test_query_score(self):
        model = fit(FOUR_POINTS, identity_spec(2), evr_target=0.9)
        s = score_reconstruction(model, [[3.0, 4.0]])
        assert abs(s[0] + 4.0) <= 1e-9  # residual along the second axis

    def test_residual_path_matches(self):
        model = fit(FOUR_POINTS, identity_spec(2), evr_target=0.9, store_residual=True)
        s = score_residual(model, [[3.0, 4.0]])
        assert abs(s[0] + 4.0) <= 1e-9

    def test_query_at_mean_scores_zero(self):
        model = fit(FOUR_POINTS, identity_spec(2), evr_target=0.9)
        s = score_reconstruction(model, [[0.0, 0.0]])
        assert s[0] == 0.0


class TestFitEdgeCases:
    def test_identical_rows_degenerate(self):
        with pytest.raises(DegenerateSpectrumError):
            fit(np.ones((4, 3)), identity_spec(3))

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            fit([[1.0, 2.0]], identity_spec(2))

    def test_full_rank_reconstructs_span(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10, 4))
        model = fit(x, identity_spec(4), evr_target=1.0)
        # points in the affine span of the training data reconstruct exactly
        mu = x.mean(axis=0)
        queries = mu + np.array([0.3, -1.2, 0.0, 0.4]) @ (x[:4] - mu)
        e = reconstruction_errors(model, queries[None, :])
        assert e[0] <= 1e-8

    def test_training_errors_tiny_at_full_rank(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 5))
        model = fit(x, identity_spec(5), evr_target=1.0)
        assert np.max(reconstruction_errors(model, x)) <= 1e-8

    def test_missing_residual_basis(self):
        model = fit(FOUR_POINTS, identity_spec(2))
        with pytest.raises(MissingResidualBasisError):
            score_residual(model, [[1.0, 1.0]])

    def test_residual_empty_when_q_full(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(12, 3))
        model = fit(x, identity_spec(3), evr_target=1.0, store_residual=True)
        assert model.q == 3
        assert model.residual_basis.shape == (3, 0)
        s = score_residual(model, x)
        assert np.all(s == 0.0)


def _random_model(rng, store_residual=True):
    d = int(rng.integers(3, 10))
    n = int(rng.integers(d + 2, 40))
    x = rng.normal(size=(n, d))
    kind = rng.choice(["identity", "cosine", "rff"])
    if kind == "identity":
        spec = identity_spec(d)
    elif kind == "cosine":
        spec = cosine_spec(d)
    else:
        m = int(rng.integers(4, 24))
        spec = cosine_rff_spec(
            rff_build("gaussian", 0.5, m, d, seed=int(rng.integers(0, 2**31)))
        )
    evr = float(rng.uniform(0.3, 1.0))
    return fit(x, spec, evr_target=evr, store_residual=store_residual), x, rng


class TestProperties:
    def test_residual_identity_random_models(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            model, x, rng = _random_model(rng)
            q = rng.normal(size=(15, x.shape[1]))
            a = score_reconstruction(model, q)
            b = score_residual(model, q)
            assert np.all(np.abs(a - b) <= 1e-9 * (1.0 + np.abs(a)))

    def test_projection_idempotence(self):
        rng = np.random.default_rng(3)
        model, x, rng = _random_model(rng)
        proj = model.basis @ model.basis.T
        assert np.max(np.abs(proj @ proj - proj)) <= 1e-10

    def test_pythagoras(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            model, x, rng = _random_model(rng)
            from kpca_ood.featmap import map_apply

            q = rng.normal(size=(8, x.shape[1]))
            phi = map_apply(model.map_spec, q)
            d = phi - model.mean
            e = reconstruction_errors(model, q)
            lhs = np.sum(d * d, axis=1)
            rhs = np.sum((d @ model.basis) ** 2, axis=1) + e * e
            assert np.all(np.abs(lhs - rhs) <= 1e-8 * (1.0 + np.abs(lhs)))

    def test_cosine_path_scale_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 6))
        model = fit(x, cosine_spec(6), evr_target=0.9)
        q = rng.normal(size=(10, 6))
        s1 = score_reconstruction(model, q)
        s2 = score_reconstruction(model, 7.3 * q)
        assert np.max(np.abs(s1 - s2)) <= 1e-12

    def test_error_monotone_nonincreasing_in_q(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(25, 6))
        model = fit(x, identity_spec(6), evr_target=1.0, store_residual=True)
        full_v = np.hstack([model.basis, model.residual_basis])
        query = rng.normal(size=(5, 6))
        d = query - model.mean
        prev = None
        for k in range(1, 7):
            vk = full_v[:, :k]
            e = np.linalg.norm(d - (d @ vk) @ vk.T, axis=1)
            if prev is not None:
                assert np.all(e <= prev + 1e-12)
            prev = e

    def test_deterministic_fit(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(20, 4))
        m1 = fit(x, cosine_spec(4), evr_target=0.8)
        m2 = fit(x, cosine_spec(4), evr_target=0.8)
        assert np.array_equal(m1.basis, m2.basis)
        assert np.array_equal(m1.eigenvalues, m2.eigenvalues)
