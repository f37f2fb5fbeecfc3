import sys

import numpy as np
import pytest

from kpca_ood import linalg
from kpca_ood.baselines import build_knn, knn_score, reg_pca_error
from kpca_ood.detector import (
    DetectorModel,
    choose_q,
    fit,
    reconstruction_errors,
    score_reconstruction,
    score_residual,
)
from kpca_ood.errors import (
    AllZeroSpectrumError,
    DegenerateSpectrumError,
    DimMismatchError,
    MissingResidualBasisError,
    NonFiniteError,
    ZeroVectorError,
)
from kpca_ood.featmap import (
    cosine_rff_spec,
    cosine_spec,
    identity_spec,
    map_apply,
    rff_build,
)
from kpca_ood.kernelspace import fit_kernelspace, gram, score_kernelspace

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


def _spec(kind, d, rng):
    if kind == "identity":
        return identity_spec(d)
    if kind == "cosine":
        return cosine_spec(d)
    m = int(rng.integers(d, 3 * d))
    return cosine_rff_spec(
        rff_build("gaussian", 0.5, m, d, seed=int(rng.integers(0, 2**31)))
    )


class TestNarrowProjection:
    """Models with 2q >= D - q score through the derived complement."""

    def test_complement_present_iff_wider_basis(self):
        # Through U a row costs 2q multiply-adds per feature, through R D - q.
        rng = np.random.default_rng(11)
        seen = set()
        for trial in range(60):
            d = int(rng.integers(2, 12))
            spec = _spec(("identity", "cosine", "rff")[trial % 3], d, rng)
            x = rng.normal(size=(int(rng.integers(d + 2, 60)), d))
            model = fit(x, spec, evr_target=float(rng.uniform(0.2, 1.0)))
            big_d, q = model.basis.shape
            wide = 3 * q >= big_d
            seen.add((wide, 2 * q > big_d))
            if not wide:
                assert model.complement is None
                continue
            r = model.complement
            assert r.shape == (big_d, big_d - q)
            assert r.flags.c_contiguous
            assert np.max(np.abs(r.T @ r - np.eye(big_d - q)), initial=0.0) <= 1e-12
            assert np.max(np.abs(model.basis.T @ r), initial=0.0) <= 1e-12
        # U, R with a file that holds U (D/3 <= q <= D/2), R held as R.
        assert seen == {(False, False), (True, False), (True, True)}

    def test_matches_explicit_projection(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 50:
            d = int(rng.integers(3, 12))
            spec = _spec(("identity", "cosine", "rff")[checked % 3], d, rng)
            x = rng.normal(size=(int(rng.integers(d + 2, 60)), d))
            model = fit(x, spec, evr_target=float(rng.uniform(0.7, 1.0)))
            if model.complement is None:
                continue
            queries = rng.normal(size=(20, d))
            c = map_apply(model.map_spec, queries) - model.mean
            u = model.basis
            want = -np.linalg.norm(u @ (u.T @ c.T) - c.T, axis=0)
            a = score_reconstruction(model, queries)
            assert np.all(np.abs(a - want) <= 1e-9 * (1.0 + np.abs(a)))
            checked += 1

    def test_as_accurate_as_wide_formula_near_subspace(self):
        # Rows with a residual 1e-6 of their norm: rounding in R^T c is
        # amplified by ||c|| / ||residual||, and R must be orthogonal to U
        # well below eps for the narrow path to match the wide one against
        # a long-double evaluation of ||(I - U U^T) c||.
        narrow_err, wide_err = 0.0, 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d = 48
            x = rng.normal(size=(400, d)) * np.linspace(1.0, 2.0, d)
            full = fit(x, identity_spec(d), evr_target=1.0)
            model = DetectorModel(
                full.map_spec, np.zeros(d),
                np.ascontiguousarray(full.basis[:, : d - 1]), None,
                full.eigenvalues, d - 1, 0.99,
            )
            u = model.basis
            r_hat = np.linalg.qr(u, mode="complete")[0][:, -1]
            c = rng.normal(size=(200, d - 1)) @ u.T
            c += 1e-6 * rng.normal(size=(200, 1)) * r_hat
            cl, ul = c.astype(np.longdouble), u.astype(np.longdouble)
            ref = np.sqrt(np.sum((cl - (cl @ ul) @ ul.T) ** 2, axis=1))
            narrow = -score_reconstruction(model, c)
            wide = np.linalg.norm((c @ u) @ u.T - c, axis=1)
            narrow_err = max(narrow_err, float(np.max(np.abs(narrow - ref) / ref)))
            wide_err = max(wide_err, float(np.max(np.abs(wide - ref) / ref)))
        assert narrow_err <= 1.5 * wide_err

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("kind, evr", [
        ("identity", 0.6), ("cosine", 0.6), ("rff", 0.9),
    ])
    def test_u_and_r_within_bound_of_long_double(self, kind, evr):
        # A model with D/3 <= q <= D/2 scores through R. Both orientations
        # are within k * eps * ||c|| (U) and k * eps * (||phi|| + ||mu||)
        # (R, which folds R^T mu in) of the exact error, with
        # k = sqrt(D) + 1 (see reconstruction_errors). Rows near the
        # subspace have residuals about 1e-7 of their norm.
        eps = np.finfo(np.float64).eps
        rng = np.random.default_rng(17)
        d = 24
        spec = {
            "identity": identity_spec(d),
            "cosine": cosine_spec(d),
            "rff": cosine_rff_spec(rff_build("gaussian", 0.3, 4 * d, d, seed=5)),
        }[kind]
        x = rng.normal(size=(900, d)) * np.linspace(1.0, 3.0, d) + 0.5
        train, queries = x[:600], x[600:]
        model = fit(train, spec, evr_target=evr)
        big_d, q = model.basis.shape
        assert 3 * q >= big_d and 2 * q <= big_d
        phi = map_apply(spec, queries)
        u, mu = model.basis, model.mean
        near = mu + ((phi - mu) @ u) @ u.T + 1e-7 * rng.normal(size=phi.shape)
        for y in (phi, near):
            c = y - mu
            cl, ul = c.astype(np.longdouble), u.astype(np.longdouble)
            ref = np.sqrt(np.sum((cl - (cl @ ul) @ ul.T) ** 2, axis=1))
            through_u = linalg._residual_norms(lambda r: r - mu, y, u, True)
            through_r = linalg._residual_norms(
                lambda r: r.copy(), y, model.complement, False, model.complement_mean
            )
            if y is phi:
                assert np.array_equal(-score_reconstruction(model, queries), through_r)
            k = np.sqrt(big_d) + 1.0
            c_norm = np.linalg.norm(c, axis=1)
            phi_mu = np.linalg.norm(y, axis=1) + np.linalg.norm(mu)
            assert np.all(np.abs(through_u - ref) <= k * eps * c_norm)
            assert np.all(np.abs(through_r - ref) <= k * eps * phi_mu)

    @pytest.mark.parametrize("evr", [0.3, 0.99])
    def test_validates_once_per_call(self, monkeypatch, evr):
        rng = np.random.default_rng(13)
        spec = _spec("rff", 6, rng)
        model = fit(rng.normal(size=(40, 6)), spec, evr_target=evr)
        original = linalg.as_feature_matrix
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name == "kpca_ood" or name.startswith("kpca_ood.")) and (
                getattr(module, "as_feature_matrix", None) is original
            ):
                monkeypatch.setattr(module, "as_feature_matrix", counting)
        score_reconstruction(model, rng.normal(size=(1, 6)))
        assert len(calls) == 1

    @pytest.mark.parametrize("evr", [0.3, 0.99])
    def test_bad_queries_still_rejected(self, evr):
        rng = np.random.default_rng(14)
        model = fit(rng.normal(size=(40, 5)), _spec("rff", 5, rng), evr_target=evr)
        ok = rng.normal(size=(4, 5))
        bad = ok.copy()
        bad[2, 1] = np.nan
        with pytest.raises(NonFiniteError):
            score_reconstruction(model, bad)
        with pytest.raises(DimMismatchError):
            score_reconstruction(model, rng.normal(size=(4, 6)))
        zero = ok.copy()
        zero[3] = 0.0
        with pytest.raises(ZeroVectorError) as info:
            score_reconstruction(model, zero)
        assert info.value.row_index == 3


class TestInputsUnchanged:
    """No scorer may write to the caller's query array."""

    @pytest.mark.parametrize("kind", ["identity", "cosine", "rff"])
    @pytest.mark.parametrize("evr", [0.3, 0.99])
    def test_covariance_scorers(self, kind, evr):
        rng = np.random.default_rng(15)
        # Wide enough that evr 0.3 keeps q < D/3, so both orientations run.
        d = 8
        model = fit(rng.normal(size=(50, d)), _spec(kind, d, rng),
                    evr_target=evr, store_residual=True)
        assert (model.complement is not None) == (evr == 0.99)
        queries = np.ascontiguousarray(rng.normal(size=(9, d)))
        before = queries.tobytes()
        calls = [
            lambda q: map_apply(model.map_spec, q),
            lambda q: reconstruction_errors(model, q),
            lambda q: score_reconstruction(model, q),
            lambda q: score_residual(model, q),
        ]
        if kind == "identity":
            calls.append(lambda q: reg_pca_error(model, q))
        for call in calls:
            call(queries)
            assert queries.tobytes() == before

    def test_gram_and_knn_scorers(self):
        rng = np.random.default_rng(16)
        train = rng.normal(size=(30, 5))
        queries = np.ascontiguousarray(rng.normal(size=(7, 5)))
        before = queries.tobytes()
        for kernel, gamma in (("cosine", None), ("gaussian", 0.8)):
            model = fit_kernelspace(train, kernel, gamma=gamma, evr_target=0.8)
            score_kernelspace(model, queries)
            assert queries.tobytes() == before
        knn_score(build_knn(train, k=2), queries)
        assert queries.tobytes() == before

    @pytest.mark.parametrize("blocks", ["one", "many"])
    @pytest.mark.parametrize("kind", ["identity", "cosine", "rff"])
    def test_fit_leaves_training_rows_unchanged(self, monkeypatch, kind, blocks):
        # With the identity map the mapped rows are the caller's own array,
        # so centering a block in place would rewrite the training set.
        if blocks == "many":
            monkeypatch.setattr(linalg, "_BLOCK_BYTES", 0)
            monkeypatch.setattr(linalg, "_MIN_BLOCK_ROWS", 7)
        rng = np.random.default_rng(17)
        d = 6
        train = np.ascontiguousarray(rng.normal(size=(50, d)))
        before = train.tobytes()
        fit(train, _spec(kind, d, rng), evr_target=0.9, store_residual=True)
        assert train.tobytes() == before

    @pytest.mark.parametrize("blocks", ["one", "many"])
    def test_gram_and_knn_builders_leave_training_rows_unchanged(
        self, monkeypatch, blocks
    ):
        if blocks == "many":
            monkeypatch.setattr(linalg, "_BLOCK_BYTES", 0)
            monkeypatch.setattr(linalg, "_MIN_BLOCK_ROWS", 7)
        rng = np.random.default_rng(18)
        train = np.ascontiguousarray(rng.normal(size=(30, 5)))
        before = train.tobytes()
        build_knn(train, k=2)
        assert train.tobytes() == before
        for kernel, gamma in (("cosine", None), ("gaussian", 0.8)):
            gram(kernel, gamma, train)
            assert train.tobytes() == before
            fit_kernelspace(train, kernel, gamma=gamma, evr_target=0.8)
            assert train.tobytes() == before


class TestArgumentErrors:
    def test_choose_q_empty_spectrum(self):
        with pytest.raises(ValueError, match="non-empty 1-D spectrum"):
            choose_q([], 0.9)

    def test_fit_evr_target_zero(self):
        with pytest.raises(ValueError, match=r"evr_target must be in \(0, 1\], got 0.0"):
            fit(FOUR_POINTS, identity_spec(2), evr_target=0.0)
