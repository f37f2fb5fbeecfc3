import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kpca_ood import featmap
from kpca_ood.detector import fit, score_reconstruction
from kpca_ood.errors import (
    DimMismatchError,
    InvalidBandwidthError,
    InvalidSpecError,
    NonFiniteError,
    ZeroVectorError,
)
from kpca_ood.featmap import (
    FeatureMapSpec,
    RffMap,
    cosine_rff_spec,
    cosine_spec,
    identity_spec,
    map_apply,
    median_heuristic_gamma,
    normalize_rows,
    rff_build,
    row_norms,
)
from kpca_ood.fileio import load_model, method_for_model, save_model


def cosine_row(z):
    """The cosine map of one vector, through the batch map."""
    return map_apply(cosine_spec(len(z)), [z])[0]


def cosine_rff_row(rff, z):
    """The cosine and Fourier map of one vector, through the batch map."""
    return map_apply(cosine_rff_spec(rff), [z])[0]


def per_row_oracle(rff, z):
    """The map of one vector written out with libm cos, apart from map_apply."""
    v = np.asarray(z) / np.linalg.norm(z)
    return np.sqrt(2.0 / rff.n_features) * np.cos(rff.omegas @ v + rff.biases)


class TestCosine:
    def test_three_four_five(self):
        assert np.allclose(cosine_row([3.0, 4.0]), [0.6, 0.8], atol=1e-15)

    def test_unit_vector_fixed_point(self):
        e1 = np.array([1.0, 0.0, 0.0])
        assert np.allclose(cosine_row(e1), e1, atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError) as e:
            cosine_row([0.0, 0.0])
        assert e.value.row_index == 0
        assert str(e.value) == "features row 0 has zero norm"

    def test_output_unit_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.normal(size=7) * 10.0 ** rng.integers(-6, 6)
            assert abs(np.linalg.norm(cosine_row(z)) - 1.0) <= 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=5)
        for c in [1e-8, 0.5, 3.0, 1e9]:
            assert np.max(np.abs(cosine_row(c * z) - cosine_row(z))) <= 1e-12

    def test_normalize_rows_reports_row_index(self):
        x = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ZeroVectorError) as e:
            normalize_rows(x)
        assert e.value.row_index == 1


# SHA-256 of rff_build's omegas and biases: the draws are bit-pinned per
# kernel, seed and shape, so a change to how they are drawn shows here.
RFF_DIGESTS = [
    ("gaussian", 0.7, 256, 64, 11,
     "d64345ead8c0ae7e43c2d9ecfb17535d28bf0d58736c08ff81a6325cc5678a8f",
     "b58b30fa251083ab487fe3325561aa94c5bca1f32cb9f61130cf47226f099269"),
    ("gaussian", 2.0, 64, 5, 2**64 - 1,
     "9fb595c08f7c17a66ba8283dc2e910be0b5dbcd1621ef39241de6b3303b76e6a",
     "1f3aa68c0d980e1245972dd8c484cccc4c0c53c2a81716c301429bf7dd928114"),
    ("laplacian", 0.7, 256, 64, 11,
     "76710812ea82ebae2e5f6d06319ac2803f3a9c00afe8892d2849dec3f71d0aa6",
     "d76088f34cf3346954f141d2324701b56167ce3d58f6913c6ea78c43749ddd6d"),
    ("laplacian", 1.3, 64, 5, 2**64 - 1,
     "9c817fb6fafa3cfa98dabe96e5827940db3c3431cb7c13d67f58da66edb8d2fb",
     "4f2aa8ed4fd0dd57baa7d9332d437eab2d4c63784143ea84c015b06c5e8a9f06"),
]


class TestRffBuild:
    @pytest.mark.parametrize("kind,gamma,m,d_in,seed,omegas_sha,biases_sha", RFF_DIGESTS)
    def test_draw_digests(self, kind, gamma, m, d_in, seed, omegas_sha, biases_sha):
        rff = rff_build(kind, gamma, m, d_in, seed)
        assert rff.omegas.dtype == rff.biases.dtype == np.float64
        assert rff.omegas.flags.c_contiguous and rff.biases.flags.c_contiguous
        assert hashlib.sha256(rff.omegas.tobytes()).hexdigest() == omegas_sha
        assert hashlib.sha256(rff.biases.tobytes()).hexdigest() == biases_sha

    def test_gaussian_frequency_variance(self):
        # Per-coordinate omega ~ N(0, sigma^2) with sigma^2 = 2*gamma: the mean
        # of 1e5 draws lies within 4*sigma/sqrt(1e5) of 0, their spread near sigma.
        sigma = 3.0
        omegas = rff_build("gaussian", sigma**2 / 2, 1000, 100, seed=8).omegas
        assert omegas.shape == (1000, 100)
        assert abs(omegas.mean()) <= 4 * sigma / np.sqrt(omegas.size)
        assert abs(omegas.std() - sigma) <= 0.05

    def test_laplacian_frequency_quartiles(self):
        # Cauchy(0, gamma) has no mean; its median is 0 and its quartiles sit
        # at -gamma and +gamma.
        gamma = 0.8
        omegas = rff_build("laplacian", gamma, 2000, 100, seed=12).omegas
        q1, median, q3 = np.quantile(omegas, [0.25, 0.5, 0.75])
        assert abs(median) <= 0.05 * gamma
        assert abs(q1 + gamma) <= 0.05 * gamma
        assert abs(q3 - gamma) <= 0.05 * gamma

    def test_biases_range(self):
        # Phases are uniform on [0, 2*pi).
        biases = rff_build("gaussian", 1.0, 100_000, 1, seed=9).biases
        assert biases.min() >= 0.0
        assert biases.max() < 2 * np.pi
        assert abs(biases.mean() - np.pi) <= 0.05

    def test_same_seed_bit_identical(self):
        for kind in ("gaussian", "laplacian"):
            a = rff_build(kind, 2.0, 64, 5, seed=11)
            b = rff_build(kind, 2.0, 64, 5, seed=11)
            assert np.array_equal(a.omegas, b.omegas)
            assert np.array_equal(a.biases, b.biases)

    def test_invalid_args(self):
        for kind in ("gaussian", "laplacian"):
            for m, d_in in ((0, 4), (4, 0)):
                with pytest.raises(InvalidSpecError, match="need m >= 1 and d_in >= 1"):
                    rff_build(kind, 1.0, m, d_in, seed=0)
            # gamma is the scale of both frequency laws: an empty or
            # unbounded one is refused.
            for gamma in (0.0, -1.0, np.inf, np.nan):
                with pytest.raises(InvalidBandwidthError):
                    rff_build(kind, gamma, 8, 4, seed=0)
        with pytest.raises(InvalidSpecError, match="unknown kernel kind 'triangular'"):
            rff_build("triangular", 1.0, 8, 4, seed=0)


class TestRffApply:
    def test_self_inner_product_near_one(self):
        rff = rff_build("gaussian", 0.5, 4096, 8, seed=2)
        rng = np.random.default_rng(5)
        for _ in range(10):
            z = cosine_row(rng.normal(size=8))
            phi = cosine_rff_row(rff, z)
            assert abs(phi @ phi - 1.0) <= 0.05

    def test_pair_inner_product_matches_closed_form(self):
        gamma = 0.5
        rff = rff_build("gaussian", gamma, 4096, 8, seed=4)
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = cosine_row(rng.normal(size=8))
            b = cosine_row(rng.normal(size=8))
            want = np.exp(-gamma * np.sum((a - b) ** 2))
            got = cosine_rff_row(rff, a) @ cosine_rff_row(rff, b)
            assert abs(got - want) <= 0.05

    def test_single_feature_magnitude(self):
        rff = rff_build("gaussian", 1.0, 1, 3, seed=1)
        phi = cosine_rff_row(rff, [1.0, 2.0, 3.0])
        assert phi.shape == (1,)
        assert abs(phi[0]) <= np.sqrt(2.0)

    def test_per_feature_bound(self):
        rff = rff_build("laplacian", 2.0, 33, 4, seed=9)
        rng = np.random.default_rng(10)
        for _ in range(20):
            phi = cosine_rff_row(rff, rng.normal(size=4) * 100)
            assert np.max(np.abs(phi)) <= np.sqrt(2.0 / 33) + 1e-15

    def test_dim_mismatch(self):
        rff = rff_build("gaussian", 1.0, 8, 4, seed=0)
        with pytest.raises(DimMismatchError):
            cosine_rff_row(rff, [1.0, 2.0])

    @pytest.mark.parametrize("kind,m", [("gaussian", 1024), ("laplacian", 1024)])
    def test_kernel_approximation_bound(self, kind, m):
        # |<phi(a),phi(b)> - k(a,b)| <= 3/sqrt(M) for at least 99% of pairs
        gamma = 0.5
        d = 8
        rff = rff_build(kind, gamma, m, d, seed=13)
        rng = np.random.default_rng(14)
        a = rng.normal(size=(1000, d))
        b = rng.normal(size=(1000, d))
        a /= np.linalg.norm(a, axis=1)[:, None]
        b /= np.linalg.norm(b, axis=1)[:, None]
        pa = np.sqrt(2.0 / m) * np.cos(a @ rff.omegas.T + rff.biases)
        pb = np.sqrt(2.0 / m) * np.cos(b @ rff.omegas.T + rff.biases)
        approx = np.sum(pa * pb, axis=1)
        if kind == "gaussian":
            exact = np.exp(-gamma * np.sum((a - b) ** 2, axis=1))
        else:
            exact = np.exp(-gamma * np.sum(np.abs(a - b), axis=1))
        violations = np.mean(np.abs(approx - exact) > 3.0 / np.sqrt(m))
        assert violations <= 0.01


class TestSpecAndBatch:
    def test_cosine_spec_applies(self):
        out = map_apply(cosine_spec(2), [[3.0, 4.0]])
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_identity_passthrough(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = map_apply(identity_spec(2), x)
        assert np.array_equal(out, x)

    def test_scalar_multiples_collapse_through_cosine_rff(self):
        rff = rff_build("gaussian", 1.0, 32, 3, seed=5)
        spec = cosine_rff_spec(rff)
        z = np.array([0.3, -1.2, 0.7])
        out = map_apply(spec, np.vstack([z, 2.5 * z]))
        assert np.max(np.abs(out[0] - out[1])) <= 1e-12

    def test_batch_equals_per_row(self):
        rff = rff_build("gaussian", 0.8, 16, 4, seed=6)
        spec = cosine_rff_spec(rff)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(9, 4))
        batch = map_apply(spec, x)
        for i in range(9):
            row = per_row_oracle(rff, x[i])
            assert np.max(np.abs(batch[i] - row)) <= 1e-12

    def test_output_dims_chain(self):
        rff = rff_build("gaussian", 1.0, 20, 6, seed=0)
        spec = cosine_rff_spec(rff)
        assert spec.input_dim == 6
        assert spec.output_dim == 20

    def test_inconsistent_chain_rejected(self):
        rff = rff_build("gaussian", 1.0, 20, 6, seed=0)
        with pytest.raises(InvalidSpecError):
            FeatureMapSpec("cosine", 5, rff)

    def test_wrong_input_dim_rejected(self):
        with pytest.raises(DimMismatchError):
            map_apply(cosine_spec(3), [[1.0, 2.0]])

    def test_zero_row_error_carries_index(self):
        spec = cosine_spec(2)
        with pytest.raises(ZeroVectorError) as e:
            map_apply(spec, [[1.0, 1.0], [0.0, 0.0]])
        assert e.value.row_index == 1

    def test_zero_row_costs_one_norm_pass(self, monkeypatch):
        calls, row_norms_of = [], featmap._row_norms

        def counted(x):
            calls.append(x.shape)
            return row_norms_of(x)

        monkeypatch.setattr(featmap, "_row_norms", counted)
        x = np.array([[3.0, 4.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ZeroVectorError, match="row 2 has zero norm") as e:
            normalize_rows(x)
        assert e.value.row_index == 2
        assert calls == [(4, 2)]

    def test_row_norms_finds_every_zero_row(self):
        x = np.array([[3.0, 4.0], [0.0, 0.0], [-0.0, 1e-300], [1e-20, 0.0]])
        norms, zero = row_norms(x)
        assert np.array_equal(norms, np.linalg.norm(x, axis=1))
        assert zero.tolist() == [1, 2]

    def test_row_norms_gates_its_input_as_normalize_rows_does(self):
        # Tiny float32 rows are not zero once in float64, as normalize_rows
        # sees them; int64 squares do not wrap; a list is converted.
        tiny = np.full((3, 4), 1e-25, dtype=np.float32)
        assert row_norms(tiny)[1].size == 0
        normalize_rows(tiny)
        big = np.array([[3_037_000_500, 3_037_000_500]], dtype=np.int64)
        assert np.isclose(row_norms(big)[0][0], 3_037_000_500 * np.sqrt(2.0), rtol=1e-15)
        norms, zero = row_norms([[3.0, 4.0], [0.0, 0.0]])
        assert norms.tolist() == [5.0, 0.0] and zero.tolist() == [1]
        with pytest.raises(NonFiniteError):
            row_norms(np.array([[1.0, 2.0], [np.nan, 0.0]]))


class TestMedianHeuristic:
    def test_two_points_exact(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])  # distance 5
        gamma = median_heuristic_gamma(x)
        assert abs(gamma - 1.0 / 50.0) <= 1e-15

    def test_identical_rows_rejected(self):
        with pytest.raises(InvalidBandwidthError):
            median_heuristic_gamma(np.ones((5, 3)))

    @pytest.mark.parametrize("d", [3, 32])
    def test_identical_unit_rows_rejected(self, d):
        # np.sum and the GEMM may round x.x differently, and then the squared
        # distance of two copies of a row is a few ulps, not zero.
        rng = np.random.default_rng(d)
        for _ in range(40):
            row = normalize_rows(rng.normal(size=(1, d)))
            with pytest.raises(InvalidBandwidthError, match="distance is zero"):
                median_heuristic_gamma(np.repeat(row, 50, axis=0))

    @pytest.mark.parametrize("rows", [
        [[1e200, 0.0], [2e200, 0.0], [1.0, 1.0], [3.0, 1.0]],
        # Finite squared norms whose sum sq_i + sq_j overflows.
        [[1e154, 0.0], [-1e154, 0.0], [1.0, 1.0]],
    ])
    def test_overflowing_squared_norms_rejected(self, rows):
        x = np.array(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidBandwidthError, match="overflow"):
                median_heuristic_gamma(x)

    def test_subsample_deterministic(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5000, 4))
        assert median_heuristic_gamma(x) == median_heuristic_gamma(x)

    @pytest.mark.parametrize("sizes", ["small", "past-subsample"])
    def test_bits_match_masked_np_median_reference(self, sizes):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        limit = featmap.MEDIAN_HEURISTIC_ROWS
        # Row counts 2..40 give odd and even pair counts; past the limit the
        # strided subsample is taken.
        n_rows, examples = {
            "small": (st.integers(2, 40), 80),
            "past-subsample": (st.integers(limit + 1, limit + 3), 6),
        }[sizes]

        @hypothesis.settings(max_examples=examples, deadline=None,
                             derandomize=True, database=None)
        @hypothesis.given(n=n_rows, d=st.integers(1, 6),
                          kind=st.sampled_from(["plain", "ties", "more ties",
                                                "zero median"]),
                          seed=st.integers(0, 2**32 - 1))
        def check(n, d, kind, seed):
            x = np.random.default_rng(seed).normal(size=(n, d))
            if kind in ("ties", "more ties"):  # rounded rows: tied distances
                x = np.round(x, 1 if kind == "ties" else 0)
            if kind == "zero median":
                # Small integers make every distance exact, and c equal rows
                # put more than half of the pairs at distance zero.
                x = np.round(4.0 * x)
                m = min(n, limit)
                c = next(c for c in range(m + 1) if c * (c - 1) // 2 > m * (m - 1) // 4)
                x[np.linspace(0, n - 1, m).astype(np.intp)[:c]] = x[0]
            expected = _gamma_or_error(_median_gamma_reference, x)
            assert _gamma_or_error(median_heuristic_gamma, x) == expected
            assert (expected[0] is InvalidBandwidthError) == (kind == "zero median")

        check()

    def test_bits_match_reference_at_block_edges(self, monkeypatch):
        # Block sizes set so that the last block is a single row (n - 2 rows
        # a block), or one block holds every row with no row to spare; the
        # outer sum is made 1 to 3 rows at a time.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None,
                             derandomize=True, database=None)
        @hypothesis.given(n=st.integers(3, 40), d=st.integers(1, 6),
                          spare=st.sampled_from([1, 0]), part=st.integers(1, 3),
                          ties=st.booleans(), seed=st.integers(0, 2**32 - 1))
        def check(n, d, spare, part, ties, seed):
            rows = n - 1 - spare
            monkeypatch.setattr(featmap, "_BLOCK_BYTES", 8 * n * rows)
            monkeypatch.setattr(featmap, "_OUTER_SUM_BYTES", 8 * n * part)
            x = np.random.default_rng(seed).normal(size=(n, d))
            if ties:
                x = np.round(x, 0)
            expected = _gamma_or_error(_median_gamma_reference, x)
            assert _gamma_or_error(median_heuristic_gamma, x) == expected

        check()


def _gamma_or_error(heuristic, x):
    try:
        return float, heuristic(x).hex()
    except InvalidBandwidthError as exc:
        return InvalidBandwidthError, str(exc)


def _median_gamma_reference(x) -> float:
    """median_heuristic_gamma before its single-kth selection: every pair of
    a block taken through a triangle mask, clipped and rooted, and np.median."""
    x = featmap.as_feature_matrix(x)
    n = x.shape[0]
    if n > featmap.MEDIAN_HEURISTIC_ROWS:
        idx = np.linspace(0, n - 1, featmap.MEDIAN_HEURISTIC_ROWS).astype(np.intp)
        x = x[idx]
        n = featmap.MEDIAN_HEURISTIC_ROWS
    if n < 2:
        raise InvalidBandwidthError("need at least 2 rows for the median heuristic")
    sq = np.sum(x * x, axis=1)
    dist = np.empty(n * (n - 1) // 2)
    rows, done = max(1, featmap._BLOCK_BYTES // (8 * n)), 0
    for a in range(0, n - 1, rows):
        b = min(a + rows, n - 1)
        d2 = sq[a:b, None] + sq[None, a + 1 :] - 2.0 * (x[a:b] @ x[a + 1 :].T)
        upper = d2[np.triu(np.ones(d2.shape, dtype=bool))]
        dist[done : done + upper.size] = upper
        done += upper.size
    np.clip(dist, 0.0, None, out=dist)
    np.sqrt(dist, out=dist)
    med = float(np.median(dist, overwrite_input=True))
    if med < featmap.ZERO_NORM_FLOOR:
        raise InvalidBandwidthError(
            "median pairwise distance is zero; cannot derive a bandwidth"
        )
    return 1.0 / (2.0 * med * med)


_D = 4
_RFF = rff_build("gaussian", 0.9, 12, _D, seed=4)

# The (stage, rff) of three layouts no method uses, then of pca, cop and corp.
LAYOUTS = {
    "identity-rff": (("identity", _RFF), None),
    "rff": ((_RFF, None), None),
    "sine": (("sine", None), None),
    "pca": (("identity", None), "pca"),
    "cop": (("cosine", None), "cop"),
    "corp": (("cosine", _RFF), "corp"),
}


class TestMapLayouts:
    @pytest.mark.parametrize("name", LAYOUTS)
    def test_only_method_layouts_build(self, tmp_path, name):
        (stage, rff), tag = LAYOUTS[name]
        if tag is None:
            with pytest.raises(InvalidSpecError) as info:
                FeatureMapSpec(stage, _D, rff)
            # An RffMap is named by its type; its arrays are not printed.
            assert "array" not in str(info.value)
            assert ("RffMap" in str(info.value)) == (_RFF in (stage, rff))
            return
        rng = np.random.default_rng(6)
        model = fit(rng.normal(size=(40, _D)), FeatureMapSpec(stage, _D, rff))
        path = tmp_path / "m.oodm"
        save_model(path, model)
        back = load_model(path)
        assert method_for_model(back) == tag
        queries = rng.normal(size=(9, _D))
        assert np.array_equal(
            score_reconstruction(back, queries), score_reconstruction(model, queries)
        )

    def test_rff_stage_of_unknown_kernel_rejected(self):
        rff = RffMap("cauchy", 1.0, _RFF.omegas, _RFF.biases, seed=4)
        with pytest.raises(InvalidSpecError, match="unknown kernel kind"):
            cosine_rff_spec(rff)


# Sizes around the table cosine's edges: below and at its size threshold,
# around one chunk and just past two.
_MIN = featmap._TABLE_MIN_SIZE
_CHUNK = featmap._TABLE_CHUNK
_SPLIT_SIZES = [1, _MIN - 1, _MIN, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]


def _scaled_cos(t, m):
    return featmap._scaled_cos(np.array(t, dtype=np.float64), m)


def _np_scaled_cos(t, m):
    return np.cos(t) * np.sqrt(2.0 / m)


class TestTableCosine:
    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("half_width", [4.0, 1e4, 0.999e5])
    def test_error_against_long_double(self, half_width):
        # M = 2 makes the scale 1, so this is the error of the cosine itself.
        t = np.random.default_rng(21).uniform(-half_width, half_width, 400_000)
        got = _scaled_cos(t, 2)
        ref = np.cos(t.astype(np.longdouble))
        assert float(np.max(np.abs(got - ref))) <= 1.5e-16
        assert float(np.max(np.abs(got - np.cos(t)))) <= 2.3e-16

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52,
                        reason="long double is no wider than double here")
    def test_error_at_reduction_edges(self):
        # t at (n +- 1/2) * STEP, where rint(t / STEP) may land on either
        # side and |r| is largest, for small n and for n near the range
        # guard, and t just below 1e5; both signs. M = 2 makes the scale 1.
        step = 2 * np.pi / featmap._TABLE_SIZE
        n = np.concatenate([np.arange(0, 2000), np.arange(65_100_000, 65_102_000)])
        half = (n + 0.5) * step
        guard = np.nextafter(featmap._TABLE_MAX_ARG, 0.0)
        below = guard - 0.37 * np.arange(2000)
        t = np.concatenate([half, np.nextafter(half, 0.0), np.nextafter(half, np.inf),
                            below])
        t = np.concatenate([t, -t])
        t = t[np.abs(t) < featmap._TABLE_MAX_ARG]
        assert t.size >= 2 * 14_000
        got = _scaled_cos(t, 2)
        ref = np.cos(t.astype(np.longdouble))
        assert float(np.max(np.abs(got - ref))) <= 1.5e-16

    @pytest.mark.parametrize("m", [2, 100, 256])
    def test_within_two_ulps_of_scaled_np_cos(self, m):
        # The table folds sqrt(2/m) in; scaled values are below sqrt(2/m).
        t = np.random.default_rng(22).uniform(-20.0, 20.0, 3 * _CHUNK)
        diff = np.max(np.abs(_scaled_cos(t, m) - _np_scaled_cos(t, m)))
        assert diff <= 2 * np.spacing(np.sqrt(2.0 / m))

    @pytest.mark.parametrize("size", _SPLIT_SIZES)
    def test_results_do_not_depend_on_chunk_split(self, size):
        t = np.random.default_rng(23).uniform(-30.0, 30.0, 2 * _CHUNK + 50)
        whole = _scaled_cos(t, 64)
        for offset in (0, 7, 49):
            got = _scaled_cos(t[offset : offset + size], 64)
            if size < _MIN:
                assert np.array_equal(got, _np_scaled_cos(t[offset : offset + size], 64))
            else:
                assert np.array_equal(got, whole[offset : offset + size])

    def test_out_of_range_chunk_is_np_cos(self):
        t = np.random.default_rng(24).uniform(-30.0, 30.0, 3 * _CHUNK)
        t[_CHUNK + 5] = 2.0e5  # only the middle chunk holds one
        got = _scaled_cos(t, 128)
        middle = slice(_CHUNK, 2 * _CHUNK)
        assert np.array_equal(got[middle], _np_scaled_cos(t[middle], 128))
        table = _scaled_cos(np.delete(t, _CHUNK + 5), 128)
        assert np.array_equal(got[:_CHUNK], table[:_CHUNK])
        assert np.array_equal(got[2 * _CHUNK :], table[2 * _CHUNK - 1 :])

    def test_large_cauchy_frequencies_take_np_cos(self):
        # colp with a large gamma: some |t| exceed 1e5 in every chunk.
        rff = rff_build("laplacian", 2e4, 512, 8, seed=3)
        x = np.random.default_rng(25).normal(size=(96, 8))
        xn = normalize_rows(x)
        t = xn @ rff.omegas.T + rff.biases
        chunks = np.abs(t).reshape(-1, _CHUNK)
        assert np.all(chunks.max(axis=1) >= featmap._TABLE_MAX_ARG)
        out = map_apply(cosine_rff_spec(rff), x)
        assert np.array_equal(out, _np_scaled_cos(t, 512))

    def test_importing_builds_no_table(self):
        src = str(Path(featmap.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import kpca_ood; f = kpca_ood.featmap; "
            "print(f._cos_tables.cache_info().currsize)"
        )
        out = subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=path)).stdout
        assert out.split() == ["0"]


class TestArgumentErrors:
    def test_spec_input_dim_zero(self):
        with pytest.raises(InvalidSpecError, match="input_dim must be >= 1, got 0"):
            FeatureMapSpec("identity", 0)

    def test_median_heuristic_one_row(self):
        with pytest.raises(InvalidBandwidthError, match="at least 2 rows"):
            median_heuristic_gamma(np.ones((1, 3)))
