"""Row-blocked fit and batch scoring: block invariance and bounded memory."""

import gc
import tracemalloc

import numpy as np
import pytest

from kpca_ood import linalg
from kpca_ood.baselines import build_knn, knn_score, reg_pca_error
from kpca_ood.detector import fit, score_reconstruction, score_residual
from kpca_ood.errors import DimMismatchError, NonFiniteError, ZeroVectorError
from kpca_ood.featmap import (
    cosine_rff_spec,
    cosine_spec,
    identity_spec,
    rff_build,
    row_norms,
)
from kpca_ood.kernelspace import fit_kernelspace, score_kernelspace

# With the patched constants every path runs 7-row blocks, so the N_ROWS-row
# inputs below span three blocks and the last one is ragged (7, 7, 6).
BLOCK = 7
N_ROWS = 20
# A row of the third block.
ZERO_ROW = 16


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(linalg, "_BLOCK_BYTES", 0)
    monkeypatch.setattr(linalg, "_MIN_BLOCK_ROWS", BLOCK)


def _spec(kind, d):
    if kind == "identity":
        return identity_spec(d)
    if kind == "cosine":
        return cosine_spec(d)
    return cosine_rff_spec(rff_build("gaussian", 0.5, 3 * d, d, seed=23))


def _batch_calls(d, n_train=30):
    """Every batch entry point, each as a function of its input rows alone."""
    rng = np.random.default_rng(36)
    model = fit(rng.normal(size=(n_train, d)), _spec("rff", d))
    pca = fit(rng.normal(size=(n_train, d)), _spec("identity", d))
    gram_model = fit_kernelspace(rng.normal(size=(n_train, d)), "gaussian",
                                 gamma=0.8, evr_target=0.8)
    knn = build_knn(rng.normal(size=(n_train, d)), k=2)
    return {
        "fit": lambda x: fit(x, _spec("rff", d)),
        "score_reconstruction": lambda x: score_reconstruction(model, x),
        "reg_pca_error": lambda x: reg_pca_error(pca, x),
        "knn_score": lambda x: knn_score(knn, x),
        "score_kernelspace": lambda x: score_kernelspace(gram_model, x),
    }


BATCH_CALLS = ["fit", "score_reconstruction", "reg_pca_error", "knn_score",
               "score_kernelspace"]


def _rel(a, b):
    scale = np.maximum(np.abs(a), np.abs(b))
    return float(np.max(np.abs(a - b) / np.where(scale > 0, scale, 1.0)))


class TestRowBlocks:
    def test_one_block_passes_the_input_whole(self):
        x = np.ones((5, 3))
        out = np.zeros(5)
        seen = []

        def fn(rows):
            seen.append(rows)
            return out

        assert linalg._row_blocks(fn, x, 3) is out
        assert len(seen) == 1 and seen[0] is x

    def test_blocks_in_order_with_a_ragged_tail(self, small_blocks):
        x = np.arange(2.0 * N_ROWS).reshape(N_ROWS, 2)
        sizes = []

        def fn(rows):
            sizes.append(rows.shape[0])
            return rows[:, 0] * 2.0

        assert np.array_equal(linalg._row_blocks(fn, x, 2), x[:, 0] * 2.0)
        assert sizes == [7, 7, 6]
        total = linalg._row_blocks(
            lambda rows: rows.sum(), x, 2, fold=lambda acc, part: acc + part
        )
        assert total == x.sum()

    def test_block_rows_follow_the_width(self):
        sizes = []

        def fn(rows):
            sizes.append(rows.shape[0])
            return rows[:, 0]

        rows = linalg._BLOCK_BYTES // (8 * 1000)
        linalg._row_blocks(fn, np.zeros((rows + 1, 1)), 1000)
        assert sizes == [rows, 1]
        sizes.clear()
        # A very wide temporary still gets the minimum block height.
        linalg._row_blocks(fn, np.zeros((65, 1)), 10**9)
        assert sizes == [linalg._MIN_BLOCK_ROWS, 1]


class TestBlockInvariance:
    @pytest.mark.parametrize("kind", ["identity", "cosine", "rff"])
    @pytest.mark.parametrize("evr", [0.3, 0.99])
    def test_covariance_scores_match_one_block(self, monkeypatch, kind, evr):
        rng = np.random.default_rng(31)
        d = 6
        model = fit(rng.normal(size=(60, d)), _spec(kind, d), evr_target=evr,
                    store_residual=True)
        assert (model.complement is not None) == (evr == 0.99)
        queries = rng.normal(size=(N_ROWS, d))
        whole = score_reconstruction(model, queries)
        residual = score_residual(model, queries)
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", 0)
        monkeypatch.setattr(linalg, "_MIN_BLOCK_ROWS", BLOCK)
        assert _rel(score_reconstruction(model, queries), whole) <= 1e-12
        assert _rel(score_residual(model, queries), residual) <= 1e-12

    @pytest.mark.parametrize("kind", ["identity", "cosine", "rff"])
    @pytest.mark.parametrize("evr", [0.5, 0.9, 1.0])
    def test_fit_spectrum_matches_one_block(self, monkeypatch, kind, evr):
        rng = np.random.default_rng(32)
        d = 6
        # Offset rows: a large common mean is what the merged update must
        # not cancel against.
        train = rng.normal(size=(N_ROWS, d)) * np.linspace(1.0, 3.0, d) + 1e4
        whole = fit(train, _spec(kind, d), evr_target=evr)
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", 0)
        monkeypatch.setattr(linalg, "_MIN_BLOCK_ROWS", BLOCK)
        blocked = fit(train, _spec(kind, d), evr_target=evr)
        lam, lam_b = whole.eigenvalues, blocked.eigenvalues
        assert np.max(np.abs(lam - lam_b)) <= 1e-12 * lam[0]
        assert np.max(np.abs(whole.mean - blocked.mean)) <= 1e-12 * np.max(
            np.abs(whole.mean)
        )
        assert blocked.q == whole.q

    @pytest.mark.parametrize("k", [1, 3])
    def test_knn_bit_equal_to_full_distance_matrix(self, small_blocks, k):
        rng = np.random.default_rng(33)
        train = rng.normal(size=(30, 5))
        queries = rng.normal(size=(N_ROWS, 5))
        tn = train / np.linalg.norm(train, axis=1, keepdims=True)
        qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
        d2 = np.clip(2.0 - 2.0 * (qn @ tn.T), 0.0, None)
        oracle = -np.sqrt(np.partition(d2, k - 1, axis=1)[:, k - 1])
        assert np.array_equal(knn_score(build_knn(train, k=k), queries), oracle)

    @pytest.mark.parametrize("kernel, gamma, evr, leading", [
        ("cosine", None, 0.8, True),
        ("gaussian", 0.8, 0.8, True),
        ("gaussian", 4.0, 0.95, False),
    ])
    def test_gram_scores_bit_equal_to_full_cross_kernel(self, small_blocks,
                                                        kernel, gamma, evr, leading):
        rng = np.random.default_rng(34)
        model = fit_kernelspace(rng.normal(size=(25, 4)), kernel, gamma=gamma,
                                evr_target=evr)
        queries = rng.normal(size=(N_ROWS, 4))
        qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
        kq = qn @ model.train.T
        if kernel == "gaussian":
            kq = np.exp(-gamma * np.clip(2.0 - 2.0 * kq, 0.0, None))
        assert (model.residual_vectors is None) == leading
        if not leading:
            oracle = -np.linalg.norm(kq @ model.residual_vectors, axis=1)
            assert np.array_equal(score_kernelspace(model, queries), oracle)
            return
        # Through the few leading vectors, OpenBLAS rounds kq @ V differently
        # for different row counts, so block boundaries move the last bits.
        v = model.leading_vectors
        oracle = -np.linalg.norm(kq - (kq @ v) @ v.T, axis=1)
        assert _rel(score_kernelspace(model, queries), oracle) <= 1e-12

    @pytest.mark.parametrize("d", [1, 3, 9, 64, 129])
    def test_row_norms_bit_equal_to_one_block(self, monkeypatch, d):
        x = np.random.default_rng(d).normal(size=(N_ROWS, d))
        x[ZERO_ROW] = 0.0
        whole = row_norms(x)
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", 0)
        monkeypatch.setattr(linalg, "_MIN_BLOCK_ROWS", BLOCK)
        norms, zero = row_norms(x)
        assert np.array_equal(norms, whole[0])
        assert zero.tolist() == whole[1].tolist() == [ZERO_ROW]

    def test_zero_row_reports_its_global_index(self, small_blocks):
        rng = np.random.default_rng(35)
        d = 5
        rows = rng.normal(size=(N_ROWS, d))
        rows[ZERO_ROW] = 0.0
        model = fit(rng.normal(size=(30, d)), _spec("rff", d), evr_target=0.9)
        gram_model = fit_kernelspace(rng.normal(size=(30, d)), "gaussian",
                                     gamma=0.8, evr_target=0.8)
        knn = build_knn(rng.normal(size=(30, d)), k=2)
        calls = [
            lambda: fit(rows, _spec("cosine", d)),
            lambda: score_reconstruction(model, rows),
            lambda: knn_score(knn, rows),
            lambda: score_kernelspace(gram_model, rows),
        ]
        for call in calls:
            with pytest.raises(ZeroVectorError) as info:
                call()
            assert info.value.row_index == ZERO_ROW
            assert f"row {ZERO_ROW} " in str(info.value)


    @pytest.mark.parametrize("name", BATCH_CALLS)
    def test_zero_row_error_does_not_depend_on_blocks(self, monkeypatch, name):
        d = 5
        rows = np.random.default_rng(39).normal(size=(N_ROWS, d))
        rows[ZERO_ROW] = 0.0
        call = _batch_calls(d)[name]

        def raised():
            with pytest.raises(ZeroVectorError) as info:
                call(rows)
            return str(info.value), info.value.row_index

        whole = raised()
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", 0)
        monkeypatch.setattr(linalg, "_MIN_BLOCK_ROWS", BLOCK)
        assert raised() == whole
        assert whole[1] == ZERO_ROW


class TestBlockValidation:
    """Each row block passes the ingestion gate: a bad value in a late block
    raises what a check of the whole input raised."""

    @pytest.mark.parametrize("name", BATCH_CALLS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_in_a_late_block(self, small_blocks, name, bad):
        d = 5
        rows = np.random.default_rng(37).normal(size=(N_ROWS, d))
        rows[ZERO_ROW, 3] = bad
        with pytest.raises(NonFiniteError, match="contains NaN or Inf"):
            _batch_calls(d)[name](rows)

    @pytest.mark.parametrize("name", BATCH_CALLS)
    def test_wrong_width_over_several_blocks(self, small_blocks, name):
        d = 5
        call = _batch_calls(d)[name]
        rows = np.random.default_rng(38).normal(size=(N_ROWS, d + 1))
        with pytest.raises(DimMismatchError, match=f"must have {d} columns, got"):
            call(rows)
        with pytest.raises(DimMismatchError):
            call(rows[:, 0])


def _traced_peak(call) -> int:
    """Peak bytes numpy and Python allocated during call()."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """Peak memory may grow with N only by N x d_in copies and N-vectors.

    numpy reports its buffers to tracemalloc, so the peaks are exact byte
    counts, not timings. Each case doubles the row count past a few full
    blocks; an N x width temporary (width = M mapped features, or N_tr
    stored rows) would add 8 * width bytes per added row, far more than
    the allowance of a few N x d_in arrays and N-length vectors. A float32
    input may not even cost an N x d_in float64 copy: the gate upcasts it
    one block at a time.
    """

    D_IN = 8
    COPIES = 3  # N x d_in float64 arrays (validated or normalized input)
    VECTORS = 4  # N-length float64 outputs and their temporaries
    SLACK = 1 << 20

    def _check(self, make_call, n_small, width):
        rng = np.random.default_rng(41)
        small = rng.normal(size=(n_small, self.D_IN))
        large = rng.normal(size=(2 * n_small, self.D_IN))
        growth = _traced_peak(make_call(large)) - _traced_peak(make_call(small))
        allowed = n_small * 8 * (self.COPIES * self.D_IN + self.VECTORS) + self.SLACK
        assert allowed < n_small * 8 * width / 2
        assert growth <= allowed, (growth, allowed)

    def test_fit(self):
        spec = cosine_rff_spec(rff_build("gaussian", 0.5, 256, self.D_IN, seed=3))
        self._check(lambda x: lambda: fit(x, spec), 10_000, 256)

    def test_score_reconstruction(self):
        spec = cosine_rff_spec(rff_build("gaussian", 0.5, 256, self.D_IN, seed=3))
        rng = np.random.default_rng(42)
        model = fit(rng.normal(size=(3000, self.D_IN)), spec)
        self._check(lambda x: lambda: score_reconstruction(model, x), 10_000, 256)

    def test_knn_score(self):
        rng = np.random.default_rng(43)
        scorer = build_knn(rng.normal(size=(5000, self.D_IN)), k=1)
        self._check(lambda x: lambda: knn_score(scorer, x), 1000, 5000)

    def test_score_kernelspace(self):
        rng = np.random.default_rng(44)
        model = fit_kernelspace(rng.normal(size=(300, self.D_IN)), "gaussian",
                                gamma=0.5, evr_target=0.9)
        self._check(lambda x: lambda: score_kernelspace(model, x), 5000, 300)

    @pytest.mark.parametrize("name", BATCH_CALLS)
    def test_float32_input_is_upcast_per_block(self, name):
        d_in, n_small = 64, 10_000
        call = _batch_calls(d_in, n_train=500)[name]
        rng = np.random.default_rng(45)
        small = rng.normal(size=(n_small, d_in)).astype(np.float32)
        large = rng.normal(size=(2 * n_small, d_in)).astype(np.float32)
        growth = (_traced_peak(lambda: call(large))
                  - _traced_peak(lambda: call(small)))
        allowed = n_small * 8 * self.VECTORS + self.SLACK
        # A float64 copy of the whole input would grow by n_small * 8 * d_in.
        assert allowed < n_small * 8 * d_in / 2
        assert growth <= allowed, (growth, allowed)

    def test_row_norms(self):
        d_in, n_small = 64, 10_000
        rng = np.random.default_rng(46)
        small = rng.normal(size=(n_small, d_in))
        large = rng.normal(size=(2 * n_small, d_in))
        large[[5, n_small + 7]] = 0.0
        growth = (_traced_peak(lambda: row_norms(large))
                  - _traced_peak(lambda: row_norms(small)))
        allowed = n_small * 8 * self.VECTORS + self.SLACK
        # An N x d_in square of the input would grow by n_small * 8 * d_in.
        assert allowed < n_small * 8 * d_in / 2
        assert growth <= allowed, (growth, allowed)
        assert row_norms(large)[1].tolist() == [5, n_small + 7]
