"""Row-blocked fit and batch scoring: block invariance and bounded memory."""

import argparse
import gc
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kpca_ood
from kpca_ood import baselines, cli, featmap, linalg
from kpca_ood.baselines import build_knn, knn_score, reg_pca_error
from kpca_ood.detector import fit, score_reconstruction, score_residual
from kpca_ood.errors import DimMismatchError, NonFiniteError, ZeroVectorError
from kpca_ood.featmap import (
    MEDIAN_HEURISTIC_ROWS,
    cosine_rff_spec,
    cosine_spec,
    identity_spec,
    map_apply,
    median_heuristic_gamma,
    normalize_rows,
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
        # Wide enough that evr 0.3 keeps q < D/3, so both orientations run.
        d = 8
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


def _close(got, whole):
    return bool(np.all(np.abs(got - whole) <= 1e-12 * np.maximum(1.0, np.abs(whole))))


def _workspace_calls(d=8):
    """Each batch path through a _Workspace, and its result as a tuple of
    arrays; the covariance and Gram scorers in both orientations."""
    rng = np.random.default_rng(31)
    through_u = fit(rng.normal(size=(60, d)), _spec("cosine", d), evr_target=0.3)
    through_r = fit(rng.normal(size=(60, d)), _spec("rff", d), evr_target=0.99,
                    store_residual=True)
    gram_v = fit_kernelspace(rng.normal(size=(25, d)), "gaussian", gamma=0.3,
                             evr_target=0.8)
    gram_a = fit_kernelspace(rng.normal(size=(25, d)), "gaussian", gamma=2.0,
                             evr_target=0.95)
    assert through_u.complement is None and through_r.complement is not None
    assert gram_v.residual_vectors is None and gram_a.residual_vectors is not None
    knn = {k: build_knn(rng.normal(size=(30, d)), k=k) for k in (1, 5)}
    spec = _spec("rff", d)

    def fitted(x):
        model = fit(x, spec)
        return model.mean, model.eigenvalues, model.basis, model.complement

    return {
        "covariance U": lambda x: (score_reconstruction(through_u, x),),
        "covariance R": lambda x: (score_reconstruction(through_r, x),),
        "residual basis": lambda x: (score_residual(through_r, x),),
        "Gram V": lambda x: (score_kernelspace(gram_v, x),),
        "Gram A": lambda x: (score_kernelspace(gram_a, x),),
        "fit": fitted,
        "knn k=1": lambda x: (knn_score(knn[1], x),),
        "knn k=5": lambda x: (knn_score(knn[5], x),),
    }


def _one_block_reference(name, call, x):
    """What the blocks of ``call(x)`` give as one-block calls of their own."""
    blocks = [x[a : a + BLOCK] for a in range(0, x.shape[0], BLOCK)]
    if name != "fit":
        return (np.concatenate([call(rows)[0] for rows in blocks]),)
    # The identity map centers a copy of each block's mapped rows: the bits
    # that fit's in-place centering must give.
    spec = _spec("rff", x.shape[1])
    mapped = np.concatenate([map_apply(spec, rows) for rows in blocks])
    model = fit(mapped, identity_spec(mapped.shape[1]))
    return model.mean, model.eigenvalues, model.basis, model.complement


class TestWorkspace:
    """The row blocks of one call share its temporaries (linalg._Workspace),
    and the last, shorter block takes their leading rows; no result may be a
    view of them."""

    @pytest.mark.parametrize("name", list(_workspace_calls()))
    def test_blocks_give_the_one_block_bits(self, small_blocks, monkeypatch, name):
        # Tiles of 4 stored rows, and a last one of 6: knn reshapes one flat
        # array to tiles of two widths within each block.
        monkeypatch.setattr(baselines, "_KNN_TILE", 4)
        call = _workspace_calls()[name]
        x = np.random.default_rng(53).normal(size=(N_ROWS, 8))
        kept = x.copy()
        got, want = call(x), _one_block_reference(name, call, x)
        assert np.array_equal(x, kept)
        for a, b in zip(got, want):
            assert (a is None and b is None) or np.array_equal(a, b)

    @pytest.mark.parametrize("name, keys", [
        ("Gram V", {"kernel", "kept", "product"}),
        ("Gram A", {"kernel", "projection"}),
        ("knn k=1", {"tiles"}),
    ])
    def test_every_block_writes_into_the_workspace(self, small_blocks, monkeypatch,
                                                   name, keys):
        monkeypatch.setattr(baselines, "_KNN_TILE", 4)
        written = []
        matmul = linalg._Workspace.matmul

        def spy(self, key, a, b, room=None):
            out = matmul(self, key, a, b, room)
            written.append((key, np.shares_memory(out, self._arrays[key])))
            return out

        monkeypatch.setattr(linalg._Workspace, "matmul", spy)
        _workspace_calls()[name](np.random.default_rng(55).normal(size=(N_ROWS, 8)))
        assert {key for key, _ in written} == keys
        assert all(shared for _, shared in written)
        blocks = -(-N_ROWS // BLOCK)
        assert len(written) >= blocks * len(keys)

    @pytest.mark.parametrize("name", list(_workspace_calls()))
    def test_results_outlive_the_next_call(self, small_blocks, monkeypatch, name):
        monkeypatch.setattr(baselines, "_KNN_TILE", 4)
        call = _workspace_calls()[name]
        rng = np.random.default_rng(54)
        first = call(rng.normal(size=(N_ROWS, 8)))
        copies = [None if a is None else a.copy() for a in first]
        second = call(rng.normal(size=(N_ROWS, 8)))
        for a, b, c in zip(first, second, copies):
            if a is None:
                continue
            assert np.array_equal(a, c)
            assert not np.shares_memory(a, b)


_FAULTS = textwrap.dedent("""
    import resource, sys
    import numpy as np
    from kpca_ood import linalg
    from kpca_ood.baselines import build_knn, knn_score
    from kpca_ood.detector import fit
    from kpca_ood.featmap import cosine_rff_spec, rff_build
    from kpca_ood.kernelspace import fit_kernelspace, score_kernelspace
    from kpca_ood.synth import SynthSpec, generate

    rng = np.random.default_rng(5)
    name = sys.argv[1]
    if name == "score_kernelspace":
        # gram-kgau's model: 200 clustered rows, scored through V.
        train = generate(SynthSpec(kind="sphere-cluster", n=200, dim=16, seed=11,
                                   params={"clusters": 8.0}))[0]
        model = fit_kernelspace(train, "gaussian", gamma=2.0, evr_target=0.9)
        v = model.leading_vectors
        rows = linalg._block_rows(200)
        x = rng.normal(size=(8 * rows + 1, 16))
        call = lambda: score_kernelspace(model, x)
        # kernel rows, their product with V and V^T, and the product with V
        workspace = rows * (2 * v.shape[0] + v.shape[1])
    elif name == "fit":
        spec = cosine_rff_spec(rff_build("gaussian", 0.5, 256, 64, seed=3))
        rows = linalg._block_rows(256)
        x = rng.normal(size=(8 * rows + 1, 64))
        call = lambda: fit(x, spec)
        workspace = rows * 256  # the mapped block, centered in place
    else:
        scorer = build_knn(rng.normal(size=(5000, 8)))
        rows = linalg._block_rows(2048)
        x = rng.normal(size=(8 * rows + 1, 8))
        call = lambda: knn_score(scorer, x)
        workspace = rows * 5000  # the tiles' flat array, at most
    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    print(faults, 8 * workspace // resource.getpagesize())
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads Linux minor page-fault counts")
class TestPageFaults:
    """A call of several row blocks pages its temporaries in about once.

    The second of two calls in a fresh process is counted, on an input of
    more than 8 blocks. Arrays allocated anew for every block, which the
    allocator hands back to the system between blocks, are paged in again
    by each block: for the Gram scorer about 8 times one block's workspace.
    Its workspace and knn's tiles are touched once per call, whatever the
    allocator. fit still takes each mapped block from the map; centering it
    in place leaves one such array alive at a time, which glibc reuses.
    """

    @pytest.mark.parametrize("name", ["score_kernelspace", "fit", "knn_score"])
    def test_second_call_faults_under_three_workspaces(self, name):
        src = str(Path(kpca_ood.__file__).resolve().parent.parent)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-c", _FAULTS, name], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        faults, pages = map(int, out.stdout.split())
        assert faults < 3 * pages, (faults, pages)


class TestBlockSplitProperty:
    """Any row block split and kNN tile width gives the one-block scores."""

    def test_scores_match_one_block(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        rng = np.random.default_rng(48)
        d = 5
        model = fit(rng.normal(size=(60, d)), _spec("rff", d), evr_target=0.9)
        pca = fit(rng.normal(size=(60, d)), _spec("identity", d), evr_target=0.9)
        gram_model = fit_kernelspace(rng.normal(size=(40, d)), "gaussian",
                                     gamma=0.8, evr_target=0.8)
        scorers = {
            "score_reconstruction": lambda x: score_reconstruction(model, x),
            "reg_pca_error": lambda x: reg_pca_error(pca, x),
            "score_kernelspace": lambda x: score_kernelspace(gram_model, x),
        }

        # n_train = full_tiles * tile + rem puts the stored rows on and just
        # past tile edges; rem < k leaves a last tile narrower than k.
        @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(
            block_bytes=st.integers(0, 4096), min_rows=st.integers(1, 9),
            tile=st.one_of(st.integers(1, 9), st.sampled_from([64, 128])),
            full_tiles=st.integers(0, 3),
            rem=st.one_of(st.just(0), st.integers(1, 6)),
            k=st.integers(1, 5), n_rows=st.integers(1, 40),
            ties=st.booleans(), seed=st.integers(0, 2**32 - 1),
        )
        @hypothesis.example(block_bytes=0, min_rows=2, tile=3, full_tiles=2,
                            rem=1, k=5, n_rows=9, ties=False, seed=0)
        @hypothesis.example(block_bytes=0, min_rows=4, tile=4, full_tiles=3,
                            rem=0, k=4, n_rows=17, ties=True, seed=1)
        @hypothesis.example(block_bytes=0, min_rows=7, tile=64, full_tiles=2,
                            rem=0, k=5, n_rows=40, ties=False, seed=2)
        def check(block_bytes, min_rows, tile, full_tiles, rem, k, n_rows,
                  ties, seed):
            data = np.random.default_rng(seed)
            queries = data.normal(size=(n_rows, d))
            n_train = max(k, full_tiles * tile + rem)
            if ties:
                # Rows of +-1 in 4 dims have unit rows of +-0.5, so every
                # similarity is exact, and many are tied.
                train = data.choice([-1.0, 1.0], size=(n_train, 4))
                knn_queries = data.choice([-1.0, 1.0], size=(n_rows, 4))
            else:
                train = data.normal(size=(n_train, 4))
                knn_queries = data.normal(size=(n_rows, 4))
            knn = build_knn(train, k=k)
            whole = {name: call(queries) for name, call in scorers.items()}
            whole_knn = knn_score(knn, knn_queries)

            def untiled(rows):
                sims = normalize_rows(rows) @ knn.train_normalized.T
                return np.partition(sims, -k, axis=1)[:, -k]

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(linalg, "_BLOCK_BYTES", block_bytes)
                mp.setattr(linalg, "_MIN_BLOCK_ROWS", min_rows)
                mp.setattr(baselines, "_KNN_TILE", tile)
                got = {name: call(queries) for name, call in scorers.items()}
                got_knn = knn_score(knn, knn_queries)
                # The same row blocks, each against every stored row at once.
                kth = linalg._row_blocks(untiled, knn_queries, tile)
            for name in scorers:
                assert _close(got[name], whole[name]), name
            assert _close(got_knn, whole_knn)
            if ties:
                assert np.array_equal(got_knn, whole_knn)
            if tile % 64 == 0 and n_train % tile == 0:
                # Every tile a multiple of 64 wide keeps each stored row's
                # place in the GEMM kernel. A narrower last tile may take
                # another OpenBLAS kernel, and a single-row block is a GEMV:
                # either may round differently, so the reference is the same
                # row split with every stored row in one product.
                oracle = -np.sqrt(np.clip(2.0 - 2.0 * kth, 0.0, None))
                assert np.array_equal(got_knn, oracle)

        check()


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

    def test_knn_score_flat_in_train_rows(self):
        # Stored rows are read one tile at a time: a similarity matrix of
        # a 64-row block x N_train would add at least 8 * 64 * n_train bytes.
        rng = np.random.default_rng(49)
        queries = rng.normal(size=(1000, self.D_IN))
        n_train = 20_000
        small, large = (build_knn(rng.normal(size=(n, self.D_IN)), k=5)
                        for n in (n_train, 2 * n_train))
        growth = (_traced_peak(lambda: knn_score(large, queries))
                  - _traced_peak(lambda: knn_score(small, queries)))
        assert growth <= self.SLACK, (growth, self.SLACK)

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

    def test_default_gamma(self, monkeypatch):
        # The CLI default checks every row's norm but normalizes only the
        # heuristic's subsample, so nothing N x d_in is made. A 200-row
        # subsample keeps the heuristic's own pair buffer below the size of
        # such a copy, so a copy would set the peak.
        monkeypatch.setattr(featmap, "MEDIAN_HEURISTIC_ROWS", 200)
        d_in, n_small = 64, 10_000
        rng = np.random.default_rng(48)
        small = rng.normal(size=(n_small, d_in))
        large = rng.normal(size=(2 * n_small, d_in))
        flags = argparse.Namespace(gamma=None)
        growth = (_traced_peak(lambda: cli._default_gamma(flags, ["corp"], large))
                  - _traced_peak(lambda: cli._default_gamma(flags, ["corp"], small)))
        allowed = n_small * 8 * self.VECTORS + self.SLACK
        # A normalized copy of the whole input would grow by n_small * 8 * d_in.
        assert allowed < n_small * 8 * d_in / 2
        assert growth <= allowed, (growth, allowed)

    def test_median_heuristic_gamma(self):
        # The 2000-row subsample's pair distances, plus two row blocks of
        # them (the dot products and the squared distances) at a time.
        n = MEDIAN_HEURISTIC_ROWS
        x = np.random.default_rng(47).normal(size=(3 * n // 2, 32))
        peak = _traced_peak(lambda: median_heuristic_gamma(x))
        allowed = 8 * n * (n - 1) // 2 + 2 * linalg._BLOCK_BYTES + self.SLACK
        assert peak <= allowed, (peak, allowed)
