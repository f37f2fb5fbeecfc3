"""Property tests over random shapes for all six methods: save -> load ->
save of a model file is byte-identical and the reloaded model scores bit
for bit like the fitted one; a query row's score does not depend on the
order of the rows or on how they are split into calls."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kpca_ood.detector import fit, score_reconstruction, score_residual  # noqa: E402
from kpca_ood.featmap import cosine_rff_spec, cosine_spec, identity_spec, rff_build  # noqa: E402
from kpca_ood.fileio import METHODS, load_model, method_for_model, save_model  # noqa: E402
from kpca_ood.kernelspace import fit_kernelspace, score_kernelspace  # noqa: E402


def _fit(method, x, evr, m, store_residual, seed):
    d = x.shape[1]
    if method == "kcos":
        return fit_kernelspace(x, "cosine", evr_target=min(evr, 0.99))
    if method == "kgau":
        return fit_kernelspace(x, "gaussian", gamma=1.5, evr_target=min(evr, 0.99))
    if method == "pca":
        spec = identity_spec(d)
    elif method == "cop":
        spec = cosine_spec(d)
    else:
        kind = "gaussian" if method == "corp" else "laplacian"
        spec = cosine_rff_spec(rff_build(kind, 0.8, m, d, seed=seed))
    return fit(x, spec, evr_target=evr, store_residual=store_residual)


_SHAPES = dict(
    method=st.sampled_from(list(METHODS)),
    n=st.integers(3, 40),
    d=st.integers(2, 7),
    m=st.integers(1, 20),
    evr=st.floats(0.05, 1.0),
    store_residual=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


def _scorers(method, model):
    if method in ("kcos", "kgau"):
        return [score_kernelspace]
    if model.residual_basis is None:
        return [score_reconstruction]
    return [score_reconstruction, score_residual]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**_SHAPES)
def test_save_load_save_byte_identical(tmp_path_factory, method, n, d, m, evr,
                                       store_residual, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    model = _fit(method, x, evr, m, store_residual, seed)
    assert method_for_model(model) == method
    tmp = tmp_path_factory.mktemp("models")
    p, p2 = tmp / "a.oodm", tmp / "b.oodm"
    save_model(p, model)
    back = load_model(p)
    save_model(p2, back)
    assert p2.read_bytes() == p.read_bytes()
    score = score_kernelspace if method in ("kcos", "kgau") else score_reconstruction
    queries = rng.normal(size=(5, d))
    assert np.array_equal(score(back, queries), score(model, queries))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**_SHAPES, n_queries=st.integers(2, 40), split=st.integers(1, 39))
def test_scores_follow_query_rows(method, n, d, m, evr, store_residual, seed,
                                  n_queries, split):
    # An absolute floor for small scores: GEMM edge tiles move the last bits
    # between row counts, and near-subspace rows make a relative gate fail
    # between equally accurate results.
    rng = np.random.default_rng(seed)
    model = _fit(method, rng.normal(size=(n, d)), evr, m, store_residual, seed)
    queries = rng.normal(size=(n_queries, d))
    perm = rng.permutation(n_queries)
    k = min(split, n_queries - 1)
    for score in _scorers(method, model):
        whole = score(model, queries)
        tol = 1e-12 * np.maximum(1.0, np.abs(whole))
        permuted = score(model, queries[perm])
        assert np.all(np.abs(permuted - whole[perm]) <= tol[perm])
        parts = np.concatenate([score(model, queries[:k]), score(model, queries[k:])])
        assert np.all(np.abs(parts - whole) <= tol)
