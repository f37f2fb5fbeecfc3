"""Property test: save -> load -> save of a model file is byte-identical,
and the reloaded model scores bit for bit like the fitted one, over random
shapes for all six methods."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kpca_ood.detector import fit, score_reconstruction  # noqa: E402
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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    method=st.sampled_from(list(METHODS)),
    n=st.integers(3, 40),
    d=st.integers(2, 7),
    m=st.integers(1, 20),
    evr=st.floats(0.05, 1.0),
    store_residual=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
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
