"""One query row through every scorer: the same contract as a batch row.

A one-row input takes the per-block code of a batch (``linalg._row_blocks``
passes it whole), so its score must be a (1,) float64 array that matches the
row's batch score, a nested list must score as the array does, and a bad row
must raise what the batch path raises for the same row at index 0.
"""

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
    map_apply,
    rff_build,
)
from kpca_ood.kernelspace import fit_kernelspace, score_kernelspace

D = 6
# More rows than linalg._MIN_BLOCK_ROWS, so the batch is not settled by
# the small-input test of _row_blocks.
N_BATCH = 90


def _scorers():
    """Every scorer as a function of its query rows, with each orientation."""
    rng = np.random.default_rng(71)
    rff = cosine_rff_spec(rff_build("gaussian", 0.5, 4 * D, D, seed=72))
    through_u = fit(rng.normal(size=(80, D)), rff, evr_target=0.3)
    through_r = fit(rng.normal(size=(80, D)), rff, evr_target=0.99, store_residual=True)
    pca = fit(rng.normal(size=(80, D)), identity_spec(D), evr_target=0.5)
    gram_v = fit_kernelspace(rng.normal(size=(25, D)), "gaussian", gamma=0.3,
                             evr_target=0.8)
    gram_a = fit_kernelspace(rng.normal(size=(25, D)), "gaussian", gamma=2.0,
                             evr_target=0.95)
    assert through_u.complement is None and through_r.complement is not None
    assert gram_v.residual_vectors is None and gram_a.residual_vectors is not None
    knn = {k: build_knn(rng.normal(size=(40, D)), k=k) for k in (1, 3)}
    return {
        "score_reconstruction U": lambda x: score_reconstruction(through_u, x),
        "score_reconstruction R": lambda x: score_reconstruction(through_r, x),
        "score_residual": lambda x: score_residual(through_r, x),
        "reg_pca_error": lambda x: reg_pca_error(pca, x),
        "score_kernelspace V": lambda x: score_kernelspace(gram_v, x),
        "score_kernelspace A": lambda x: score_kernelspace(gram_a, x),
        "knn_score k=1": lambda x: knn_score(knn[1], x),
        "knn_score k=3": lambda x: knn_score(knn[3], x),
    }


SCORERS = [
    "score_reconstruction U", "score_reconstruction R", "score_residual",
    "reg_pca_error", "score_kernelspace V", "score_kernelspace A",
    "knn_score k=1", "knn_score k=3",
]


@pytest.fixture(scope="module")
def scorers():
    built = _scorers()
    assert list(built) == SCORERS
    return built


@pytest.fixture(scope="module")
def batch():
    return np.random.default_rng(73).normal(size=(N_BATCH, D))


@pytest.mark.parametrize("name", SCORERS)
def test_one_row_gives_a_float64_row_of_scores(scorers, batch, name):
    got = scorers[name](batch[:1])
    assert isinstance(got, np.ndarray)
    assert got.shape == (1,) and got.dtype == np.float64


@pytest.mark.parametrize("name", SCORERS)
def test_one_row_matches_its_batch_score(scorers, batch, name):
    whole = scorers[name](batch)
    one = np.concatenate([scorers[name](batch[i : i + 1]) for i in range(N_BATCH)])
    rel = np.abs(one - whole) / np.maximum(np.abs(whole), np.finfo(float).tiny)
    assert rel.max() <= 1e-12


@pytest.mark.parametrize("name", SCORERS)
def test_a_list_row_scores_as_the_array(scorers, batch, name):
    row = batch[:1]
    assert np.array_equal(scorers[name](row.tolist()), scorers[name](row))


def _raised(call, rows):
    with pytest.raises(Exception) as info:
        call(rows)
    return info.value


@pytest.mark.parametrize("name", SCORERS)
@pytest.mark.parametrize("bad, error", [
    ("nan", NonFiniteError),
    ("width", DimMismatchError),
    ("zero", ZeroVectorError),
])
def test_a_bad_row_raises_what_the_batch_raises(scorers, batch, name, bad, error):
    rows = batch.copy()
    if bad == "nan":
        rows[0, 2] = np.nan
    elif bad == "width":
        rows = np.hstack([rows, rows[:, :1]])
    else:
        rows[0] = 0.0
    one, whole = _raised(scorers[name], rows[:1]), _raised(scorers[name], rows)
    assert type(one) is type(whole) is error
    assert str(one) == str(whole)
    if error is ZeroVectorError:
        assert one.row_index == whole.row_index == 0


@pytest.mark.parametrize("spec", [
    identity_spec(D), cosine_spec(D),
    cosine_rff_spec(rff_build("gaussian", 0.5, 4 * D, D, seed=74)),
], ids=["identity", "cosine", "rff"])
def test_map_apply_keeps_one_row_2d(batch, spec):
    one = map_apply(spec, batch[:1])
    assert one.shape == (1, spec.output_dim)
    rel = np.abs(one - map_apply(spec, batch)[:1]) / np.abs(one)
    assert rel.max() <= 1e-12


@pytest.mark.parametrize("rows, cols", [(1, 7), (1, 4095), (1, 4096), (3, 1365),
                                        (3, 1366), (64, 64), (200, 82)])
@pytest.mark.parametrize("transposed", [False, True])
def test_products_have_the_bits_of_matmul(rows, cols, transposed):
    # Below linalg._DOT_MAX_SIZE elements _product takes ndarray.dot, from
    # it on the @ operator; the two must not round apart.
    rng = np.random.default_rng(rows * cols)
    a = rng.normal(size=(rows, 33))
    b = rng.normal(size=(cols, 33)).T if transposed else rng.normal(size=(33, cols))
    assert np.array_equal(linalg._product(a, b), a @ b)
