"""Baseline scorers operating on features or logits.

KNN scores by the k-th nearest distance among unit-normalized training
rows (exact brute-force search, linear per-query cost in the training
size). Queries run in row blocks, and each block meets the stored rows
one tile at a time: a (block x tile) product of similarities s = q.t,
reduced at once to a running maximum (k = 1) or a running top k. Only the
k-th largest similarity per row becomes a distance sqrt(max(2 - 2s, 0)).
The rounded fl(2 - 2s) never increases as s grows, so this picks the same
value, bit for bit, as taking the k-th smallest of all the distances. No
distance matrix is formed. Tiles start at multiples of the tile width
max(_KNN_TILE, _BLOCK_BYTES / (8 * block rows)), and the last tile takes
the remainder, so the one tile alive at a time holds fewer than twice
that many similarities per block row, whatever the number of stored rows.
The tiles of a call of several row blocks share one array
(``linalg._Workspace``).

MSP takes the maximum softmax probability and the energy score the
log-sum-exp of a logits row, both computed max-shifted so huge logits
cannot overflow. The regularized reconstruction error divides a plain PCA
reconstruction error by the query norm, and ``fuse`` combines an error
vector with a base score as (1 - e) * s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .detector import DetectorModel, reconstruction_errors
from .errors import (
    DimMismatchError,
    KTooLargeError,
    LengthMismatchError,
    NonFiniteError,
)
from .featmap import IDENTITY_STAGE, _nonzero_row_norms, normalize_rows
from .linalg import _row_blocks, as_feature_matrix


# Stored rows per kNN similarity tile, at least. Every tile starts at a
# multiple of 64 and the last one reaches the end of the stored rows, so
# each stored row keeps its place in OpenBLAS's GEMM kernel, a narrow tail
# included, and its similarities the bits of one whole-train product.
_KNN_TILE = 2048


@dataclass(eq=False)
class KnnScorer:
    """Unit-normalized training rows plus the neighbor index k (1-based)."""

    train_normalized: np.ndarray
    k: int


def build_knn(train, k: int = 1) -> KnnScorer:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    xn = normalize_rows(train, "train")
    if k > xn.shape[0]:
        raise KTooLargeError(f"k={k} exceeds {xn.shape[0]} stored rows")
    return KnnScorer(train_normalized=xn, k=int(k))


def knn_score(scorer: KnnScorer, x) -> np.ndarray:
    """Negated k-th smallest distance to the stored rows, per query row."""
    train, k = scorer.train_normalized, scorer.k
    if k > train.shape[0]:
        raise KTooLargeError(f"k={k} exceeds {train.shape[0]} stored rows")

    def top_k(sims):
        """The k largest similarities of each row; for k = 1, the largest."""
        if k == 1:
            return np.maximum.reduce(sims, axis=-1)
        if sims.shape[1] > k:
            sims.partition(-k, axis=1)
        # A copy: a view would keep the whole tile alive, or would be
        # overwritten by the next tile of the call's workspace.
        return sims[:, -k:].copy()

    n = train.shape[0]
    work = linalg._Workspace()

    def block(rows):
        q = normalize_rows(rows, dim=train.shape[1])
        m = q.shape[0]
        width = max(_KNN_TILE, linalg._BLOCK_BYTES // (8 * m) // 64 * 64)
        # A remainder narrower than a tile joins the tile before it.
        last = max(n - width, 0) // width * width
        # One flat array holds every tile of the call: a tile of a block of
        # m <= work.rows rows is at most min(n, 2 * width - 1) wide, and
        # m * width <= max(m * _KNN_TILE, _BLOCK_BYTES // 8).
        room = min(work.rows * n,
                   2 * max(work.rows * _KNN_TILE, linalg._BLOCK_BYTES // 8))
        best = None
        for start in range(0, last + 1, width):
            stop = n if start == last else start + width
            top = top_k(work.matmul("tiles", q, train[start:stop].T, room))
            best = top if best is None else top_k(np.column_stack([best, top]))
        return best if k == 1 else np.minimum.reduce(best, axis=-1)

    # unit rows on both sides: ||a-b||^2 = 2 - 2 a.b
    kth = 2.0 - 2.0 * _row_blocks(block, x, _KNN_TILE, work=work)
    np.maximum(kth, 0.0, out=kth)
    return -np.sqrt(kth)


def as_logits_matrix(data) -> np.ndarray:
    """Validate a logits matrix: 2-D, finite, at least 2 classes."""
    x = as_feature_matrix(data, "logits")
    if x.shape[1] < 2:
        raise DimMismatchError(f"logits need >= 2 classes, got {x.shape[1]}")
    return x


def msp_score(logits) -> np.ndarray:
    """Maximum softmax probability per row, max-shifted for stability."""
    x = as_logits_matrix(logits)
    shifted = x - x.max(axis=1, keepdims=True)
    return 1.0 / np.sum(np.exp(shifted), axis=1)


def energy_score(logits) -> np.ndarray:
    """Log-sum-exp of each logits row, max-shifted for stability."""
    x = as_feature_matrix(logits, "logits")
    m = x.max(axis=1)
    return m + np.log(np.sum(np.exp(x - m[:, None]), axis=1))


def reg_pca_error(model: DetectorModel, x) -> np.ndarray:
    """Reconstruction error divided by the query norm.

    Only meaningful for a model fitted with the identity map in the
    original feature space.
    """
    if model.map_spec.stage != IDENTITY_STAGE:
        raise ValueError("regularized error needs an identity-map model")

    def block(rows):
        rows = as_feature_matrix(rows, dim=model.map_spec.input_dim)
        return reconstruction_errors(model, rows) / _nonzero_row_norms(rows)[:, 0]

    # The width of reconstruction_errors' own blocks, so it runs each whole.
    return _row_blocks(block, x, model.feature_dim)


def fuse(e_values, base_scores) -> np.ndarray:
    """Combine an error vector with base scores as (1 - e) * s."""
    e = np.asarray(e_values, dtype=np.float64)
    s = np.asarray(base_scores, dtype=np.float64)
    if e.shape != s.shape or e.ndim != 1:
        raise LengthMismatchError(
            f"error and base score lengths differ: {e.shape} vs {s.shape}"
        )
    if not (np.all(np.isfinite(e)) and np.all(np.isfinite(s))):
        raise NonFiniteError("fusion inputs contain NaN or Inf")
    return (1.0 - e) * s
