"""Baseline scorers operating on features or logits.

KNN scores by the k-th nearest distance among unit-normalized training
rows (exact brute-force search, linear per-query cost in the training
size). Queries run in row blocks, and each block is reduced on the
similarities s = q.t (the largest, or the k-th largest) before the one
kept value per row becomes a distance sqrt(max(2 - 2s, 0)). The rounded
fl(2 - 2s) never increases as s grows, so this picks the same value, bit
for bit, as taking the k-th smallest of all the distances, and never
forms a distance matrix. MSP takes the maximum softmax probability and
the energy score the log-sum-exp of a logits row, both computed
max-shifted so huge logits cannot overflow. The regularized
reconstruction error divides a plain PCA reconstruction error by the
query norm, and ``fuse`` combines an error vector with a base score as
(1 - e) * s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector import DetectorModel, reconstruction_errors
from .errors import (
    DimMismatchError,
    KTooLargeError,
    LengthMismatchError,
    NonFiniteError,
    ZeroVectorError,
)
from .featmap import (
    IDENTITY_STAGE,
    ZERO_NORM_FLOOR,
    _normalize_valid_rows,
    normalize_rows,
)
from .linalg import _row_blocks, as_feature_matrix


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
    xq = as_feature_matrix(x)
    if xq.shape[1] != scorer.train_normalized.shape[1]:
        raise DimMismatchError(
            f"expected dimension {scorer.train_normalized.shape[1]}, "
            f"got {xq.shape[1]}"
        )
    if scorer.k > scorer.train_normalized.shape[0]:
        raise KTooLargeError(
            f"k={scorer.k} exceeds {scorer.train_normalized.shape[0]} stored rows"
        )
    train, k = scorer.train_normalized, scorer.k

    def block(rows):
        sims = _normalize_valid_rows(rows) @ train.T
        if k == 1:
            return sims.max(axis=1)
        return np.partition(sims, -k, axis=1)[:, -k]

    # unit rows on both sides: ||a-b||^2 = 2 - 2 a.b
    kth = np.clip(2.0 - 2.0 * _row_blocks(block, xq, train.shape[0]), 0.0, None)
    return -np.sqrt(kth)


def as_logits_matrix(data) -> np.ndarray:
    """Validate a logits matrix: 2-D, finite, at least 2 classes."""
    x = as_feature_matrix(data, "logits")
    if x.shape[1] < 2:
        raise DimMismatchError(f"logits need >= 2 classes, got {x.shape[1]}")
    return x


def msp_score(logits) -> np.ndarray:
    """Maximum softmax probability per row, max-shifted for stability."""
    x = as_feature_matrix(logits, "logits")
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
    if tuple(model.map_spec.stages) != (IDENTITY_STAGE,):
        raise ValueError("regularized error needs an identity-map model")
    xq = as_feature_matrix(x)
    norms = np.linalg.norm(xq, axis=1)
    bad = np.flatnonzero(norms < ZERO_NORM_FLOOR)
    if bad.size:
        i = int(bad[0])
        raise ZeroVectorError(f"row {i} has zero norm", row_index=i)
    return reconstruction_errors(model, xq) / norms


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
