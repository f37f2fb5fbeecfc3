"""Gram-matrix scoring path: kernel values against stored training rows.

Instead of mapping features explicitly, this path eigendecomposes the
uncentered N x N kernel matrix on training data and scores a query by the
norm of its kernel vector projected onto the trailing eigenvectors (the
ones with the smallest eigenvalues). Lower projection norm reads as more
in-distribution, so scores are negated norms.

Both supported kernels operate on unit-normalized rows: "cosine" is the
plain inner product after normalization, "gaussian" applies
exp(-gamma * ||a - b||^2) to the normalized rows. The Gram matrix is left
uncentered and the eigenvector columns unit-norm on purpose; the classical
centered variant lives in the test suite as a spectral cross-check, not in
the scoring path. Storing the full training matrix makes this path
intentionally heavy: per-query cost grows linearly with the training size,
and so does scoring memory, as block x N_tr cross-kernel temporaries for
row blocks of the queries (``linalg._row_blocks``), never N x N_tr.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .detector import choose_q
from .errors import (
    DegenerateSpectrumError,
    DimMismatchError,
    InvalidBandwidthError,
    InvalidSpecError,
)
from .featmap import _normalize_valid_rows, normalize_rows
from .linalg import _row_blocks, as_feature_matrix, sym_eig

COSINE_KERNEL = "cosine"
GAUSSIAN_KERNEL = "gaussian"

DEGENERATE_TRACE = 1e-20


@dataclass(eq=False)
class KernelSpaceModel:
    """Stored training rows (normalized) plus trailing Gram eigenvectors."""

    kernel_kind: str
    gamma: float
    train: np.ndarray  # (N, m), unit rows
    residual_vectors: np.ndarray  # (N, l), eigenvectors of the l smallest eigenvalues
    l: int
    evr_target: float

    @property
    def n_train(self) -> int:
        return self.train.shape[0]


def _check_kernel(kernel_kind: str, gamma: float | None) -> float:
    if kernel_kind not in (COSINE_KERNEL, GAUSSIAN_KERNEL):
        raise InvalidSpecError(f"unknown kernel kind {kernel_kind!r}")
    if kernel_kind == GAUSSIAN_KERNEL:
        if gamma is None or not gamma > 0:
            raise InvalidBandwidthError(f"gaussian kernel needs gamma > 0, got {gamma}")
        return float(gamma)
    return 0.0


def _cross_kernel(
    kernel_kind: str, gamma: float, a_unit: np.ndarray, b_unit: np.ndarray
) -> np.ndarray:
    """Kernel values between unit-normalized row sets, shape (len(a), len(b)).

    The Gaussian kernel exp(-gamma * max(2 - 2 a.b, 0)) is computed in place
    on the array the GEMM allocated, with the same roundings as the
    out-of-place expression.
    """
    k = a_unit @ b_unit.T
    if kernel_kind == COSINE_KERNEL:
        return k
    k *= -2.0
    k += 2.0
    np.clip(k, 0.0, None, out=k)
    k *= -gamma
    np.exp(k, out=k)
    return k


def gram(kernel_kind: str, gamma: float | None, x) -> np.ndarray:
    """Symmetric kernel matrix over the rows of x."""
    gamma = _check_kernel(kernel_kind, gamma)
    xn = normalize_rows(x)
    dots = xn @ xn.T
    dots = 0.5 * (dots + dots.T)
    if kernel_kind == COSINE_KERNEL:
        k = dots
    else:
        d2 = np.clip(2.0 - 2.0 * dots, 0.0, None)
        np.fill_diagonal(d2, 0.0)
        k = np.exp(-gamma * d2)
    np.fill_diagonal(k, 1.0)
    return k


def fit_kernelspace(
    x, kernel_kind: str, gamma: float | None = None, evr_target: float = 0.90
) -> KernelSpaceModel:
    """Eigendecompose the training Gram matrix and keep the trailing vectors.

    The retained dimension q is chosen on the descending Gram spectrum by
    the explained-variance target (same mechanism as the covariance path);
    the residual dimension is l = N - q, clamped to at least 1.
    """
    if not 0.0 < evr_target < 1.0:
        raise ValueError(f"evr_target must be in (0, 1), got {evr_target}")
    gamma = _check_kernel(kernel_kind, gamma)
    xn = normalize_rows(x, "train")
    n = xn.shape[0]
    k = gram(kernel_kind, gamma if kernel_kind == GAUSSIAN_KERNEL else None, xn)

    eig = sym_eig(k)
    lam = np.clip(eig.eigenvalues, 0.0, None)
    if float(lam.sum()) < DEGENERATE_TRACE:
        raise DegenerateSpectrumError("kernel matrix has numerically zero trace")
    q = choose_q(lam, evr_target)
    l = n - q
    if l < 1:
        warnings.warn(
            "explained-variance target consumed every Gram eigenvector; "
            "clamping the residual dimension to 1",
            stacklevel=2,
        )
        l = 1
    a = np.ascontiguousarray(eig.eigenvectors[:, n - l :])
    return KernelSpaceModel(
        kernel_kind=kernel_kind,
        gamma=gamma,
        train=xn,
        residual_vectors=a,
        l=l,
        evr_target=float(evr_target),
    )


def score_kernelspace(model: KernelSpaceModel, x) -> np.ndarray:
    """Negated norm of the kernel vector projected on the trailing vectors.

    Queries run through the same normalization as training; per-query time
    and memory are linear in the stored training size.
    """
    xq = as_feature_matrix(x)
    if xq.shape[1] != model.train.shape[1]:
        raise DimMismatchError(
            f"model expects dimension {model.train.shape[1]}, got {xq.shape[1]}"
        )

    def block(rows):
        xn = _normalize_valid_rows(rows)
        kq = _cross_kernel(model.kernel_kind, model.gamma, xn, model.train)
        return np.linalg.norm(kq @ model.residual_vectors, axis=1)

    return -_row_blocks(block, xq, model.train.shape[0])
