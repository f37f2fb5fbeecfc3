"""Gram-matrix scoring path: kernel values against stored training rows.

Instead of mapping features explicitly, this path eigendecomposes the
uncentered N x N kernel matrix on training data and scores a query by the
norm of its kernel vector projected onto the l trailing eigenvectors A
(the ones with the smallest eigenvalues), negated, so a lower norm reads as
more in-distribution. [V A], with V the q = N - l leading eigenvectors, is
an orthonormal eigenbasis, so ||A^T k|| = ||k - V V^T k||: a fit keeps V
when 2q < l and A otherwise (``linalg._through_kept``, the orientation rule
of both paths), and the scorer reads whichever the model holds through
``linalg._residual_norms``, the residual routine of both paths.

Both supported kernels operate on unit-normalized rows: "cosine" is the
plain inner product after normalization, "gaussian" applies
exp(-gamma * ||a - b||^2) to the normalized rows. The Gram matrix is left
uncentered and the eigenvector columns unit-norm on purpose; the classical
centered variant lives in the test suite as a spectral cross-check, not in
the scoring path. Storing the full training matrix makes this path
intentionally heavy: per-query cost grows linearly with the training size,
and so does scoring memory, as block x N_tr cross-kernel temporaries for
row blocks of the queries (``linalg._row_blocks``), never N x N_tr. The
blocks of one call share them (``linalg._Workspace``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .detector import DEFAULT_EVR, choose_q
from .errors import InvalidBandwidthError, InvalidSpecError
from .featmap import normalize_rows
from .linalg import _residual_norms, _through_kept, _Workspace, sym_eig

COSINE_KERNEL = "cosine"
GAUSSIAN_KERNEL = "gaussian"


@dataclass(eq=False)
class KernelSpaceModel:
    """Stored training rows (normalized) plus one Gram eigenbasis.

    A model holds the trailing vectors A (``residual_vectors``) or, when
    that is None, the leading vectors V (``leading_vectors``).
    """

    kernel_kind: str
    gamma: float
    train: np.ndarray  # (N, m), unit rows
    # (N, l), eigenvectors of the l smallest eigenvalues
    residual_vectors: np.ndarray | None
    l: int
    evr_target: float
    leading_vectors: np.ndarray | None = None  # (N, N - l), the others

    @property
    def n_train(self) -> int:
        return self.train.shape[0]


def _check_kernel(kernel_kind: str, gamma: float | None) -> float:
    if kernel_kind not in (COSINE_KERNEL, GAUSSIAN_KERNEL):
        raise InvalidSpecError(f"unknown kernel kind {kernel_kind!r}")
    if kernel_kind == GAUSSIAN_KERNEL:
        if gamma is None or not 0 < gamma < np.inf:
            raise InvalidBandwidthError(
                f"gaussian kernel needs a finite gamma > 0, got {gamma}"
            )
        return float(gamma)
    return 0.0


def _kernel(kernel_kind: str, gamma: float, dots: np.ndarray) -> np.ndarray:
    """Kernel values from the inner products of unit-normalized rows.

    The Gaussian kernel exp(-gamma * max(2 - 2 a.b, 0)) is computed in place
    on ``dots``, with the same roundings as the out-of-place expression.
    """
    if kernel_kind == COSINE_KERNEL:
        return dots
    dots *= -2.0
    dots += 2.0
    np.maximum(dots, 0.0, out=dots)  # np.clip's bits, without its dispatch
    dots *= -gamma
    np.exp(dots, out=dots)
    return dots


def gram(kernel_kind: str, gamma: float | None, x) -> np.ndarray:
    """Symmetric kernel matrix over the rows of x."""
    gamma = _check_kernel(kernel_kind, gamma)
    xn = normalize_rows(x)
    # numpy forms xn @ xn.T with syrk and mirrors one triangle into the
    # other, so the product is exactly symmetric.
    k = _kernel(kernel_kind, gamma, xn @ xn.T)
    np.fill_diagonal(k, 1.0)
    return k


def fit_kernelspace(
    x, kernel_kind: str, gamma: float | None = None, evr_target: float = DEFAULT_EVR
) -> KernelSpaceModel:
    """Eigendecompose the training Gram matrix and keep the narrower basis.

    The retained dimension q is chosen on the descending Gram spectrum by
    the explained-variance target (same mechanism as the covariance path);
    the residual dimension is l = N - q, clamped to at least 1. The model
    keeps the N - l leading vectors when 2(N - l) < l, else the l trailing
    ones. The model's bytes are fixed by the rows, the kernel and the BLAS
    thread count: at another count both the Gram product and the
    eigenvectors may differ in their last bits.
    """
    if not 0.0 < evr_target < 1.0:
        raise ValueError(f"evr_target must be in (0, 1), got {evr_target}")
    gamma = _check_kernel(kernel_kind, gamma)
    xn = normalize_rows(x, "train")
    n = xn.shape[0]
    # Not from xn: normalizing it again would move some of its last bits.
    k = gram(kernel_kind, gamma, x)

    eig = sym_eig(k)
    # The unit diagonal makes the spectrum sum to N, so it is never all zero.
    q = choose_q(np.clip(eig.eigenvalues, 0.0, None), evr_target)
    l = n - q
    if l < 1:
        warnings.warn(
            f"explained-variance target {evr_target} keeps every Gram "
            f"eigenvector (N={n}, q={q}); clamping the residual dimension to 1",
            stacklevel=2,
        )
        l = 1
    leading = _through_kept(n - l, n)
    vectors = eig.eigenvectors[:, : n - l] if leading else eig.eigenvectors[:, n - l :]
    vectors = np.ascontiguousarray(vectors)
    return KernelSpaceModel(
        kernel_kind=kernel_kind,
        gamma=gamma,
        train=xn,
        residual_vectors=None if leading else vectors,
        l=l,
        evr_target=float(evr_target),
        leading_vectors=vectors if leading else None,
    )


def score_kernelspace(model: KernelSpaceModel, x) -> np.ndarray:
    """Negated norm of the kernel vector projected on the trailing vectors.

    That is ||A^T k|| through the trailing vectors A, or ||k - V V^T k||
    through the leading vectors V, computed in place on the kernel block.
    Queries run through the same normalization as training, one row block
    at a time; per-query time and memory are linear in the stored training
    size.
    """
    train = model.train
    work = _Workspace()

    def kernel_rows(rows):
        xn = normalize_rows(rows, dim=train.shape[1])
        return _kernel(model.kernel_kind, model.gamma, work.matmul("kernel", xn, train.T))

    if model.residual_vectors is None:
        return -_residual_norms(kernel_rows, x, model.leading_vectors, True, work=work)
    return -_residual_norms(kernel_rows, x, model.residual_vectors, False, work=work)
