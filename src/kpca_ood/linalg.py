"""Feature-matrix validation and dense symmetric eigendecomposition.

The eigensolver is LAPACK's divide-and-conquer ``syevd``, reached through
``numpy.linalg.eigh``. Its input is first symmetrized exactly via
(A + A^T)/2, after a check that the asymmetry is only rounding noise.

LAPACK fixes each eigenvector only up to sign, and which sign it returns
is an implementation detail. ``sym_eig`` therefore applies one sign rule:
every eigenvector column is flipped so that its largest-magnitude entry is
positive (the first such entry on a tie). With it a fixed input gives the
same bytes on every call, which saved models rely on.

``_row_blocks`` runs a per-row computation over fixed-size row blocks, so
the batch paths (fit, the covariance and Gram scorers, knn) hold
temporaries of block x width rather than N x width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatchError,
    NonFiniteError,
    NonSymmetricError,
    ZeroVectorError,
)

# Absolute tolerance on |A - A^T| for inputs to the eigensolver.
SYMMETRY_TOL = 1e-9

# A row block holds about this many bytes per float64 temporary of the
# block's width, and never fewer than _MIN_BLOCK_ROWS rows.
_BLOCK_BYTES = 4 * 2**20
_MIN_BLOCK_ROWS = 64


def as_feature_matrix(data, name: str = "features") -> np.ndarray:
    """Validate and return a 2-D float64 row-major feature matrix.

    Rejects empty shapes and non-finite entries; this is the single
    ingestion gate, so downstream code can assume clean matrices.
    """
    x = np.ascontiguousarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise DimMismatchError(f"{name} must be 2-D, got shape {x.shape}")
    if x.shape[0] < 1 or x.shape[1] < 1:
        raise DimMismatchError(f"{name} must be non-empty, got shape {x.shape}")
    # The ndarray method skips np.all's Python wrapper, which is a
    # measurable share of a single-row query.
    if not np.isfinite(x).all():
        raise NonFiniteError(f"{name} contains NaN or Inf")
    return x


def _row_blocks(fn, x, width: int, fold=None):
    """Apply ``fn`` to consecutive row blocks of ``x`` and combine the results.

    A block has max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // (8 * width)) rows,
    where ``width`` is the number of columns of the widest temporary ``fn``
    makes. An input that fits in one block, or is not 2-D, goes to ``fn``
    whole and its result is returned as is, with no copy. Otherwise the
    block results are concatenated along rows or, given ``fold``, combined
    left to right as fold(acc, result), so only one is held at a time. A
    ZeroVectorError naming a row of a block is re-raised with the row's
    index in ``x``.
    """
    x = np.asarray(x)
    # The first test settles small inputs, single rows included, cheaply.
    if x.ndim != 2 or x.shape[0] <= _MIN_BLOCK_ROWS:
        return fn(x)
    rows = max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // (8 * width))
    if x.shape[0] <= rows:
        return fn(x)
    parts, acc = [], None
    for start in range(0, x.shape[0], rows):
        try:
            part = fn(x[start : start + rows])
        except ZeroVectorError as exc:
            if exc.row_index is None:
                raise
            i = exc.row_index + start
            raise ZeroVectorError(f"row {i} has zero norm", row_index=i) from None
        if fold is None:
            parts.append(part)
        else:
            acc = part if acc is None else fold(acc, part)
    return acc if fold is not None else np.concatenate(parts)


@dataclass(eq=False)
class SymEigResult:
    """Eigendecomposition of a symmetric matrix.

    ``eigenvalues`` are sorted non-increasing; column k of ``eigenvectors``
    pairs with eigenvalue k. Raw eigenvalues are returned (tiny negatives
    from rounding are not clamped here; callers clamp where a PSD floor is
    assumed).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(matrix) -> SymEigResult:
    """Eigendecompose a square symmetric real matrix.

    Raises NonSymmetricError if |A - A^T| exceeds SYMMETRY_TOL anywhere,
    NonFiniteError on NaN/Inf. The input is symmetrized exactly via
    (A + A^T)/2 before it is decomposed; each eigenvector column is
    signed so that its largest-magnitude entry is positive.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSymmetricError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix contains NaN or Inf")
    n = a.shape[0]
    if n == 0:
        return SymEigResult(np.empty(0), np.empty((0, 0)))
    asym = float(np.max(np.abs(a - a.T)))
    if asym > SYMMETRY_TOL:
        raise NonSymmetricError(
            f"asymmetry {asym:.3e} exceeds tolerance {SYMMETRY_TOL:.1e}"
        )

    lam, vec = np.linalg.eigh(0.5 * (a + a.T))
    lam, vec = lam[::-1].copy(), vec[:, ::-1]
    pivot = vec[np.argmax(np.abs(vec), axis=0), np.arange(n)]
    vec = vec * np.where(pivot < 0.0, -1.0, 1.0)
    return SymEigResult(lam, np.ascontiguousarray(vec))
