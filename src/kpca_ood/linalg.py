"""Feature-matrix validation and dense symmetric eigendecomposition.

The eigensolver is LAPACK's divide-and-conquer ``syevd``, reached through
``numpy.linalg.eigh``. Its input is first symmetrized exactly via
(A + A^T)/2, after a check that the asymmetry is only rounding noise.

LAPACK fixes each eigenvector only up to sign, and which sign it returns
is an implementation detail. ``sym_eig`` therefore applies one sign rule:
every eigenvector column is flipped so that its largest-magnitude entry is
positive (the first such entry on a tie). With it a fixed input gives the
same bytes on every call, which saved models rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, NonFiniteError, NonSymmetricError

# Absolute tolerance on |A - A^T| for inputs to the eigensolver.
SYMMETRY_TOL = 1e-9


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
    if not np.all(np.isfinite(x)):
        raise NonFiniteError(f"{name} contains NaN or Inf")
    return x


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
