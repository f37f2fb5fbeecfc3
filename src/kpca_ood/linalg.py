"""Feature-matrix validation and dense symmetric eigendecomposition.

``as_feature_matrix`` is the one ingestion gate: every rule a feature row
must meet (a real, 2-D, non-empty matrix of the expected width, all
entries finite) is checked there and nowhere else. It is also the only
code that converts outside feature data to float64, and it converts a list
once.

The eigensolver is LAPACK's divide-and-conquer ``syevd``, reached through
``numpy.linalg.eigh``. Its input is first symmetrized exactly via
(A + A^T)/2, after a check that the asymmetry is only rounding noise.

LAPACK fixes each eigenvector only up to sign, and which sign it returns
is an implementation detail. ``sym_eig`` therefore applies one sign rule:
every eigenvector column is flipped so that its largest-magnitude entry is
positive (the first such entry on a tie). With it a fixed input gives the
same bytes on every call at a fixed BLAS thread count, which saved models
rely on. Another thread count may change the last bits of the
eigenvectors, because the threaded BLAS calls inside LAPACK may split
their sums differently.

``_row_blocks`` runs a per-row computation over fixed-size row blocks, so
the batch paths (fit, the covariance and Gram scorers, knn) hold
temporaries of block x width rather than N x width. Each of them calls the
gate on every block, not on its whole input, so a float32 input is upcast
to float64 one block at a time. ``_residual_norms`` is the one residual
routine on them: every eigenbasis scorer (covariance U, R and residual
basis; Gram V and A) takes its per-row error from it, through the basis
that ``_through_kept`` finds cheaper.

A single query row is a block of one row: ``_row_blocks`` hands a (1, d)
array, unconverted, to the same per-block function as every block of a
batch, and the gate, the map and the residual norm keep it 2-D. A row of
32 numbers costs what its numpy calls cost, so the per-block steps use the
cheapest call with the batch's bits. Small products are ``ndarray.dot``
(``_product``), the BLAS call of ``@`` without the ufunc dispatch of
``np.matmul``. The all-finite and zero-norm tests read ``argmin`` and
``item`` (``_least``) instead of ``all()`` and ``min()``, which run through
a Python wrapper. Row norms are a column (``keepdims``) that divides the
rows without a reshape.

The Gram scorer and knn allocate their large block temporaries once per
call, not once per block: a ``_Workspace`` holds them for the call, every
block writes into the same arrays, and the last, shorter block into their
leading rows. Memory the allocator handed back between blocks would be
paged in again by the next block, which cost about half the time of a
Gram-path score. An input that fits in one block (every single-row query)
is the exception: it is passed whole, the workspace hands out nothing and
numpy allocates as it would without one. No block result is a view of
the workspace, and nothing outlives the call. The covariance paths keep
per-block arrays, because their widest one comes from the map: arrays
kept beside it for the call would only add to each block's peak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
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
# Products with fewer elements than this are formed by ndarray.dot (_product).
_DOT_MAX_SIZE = 4096


def as_feature_matrix(
    data, name: str = "features", dim: int | None = None
) -> np.ndarray:
    """Validate and return a 2-D float64 row-major feature matrix.

    Rejects complex input (before any conversion could drop its imaginary
    parts), None (which numpy would convert to NaN), shapes that are not
    2-D (named as passed) or are empty, a width other than ``dim`` (when
    given) and non-finite entries; this is the single ingestion gate, so
    downstream code can assume clean matrices.
    """
    a = data if type(data) is np.ndarray else np.asarray(data)
    kind = a.dtype.kind
    if kind == "c":
        raise DataError(f"{name} must be real, got dtype {a.dtype}")
    # A numeric list is converted once, from ``a``; any other kind is
    # converted from ``data``, so numpy's error names the value as given.
    x = np.ascontiguousarray(a if kind in "biuf" else data, dtype=np.float64)
    # One test on the accepted path; _rejection finds the rule that failed.
    if not (
        x.ndim == 2
        and x.size
        and (dim is None or x.shape[1] == dim)
        and _least(np.isfinite(x))
    ):
        raise _rejection(a, x, name, dim)
    return x


def _least(a: np.ndarray):
    """The smallest entry of a non-empty array, as a Python scalar; of a
    boolean array, whether every entry is True.

    ``argmin`` and ``item`` are ndarray methods in C: ``a.min()`` and
    ``a.all()`` go through a Python wrapper and a ufunc reduction, about
    1 us more on a one-row block, and ``argmin`` also scans a 2048 x 64
    boolean block in less time than ``all()``.
    """
    return a.item(a.argmin())


def _rejection(a: np.ndarray, x: np.ndarray, name: str, dim) -> DataError:
    """The error for ``x``, converted from ``a`` by as_feature_matrix, that
    breaks one of its rules (the first, in the order they are listed)."""
    # numpy converts None to NaN; it is not a number the caller gave.
    if a.dtype.kind == "O" and any(v is None for v in a.flat):
        return DataError(f"{name} must be numeric, got None")
    if x.ndim != 2:
        # a has the caller's shape; x is at least 1-D.
        return DimMismatchError(f"{name} must be 2-D, got shape {a.shape}")
    if not x.size:
        return DimMismatchError(f"{name} must be non-empty, got shape {x.shape}")
    if dim is not None and x.shape[1] != dim:
        return DimMismatchError(f"{name} must have {dim} columns, got {x.shape[1]}")
    return NonFiniteError(f"{name} contains NaN or Inf")


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a real matrix, as an N x 1 column.

    numpy's own ``norm(x, axis=1)`` formula for real input, with the same
    bits, without the dispatch that is a measurable share of a single-row
    query. The column divides the rows without a reshape.
    """
    return np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))


def _block_rows(width: int) -> int:
    """Rows in a block whose widest float64 temporary has ``width`` columns."""
    return max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // (8 * width))


class _Workspace:
    """The large temporaries of one batch call, shared by its row blocks.

    ``_row_blocks`` opens it for its block height ``rows`` before the first
    of several blocks. Until then (an input that fits in one block)
    ``matmul`` is plain ``_product(a, b)``. Once opened,
    ``matmul`` writes a @ b into the leading elements of the call's flat
    array ``key``, made on its first use with ``room`` elements, by default
    ``rows`` x the product's width, so a shorter block takes the leading
    rows of the same array.
    """

    rows = 0

    def open(self, rows: int) -> None:
        self.rows, self._arrays = rows, {}

    def matmul(self, key: str, a: np.ndarray, b: np.ndarray, room: int | None = None):
        if not self.rows:
            return _product(a, b)
        n, cols = a.shape[0], b.shape[1]
        flat = self._arrays.get(key)
        if flat is None:
            flat = self._arrays[key] = np.empty(
                self.rows * cols if room is None else room
            )
        return np.matmul(a, b, out=flat[: n * cols].reshape(n, cols))


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of 2-D arrays; by ``ndarray.dot`` when it has fewer than
    _DOT_MAX_SIZE elements.

    Both make the same BLAS call, so they give the same bits. ``dot`` skips
    the ufunc dispatch of ``np.matmul``, about 0.6 us, but zero-fills its
    output before the call, which costs more than that from about 4096
    elements: 19% more for a 4096 x 128 map product, one thread.
    """
    if a.shape[0] * b.shape[1] < _DOT_MAX_SIZE:
        return a.dot(b)
    return a @ b


def _matmul(key: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``_Workspace.matmul`` without a workspace."""
    return _product(a, b)


def _row_blocks(fn, x, width: int, fold=None, work: _Workspace | None = None):
    """Apply ``fn`` to consecutive row blocks of ``x`` and combine the results.

    A block has max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // (8 * width)) rows,
    where ``width`` is the number of columns of the widest temporary ``fn``
    makes. An input that fits in one block, or is not 2-D, goes to ``fn``
    whole and its result is returned as is, with no copy. Otherwise ``work``
    (the workspace ``fn`` takes its temporaries from, if any) is sized for
    the blocks, and the block results are concatenated along rows or, given
    ``fold``, combined left to right as fold(acc, result), so only one is
    held at a time. A ZeroVectorError naming a row of a block is re-raised
    with the row's index in ``x``.
    """
    if type(x) is not np.ndarray:
        x = np.asarray(x)
    # The first test settles small inputs, single rows included, cheaply.
    if x.ndim != 2 or x.shape[0] <= _MIN_BLOCK_ROWS:
        return fn(x)
    rows = _block_rows(width)
    if x.shape[0] <= rows:
        return fn(x)
    if work is not None:
        work.open(rows)
    parts, acc = [], None
    for start in range(0, x.shape[0], rows):
        try:
            part = fn(x[start : start + rows])
        except ZeroVectorError as exc:
            raise ZeroVectorError(exc.name, exc.row_index + start) from None
        if fold is None:
            parts.append(part)
        else:
            acc = part if acc is None else fold(acc, part)
    return acc if fold is not None else np.concatenate(parts)


def _through_kept(kept: int, width: int) -> bool:
    """Whether a residual costs fewer multiply-adds through the kept basis.

    ||y - V V^T y|| through the kept basis V (width x kept) is two GEMMs,
    2 * kept multiply-adds per entry of a row y; ||P^T y|| through an
    orthonormal basis P of V's complement is one GEMM, width - kept per
    entry. Both the covariance and the Gram path choose their orientation
    by this rule.
    """
    return 2 * kept < width - kept


def _residual_norms(
    features, x, basis: np.ndarray, kept: bool, offset=None,
    work: _Workspace | None = None,
):
    """Per-row norm of the part of each feature row y outside a subspace.

    ``features`` maps a row block of ``x`` to y, an array it made. With
    ``kept``, ``basis`` V spans the subspace: ||y - V V^T y||, in place on y.
    Otherwise ``basis`` P spans (part of) its complement: ||P^T y - offset||.
    ``_through_kept`` tells which of the two costs less. The norm squares y
    in place, with the bits of ``_row_norms``.

    ``work`` is the caller's workspace, from which ``features`` takes y; the
    products here then take theirs from it too. Without one, each block
    allocates its products, as ``features`` allocates y: kept for the call,
    they could not share memory with the temporaries ``features`` frees, so
    they would only raise every block's peak.
    """
    matmul = _matmul if work is None else work.matmul

    def block(rows):
        y = features(rows)
        if kept:
            y -= matmul("product", matmul("kept", y, basis), basis.T)
        else:
            y = matmul("projection", y, basis)
            if offset is not None:
                y -= offset
        y *= y
        return np.sqrt(np.add.reduce(y, axis=-1))

    return _row_blocks(block, x, basis.shape[0], work=work)


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
    signed so that its largest-magnitude entry is positive. The result is
    the same bytes for the same input at the same BLAS thread count; at
    another count the eigenvectors may differ in their last bits.
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
