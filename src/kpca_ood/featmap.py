"""Explicit non-linear feature maps of the covariance methods.

A ``FeatureMapSpec`` names a covariance row of ``fileio.METHODS``: its
``stage``, identity (pca) or unit-norm (cosine) scaling (cop), and its
``rff``, random Fourier features after the cosine stage (corp, colp) whose
inner products approximate a kernel of ``RFF_KERNELS``. Their frequencies
are drawn per-coordinate N(0, sqrt(2*gamma)) for the squared-exponential
kernel exp(-gamma*||a-b||_2^2) and Cauchy(scale=gamma) for the
exponential-of-L1 kernel exp(-gamma*||a-b||_1), the latter by the
inverse-CDF transform gamma*tan(pi*(u-1/2)) of uniform u in ``rff_build``;
phases are uniform on [0, 2*pi). A map is frozen once built: applying it is
pure, and the stored frequencies/phases (not the seed) are authoritative.

``map_apply`` passes its input through the ingestion gate
(``linalg.as_feature_matrix``) with the map's input width; the steps after
it trust the validated rows. The Fourier stage works in place on the one
N x M array it allocates (GEMM, phase, scaled cosine), so it never writes
to its input and holds a single N x M temporary. ``row_norms`` holds the
one zero-norm rule, for this module and for its callers elsewhere.

A single query row goes through ``map_apply`` as a block of one row, with
the batch's steps and calls: the gate, the norm column and its zero-norm
test (``linalg._least``), the row scale, the GEMM (``linalg._product``, a
GEMV for one row) and the cosine. The result stays 2-D for every block.

The Fourier stage's cosine (``_scaled_cos``) is a table cosine: float64
``np.cos`` is scalar libm, several times the cost of the rest of the map.
With h = 2*pi/4096, t = n*h + r, n = rint(t/h), r is reduced by a
two-part Cody-Waite split of h, r = (t - n*h1) - n*h23 with h1 of 26
significant bits (so n*h1 and the difference are exact) and h23 the
rounded rest of h (its product adds at most about 1e-19 to r), and
cos t = C[n mod 4096] cos r - S[n mod 4096] sin r with short polynomials
for |r| <= pi/4096. sqrt(2/M) is folded into the tables, which are built
on first use. The result is within about 1.1e-16 of cos t (one ulp of
``np.cos``). ``np.cos`` stays where it is faster, on arrays of fewer than
4096 elements (every single-row query), and where the reduction would
lose accuracy, on any chunk holding an |t| >= 1e5 or a non-finite t.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBandwidthError, InvalidSpecError, ZeroVectorError
from .linalg import (
    _BLOCK_BYTES,
    _least,
    _product,
    _row_blocks,
    _row_norms,
    as_feature_matrix,
)
from .rng import make_prng

# Norms below this are treated as degenerate zero features.
ZERO_NORM_FLOOR = 1e-30
MEDIAN_HEURISTIC_ROWS = 2000  # the most rows median_heuristic_gamma looks at
# The most bytes of median_heuristic_gamma's outer-sum scratch. With the
# distances it meets it fits a 2 MiB L2 cache; a block-sized one measured slower.
_OUTER_SUM_BYTES = 2**20

GAUSSIAN = "gaussian"
LAPLACIAN = "laplacian"
RFF_KERNELS = (GAUSSIAN, LAPLACIAN)  # a model file's kernel byte is the position here

IDENTITY_STAGE = "identity"
COSINE_STAGE = "cosine"

# The Fourier stage's table cosine (``_scaled_cos``). The table holds the
# cosine and sine of k * STEP, STEP = 2*pi/4096, and STEP = STEP1 + STEP2 +
# STEP3 (to about 1e-36) with STEP1 and STEP2 of 26 significant bits each.
# The reduction uses STEP1 and STEP23 = fl(STEP2 + STEP3).
_TABLE_SIZE = 4096
_INV_STEP = 651.8986469044033  # 4096 / (2*pi)
_STEP1 = 0.001533980801468715
_STEP2 = -1.3583073901757281e-11
_STEP3 = 5.979720698961686e-20
_STEP23 = _STEP2 + _STEP3
# |t| < 1e5 keeps |n| < 2**26, so n * STEP1 is exact, and n * STEP23 is
# below 1e-3, so its rounding is below 1.1e-19.
_TABLE_MAX_ARG = 1e5
# Below this many elements np.cos is faster than the table's fixed cost.
_TABLE_MIN_SIZE = 4096
# Elements per pass of the table path: its temporaries fit in L2.
_TABLE_CHUNK = 16384


def row_norms(x) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean norm of every row, and the indices of the zero-norm rows.

    A row is zero when its norm is below ZERO_NORM_FLOOR: it has no
    direction, which indicates upstream corruption rather than a sample.
    Each row block passes the ingestion gate, as in normalize_rows, and
    only one block's float64 rows and squares are held at a time; an input
    that is not a non-empty 2-D array is gated whole.
    """
    if not isinstance(x, np.ndarray) or x.ndim != 2 or not x.size:
        x = as_feature_matrix(x)
    norms = _row_blocks(lambda b: _row_norms(as_feature_matrix(b)), x, x.shape[1])
    return norms[:, 0], np.flatnonzero(norms < ZERO_NORM_FLOOR)


def _nonzero_row_norms(x: np.ndarray, name: str = "features") -> np.ndarray:
    """Row norms, as an N x 1 column, of rows that passed as_feature_matrix;
    a zero row raises."""
    norms = _row_norms(x)
    # The first zero row is looked for only when there is one.
    if _least(norms) < ZERO_NORM_FLOOR:
        raise ZeroVectorError(name, int(np.flatnonzero(norms < ZERO_NORM_FLOOR)[0]))
    return norms


def normalize_rows(x, name: str = "features", dim: int | None = None) -> np.ndarray:
    """Unit-normalize every row; reports the first degenerate row index."""
    x = as_feature_matrix(x, name, dim)
    return x / _nonzero_row_norms(x, name)


@dataclass(frozen=True, eq=False)
class RffMap:
    """Random Fourier feature map: z -> sqrt(2/M) * cos(omega @ z + bias)."""

    kernel_kind: str
    gamma: float
    omegas: np.ndarray  # (M, d_in)
    biases: np.ndarray  # (M,)
    seed: int

    @property
    def n_features(self) -> int:
        return self.omegas.shape[0]

    @property
    def input_dim(self) -> int:
        return self.omegas.shape[1]


def rff_build(kernel_kind: str, gamma: float, m: int, d_in: int, seed: int) -> RffMap:
    """Sample the frequencies and phases of a random Fourier feature map.

    The draw order is fixed (all omegas row-major, then all biases) so a
    map is bit-reproducible from (kernel_kind, gamma, m, d_in, seed).
    """
    if kernel_kind not in RFF_KERNELS:
        raise InvalidSpecError(f"unknown kernel kind {kernel_kind!r}")
    if not 0 < gamma < np.inf:
        raise InvalidBandwidthError(f"gamma must be finite and > 0, got {gamma}")
    if m < 1 or d_in < 1:
        raise InvalidSpecError(f"need m >= 1 and d_in >= 1, got m={m}, d_in={d_in}")
    prng = make_prng(seed)
    if kernel_kind == GAUSSIAN:
        omegas = prng.normal(0.0, float(np.sqrt(2.0 * gamma)), m * d_in)
    else:
        # Cauchy(0, gamma) by its inverse CDF, gamma * tan(pi * (u - 1/2)).
        omegas = gamma * np.tan(np.pi * (prng.uniform(0.0, 1.0, m * d_in) - 0.5))
    return RffMap(
        kernel_kind=kernel_kind,
        gamma=float(gamma),
        omegas=omegas.reshape(m, d_in),
        biases=prng.uniform(0.0, 2.0 * np.pi, m),
        seed=int(seed),
    )


@functools.lru_cache(maxsize=8)  # 64 KiB a table pair, one pair per M
def _cos_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(2/m) * cos(k * STEP) and sqrt(2/m) * sin(k * STEP) for k < 4096,
    each rounded once to float64 from long double (correctly rounded where
    long double is wider). Only the first octant (k <= 512) is evaluated;
    the rest is filled in by symmetry, so the symmetries hold exactly.
    Built on first use, never at import.
    """
    step = (np.longdouble(_STEP1) + np.longdouble(_STEP2)) + np.longdouble(_STEP3)
    angle = np.arange(_TABLE_SIZE // 8 + 1, dtype=np.longdouble) * step
    c, s = np.cos(angle), np.sin(angle)
    c, s = np.concatenate([c, s[-2:0:-1]]), np.concatenate([s, c[-2:0:-1]])
    c, s = np.concatenate([c, -s, -c, s]), np.concatenate([s, c, -s, -c])
    scale = np.longdouble(np.sqrt(2.0 / m))
    return (c * scale).astype(np.float64), (s * scale).astype(np.float64)


def _scaled_cos(t: np.ndarray, m: int) -> np.ndarray:
    """sqrt(2/m) * cos(t) in place on the C-contiguous array t.

    The table cosine of the module docstring, with
    cos r - 1 = r^2 (r^2/24 - 1/2) and sin r = r (1 - r^2/6), each to below
    1e-17 for |r| <= pi/4096. The polynomials are formed in the output
    chunk, which holds t only until r is reduced.
    """
    if t.size < _TABLE_MIN_SIZE:
        np.cos(t, out=t)
        t *= math.sqrt(2.0 / m)
        return t
    ctab, stab = _cos_tables(m)
    flat = t.reshape(-1)
    size = min(flat.size, _TABLE_CHUNK)
    n, r, c, s = (np.empty(size) for _ in range(4))
    k = np.empty(size, dtype=np.intp)
    for start in range(0, flat.size, _TABLE_CHUNK):
        x = flat[start : start + _TABLE_CHUNK]
        if not (x.min() > -_TABLE_MAX_ARG and x.max() < _TABLE_MAX_ARG):
            np.cos(x, out=x)
            x *= math.sqrt(2.0 / m)
            continue
        if x.size < size:
            n, r, c, s, k = (a[: x.size] for a in (n, r, c, s, k))
        np.multiply(x, _INV_STEP, out=n)
        np.rint(n, out=n)
        np.copyto(k, n, casting="unsafe")
        np.bitwise_and(k, _TABLE_SIZE - 1, out=k)
        np.take(ctab, k, out=c, mode="clip")
        np.take(stab, k, out=s, mode="clip")
        np.multiply(n, _STEP1, out=r)
        np.subtract(x, r, out=r)
        n *= _STEP23
        r -= n
        w = np.multiply(r, r, out=n)
        # s * sin r
        np.multiply(w, -1.0 / 6.0, out=x)
        x += 1.0
        x *= r
        s *= x
        # c * (cos r - 1) - s * sin r, added to c last
        np.multiply(w, 1.0 / 24.0, out=x)
        x -= 0.5
        x *= w
        x *= c
        x -= s
        x += c
    return t


@dataclass(frozen=True, eq=False)
class FeatureMapSpec:
    """A covariance method's feature map, applied row-wise.

    ``stage`` is "identity" for pca or "cosine" for cop; corp and colp
    follow the cosine stage with ``rff``, an RffMap on input_dim.
    """

    stage: str
    input_dim: int
    rff: RffMap | None = None

    def __post_init__(self):
        if self.input_dim < 1:
            raise InvalidSpecError(f"input_dim must be >= 1, got {self.input_dim}")
        # What is not a string is named by its type: an RffMap's repr has arrays.
        stage = self.stage if isinstance(self.stage, str) else type(self.stage)
        if stage not in (IDENTITY_STAGE, COSINE_STAGE):
            raise InvalidSpecError(f"unknown map stage {stage!r}")
        rff = self.rff
        if rff is not None:
            if stage != COSINE_STAGE or not isinstance(rff, RffMap):
                raise InvalidSpecError(
                    f"rff must be an RffMap after the cosine stage, "
                    f"got {type(rff).__name__} after {stage!r}"
                )
            if rff.kernel_kind not in RFF_KERNELS:
                raise InvalidSpecError(f"unknown kernel kind {rff.kernel_kind!r}")
            if rff.input_dim != self.input_dim:
                raise InvalidSpecError(
                    f"rff stage expects input dim {rff.input_dim}, "
                    f"map input is {self.input_dim}"
                )

    @property
    def output_dim(self) -> int:
        return self.input_dim if self.rff is None else self.rff.n_features


def identity_spec(dim: int) -> FeatureMapSpec:
    return FeatureMapSpec(IDENTITY_STAGE, dim)


def cosine_spec(dim: int) -> FeatureMapSpec:
    return FeatureMapSpec(COSINE_STAGE, dim)


def cosine_rff_spec(rff: RffMap) -> FeatureMapSpec:
    return FeatureMapSpec(COSINE_STAGE, rff.input_dim, rff)


def map_apply(spec: FeatureMapSpec, x) -> np.ndarray:
    """Gate all rows of x, then apply the spec's stage and its Fourier map.

    With the identity map the result may be x itself, so callers must not
    modify it in place.
    """
    out = as_feature_matrix(x, dim=spec.input_dim)
    if spec.stage == COSINE_STAGE:
        out = out / _nonzero_row_norms(out)
    rff = spec.rff
    if rff is not None:
        out = _product(out, rff.omegas.T)
        # A (1, M) view: a one-row block then adds an operand of its own
        # shape, which numpy does without setting up a broadcast.
        out += rff.biases[None]
        return _scaled_cos(out, rff.n_features)
    return out


def _heuristic_rows(n: int):
    """The rows median_heuristic_gamma looks at among n: all of them, or
    MEDIAN_HEURISTIC_ROWS evenly strided ones."""
    if n <= MEDIAN_HEURISTIC_ROWS:
        return slice(None)
    return np.linspace(0, n - 1, MEDIAN_HEURISTIC_ROWS).astype(np.intp)


def median_heuristic_gamma(x) -> float:
    """Bandwidth from the median pairwise distance: 1 / (2 * median^2).

    Uses an evenly strided subsample of at most MEDIAN_HEURISTIC_ROWS rows
    (``_heuristic_rows``) so the estimate is deterministic and cheap on
    large training sets.

    The squared distances of the n subsample rows are written straight
    into one selection buffer, a row block at a time, so no N x N
    temporary is formed. Block [a, b) (at most _BLOCK_BYTES // (8 * n)
    rows) holds rows a..b-1 against columns a+1..n-1 as a row-major
    (b - a) x (n - 1 - a) rectangle, pair (i, j) at (i - a, j - a - 1);
    the buffer is the blocks' rectangles back to back. Each rectangle is
    the GEMM (2 x_i) . x_j, written in place, then (sq_i + sq_j) minus
    it. The outer sum is made in one scratch array of at most
    _OUTER_SUM_BYTES, which every part of every block reuses. Doubling is
    exact (short of subnormal products), so these are the bits of
    sq_i + sq_j - 2.0 * x_i.x_j. The pairs j <= i, a strict lower
    triangle at each rectangle's left edge, are set to +inf so they sort
    after every distance. The buffer holds the n (n - 1) / 2 distances
    plus those triangles (about n * rows / 2 more, some 13% at
    n = 2000); the scratch array adds at most 1 MiB.

    The median is selected on the squared distances. Clipping at 0 and
    sqrt are monotone, so they commute with order statistics: the one or
    two middle squared distances, clipped and rooted, then averaged as
    ``(a + b) / 2.0`` (the formula ``np.median`` uses), give the bits
    ``np.median`` gives on all the distances. ``np.median`` is not used
    because it partitions at two or three positions, and it would need
    every value clipped and rooted first; one ``partition`` at the upper
    middle position and a ``max`` below it select the same values in a
    fraction of the time.

    Raises InvalidBandwidthError for fewer than 2 rows, for squared row
    norms that overflow, and for a median squared distance no larger than
    the rounding error of sq_i + sq_j - 2 x_i.x_j, which identical rows
    leave as a few ulps of the largest squared norm instead of zero.
    """
    x = as_feature_matrix(x)
    x = x[_heuristic_rows(x.shape[0])]
    n = x.shape[0]
    if n < 2:
        raise InvalidBandwidthError("need at least 2 rows for the median heuristic")
    with np.errstate(over="ignore"):
        sq = np.sum(x * x, axis=1)
        # Every squared distance below is at most 4 * max(sq), so nothing
        # overflows once this is finite.
        overflow = not np.isfinite(4.0 * sq.max())
    if overflow:
        raise InvalidBandwidthError(
            "squared row norms overflow; cannot derive a bandwidth"
        )
    # The GEMM blocks keep the _BLOCK_BYTES rule, so gamma keeps its bits: a
    # GEMM's last bits depend on its row count. The outer sum is made for a
    # part of a block at a time, so it and the distances it meets stay in cache.
    rows = min(max(1, _BLOCK_BYTES // (8 * n)), n - 1)
    part = min(max(1, _OUTER_SUM_BYTES // (8 * n)), rows)
    starts = range(0, n - 1, rows)
    sizes = [(min(a + rows, n - 1) - a) * (n - 1 - a) for a in starts]
    dist, outer = np.empty(sum(sizes)), np.empty(part * (n - 1))
    twice = x * 2.0
    lower = np.tri(rows, k=-1, dtype=bool)
    done = 0
    for a, size in zip(starts, sizes):
        m, cols = min(a + rows, n - 1) - a, n - 1 - a
        view = dist[done : done + size].reshape(m, cols)
        np.matmul(twice[a : a + m], x[a + 1 :].T, out=view)
        for r in range(0, m, part):
            e = min(r + part, m)
            s = outer[: (e - r) * cols].reshape(e - r, cols)
            np.add(sq[a + r : a + e, None], sq[None, a + 1 :], out=s)
            np.subtract(s, view[r:e], out=view[r:e])
        np.copyto(view[:, :m], np.inf, where=lower[:m, :m])
        done += size
    pairs = n * (n - 1) // 2
    k = pairs // 2
    dist.partition(k)
    # np.median's middle pair, the same value twice for an odd count.
    lo = dist[k] if pairs % 2 else dist[:k].max()
    # The worst-case rounding error of sq_i + sq_j - 2 x_i.x_j over d terms;
    # a median squared distance within it cannot be told from zero.
    noise = 2.0 * (x.shape[1] + 2) * np.finfo(np.float64).eps * sq.max()
    lo, hi = np.sqrt(np.clip([lo, dist[k]], 0.0, None))
    med = float((lo + hi) / 2.0)
    if dist[k] <= noise or med < ZERO_NORM_FLOOR:
        raise InvalidBandwidthError(
            "median pairwise distance is zero; cannot derive a bandwidth"
        )
    return 1.0 / (2.0 * med * med)
