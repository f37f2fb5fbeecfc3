"""Explicit non-linear feature maps and their composition.

Two building blocks: unit-norm (cosine) scaling, and random Fourier
features whose inner products approximate a shift-invariant kernel. The
Fourier frequencies are drawn per-coordinate N(0, sqrt(2*gamma)) for the
squared-exponential kernel exp(-gamma*||a-b||_2^2) and Cauchy(scale=gamma)
for the exponential-of-L1 kernel exp(-gamma*||a-b||_1); phases are uniform
on [0, 2*pi). A map is frozen once built: applying it is pure, and the
stored frequencies/phases (not the seed) are authoritative.

``map_apply`` validates its input once; the stages after it trust the
validated rows. The Fourier stage works in place on the one N x M array it
allocates (GEMM, phase, cosine, scale), so it never writes to its input and
holds a single N x M temporary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatchError,
    InvalidBandwidthError,
    InvalidSpecError,
    ZeroVectorError,
)
from .linalg import as_feature_matrix
from .rng import make_prng, sample_cauchy, sample_gaussian, sample_uniform

# Norms below this are treated as degenerate zero features.
ZERO_NORM_FLOOR = 1e-30

GAUSSIAN = "gaussian"
LAPLACIAN = "laplacian"

IDENTITY_STAGE = "identity"
COSINE_STAGE = "cosine"


def cosine_apply(z) -> np.ndarray:
    """Scale a vector to unit Euclidean norm.

    Raises ZeroVectorError when the norm is below ZERO_NORM_FLOOR; a zero
    feature vector indicates upstream corruption rather than a scorable
    sample.
    """
    v = np.asarray(z, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 1:
        raise DimMismatchError(f"expected a 1-D vector, got shape {v.shape}")
    n = float(np.linalg.norm(v))
    if n < ZERO_NORM_FLOOR:
        raise ZeroVectorError("cannot normalize a zero vector")
    return v / n


def normalize_rows(x: np.ndarray, name: str = "features") -> np.ndarray:
    """Unit-normalize every row; reports the first degenerate row index."""
    return _normalize_valid_rows(as_feature_matrix(x, name), name)


def _normalize_valid_rows(x: np.ndarray, name: str = "features") -> np.ndarray:
    """normalize_rows for rows that already passed as_feature_matrix."""
    norms = np.linalg.norm(x, axis=1)
    bad = np.flatnonzero(norms < ZERO_NORM_FLOOR)
    if bad.size:
        i = int(bad[0])
        raise ZeroVectorError(f"{name} row {i} has zero norm", row_index=i)
    return x / norms[:, None]


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
    if kernel_kind not in (GAUSSIAN, LAPLACIAN):
        raise InvalidSpecError(f"unknown kernel kind {kernel_kind!r}")
    if not gamma > 0:
        raise InvalidBandwidthError(f"gamma must be > 0, got {gamma}")
    if m < 1 or d_in < 1:
        raise InvalidSpecError(f"need m >= 1 and d_in >= 1, got m={m}, d_in={d_in}")
    prng = make_prng(seed)
    if kernel_kind == GAUSSIAN:
        omegas = sample_gaussian(prng, m * d_in, float(np.sqrt(2.0 * gamma)))
    else:
        omegas = sample_cauchy(prng, m * d_in, gamma)
    biases = sample_uniform(prng, m, 0.0, 2.0 * np.pi)
    return RffMap(
        kernel_kind=kernel_kind,
        gamma=float(gamma),
        omegas=omegas.reshape(m, d_in),
        biases=biases,
        seed=int(seed),
    )


def rff_apply(rff: RffMap, z) -> np.ndarray:
    """Map one vector through the Fourier features; output length M."""
    v = np.asarray(z, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != rff.input_dim:
        raise DimMismatchError(
            f"expected a vector of dimension {rff.input_dim}, got shape {v.shape}"
        )
    m = rff.n_features
    return np.sqrt(2.0 / m) * np.cos(rff.omegas @ v + rff.biases)


def _rff_apply_batch(rff: RffMap, x: np.ndarray) -> np.ndarray:
    if x.shape[1] != rff.input_dim:
        raise DimMismatchError(
            f"map expects dimension {rff.input_dim}, got {x.shape[1]}"
        )
    # sqrt(2/M) * cos(x @ omegas.T + biases), step by step in place on the
    # array the GEMM allocated; x may be the caller's own array.
    out = x @ rff.omegas.T
    out += rff.biases
    np.cos(out, out=out)
    out *= np.sqrt(2.0 / rff.n_features)
    return out


def _stage_output_dim(stage, dim: int) -> int:
    if stage == IDENTITY_STAGE or stage == COSINE_STAGE:
        return dim
    if isinstance(stage, RffMap):
        if stage.input_dim != dim:
            raise InvalidSpecError(
                f"rff stage expects input dim {stage.input_dim}, chain provides {dim}"
            )
        return stage.n_features
    raise InvalidSpecError(f"unknown stage {stage!r}")


@dataclass(frozen=True, eq=False)
class FeatureMapSpec:
    """Ordered composition of map stages applied row-wise.

    Stages are the strings "identity"/"cosine" or an RffMap; dimensions
    must chain consistently from input_dim.
    """

    stages: tuple
    input_dim: int

    def __post_init__(self):
        if self.input_dim < 1:
            raise InvalidSpecError(f"input_dim must be >= 1, got {self.input_dim}")
        if not self.stages:
            raise InvalidSpecError("need at least one stage")
        dim = self.input_dim
        for stage in self.stages:
            dim = _stage_output_dim(stage, dim)

    @property
    def output_dim(self) -> int:
        dim = self.input_dim
        for stage in self.stages:
            dim = _stage_output_dim(stage, dim)
        return dim


def identity_spec(dim: int) -> FeatureMapSpec:
    return FeatureMapSpec(stages=(IDENTITY_STAGE,), input_dim=dim)


def cosine_spec(dim: int) -> FeatureMapSpec:
    return FeatureMapSpec(stages=(COSINE_STAGE,), input_dim=dim)


def cosine_rff_spec(rff: RffMap) -> FeatureMapSpec:
    return FeatureMapSpec(stages=(COSINE_STAGE, rff), input_dim=rff.input_dim)


def map_apply(spec: FeatureMapSpec, x) -> np.ndarray:
    """Apply every stage in order to all rows of x.

    With the identity map the result may be x itself, so callers must not
    modify it in place.
    """
    out = as_feature_matrix(x)
    if out.shape[1] != spec.input_dim:
        raise DimMismatchError(
            f"map expects input dimension {spec.input_dim}, got {out.shape[1]}"
        )
    for stage in spec.stages:
        if stage == IDENTITY_STAGE:
            continue
        if stage == COSINE_STAGE:
            out = _normalize_valid_rows(out)
        else:
            out = _rff_apply_batch(stage, out)
    return out


def median_heuristic_gamma(x, max_rows: int = 2000) -> float:
    """Bandwidth from the median pairwise distance: 1 / (2 * median^2).

    Uses an evenly strided subsample of at most max_rows rows so the
    estimate is deterministic and cheap on large training sets.
    """
    x = as_feature_matrix(x)
    n = x.shape[0]
    if n > max_rows:
        idx = np.linspace(0, n - 1, max_rows).astype(np.intp)
        x = x[idx]
        n = max_rows
    if n < 2:
        raise InvalidBandwidthError("need at least 2 rows for the median heuristic")
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    dist = d2[np.triu(np.ones((n, n), dtype=bool), k=1)]
    np.clip(dist, 0.0, None, out=dist)
    np.sqrt(dist, out=dist)
    med = float(np.median(dist, overwrite_input=True))
    if med < ZERO_NORM_FLOOR:
        raise InvalidBandwidthError(
            "median pairwise distance is zero; cannot derive a bandwidth"
        )
    return 1.0 / (2.0 * med * med)
