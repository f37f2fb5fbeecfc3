"""Deterministic synthetic feature generators for detector experiments.

Three kinds, each isolating one mechanism:

* norm-shift      -- directions uniform on the sphere for both sets; only
                     the norm distributions differ. Separable by norm,
                     provably invisible to anything that unit-normalizes.
* sphere-cluster  -- in-distribution rows concentrate around K random
                     centers on the unit sphere, out-of-distribution rows
                     are uniform on the sphere. Separable by direction.
* low-rank-gauss  -- in-distribution rows live in a random rank-r subspace
                     plus small isotropic noise; out-of-distribution rows
                     are isotropic. Linear subspace structure, the home
                     turf of plain PCA.

Generation is pure given the spec: one Philox stream per call, fixed draw
order (documented per kind below), so equal specs give bit-equal outputs.
Every scaling, sum and normalization is done in place on a fresh draw, so a
call holds its two outputs plus about one row block of temporaries
(``linalg._BLOCK_BYTES``) at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpecError
from .linalg import _block_rows, _row_blocks, _row_norms
from .rng import make_prng

NORM_SHIFT = "norm-shift"
SPHERE_CLUSTER = "sphere-cluster"
LOW_RANK_GAUSS = "low-rank-gauss"

KINDS = (NORM_SHIFT, SPHERE_CLUSTER, LOW_RANK_GAUSS)

_DEFAULTS = {
    NORM_SHIFT: {"mu_ind": 8.0, "mu_ood": 12.0, "sigma": 1.0},
    SPHERE_CLUSTER: {"clusters": 0.0, "spread": 0.3},  # clusters 0 -> 8*dim
    LOW_RANK_GAUSS: {"rank": 2.0, "noise": 0.01, "ood_scale": 1.0},
}


@dataclass(frozen=True, eq=False)
class SynthSpec:
    kind: str
    n: int
    dim: int
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpecError(f"unknown generator kind {self.kind!r}")
        if self.n < 2:
            raise InvalidSpecError(f"n must be >= 2, got {self.n}")
        if self.dim < 2:
            raise InvalidSpecError(f"dim must be >= 2, got {self.dim}")
        unknown = set(self.params) - set(_DEFAULTS[self.kind])
        if unknown:
            raise InvalidSpecError(
                f"unknown parameters for {self.kind}: {sorted(unknown)}"
            )
        for key, value in self.params.items():
            if not np.isfinite(value):
                raise InvalidSpecError(f"{key} must be finite, got {value}")
            if key in ("clusters", "rank") and value != int(value):
                raise InvalidSpecError(f"{key} must be an integer, got {value}")


def _resolved(spec: SynthSpec) -> dict:
    params = dict(_DEFAULTS[spec.kind])
    params.update(spec.params)
    return params


def _unit_rows(x: np.ndarray) -> np.ndarray:
    # In place, with the bits of x / np.linalg.norm(x, axis=1)[:, None].
    x /= _row_blocks(_row_norms, x, x.shape[1])
    return x


def _sphere(prng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    return _unit_rows(prng.normal(size=(n, dim)))


def _norm_shift(spec: SynthSpec, prng: np.random.Generator, p: dict):
    # draw order: ind directions, ind norms, ood directions, ood norms
    if not p["sigma"] > 0:
        raise InvalidSpecError(f"sigma must be > 0, got {p['sigma']}")
    ind = _sphere(prng, spec.n, spec.dim)
    ind *= prng.normal(p["mu_ind"], p["sigma"], size=(spec.n, 1))
    ood = _sphere(prng, spec.n, spec.dim)
    ood *= prng.normal(p["mu_ood"], p["sigma"], size=(spec.n, 1))
    return ind, ood


def _sphere_cluster(spec: SynthSpec, prng: np.random.Generator, p: dict):
    # draw order: centers, assignments, ind noise, ood directions
    k = int(p["clusters"]) if p["clusters"] else 8 * spec.dim
    if k < 1:
        raise InvalidSpecError(f"clusters must be >= 1, got {k}")
    if not p["spread"] > 0:
        raise InvalidSpecError(f"spread must be > 0, got {p['spread']}")
    centers = _sphere(prng, k, spec.dim)
    assign = prng.integers(0, k, size=spec.n)
    # spread is the expected total perturbation norm, so cluster tightness
    # does not depend on the dimension
    sigma = p["spread"] / np.sqrt(spec.dim)
    ind = prng.normal(size=(spec.n, spec.dim))
    ind *= sigma
    # Centers are gathered one row block at a time. IEEE addition commutes,
    # so these are the bits of centers[assign] + sigma * noise.
    rows = _block_rows(spec.dim)
    for start in range(0, spec.n, rows):
        ind[start : start + rows] += centers[assign[start : start + rows]]
    ind = _unit_rows(ind)
    ood = _sphere(prng, spec.n, spec.dim)
    return ind, ood


def _orthonormal_rows(prng: np.random.Generator, rank: int, dim: int) -> np.ndarray:
    """Modified Gram-Schmidt on Gaussian rows; avoids LAPACK sign quirks."""
    b = prng.normal(size=(rank, dim))
    for i in range(rank):
        for j in range(i):
            b[i] -= (b[i] @ b[j]) * b[j]
        b[i] /= np.linalg.norm(b[i])
    return b


def _low_rank_gauss(spec: SynthSpec, prng: np.random.Generator, p: dict):
    # draw order: subspace basis, ind coefficients, ind noise, ood rows
    rank = int(p["rank"])
    if not 1 <= rank < spec.dim:
        raise InvalidSpecError(f"rank must be in [1, dim), got {rank}")
    if not p["noise"] >= 0:
        raise InvalidSpecError(f"noise must be >= 0, got {p['noise']}")
    basis = _orthonormal_rows(prng, rank, spec.dim)
    coeff = prng.normal(size=(spec.n, rank))
    ind = prng.normal(size=(spec.n, spec.dim))
    ind *= p["noise"]
    ind += coeff @ basis
    ood = prng.normal(size=(spec.n, spec.dim))
    ood *= p["ood_scale"]
    return ind, ood


def generate(spec: SynthSpec):
    """Produce (ind, ood) matrices, each spec.n rows by spec.dim columns."""
    prng = make_prng(spec.seed)
    p = _resolved(spec)
    if spec.kind == NORM_SHIFT:
        ind, ood = _norm_shift(spec, prng, p)
    elif spec.kind == SPHERE_CLUSTER:
        ind, ood = _sphere_cluster(spec, prng, p)
    else:
        ind, ood = _low_rank_gauss(spec, prng, p)
    return np.ascontiguousarray(ind), np.ascontiguousarray(ood)
