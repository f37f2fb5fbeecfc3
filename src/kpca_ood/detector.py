"""Covariance-path detector: PCA in a mapped feature space.

Fitting maps every training row through the configured feature map,
accumulates the unnormalized scatter matrix sum((phi - mu)(phi - mu)^T),
eigendecomposes it, and keeps the leading q eigenvectors chosen by an
explained-variance target. Scoring negates the reconstruction error
||U_q U_q^T (phi - mu) - (phi - mu)||_2, so higher scores mean more
in-distribution.

Fit and score run over row blocks (``linalg._row_blocks``), so no N x D
mapped matrix is ever held. Fit maps one block at a time, takes the
block's mean and its scatter about that mean, and merges them into the
running pair with the pairwise update of Chan, Golub & LeVeque (1979):
with n rows so far, m in the block and delta = mu_b - mu,
S += S_b + delta delta^T * n * m / (n + m) and mu += delta * m / (n + m).
Every term is a sum of squares about a mean, so centering stays stable;
the naive sum(phi phi^T) - N mu mu^T would cancel catastrophically.

The error comes from ``linalg._residual_norms``, the residual routine the
Gram path shares, in whichever orientation makes fewer multiply-adds
(``linalg._through_kept``, the Gram path's rule too): with 2q < D - q as
||c - U U^T c|| through the retained basis U (two GEMMs of width q, plus
the centering), otherwise as ||(I - U U^T) c|| = ||R^T c|| through R, an
orthonormal basis of U's complement (the ``complement`` field; one GEMM
of width D - q). A fit derives R from U (a complete QR plus one
reorthogonalization pass). A model file holds the narrower of U and R, U
when 2q <= D: a model loaded from R has no U (``basis`` is None) and
loading it makes no QR, while loading one with D/3 <= q <= D/2 derives R
from the stored U by the fit's QR. The mean is folded into R once per
model, ||R^T c|| = ||R^T phi - R^T mu||, so the R orientation never forms
the centered rows, and a fitted model and its reloaded copy score bit for
bit alike.

The trailing eigenvectors can optionally be retained (``residual_basis``,
saved with the model); ``score_residual`` projects onto them, which yields
the same error and doubles as an independent cross-check at p*D extra
memory.

The scatter matrix is deliberately left unnormalized (no 1/N): scores are
invariant to that scaling, and the Gram-spectrum correspondence exercised
in the tests depends on this convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllZeroSpectrumError,
    DegenerateSpectrumError,
    MissingResidualBasisError,
)
from .featmap import IDENTITY_STAGE, FeatureMapSpec, map_apply
from .linalg import _residual_norms, _row_blocks, _through_kept, sym_eig

# Total variance below this means every mapped row is identical.
DEGENERATE_VARIANCE = 1e-20

DEFAULT_EVR = 0.90


@dataclass(eq=False)
class DetectorModel:
    """Fitted artifacts: map, mean, retained basis, full spectrum.

    ``eigenvalues`` hold the full descending spectrum with negative
    rounding noise clamped to zero. ``residual_basis`` is None unless the
    model was fitted with store_residual=True. ``complement`` is None when
    2q < D - q, else an orthonormal D x (D - q) basis of the complement of
    the retained basis; when not given it is derived from ``basis``. A
    model loaded from a file that holds R (2q > D) has ``basis`` None.
    ``complement_mean`` is R^T mu, derived on construction, as a
    1 x (D - q) row: a one-row block subtracts an operand of its own shape,
    which numpy does without setting up a broadcast.
    """

    map_spec: FeatureMapSpec
    mean: np.ndarray
    basis: np.ndarray | None
    residual_basis: np.ndarray | None
    eigenvalues: np.ndarray
    q: int
    evr_target: float
    complement: np.ndarray | None = field(default=None, repr=False)
    complement_mean: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        if self.complement is None:
            self.complement = _complement(self.basis)
        self.complement_mean = (
            None if self.complement is None else (self.mean @ self.complement)[None]
        )

    @property
    def feature_dim(self) -> int:
        return self.mean.shape[0]


def _complement(basis: np.ndarray) -> np.ndarray | None:
    """Orthonormal basis of the complement of ``basis``; None when the
    residual costs fewer multiply-adds through ``basis`` (2q < D - q).

    The trailing columns of a complete QR are orthogonal to ``basis`` only
    to a few eps, and ||R^T c|| turns that into a first-order error of
    about eps * ||c|| / ||residual||: up to 6e-10 relative on rows that
    nearly lie in the retained subspace. One reorthogonalization pass
    against ``basis`` cuts max |U^T R| by about ten times (4e-16 to 4e-17
    at D = 64) and the error to the level of the U formula.
    """
    d, q = basis.shape
    if _through_kept(q, d):
        return None
    r = np.linalg.qr(basis, mode="complete")[0][:, q:]
    r -= basis @ (basis.T @ r)
    return np.ascontiguousarray(r)


def choose_q(eigenvalues, evr_target: float) -> int:
    """Smallest q whose cumulative eigenvalue mass reaches evr_target.

    Expects a non-increasing, non-negative spectrum. With evr_target=1.0
    this returns the count of strictly positive eigenvalues (trailing
    exact zeros never help the cumulative ratio).
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError(f"expected a non-empty 1-D spectrum, got shape {lam.shape}")
    if not 0.0 < evr_target <= 1.0:
        raise ValueError(f"evr_target must be in (0, 1], got {evr_target}")
    if np.any(lam < 0.0):
        raise ValueError("spectrum must be clamped non-negative")
    if np.any(np.diff(lam) > 0.0):
        raise ValueError("spectrum must be non-increasing")
    total = lam.sum()
    if total <= 0.0:
        raise AllZeroSpectrumError("all eigenvalues are zero")
    positive = int(np.count_nonzero(lam))
    if evr_target == 1.0:
        return positive
    # The last cumulative ratio can round to just below 1.0, which would put
    # a target near 1.0 past the end of the spectrum; in exact arithmetic the
    # mass is complete at the last positive eigenvalue.
    ratios = np.cumsum(lam) / total
    return min(int(np.searchsorted(ratios, evr_target, side="left")) + 1, positive)


def _moments(phi: np.ndarray, own: bool):
    """Row count, mean and scatter about the mean of one block of mapped rows.

    ``phi`` is centered in place when it is ``own``, an array the map made;
    with the identity map it can be the caller's own rows.
    """
    mu = phi.mean(axis=0)
    centered = np.subtract(phi, mu, out=phi if own else None)
    return phi.shape[0], mu, centered.T @ centered


def _merge_moments(acc, block):
    """Chan-Golub-LeVeque pairwise merge of two (count, mean, scatter) triples.

    Updates the accumulated mean and scatter in place; they are arrays the
    fit allocated, never the caller's.
    """
    n, mu, scatter = acc
    m, mu_b, scatter_b = block
    delta = mu_b - mu
    cross = np.outer(delta, delta)
    cross *= n * m / (n + m)
    scatter += scatter_b
    scatter += cross
    mu += delta * (m / (n + m))
    return n + m, mu, scatter


def fit(
    train,
    map_spec: FeatureMapSpec,
    evr_target: float = DEFAULT_EVR,
    store_residual: bool = False,
) -> DetectorModel:
    """Fit the mapped-space PCA model on in-distribution training rows.

    ``map_apply`` validates each block of ``train`` as it maps it. The
    model's bytes are fixed by the rows, the spec and the BLAS thread
    count: another count may move the last bits of the eigenbasis (see
    ``linalg.sym_eig``), and so of the scores.
    """
    if not 0.0 < evr_target <= 1.0:
        raise ValueError(f"evr_target must be in (0, 1], got {evr_target}")
    own = map_spec.stage != IDENTITY_STAGE
    n, mu, scatter = _row_blocks(
        lambda rows: _moments(map_apply(map_spec, rows), own),
        train, map_spec.output_dim, fold=_merge_moments,
    )
    if n < 2:
        raise ValueError(f"need at least 2 training rows, got {n}")

    eig = sym_eig(scatter)
    lam = np.clip(eig.eigenvalues, 0.0, None)
    if float(lam.sum()) < DEGENERATE_VARIANCE:
        raise DegenerateSpectrumError(
            "total mapped variance is numerically zero (identical rows?)"
        )
    q = choose_q(lam, evr_target)
    basis = np.ascontiguousarray(eig.eigenvectors[:, :q])
    residual = (
        np.ascontiguousarray(eig.eigenvectors[:, q:]) if store_residual else None
    )
    return DetectorModel(
        map_spec=map_spec,
        mean=mu,
        basis=basis,
        residual_basis=residual,
        eigenvalues=lam,
        q=q,
        evr_target=float(evr_target),
    )


def reconstruction_errors(model: DetectorModel, x) -> np.ndarray:
    """Per-row distance between the mapped row and its projection.

    Against the exact error of the stored float64 basis, the result is
    within k * eps * ||c|| through U and k * eps * (||phi|| + ||mu||)
    through R, which folds R^T mu in, with k = sqrt(D) + 1. Each step is a
    product of length D (or q), whose rounding grows as sqrt(D) * eps / 2
    under the probabilistic model (rows of U and R have norm at most 1, so
    over all entries the error norm keeps that factor), or a rounded
    subtraction; k leaves a factor of 2 over that count. Measured k was at
    most 1.0 through R and 0.7 through U, at D = 24 to 128.
    """
    spec = model.map_spec
    if model.complement is None:
        # Not in place: with the identity map, map_apply returns rows itself.
        return _residual_norms(
            lambda rows: map_apply(spec, rows) - model.mean, x, model.basis, True
        )
    return _residual_norms(
        lambda rows: map_apply(spec, rows), x, model.complement, False,
        model.complement_mean,
    )


def score_reconstruction(model: DetectorModel, x) -> np.ndarray:
    """Negated reconstruction error; higher means more in-distribution."""
    return -reconstruction_errors(model, x)


def score_residual(model: DetectorModel, x) -> np.ndarray:
    """Negated norm of the projection onto the discarded eigenvectors.

    Identical to score_reconstruction up to rounding; kept as the
    independent formulation for cross-checks and as the bridge to the
    Gram-matrix scoring path.
    """
    a = model.residual_basis
    if a is None:
        raise MissingResidualBasisError("model was fitted without store_residual=True")
    spec = model.map_spec
    return -_residual_norms(
        lambda rows: map_apply(spec, rows), x, a, False, model.mean @ a
    )
