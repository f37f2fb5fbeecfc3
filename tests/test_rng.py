"""The seeded Philox streams, and the random Fourier feature draws made from them.

``rff_build`` draws straight from ``make_prng``'s generator: Gaussian
frequencies N(0, sqrt(2*gamma)), Cauchy(0, gamma) frequencies by the
inverse CDF, then uniform phases on [0, 2*pi). These tests check each
draw's distribution and the argument gates in front of it.
"""

import re

import numpy as np
import pytest

from kpca_ood.errors import InvalidBandwidthError, InvalidSpecError
from kpca_ood.featmap import rff_build
from kpca_ood.rng import make_prng
from kpca_ood.synth import SynthSpec, generate


def test_same_seed_same_stream():
    a = make_prng(42).normal(size=1000)
    b = make_prng(42).normal(size=1000)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = make_prng(1).normal(size=100)
    b = make_prng(2).normal(size=100)
    assert not np.array_equal(a, b)


def test_gaussian_mean_clt_bound():
    # the mean of 1e5 frequencies lies within 4*sigma/sqrt(1e5) of 0
    sigma = 2.5  # sqrt(2 * gamma)
    x = rff_build("gaussian", sigma**2 / 2, 1000, 100, seed=7).omegas
    assert abs(x.mean()) <= 4 * sigma / np.sqrt(100_000)


def test_gaussian_std():
    x = rff_build("gaussian", 4.5, 1000, 100, seed=8).omegas
    assert abs(x.std() - 3.0) <= 0.05


def test_gaussian_rejects_bad_args():
    with pytest.raises(InvalidSpecError):
        rff_build("gaussian", 1.0, 0, 5, seed=0)
    with pytest.raises(InvalidBandwidthError):
        rff_build("gaussian", 0.0, 5, 5, seed=0)


def test_uniform_mean():
    x = rff_build("gaussian", 1.0, 100_000, 1, seed=9).biases
    assert abs(x.mean() - np.pi) <= 0.05
    assert x.min() >= 0.0
    assert x.max() < 2 * np.pi


def test_uniform_identical_stream():
    for kind in ("gaussian", "laplacian"):
        a = rff_build(kind, 1.0, 64, 3, seed=3).biases
        b = rff_build(kind, 1.0, 64, 3, seed=3).biases
        assert np.array_equal(a, b)


def test_uniform_rejects_empty_range():
    # The phase range is fixed; what gates the draws is gamma, the scale of
    # both frequency laws: an empty or unbounded one is refused.
    for kind in ("gaussian", "laplacian"):
        for gamma in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(InvalidBandwidthError):
                rff_build(kind, gamma, 4, 4, seed=0)


def test_cauchy_median():
    # Cauchy has no mean; the median is 0 regardless of scale
    gamma = 1.7
    x = rff_build("laplacian", gamma, 1000, 100, seed=11).omegas
    assert abs(np.median(x)) <= 0.05 * gamma


def test_cauchy_quartiles():
    # quartiles of Cauchy(0, gamma) sit at -gamma and +gamma
    gamma = 0.8
    x = rff_build("laplacian", gamma, 2000, 100, seed=12).omegas
    q1, q3 = np.quantile(x, [0.25, 0.75])
    assert abs(q1 + gamma) <= 0.05 * gamma
    assert abs(q3 - gamma) <= 0.05 * gamma


def test_cauchy_determinism_and_args():
    a = rff_build("laplacian", 2.0, 8, 4, seed=4).omegas
    b = rff_build("laplacian", 2.0, 8, 4, seed=4).omegas
    assert np.array_equal(a, b)
    with pytest.raises(InvalidBandwidthError):
        rff_build("laplacian", 0.0, 8, 4, seed=0)


def test_uniform_and_cauchy_reject_zero_draws():
    for m, d_in in ((0, 4), (4, 0)):
        with pytest.raises(InvalidSpecError, match="need m >= 1 and d_in >= 1"):
            rff_build("laplacian", 1.0, m, d_in, seed=0)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
@pytest.mark.parametrize("build", [
    lambda seed: rff_build("gaussian", 1.0, 4, 4, seed),
    lambda seed: generate(SynthSpec("norm-shift", 4, 2, seed)),
], ids=["rff_build", "generate"])
def test_seed_outside_the_64_bit_range_is_refused(build, seed):
    with pytest.raises(InvalidSpecError, match=re.escape(f"got {seed!r}") + "$"):
        build(seed)
