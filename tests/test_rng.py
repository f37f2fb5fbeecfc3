import numpy as np
import pytest

from kpca_ood.errors import InvalidRangeError
from kpca_ood.rng import make_prng, sample_cauchy, sample_gaussian, sample_uniform


def test_same_seed_same_stream():
    a = sample_gaussian(make_prng(42), 1000, 1.0)
    b = sample_gaussian(make_prng(42), 1000, 1.0)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = sample_gaussian(make_prng(1), 100, 1.0)
    b = sample_gaussian(make_prng(2), 100, 1.0)
    assert not np.array_equal(a, b)


def test_gaussian_mean_clt_bound():
    # sample mean of 1e5 draws lies within 4*sigma/sqrt(1e5) of 0
    sigma = 2.5
    x = sample_gaussian(make_prng(7), 100_000, sigma)
    assert abs(x.mean()) <= 4 * sigma / np.sqrt(100_000)


def test_gaussian_std():
    x = sample_gaussian(make_prng(8), 100_000, 3.0)
    assert abs(x.std() - 3.0) <= 0.05


def test_gaussian_rejects_bad_args():
    with pytest.raises(ValueError):
        sample_gaussian(make_prng(0), 0, 1.0)
    with pytest.raises(ValueError):
        sample_gaussian(make_prng(0), 5, 0.0)


def test_uniform_mean():
    x = sample_uniform(make_prng(9), 100_000, 0.0, 2 * np.pi)
    assert abs(x.mean() - np.pi) <= 0.05
    assert x.min() >= 0.0
    assert x.max() < 2 * np.pi


def test_uniform_identical_stream():
    a = sample_uniform(make_prng(3), 64, -1.0, 1.0)
    b = sample_uniform(make_prng(3), 64, -1.0, 1.0)
    assert np.array_equal(a, b)


def test_uniform_rejects_empty_range():
    with pytest.raises(InvalidRangeError):
        sample_uniform(make_prng(0), 4, 1.0, 1.0)
    with pytest.raises(InvalidRangeError):
        sample_uniform(make_prng(0), 4, 2.0, 1.0)


def test_cauchy_median():
    # Cauchy has no mean; the median is 0 regardless of scale
    gamma = 1.7
    x = sample_cauchy(make_prng(11), 100_000, gamma)
    assert abs(np.median(x)) <= 0.05 * gamma


def test_cauchy_quartiles():
    # quartiles of Cauchy(0, gamma) sit at -gamma and +gamma
    gamma = 0.8
    x = sample_cauchy(make_prng(12), 200_000, gamma)
    q1, q3 = np.quantile(x, [0.25, 0.75])
    assert abs(q1 + gamma) <= 0.05 * gamma
    assert abs(q3 - gamma) <= 0.05 * gamma


def test_cauchy_determinism_and_args():
    a = sample_cauchy(make_prng(4), 32, 2.0)
    b = sample_cauchy(make_prng(4), 32, 2.0)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        sample_cauchy(make_prng(0), 10, 0.0)


def test_uniform_and_cauchy_reject_zero_draws():
    prng = make_prng(0)
    with pytest.raises(ValueError, match="need n >= 1 draws, got 0"):
        sample_uniform(prng, 0, 0.0, 1.0)
    with pytest.raises(ValueError, match="need n >= 1 draws, got 0"):
        sample_cauchy(prng, 0, 1.0)
