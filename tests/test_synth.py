import hashlib
import tracemalloc

import numpy as np
import pytest

from kpca_ood import linalg
from kpca_ood.errors import InvalidSpecError
from kpca_ood.synth import SynthSpec, generate


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidSpecError):
            SynthSpec("blob", 10, 4, 0)

    def test_dims_too_small(self):
        with pytest.raises(InvalidSpecError):
            SynthSpec("norm-shift", 1, 4, 0)
        with pytest.raises(InvalidSpecError):
            SynthSpec("norm-shift", 10, 1, 0)

    def test_unknown_param_rejected(self):
        with pytest.raises(InvalidSpecError):
            SynthSpec("norm-shift", 10, 4, 0, {"mu": 3.0})

    def test_bad_param_values(self):
        with pytest.raises(InvalidSpecError):
            generate(SynthSpec("norm-shift", 10, 4, 0, {"sigma": 0.0}))
        with pytest.raises(InvalidSpecError):
            generate(SynthSpec("low-rank-gauss", 10, 4, 0, {"rank": 4}))
        with pytest.raises(InvalidSpecError):
            generate(SynthSpec("sphere-cluster", 10, 4, 0, {"spread": -1.0}))

    @pytest.mark.parametrize("kind,key", [
        ("norm-shift", "mu_ind"), ("norm-shift", "mu_ood"), ("norm-shift", "sigma"),
        ("sphere-cluster", "clusters"), ("sphere-cluster", "spread"),
        ("low-rank-gauss", "rank"), ("low-rank-gauss", "noise"),
        ("low-rank-gauss", "ood_scale"),
    ])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_param_rejected(self, kind, key, value):
        with pytest.raises(InvalidSpecError, match=f"^{key} must be finite"):
            SynthSpec(kind, 10, 4, 0, {key: value})

    @pytest.mark.parametrize("key,value", [("clusters", 2.5), ("rank", 1.7)])
    def test_fractional_count_rejected(self, key, value):
        kind = "sphere-cluster" if key == "clusters" else "low-rank-gauss"
        with pytest.raises(InvalidSpecError, match=f"^{key} must be an integer"):
            SynthSpec(kind, 10, 4, 0, {key: value})

    def test_integral_float_count_accepted(self):
        a = generate(SynthSpec("low-rank-gauss", 10, 4, 0, {"rank": 3.0}))
        b = generate(SynthSpec("low-rank-gauss", 10, 4, 0, {"rank": 3}))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestDeterminismAndShape:
    @pytest.mark.parametrize(
        "kind", ["norm-shift", "sphere-cluster", "low-rank-gauss"]
    )
    def test_same_seed_bit_identical(self, kind):
        a1, b1 = generate(SynthSpec(kind, 50, 8, seed=123))
        a2, b2 = generate(SynthSpec(kind, 50, 8, seed=123))
        assert np.array_equal(a1, a2)
        assert np.array_equal(b1, b2)

    @pytest.mark.parametrize(
        "kind", ["norm-shift", "sphere-cluster", "low-rank-gauss"]
    )
    def test_shapes_and_finiteness(self, kind):
        ind, ood = generate(SynthSpec(kind, 40, 6, seed=1))
        assert ind.shape == (40, 6)
        assert ood.shape == (40, 6)
        assert np.all(np.isfinite(ind))
        assert np.all(np.isfinite(ood))

    def test_different_seeds_differ(self):
        a1, _ = generate(SynthSpec("norm-shift", 30, 5, seed=1))
        a2, _ = generate(SynthSpec("norm-shift", 30, 5, seed=2))
        assert not np.array_equal(a1, a2)


class TestNormShift:
    def test_norm_distributions_separate(self):
        ind, ood = generate(
            SynthSpec("norm-shift", 4000, 16, 5, {"mu_ind": 8.0, "mu_ood": 12.0})
        )
        n_ind = np.linalg.norm(ind, axis=1)
        n_ood = np.linalg.norm(ood, axis=1)
        assert abs(n_ind.mean() - 8.0) <= 0.1
        assert abs(n_ood.mean() - 12.0) <= 0.1

    def test_direction_distributions_identical(self):
        # means of unit directions should both vanish like 1/sqrt(n)
        ind, ood = generate(SynthSpec("norm-shift", 5000, 8, 6))
        di = ind / np.linalg.norm(ind, axis=1)[:, None]
        do = ood / np.linalg.norm(ood, axis=1)[:, None]
        gap = np.linalg.norm(di.mean(axis=0) - do.mean(axis=0))
        assert gap <= 4 * np.sqrt(2.0 / 5000)


class TestSphereCluster:
    def test_unit_norm_rows(self):
        ind, ood = generate(SynthSpec("sphere-cluster", 100, 8, 7))
        assert np.allclose(np.linalg.norm(ind, axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(ood, axis=1), 1.0, atol=1e-12)

    def test_ind_is_clustered_ood_is_not(self):
        ind, ood = generate(
            SynthSpec("sphere-cluster", 500, 8, 8, {"clusters": 10, "spread": 0.2})
        )
        # nearest-neighbor cosine within InD far exceeds the OoD baseline
        gi = ind @ ind.T
        np.fill_diagonal(gi, -1.0)
        go = ood @ ood.T
        np.fill_diagonal(go, -1.0)
        assert np.median(gi.max(axis=1)) >= 0.9
        assert np.median(go.max(axis=1)) <= 0.9


class TestLowRankGauss:
    def test_ind_variance_concentrates_on_rank(self):
        ind, _ = generate(
            SynthSpec("low-rank-gauss", 800, 16, 9, {"rank": 2, "noise": 0.01})
        )
        c = ind - ind.mean(axis=0)
        lam = np.sort(np.linalg.eigvalsh(c.T @ c))[::-1]
        assert lam[1] / lam[2] > 100.0  # big spectral gap after rank 2

    def test_ood_isotropic_scale(self):
        _, ood = generate(
            SynthSpec("low-rank-gauss", 2000, 8, 10, {"ood_scale": 2.0})
        )
        assert abs(ood.std() - 2.0) <= 0.1


# SHA-256 of generate's (ind, ood) bytes. Any change to the draw order or to
# the arithmetic changes them; 20,000 x 64 rows span three row blocks, so
# the blocked normalization crosses block edges. The benchmark's inputs are
# sphere-cluster rows made by the same code.
STREAM_DIGESTS = [
    ("norm-shift", 50, 8, 123, {},
     "42800c166cbb8efaa3f67fbc4f703d2d8660f19b8bda640f19d6d7475877461b",
     "30d6627b93d276acb38dbedf65d22d3ab245dc6101d408ad051f54d1d7820437"),
    ("norm-shift", 20000, 64, 11, {},
     "ee8b96e5e836f680bcf875ae29e087dc6cf05ad2babce70fdafd84ae4744a373",
     "44b3616981bd5e3b73e3e60c6b5409bdcb34638134ada6e5a51d449ee4af8cef"),
    ("sphere-cluster", 50, 8, 123, {},
     "d3f87c89458d4981f946e1de8bc4d0998a41feb84ca5b88355019e86d61b10be",
     "111d54b25801e589000749eb7a402b9b7a18548f31e09e14bd7e1f06005e2b47"),
    ("sphere-cluster", 20000, 64, 11, {},
     "33b52b4d8cebd58917a90a0938980ed7133123b2e41bf45f48ef8ac628deff05",
     "f7292e04781467a7746a5be3db02250cb1dab5590c7859bfd8c2e1e46168e6c8"),
    ("sphere-cluster", 300, 16, 11, {"clusters": 8.0},
     "3d713fa7cea8e22b474e29b3af1297f7e161017627598f73fa99a16cd13c2119",
     "898f79445f7c57ab32572e8faf3d5ec2473d5e856eec5f130d7b8fc27cdea525"),
    ("low-rank-gauss", 50, 8, 123, {},
     "37919cbbda559ac34819ce2525341aa91507b824dad98b3faa42b0ed4ede6603",
     "9317e029eaa9b233d51e3cef80f08c3dcc01badeb365ce34794a1d9925c9ab7c"),
    ("low-rank-gauss", 20000, 64, 11, {},
     "d9c2cdd1d2ec6a1e0e218ce0f4fedeb4ce6a994f4b610ac0644f68b2b2f29eb5",
     "2a99d86e983a7f323b65d7b30ea1d7b0e977adc0e9a33ab84cf2c96f08babe14"),
]


class TestPinnedStream:
    @pytest.mark.parametrize("kind,n,dim,seed,params,ind_sha,ood_sha", STREAM_DIGESTS)
    def test_output_digests(self, kind, n, dim, seed, params, ind_sha, ood_sha):
        ind, ood = generate(SynthSpec(kind, n, dim, seed, params))
        assert ind.dtype == ood.dtype == np.float64
        assert ind.flags.c_contiguous and ood.flags.c_contiguous
        assert hashlib.sha256(ind.tobytes()).hexdigest() == ind_sha
        assert hashlib.sha256(ood.tobytes()).hexdigest() == ood_sha


class TestGenerateMemory:
    @pytest.mark.parametrize("kind", ["norm-shift", "sphere-cluster", "low-rank-gauss"])
    def test_peak_is_the_two_outputs(self, kind):
        # Each output is 24.4 MiB; one full-size temporary beside both
        # outputs would break the allowance of two row blocks and 1 MiB.
        tracemalloc.start()
        try:
            ind, ood = generate(SynthSpec(kind, 50_000, 64, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        allowed = ind.nbytes + ood.nbytes + 2 * linalg._BLOCK_BYTES + 2**20
        assert peak <= allowed, (peak - ind.nbytes - ood.nbytes) / 2**20
