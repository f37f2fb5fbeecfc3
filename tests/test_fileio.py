import struct

import numpy as np
import pytest

from kpca_ood.detector import fit, score_reconstruction
from kpca_ood.errors import FormatError, NonFiniteError
from kpca_ood.featmap import cosine_rff_spec, cosine_spec, identity_spec, rff_build
from kpca_ood.fileio import (
    load_features,
    load_model,
    load_scores,
    method_for_model,
    save_features,
    save_model,
    save_scores,
)
from kpca_ood.kernelspace import fit_kernelspace, score_kernelspace


class TestFeatureContainer:
    def test_round_trip_values(self, tmp_path):
        x = np.array([[1.5, -2.25], [0.0, 2.0**-25]])
        p = tmp_path / "x.oodf"
        save_features(p, x)
        back = load_features(p)
        assert back.dtype == np.float64
        assert np.array_equal(back, x)  # dyadic values survive float32

    def test_save_load_save_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 7))
        p1, p2 = tmp_path / "a.oodf", tmp_path / "b.oodf"
        save_features(p1, x)
        save_features(p2, load_features(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_contents(self, tmp_path):
        p = tmp_path / "x.oodf"
        save_features(p, np.ones((3, 5)))
        blob = p.read_bytes()
        assert blob[:4] == b"OODF"
        assert blob[4] == 1
        assert int.from_bytes(blob[5:9], "little") == 3
        assert int.from_bytes(blob[9:13], "little") == 5
        assert len(blob) == 13 + 3 * 5 * 4

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.oodf"
        save_features(p, np.ones((2, 2)))
        blob = bytearray(p.read_bytes())
        blob[:4] = b"NOPE"
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_features(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "x.oodf"
        save_features(p, np.ones((2, 2)))
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(FormatError):
            load_features(p)

    def test_float32_overflow_rejected(self, tmp_path):
        with pytest.raises(NonFiniteError):
            save_features(tmp_path / "x.oodf", np.array([[1e300, 0.0]]))


class TestModelContainer:
    def _roundtrip(self, tmp_path, model):
        p = tmp_path / "m.oodm"
        save_model(p, model)
        back = load_model(p)
        p2 = tmp_path / "m2.oodm"
        save_model(p2, back)
        assert p.read_bytes() == p2.read_bytes()
        return back

    def test_pca_model(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 5))
        model = fit(x, identity_spec(5), evr_target=0.8)
        back = self._roundtrip(tmp_path, model)
        assert method_for_model(back) == "pca"
        q = rng.normal(size=(9, 5))
        assert np.array_equal(
            score_reconstruction(model, q), score_reconstruction(back, q)
        )

    def test_cop_model_with_residual(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(25, 4))
        model = fit(x, cosine_spec(4), evr_target=0.7, store_residual=True)
        back = self._roundtrip(tmp_path, model)
        assert back.residual_basis is not None
        assert np.array_equal(back.residual_basis, model.residual_basis)

    @pytest.mark.parametrize("kind,tag", [("gaussian", "corp"), ("laplacian", "colp")])
    def test_rff_models(self, tmp_path, kind, tag):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 6))
        rff = rff_build(kind, 1.3, 16, 6, seed=99)
        model = fit(x, cosine_rff_spec(rff), evr_target=0.9)
        back = self._roundtrip(tmp_path, model)
        assert method_for_model(back) == tag
        loaded_rff = back.map_spec.stages[1]
        assert loaded_rff.seed == 99
        assert np.array_equal(loaded_rff.omegas, rff.omegas)
        q = rng.normal(size=(7, 6))
        assert np.array_equal(
            score_reconstruction(model, q), score_reconstruction(back, q)
        )

    @pytest.mark.parametrize("kind,gamma,tag", [("cosine", None, "kcos"), ("gaussian", 0.9, "kgau")])
    def test_kernel_models(self, tmp_path, kind, gamma, tag):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(15, 4))
        model = fit_kernelspace(x, kind, gamma=gamma, evr_target=0.8)
        back = self._roundtrip(tmp_path, model)
        assert method_for_model(back) == tag
        q = rng.normal(size=(6, 4))
        assert np.array_equal(
            score_kernelspace(model, q), score_kernelspace(back, q)
        )

    def test_trailing_garbage_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        model = fit(rng.normal(size=(10, 3)), identity_spec(3))
        p = tmp_path / "m.oodm"
        save_model(p, model)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_model(p)

    def test_unknown_method_byte(self, tmp_path):
        rng = np.random.default_rng(6)
        model = fit(rng.normal(size=(10, 3)), identity_spec(3))
        p = tmp_path / "m.oodm"
        save_model(p, model)
        blob = bytearray(p.read_bytes())
        blob[5] = 77
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_model(p)

    @pytest.mark.parametrize("q", [0, 4])
    def test_covariance_q_outside_feature_dim_rejected(self, tmp_path, q):
        # pca model, input_dim = feature_dim = 3, no frequencies or
        # residual basis; the payload holds every value the header asks
        # for, so only the range check can reject it.
        d = 3
        blob = struct.pack("<4sBB", b"OODM", 1, 0)
        blob += struct.pack("<dIIIB", 0.9, d, d, q, 0)
        blob += np.ones(d + d + d * q).astype("<f8").tobytes()
        p = tmp_path / "m.oodm"
        p.write_bytes(blob)
        with pytest.raises(FormatError, match="outside"):
            load_model(p)

    @pytest.mark.parametrize("l", [0, 6])
    def test_gram_l_outside_train_rows_rejected(self, tmp_path, l):
        # kcos model with n_train = 5 rows of input_dim 2.
        n, m = 5, 2
        blob = struct.pack("<4sBB", b"OODM", 1, 4)
        blob += struct.pack("<ddIII", 0.9, 0.0, n, m, l)
        blob += np.ones(n * m + n * l).astype("<f8").tobytes()
        p = tmp_path / "m.oodm"
        p.write_bytes(blob)
        with pytest.raises(FormatError, match="outside"):
            load_model(p)


class TestStoreSizes:
    def test_kernel_model_bytes_grow_with_training_size(self, tmp_path):
        rng = np.random.default_rng(8)
        sizes = {}
        for n in (20, 40):
            model = fit_kernelspace(rng.normal(size=(n, 4)), "cosine",
                                    evr_target=0.8)
            p = tmp_path / f"k{n}.oodm"
            save_model(p, model)
            sizes[n] = p.stat().st_size
        assert sizes[40] > 1.5 * sizes[20]  # stored training matrix dominates

    def test_covariance_model_bytes_independent_of_training_size(self, tmp_path):
        rng = np.random.default_rng(9)
        rff = rff_build("gaussian", 1.0, 12, 4, seed=1)
        sizes = {}
        for n in (50, 500):
            model = fit(rng.normal(size=(n, 4)), cosine_rff_spec(rff),
                        evr_target=0.9)
            p = tmp_path / f"c{n}.oodm"
            save_model(p, model)
            sizes[n] = p.stat().st_size
        assert abs(sizes[500] - sizes[50]) <= 12 * 8 * 4  # only q can differ


class TestScoresCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=50) * 10.0 ** rng.integers(-8, 8, size=50)
        p = tmp_path / "s.csv"
        save_scores(p, np.arange(50), vals)
        idx, back = load_scores(p)
        assert np.array_equal(idx, np.arange(50))
        assert np.array_equal(back, vals)

    def test_header_enforced(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("idx,val\n0,1.0\n")
        with pytest.raises(FormatError):
            load_scores(p)

    def test_bad_row(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("index,score\n0,abc\n")
        with pytest.raises(FormatError):
            load_scores(p)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_score_rejected_with_line(self, tmp_path, text):
        p = tmp_path / "s.csv"
        p.write_text(f"index,score\n0,1.5\n1,{text}\n2,0.25\n")
        with pytest.raises(NonFiniteError, match=r"s\.csv:3"):
            load_scores(p)


class TestComplementOnLoad:
    @pytest.mark.parametrize("evr,wide", [(0.4, False), (0.95, True)])
    def test_reloaded_complement_bit_equal(self, tmp_path, evr, wide):
        rng = np.random.default_rng(10)
        rff = rff_build("gaussian", 0.7, 24, 5, seed=3)
        model = fit(rng.normal(size=(80, 5)), cosine_rff_spec(rff), evr_target=evr)
        p = tmp_path / "m.oodm"
        save_model(p, model)
        back = load_model(p)
        assert (model.complement is not None) == wide
        if not wide:
            assert back.complement is None
        else:
            assert back.complement.shape == model.complement.shape
            assert back.complement.tobytes() == model.complement.tobytes()
