import math
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from kpca_ood.detector import fit, score_reconstruction
from kpca_ood.errors import FormatError, NonFiniteError
from kpca_ood.featmap import cosine_rff_spec, cosine_spec, identity_spec, rff_build
from kpca_ood import fileio
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, bad):
        # save_features refuses such values, so the file is written by hand.
        x = np.ones((3, 2), dtype="<f4")
        x[2, 1] = bad
        p = tmp_path / "x.oodf"
        p.write_bytes(struct.pack("<4sBII", b"OODF", 1, 3, 2) + x.tobytes())
        with pytest.raises(NonFiniteError) as info:
            load_features(p)
        assert str(info.value) == f"{p}: payload contains NaN or Inf"


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

    def _patched(self, tmp_path, model, offset, fmt, value):
        # Save the model, then overwrite one header field in place.
        p = tmp_path / "m.oodm"
        save_model(p, model)
        blob = bytearray(p.read_bytes())
        struct.pack_into(fmt, blob, offset, value)
        p.write_bytes(bytes(blob))
        return p

    def _corp_model(self):
        rng = np.random.default_rng(11)
        rff = rff_build("gaussian", 0.8, 10, 3, seed=4)
        return fit(rng.normal(size=(30, 3)), cosine_rff_spec(rff), evr_target=0.9)

    # Covariance header: magic 4, version 1, method 1, evr f64 @6,
    # input_dim u32 @14, feature_dim @18, q @22, flags u8 @26; then the
    # frequencies block: kernel u8 @27, gamma f64 @28, M @36, d_in @40.

    @pytest.mark.parametrize("kernel_byte", [1, 7])
    def test_rff_kernel_byte_must_match_method(self, tmp_path, kernel_byte):
        # corp names the gaussian kernel (byte 0); 1 is laplacian's byte
        # and 7 names no kernel.
        p = self._patched(tmp_path, self._corp_model(), 27, "<B", kernel_byte)
        with pytest.raises(FormatError, match="kernel byte"):
            load_model(p)

    def test_rff_d_in_must_match_input_dim(self, tmp_path):
        p = self._patched(tmp_path, self._corp_model(), 14, "<I", 4)
        with pytest.raises(FormatError, match="d_in"):
            load_model(p)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, np.inf, np.nan])
    def test_rff_gamma_must_be_positive(self, tmp_path, gamma):
        p = self._patched(tmp_path, self._corp_model(), 28, "<d", gamma)
        with pytest.raises(FormatError, match="gamma"):
            load_model(p)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, np.inf, np.nan])
    def test_kgau_gamma_must_be_positive(self, tmp_path, gamma):
        # Gram header: evr f64 @6, gamma f64 @14.
        rng = np.random.default_rng(12)
        model = fit_kernelspace(rng.normal(size=(12, 3)), "gaussian", gamma=0.9,
                                evr_target=0.8)
        p = self._patched(tmp_path, model, 14, "<d", gamma)
        with pytest.raises(FormatError, match="gamma"):
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


def _per_line_load_scores(path):
    """The score CSV reader as one Python parse per line, its earlier form."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "index,score":
        raise FormatError(f"{path}: missing 'index,score' header")
    idx, vals = [], []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            left, right = line.split(",")
            idx.append(int(left))
            vals.append(float(right))
        except ValueError as exc:
            raise FormatError(f"{path}:{ln}: bad row {line!r}") from exc
        if not math.isfinite(vals[-1]):
            raise NonFiniteError(f"{path}:{ln}: non-finite score {right!r}")
    return np.asarray(idx, dtype=np.int64), np.asarray(vals, dtype=np.float64)


H = b"index,score\n"


class TestScoresCsvParse:
    """load_scores returns the per-line reader's arrays bit for bit, and
    raises its exception class with its message."""

    @pytest.mark.parametrize("blob", [
        H,
        b"index,score",
        H + b"0,1.5",
        H + b"0,1.5\n1,-2\n",
        H + b"0,-0.0\n1,5e-324\n2,1.7e308\n3,-1.7e308\n72057594037927936,2.5e-310\n",
        H + b"-9223372036854775808,1\n9223372036854775807,2\n",
        H + b"+5,+.5\n007,5.\n-0,-0\n1,1E5\n2,1e-400\n",
        H + b"0,1\n\n\n1,2\n\n",
        H + b"0,1\r\n1,2\r\n",
        H + b"0,1\r1,2\r",
        H + b"0, 1\n 1 ,2 \n",
        H + b"0,1\x0c1,2\n",
        H + b"1_0,1_0\n",
    ])
    def test_valid_files(self, tmp_path, blob):
        p = tmp_path / "s.csv"
        p.write_bytes(blob)
        idx, vals = load_scores(p)
        want_idx, want_vals = _per_line_load_scores(p)
        assert idx.dtype == np.int64 and vals.dtype == np.float64
        assert idx.tobytes() == want_idx.tobytes()
        assert vals.tobytes() == want_vals.tobytes()

    @pytest.mark.parametrize("blob", [
        b"",
        b"index,score ",
        b"\nindex,score\n0,1\n",
        H + b"   \n",
        H + b"0,1\n \n1,2\n",
        H + b"0,1\n\t\n",
        H + b"0,1,2\n",
        H + b"# note\n0,1\n",
        H + b"0,1 # note\n",
        H + b"0,nan\n",
        H + b"0,1\n1,-inf\n",
        H + b"0,1e999\n",
        H + b"1e5,1\n",
        H + b"1.0,1\n",
        H + b"0,\n",
        H + b",1\n",
        H + b"0\n",
        H + b"0,0x10\n",
        H + b"0,1e\n",
        H + b"0,1\r\n1,abc\r\n",
        H + b"99999999999999999999,1\n",
    ])
    def test_malformed_files(self, tmp_path, blob):
        p = tmp_path / "s.csv"
        p.write_bytes(blob)
        with pytest.raises(Exception) as want:
            _per_line_load_scores(p)
        with pytest.raises(want.type) as got:
            load_scores(p)
        assert str(got.value) == str(want.value)


def _f_string_csv(indices, values) -> str:
    """The score CSV as one f-string per row, the writer's earlier form."""
    rows = [f"{i},{v:.17g}\n" for i, v in zip(indices.tolist(), values.tolist())]
    return "index,score\n" + "".join(rows)


class TestScoresCsvBlocks:
    SPECIAL = [0.0, -0.0, 1e-300, 5e-324, -1.797e308, 1.0, -2.5]

    @pytest.mark.parametrize("extra", [-1, 0, 1, None])
    def test_bytes_match_per_row_rendering(self, tmp_path, extra):
        block = fileio._SCORE_BLOCK_ROWS
        n = 20_000 if extra is None else block + extra
        rng = np.random.default_rng(31)
        vals = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
        vals[rng.integers(0, n, size=len(self.SPECIAL))] = self.SPECIAL
        idx = np.arange(n) * 3 - 7
        p = tmp_path / "s.csv"
        save_scores(p, idx, vals)
        assert p.read_text(encoding="ascii") == _f_string_csv(idx, vals)

    def test_two_blocks_and_a_row(self, tmp_path):
        n = 2 * fileio._SCORE_BLOCK_ROWS + 1
        vals = np.linspace(-1.0, 1.0, n)
        p = tmp_path / "s.csv"
        save_scores(p, np.arange(n), vals)
        assert p.read_text(encoding="ascii") == _f_string_csv(np.arange(n), vals)

    def test_empty(self, tmp_path):
        p = tmp_path / "s.csv"
        save_scores(p, np.arange(0), np.zeros(0))
        assert p.read_text(encoding="ascii") == "index,score\n"


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


class TestLoadMemory:
    def test_kgau_load_peak_is_about_twice_the_file(self, tmp_path):
        # The file's bytes plus one float64 copy of each array; a second
        # copy of the column-major vectors would take the peak to ~2.9x.
        x = np.random.default_rng(5).normal(size=(1000, 16))
        p = tmp_path / "k.oodm"
        save_model(p, fit_kernelspace(x, "gaussian", gamma=2.0, evr_target=0.9))
        tracemalloc.start()
        try:
            back = load_model(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.residual_vectors.flags.c_contiguous
        assert back.residual_vectors.flags.writeable
        assert peak <= 2.2 * p.stat().st_size, peak / p.stat().st_size


def _resealed(blob) -> bytes:
    """A version-2 model file's bytes with the CRC-32 trailer recomputed."""
    body = bytes(blob[:-4])
    return body + struct.pack("<I", zlib.crc32(body))


V1_DATA = Path(__file__).parent / "data" / "v1"


def _as_version_2(blob) -> bytes:
    """The version-2 file of a version-1 file whose stored basis is also the
    version-2 one (U with 2q <= D, or the trailing Gram vectors)."""
    out = bytearray(blob)
    out[4] = 2
    if out[5] >= list(fileio.METHODS).index("kcos"):
        out[34:34] = b"\x00"  # Gram flags byte, after l
    return _resealed(bytes(out) + bytes(4))


def _small_models():
    """One small model of each container layout, keyed by name."""
    rng = np.random.default_rng(13)
    rff = rff_build("gaussian", 0.8, 4, 2, seed=5)
    return {
        "pca": fit(rng.normal(size=(12, 3)), identity_spec(3), evr_target=0.8),
        "corp-residual": fit(rng.normal(size=(12, 2)), cosine_rff_spec(rff),
                             evr_target=0.6, store_residual=True),
        "kgau": fit_kernelspace(rng.normal(size=(5, 2)), "gaussian", gamma=0.9,
                                evr_target=0.8),
        "kcos": fit_kernelspace(rng.normal(size=(5, 2)), "cosine", evr_target=0.8),
        "corp-wide": fit(rng.normal(size=(12, 2)), cosine_rff_spec(rff),
                         evr_target=0.99, store_residual=True),
        "kcos-leading": fit_kernelspace(rng.normal(size=(7, 2)), "cosine",
                                        evr_target=0.8),
    }


class TestHeaderRanges:
    # Covariance header: evr f64 @6. Gram header: evr f64 @6, gamma f64 @14.
    def _load(self, tmp_path, name, offset, value):
        model = _small_models()[name]
        return load_model(TestModelContainer()._patched(tmp_path, model, offset, "<d", value))

    @pytest.mark.parametrize("evr", [np.nan, np.inf, -1.0, 5.0, 0.0])
    @pytest.mark.parametrize("name", ["pca", "corp-residual"])
    def test_covariance_evr_outside_unit_interval(self, tmp_path, name, evr):
        with pytest.raises(FormatError, match="evr_target"):
            self._load(tmp_path, name, 6, evr)

    @pytest.mark.parametrize("evr", [np.nan, np.inf, -1.0, 5.0, 0.0, 1.0])
    @pytest.mark.parametrize("name", ["kgau", "kcos"])
    def test_gram_evr_outside_open_unit_interval(self, tmp_path, name, evr):
        with pytest.raises(FormatError, match="evr_target"):
            self._load(tmp_path, name, 6, evr)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
    def test_kcos_gamma_not_finite(self, tmp_path, gamma):
        with pytest.raises(FormatError, match="gamma"):
            self._load(tmp_path, "kcos", 14, gamma)

    @pytest.mark.parametrize("gamma", [-0.0, 5e-324, 1.0, 5.0, -1.0])
    def test_kcos_gamma_not_zero_rejected(self, tmp_path, gamma):
        with pytest.raises(FormatError, match="kcos gamma"):
            self._load(tmp_path, "kcos", 14, gamma)

    @pytest.mark.parametrize("gamma", [-0.0, 5.0])
    def test_kcos_gamma_not_zero_not_saved(self, tmp_path, gamma):
        model = _small_models()["kcos"]
        model.gamma = gamma
        p = tmp_path / "m.oodm"
        with pytest.raises(FormatError, match="kcos model gamma"):
            save_model(p, model)
        assert not p.exists()

    def test_kcos_round_trip_keeps_gamma_zero(self, tmp_path):
        p, q = tmp_path / "a.oodm", tmp_path / "b.oodm"
        save_model(p, _small_models()["kcos"])
        back = load_model(p)
        assert struct.pack("<d", back.gamma) == bytes(8)
        save_model(q, back)
        assert q.read_bytes() == p.read_bytes()

    def test_covariance_evr_one_accepted(self, tmp_path):
        # A valid value loads once the trailer is recomputed.
        p = TestModelContainer()._patched(tmp_path, _small_models()["pca"], 6, "<d", 1.0)
        p.write_bytes(_resealed(p.read_bytes()))
        assert load_model(p).evr_target == 1.0


class TestContainerErrorPaths:
    def _saved(self, tmp_path, name):
        p = tmp_path / "m.oodm"
        save_model(p, _small_models()[name])
        return p, p.read_bytes()

    def _features(self, tmp_path):
        p = tmp_path / "x.oodf"
        save_features(p, np.arange(1.0, 7.0).reshape(3, 2))
        return p, p.read_bytes()

    @pytest.mark.parametrize("name", ["pca", "corp-residual", "kgau", "features"])
    def test_every_truncation_rejected(self, tmp_path, name):
        if name == "features":
            p, blob = self._features(tmp_path)
            load = load_features
        else:
            p, blob = self._saved(tmp_path, name)
            load = load_model
        assert len(blob) < 1000
        for size in range(len(blob)):
            p.write_bytes(blob[:size])
            with pytest.raises(FormatError):
                load(p)

    @pytest.mark.parametrize("name", ["pca", "corp-residual", "kgau", "kcos"])
    def test_bit_flips_rejected_or_round_trip(self, tmp_path, name):
        # Version 1 has no checksum. A flipped bit in the header or the
        # first payload values of a version-1 file either is rejected, or
        # loads a model that saves back to the flipped bytes as version 2;
        # a flip that makes a covariance model wide (2q > D) saves the R
        # derived from the file's U instead.
        blob = (V1_DATA / f"{name}.oodm").read_bytes()
        assert blob[4] == 1
        p, again = tmp_path / "m.oodm", tmp_path / "again.oodm"
        loaded = 0
        for bit in range(8 * min(80, len(blob))):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            p.write_bytes(bytes(flipped))
            try:
                model = load_model(p)
            except (FormatError, NonFiniteError):
                continue
            save_model(again, model)
            if getattr(model, "complement", None) is None:
                assert again.read_bytes() == _as_version_2(flipped), f"bit {bit}"
            else:
                back = load_model(again)
                assert back.complement.tobytes() == model.complement.tobytes()
            loaded += 1
        assert loaded > 0

    @pytest.mark.parametrize("name", ["pca", "corp-residual", "kgau", "kcos",
                                      "corp-wide", "kcos-leading"])
    def test_every_bit_flip_rejected(self, tmp_path, name):
        p, blob = self._saved(tmp_path, name)
        for bit in range(8 * len(blob)):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            p.write_bytes(bytes(flipped))
            with pytest.raises(FormatError):
                load_model(p)

    def test_method_byte_flip_rejected(self, tmp_path):
        # Bit 0 of byte 5 turns pca's method byte into cop's; every header
        # rule holds for the result, so only the checksum can reject it.
        p, blob = self._saved(tmp_path, "pca")
        blob = bytearray(blob)
        blob[5] ^= 1
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="checksum mismatch"):
            load_model(p)

    # Feature files stay at version 1; model files are at version 2.
    @pytest.mark.parametrize("kind,offset,fmt,value,message", [
        ("model", 0, "<4s", b"OODX", "bad magic"),
        ("model", 4, "<B", 3, "unsupported version 3"),
        ("features", 0, "<4s", b"OODX", "bad magic"),
        ("features", 4, "<B", 2, "unsupported version 2"),
    ])
    def test_bad_magic_or_version(self, tmp_path, kind, offset, fmt, value, message):
        p, blob = (self._saved(tmp_path, "pca") if kind == "model"
                   else self._features(tmp_path))
        blob = bytearray(blob)
        struct.pack_into(fmt, blob, offset, value)
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=message):
            (load_model if kind == "model" else load_features)(p)

    @pytest.mark.parametrize("size", [0, 3, 5, 12])
    def test_feature_file_shorter_than_header(self, tmp_path, size):
        p, blob = self._features(tmp_path)
        p.write_bytes(blob[:size])
        with pytest.raises(FormatError, match=f"truncated at offset {0 if size < 5 else 5}"):
            load_features(p)

    @pytest.mark.parametrize("rows,cols", [(0, 2), (3, 0), (0, 0)])
    def test_feature_file_empty_matrix(self, tmp_path, rows, cols):
        p = tmp_path / "x.oodf"
        p.write_bytes(struct.pack("<4sBII", b"OODF", 1, rows, cols))
        with pytest.raises(FormatError, match="empty matrix"):
            load_features(p)

    def test_truncated_model_names_offset(self, tmp_path):
        p, blob = self._saved(tmp_path, "pca")
        p.write_bytes(blob[:-1])
        with pytest.raises(FormatError, match="truncated at offset"):
            load_model(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_model_payload(self, tmp_path, bad):
        # pca header ends at byte 27; the mean vector follows.
        p, blob = self._saved(tmp_path, "pca")
        blob = bytearray(blob)
        struct.pack_into("<d", blob, 27, bad)
        p.write_bytes(_resealed(blob))
        with pytest.raises(NonFiniteError, match="model payload contains NaN or Inf"):
            load_model(p)

    @pytest.mark.parametrize("name,flags", [("pca", 1), ("pca", 4), ("corp-residual", 2),
                                            ("corp-residual", 7)])
    def test_flags_disagree_with_method(self, tmp_path, name, flags):
        p, blob = self._saved(tmp_path, name)
        blob = bytearray(blob)
        blob[26] = flags
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="flags disagree with method"):
            load_model(p)

    def test_feature_dim_inconsistent_with_map(self, tmp_path):
        # corp's feature_dim must equal its M = 4; the check runs before
        # the mean vector is read.
        p, blob = self._saved(tmp_path, "corp-residual")
        blob = bytearray(blob)
        struct.pack_into("<I", blob, 18, 5)
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="feature_dim 5 inconsistent with map"):
            load_model(p)

    @pytest.mark.parametrize("indices,values", [
        (np.arange(3), np.zeros(2)),
        (np.arange(4).reshape(2, 2), np.zeros((2, 2))),
    ])
    def test_save_scores_shape_mismatch(self, tmp_path, indices, values):
        p = tmp_path / "s.csv"
        with pytest.raises(FormatError, match="matching 1-D vectors"):
            save_scores(p, indices, values)
        assert not p.exists()
