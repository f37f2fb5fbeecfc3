"""Version-2 model files: the stored basis, sizes, no QR on load, and the
version-1 files under tests/data/v1 (see its README)."""

from pathlib import Path

import numpy as np
import pytest

from kpca_ood.detector import DetectorModel, fit, score_reconstruction
from kpca_ood.featmap import cosine_rff_spec, identity_spec, rff_build
from kpca_ood.fileio import load_features, load_model, load_scores, save_model
from kpca_ood.kernelspace import KernelSpaceModel, fit_kernelspace, score_kernelspace

V1 = Path(__file__).parent / "data" / "v1"
FIXTURES = ["pca", "cop", "corp", "colp", "corp-residual", "corp-wide", "kcos", "kgau"]


def _scores(model, x):
    if isinstance(model, KernelSpaceModel):
        return score_kernelspace(model, x)
    return score_reconstruction(model, x)


def _wide(model) -> bool:
    return isinstance(model, DetectorModel) and model.complement is not None


class TestVersion1Files:
    def test_fixtures_cover_both_orientations(self):
        models = {name: load_model(V1 / f"{name}.oodm") for name in FIXTURES}
        assert {name for name, m in models.items() if _wide(m)} == {"corp-wide"}
        assert models["corp-residual"].residual_basis is not None
        # kcos would hold the leading vectors if refitted (2q < l); kgau not.
        for name, leading in (("kcos", True), ("kgau", False)):
            m = models[name]
            assert (2 * (m.n_train - m.l) < m.l) == leading
            assert m.leading_vectors is None

    @pytest.mark.parametrize("name", FIXTURES)
    def test_scores_as_recorded(self, name):
        model = load_model(V1 / f"{name}.oodm")
        idx, want = load_scores(V1 / f"{name}.csv")
        got = _scores(model, load_features(V1 / "queries.oodf"))
        assert np.array_equal(idx, np.arange(got.size))
        if not _wide(model):
            assert np.array_equal(got, want)
        else:
            # R^T mu folded into the projection moves the last bits.
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12

    @pytest.mark.parametrize("name", FIXTURES)
    def test_resaves_as_version_2(self, tmp_path, name):
        model = load_model(V1 / f"{name}.oodm")
        x = load_features(V1 / "queries.oodf")
        p, p2 = tmp_path / "a.oodm", tmp_path / "b.oodm"
        save_model(p, model)
        assert p.read_bytes()[4] == 2
        back = load_model(p)
        assert np.array_equal(_scores(back, x), _scores(model, x))
        save_model(p2, back)
        assert p2.read_bytes() == p.read_bytes()


class TestStoredBasis:
    @pytest.mark.parametrize("evr, wide", [(0.5, False), (0.95, True), (1.0, True)])
    def test_covariance_file_holds_the_narrower_basis(self, tmp_path, evr, wide):
        rng = np.random.default_rng(21)
        rff = rff_build("gaussian", 0.7, 24, 5, seed=3)
        model = fit(rng.normal(size=(80, 5)), cosine_rff_spec(rff), evr_target=evr)
        d, q = model.feature_dim, model.q
        assert (2 * q > d) == wide
        p = tmp_path / "m.oodm"
        save_model(p, model)
        header = 6 + 21 + 25 + 8 * (24 * 5 + 24)
        width = d - q if 2 * q > d else q
        assert p.stat().st_size == header + 8 * (2 * d + d * width) + 4
        back = load_model(p)
        assert (back.basis is None) == (2 * q > d)
        if back.basis is None:
            assert back.complement.tobytes() == model.complement.tobytes()
        else:
            assert back.basis.tobytes() == model.basis.tobytes()

    @pytest.mark.parametrize("kernel, gamma, evr, leading", [
        ("cosine", None, 0.8, True), ("gaussian", 4.0, 0.95, False),
    ])
    def test_gram_file_holds_the_narrower_basis(self, tmp_path, kernel, gamma, evr,
                                                leading):
        model = fit_kernelspace(np.random.default_rng(22).normal(size=(30, 4)),
                                kernel, gamma=gamma, evr_target=evr)
        n, l = 30, model.l
        assert (2 * (n - l) < l) == leading
        width = n - l if 2 * (n - l) < l else l
        p = tmp_path / "m.oodm"
        save_model(p, model)
        assert p.stat().st_size == 6 + 29 + 8 * (n * 4 + n * width) + 4
        back = load_model(p)
        assert (back.leading_vectors is not None) == (width == n - l)

    def test_loading_a_wide_model_makes_no_qr(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(23)
        model = fit(rng.normal(size=(60, 6)), identity_spec(6), evr_target=0.99)
        assert 2 * model.q > 6
        p = tmp_path / "m.oodm"
        save_model(p, model)
        calls = []
        qr = np.linalg.qr

        def counting(*args, **kwargs):
            calls.append(1)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting)
        back = load_model(p)
        assert calls == []
        q = rng.normal(size=(9, 6))
        assert np.array_equal(score_reconstruction(back, q), score_reconstruction(model, q))
        # A version-1 file holds U, so a wide one still derives R by QR.
        load_model(V1 / "corp-wide.oodm")
        assert len(calls) == 1

    def test_model_built_from_r_alone(self):
        rng = np.random.default_rng(24)
        model = fit(rng.normal(size=(60, 6)), identity_spec(6), evr_target=0.99)
        from_r = DetectorModel(model.map_spec, model.mean, None, None,
                               model.eigenvalues, model.q, model.evr_target,
                               complement=model.complement)
        assert from_r.complement_mean.tobytes() == model.complement_mean.tobytes()
        q = rng.normal(size=(9, 6))
        assert np.array_equal(score_reconstruction(from_r, q), score_reconstruction(model, q))
