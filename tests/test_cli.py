import json

import numpy as np
import pytest

from kpca_ood import fileio
from kpca_ood.cli import build_parser, main
from kpca_ood.errors import IndexMismatchError


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def synth_files(tmp_path):
    out = tmp_path / "d1"
    rc = run("synth", "--kind", "low-rank-gauss", "--n", 200, "--dim", 8,
             "--seed", 1, "--out", out)
    assert rc == 0
    return f"{out}.ind.oodf", f"{out}.ood.oodf"


class TestSynth:
    def test_writes_both_files_with_shape(self, tmp_path):
        out = tmp_path / "d"
        rc = run("synth", "--kind", "norm-shift", "--n", 50, "--dim", 4,
                 "--seed", 1, "--out", out)
        assert rc == 0
        x = fileio.load_features(f"{out}.ind.oodf")
        y = fileio.load_features(f"{out}.ood.oodf")
        assert x.shape == (50, 4)
        assert y.shape == (50, 4)

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("synth", "--kind", "sphere-cluster", "--n", 40,
                       "--dim", 4, "--seed", 9, "--out", out) == 0
        assert (tmp_path / "a.ind.oodf").read_bytes() == (tmp_path / "b.ind.oodf").read_bytes()
        assert (tmp_path / "a.ood.oodf").read_bytes() == (tmp_path / "b.ood.oodf").read_bytes()

    def test_dim_one_usage_error(self, tmp_path):
        rc = run("synth", "--kind", "norm-shift", "--n", 50, "--dim", 1,
                 "--seed", 1, "--out", tmp_path / "d")
        assert rc == 1

    def test_generator_param_flag(self, tmp_path):
        out = tmp_path / "d"
        rc = run("synth", "--kind", "norm-shift", "--n", 500, "--dim", 4,
                 "--seed", 1, "--out", out, "--param", "mu_ind=20")
        assert rc == 0
        x = fileio.load_features(f"{out}.ind.oodf")
        assert abs(np.linalg.norm(x, axis=1).mean() - 20.0) < 0.5

    def test_unknown_param_usage_error(self, tmp_path):
        rc = run("synth", "--kind", "norm-shift", "--n", 50, "--dim", 4,
                 "--seed", 1, "--out", tmp_path / "d", "--param", "bogus=1")
        assert rc == 2  # InvalidSpecError -> data error


class TestFitScore:
    def test_missing_train_flag_usage(self, tmp_path):
        assert run("fit", "--method", "pca", "--out", tmp_path / "m") == 1

    def test_missing_train_file_data_error(self, tmp_path):
        rc = run("fit", "--train", tmp_path / "nope.oodf", "--method", "pca",
                 "--out", tmp_path / "m")
        assert rc == 2

    def test_pca_low_rank_recovers_rank(self, synth_files, tmp_path):
        ind, _ = synth_files
        model_path = tmp_path / "m.oodm"
        rc = run("fit", "--train", ind, "--method", "pca", "--evr", 0.99,
                 "--out", model_path)
        assert rc == 0
        model = fileio.load_model(model_path)
        assert model.q == 2  # generator plants rank 2

    def test_corp_defaults_rff_dim_to_4x(self, synth_files, tmp_path, capsys):
        ind, _ = synth_files
        model_path = tmp_path / "m.oodm"
        rc = run("fit", "--train", ind, "--method", "corp", "--out", model_path)
        assert rc == 0
        model = fileio.load_model(model_path)
        assert model.map_spec.stages[1].n_features == 4 * 8

    def test_score_roundtrip_and_determinism(self, synth_files, tmp_path):
        ind, ood = synth_files
        model_path = tmp_path / "m.oodm"
        assert run("fit", "--train", ind, "--method", "cop",
                   "--out", model_path) == 0
        s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert run("score", "--model", model_path, "--features", ood,
                   "--out", s1) == 0
        assert run("score", "--model", model_path, "--features", ood,
                   "--out", s2) == 0
        assert s1.read_bytes() == s2.read_bytes()

    def test_full_rank_pca_scores_training_near_zero(self, synth_files, tmp_path):
        ind, _ = synth_files
        model_path = tmp_path / "m.oodm"
        assert run("fit", "--train", ind, "--method", "pca", "--evr", 1.0,
                   "--out", model_path) == 0
        out = tmp_path / "s.csv"
        assert run("score", "--model", model_path, "--features", ind,
                   "--out", out) == 0
        _, vals = fileio.load_scores(out)
        assert np.max(np.abs(vals)) <= 1e-6

    def test_zero_row_aborts_without_flag(self, tmp_path):
        x = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 1.0]])
        feat = tmp_path / "x.oodf"
        fileio.save_features(feat, x)
        train = tmp_path / "t.oodf"
        fileio.save_features(train, np.random.default_rng(0).normal(size=(20, 2)))
        model_path = tmp_path / "m.oodm"
        assert run("fit", "--train", train, "--method", "cop",
                   "--out", model_path) == 0
        assert run("score", "--model", model_path, "--features", feat,
                   "--out", tmp_path / "s.csv") == 2

    def test_zero_row_skipped_with_flag(self, tmp_path):
        x = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 1.0]])
        feat = tmp_path / "x.oodf"
        fileio.save_features(feat, x)
        train = tmp_path / "t.oodf"
        fileio.save_features(train, np.random.default_rng(0).normal(size=(20, 2)))
        model_path = tmp_path / "m.oodm"
        assert run("fit", "--train", train, "--method", "cop",
                   "--out", model_path) == 0
        out = tmp_path / "s.csv"
        assert run("score", "--model", model_path, "--features", feat,
                   "--out", out, "--skip-bad-rows") == 0
        idx, vals = fileio.load_scores(out)
        assert list(idx) == [0, 2]

    def test_identical_rows_numerical_failure(self, tmp_path):
        train = tmp_path / "t.oodf"
        fileio.save_features(train, np.ones((10, 3)))
        rc = run("fit", "--train", train, "--method", "pca",
                 "--out", tmp_path / "m.oodm")
        assert rc == 3


class TestEvalFuse:
    def _write_scores(self, path, vals, start=0):
        fileio.save_scores(path, np.arange(start, start + len(vals)), vals)

    def test_perfect_separation(self, tmp_path, capsys):
        ind, ood = tmp_path / "i.csv", tmp_path / "o.csv"
        self._write_scores(ind, np.ones(40))
        self._write_scores(ood, np.zeros(30))
        assert run("eval", "--ind", ind, "--ood", ood) == 0
        out = capsys.readouterr().out
        assert "fpr95      0.000000" in out
        assert "auroc      1.000000" in out

    def test_worked_threshold_example(self, tmp_path, capsys):
        ind, ood = tmp_path / "i.csv", tmp_path / "o.csv"
        self._write_scores(ind, np.arange(1.0, 101.0))
        self._write_scores(ood, np.array([0.5, 5.5, 200.0]))
        assert run("eval", "--ind", ind, "--ood", ood, "--json-lines") == 0
        records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        by_metric = {r["metric"]: r["value"] for r in records}
        assert by_metric["threshold"] == 6.0
        assert abs(by_metric["fpr95"] - 1.0 / 3.0) < 1e-12

    def test_swapped_sets_complementary_auroc(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        rng = np.random.default_rng(0)
        self._write_scores(a, rng.normal(1.0, 1.0, size=60))
        self._write_scores(b, rng.normal(-1.0, 1.0, size=60))
        assert run("eval", "--ind", a, "--ood", b, "--json-lines") == 0
        rec1 = {r["metric"]: r["value"]
                for r in map(json.loads, capsys.readouterr().out.splitlines())}
        assert run("eval", "--ind", b, "--ood", a, "--json-lines") == 0
        rec2 = {r["metric"]: r["value"]
                for r in map(json.loads, capsys.readouterr().out.splitlines())}
        assert abs(rec1["auroc"] + rec2["auroc"] - 1.0) <= 1e-12

    def test_multiple_ood_average(self, tmp_path, capsys):
        ind = tmp_path / "i.csv"
        self._write_scores(ind, np.ones(20))
        o1, o2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
        self._write_scores(o1, np.zeros(10))
        self._write_scores(o2, np.full(10, 2.0))
        assert run("eval", "--ind", ind, "--ood", o1, o2) == 0
        out = capsys.readouterr().out
        assert "AVERAGE" in out

    def test_fuse_hand_value(self, tmp_path):
        e, b, out = tmp_path / "e.csv", tmp_path / "b.csv", tmp_path / "f.csv"
        self._write_scores(e, np.array([0.8, 0.0, 1.0]))
        self._write_scores(b, np.array([np.log(2.0), 5.0, 123.0]))
        assert run("fuse", "--errors", e, "--base", b, "--out", out) == 0
        _, fused = fileio.load_scores(out)
        assert abs(fused[0] - 0.2 * np.log(2.0)) <= 1e-15
        assert fused[1] == 5.0
        assert fused[2] == 0.0

    def test_fuse_index_mismatch(self, tmp_path):
        e, b = tmp_path / "e.csv", tmp_path / "b.csv"
        self._write_scores(e, np.array([0.1, 0.2]))
        self._write_scores(b, np.array([1.0, 2.0]), start=5)
        assert run("fuse", "--errors", e, "--base", b,
                   "--out", tmp_path / "f.csv") == 2

    def test_fuse_index_mismatch_error_class(self, tmp_path):
        e, b = tmp_path / "e.csv", tmp_path / "b.csv"
        self._write_scores(e, np.array([0.1, 0.2]))
        self._write_scores(b, np.array([1.0, 2.0]), start=5)
        args = build_parser().parse_args(
            ["fuse", "--errors", str(e), "--base", str(b),
             "--out", str(tmp_path / "f.csv")])
        with pytest.raises(IndexMismatchError):
            args.func(args)

    @pytest.mark.parametrize("side", ["errors", "base"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fuse_non_finite_csv_rejected(self, tmp_path, side, bad):
        e, b, out = tmp_path / "e.csv", tmp_path / "b.csv", tmp_path / "f.csv"
        vals = {"errors": [0.1, 0.2, 0.3], "base": [1.0, 2.0, 3.0]}
        vals[side][1] = bad
        self._write_scores(e, np.array(vals["errors"]))
        self._write_scores(b, np.array(vals["base"]))
        assert run("fuse", "--errors", e, "--base", b, "--out", out) != 0
        assert not out.exists()

    def test_fuse_normalize_errors(self, tmp_path):
        e, b, out = tmp_path / "e.csv", tmp_path / "b.csv", tmp_path / "f.csv"
        self._write_scores(e, np.array([2.0, 4.0]))
        self._write_scores(b, np.array([1.0, 1.0]))
        assert run("fuse", "--errors", e, "--base", b, "--out", out,
                   "--normalize-errors") == 0
        _, fused = fileio.load_scores(out)
        assert np.allclose(fused, [1.0, 0.0])  # min-max to [0,1]


class TestSweepBench:
    def test_sweep_evr_table(self, synth_files, tmp_path, capsys):
        ind, ood = synth_files
        rc = run("sweep", "--param", "evr", "--values", "0.5,0.9,0.99",
                 "--train", ind, "--ind", ind, "--ood", ood,
                 "--method", "pca")
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 4  # header + 3 rows

    def test_sweep_empty_values_usage(self, synth_files, tmp_path):
        ind, ood = synth_files
        rc = run("sweep", "--param", "evr", "--values", "",
                 "--train", ind, "--ind", ind, "--ood", ood, "--method", "pca")
        assert rc == 1

    def test_sweep_gamma_needs_kernel_method(self, synth_files):
        ind, ood = synth_files
        rc = run("sweep", "--param", "gamma", "--values", "0.5,1",
                 "--train", ind, "--ind", ind, "--ood", ood, "--method", "pca")
        assert rc == 1

    def test_sweep_rff_dim_auroc_nondecreasing(self, tmp_path, capsys):
        # more random features approximate the kernel better, so detection
        # quality rises with the sweep (0.02 noise allowance)
        out = tmp_path / "sc"
        assert run("synth", "--kind", "sphere-cluster", "--n", 1200,
                   "--dim", 16, "--seed", 42, "--out", out) == 0
        capsys.readouterr()  # drop the synth output
        rc = run("sweep", "--param", "rff-dim", "--values", "16,64,256",
                 "--train", f"{out}.ind.oodf", "--ind", f"{out}.ind.oodf",
                 "--ood", f"{out}.ood.oodf", "--method", "corp",
                 "--gamma", 2.0, "--seed", 5)
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        aurocs = [float(l.split()[2]) for l in lines[1:] if l.strip()]
        assert len(aurocs) == 3
        assert all(b >= a - 0.02 for a, b in zip(aurocs, aurocs[1:]))

    def test_bench_reports_methods(self, synth_files, capsys):
        ind, _ = synth_files
        rc = run("bench", "--train", ind, "--queries", 8,
                 "--methods", "cop,knn", "--warmup", 1, "--reps", 1)
        assert rc == 0
        out = capsys.readouterr().out
        assert "cop" in out and "knn" in out

    def test_bench_unknown_method_usage(self, synth_files):
        ind, _ = synth_files
        rc = run("bench", "--train", ind, "--queries", 4, "--methods", "zap")
        assert rc == 1


class TestModelRoundTripThroughCli:
    def test_scores_equal_after_reload(self, synth_files, tmp_path):
        ind, ood = synth_files
        m = tmp_path / "m.oodm"
        assert run("fit", "--train", ind, "--method", "corp", "--seed", 3,
                   "--gamma", 1.0, "--out", m) == 0
        direct = fileio.load_model(m)
        from kpca_ood.detector import score_reconstruction

        x = fileio.load_features(ood)
        s1 = score_reconstruction(direct, x)
        s2 = score_reconstruction(fileio.load_model(m), x)
        assert np.array_equal(s1, s2)
