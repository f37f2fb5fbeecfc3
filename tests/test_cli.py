import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kpca_ood
from kpca_ood import cli, errors, featmap, fileio, linalg
from kpca_ood.baselines import reg_pca_error
from kpca_ood.cli import build_parser, main
from kpca_ood.detector import score_reconstruction, score_residual
from kpca_ood.errors import IndexMismatchError
from kpca_ood.featmap import median_heuristic_gamma, normalize_rows
from kpca_ood.kernelspace import KernelSpaceModel, score_kernelspace


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

    @pytest.mark.parametrize("kind,param,message", [
        ("sphere-cluster", "clusters=inf", "clusters must be finite, got inf"),
        ("low-rank-gauss", "rank=inf", "rank must be finite, got inf"),
        ("sphere-cluster", "clusters=nan", "clusters must be finite, got nan"),
        ("norm-shift", "sigma=inf", "sigma must be finite, got inf"),
        ("norm-shift", "mu_ind=nan", "mu_ind must be finite, got nan"),
        ("norm-shift", "mu_ood=inf", "mu_ood must be finite, got inf"),
        ("low-rank-gauss", "ood_scale=nan", "ood_scale must be finite, got nan"),
        ("sphere-cluster", "clusters=2.5", "clusters must be an integer, got 2.5"),
        ("low-rank-gauss", "rank=1.7", "rank must be an integer, got 1.7"),
    ])
    def test_unusable_param_data_error(self, tmp_path, capsys, kind, param, message):
        rc = run("synth", "--kind", kind, "--n", 50, "--dim", 4, "--seed", 1,
                 "--out", tmp_path / "d", "--param", param)
        assert rc == 2
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert list(tmp_path.iterdir()) == []


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
        assert model.map_spec.rff.n_features == 4 * 8

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

    def test_one_training_row_invalid_value(self, tmp_path, capsys):
        train = tmp_path / "t.oodf"
        fileio.save_features(train, np.array([[1.0, 2.0, 3.0]]))
        rc = run("fit", "--train", train, "--method", "pca",
                 "--out", tmp_path / "m.oodm")
        assert rc == 2
        assert capsys.readouterr().err == (
            "invalid value: need at least 2 training rows, got 1\n"
        )
        assert not (tmp_path / "m.oodm").exists()


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

    def test_fuse_normalize_constant_errors_numerical_failure(self, tmp_path, capsys):
        e, b, out = tmp_path / "e.csv", tmp_path / "b.csv", tmp_path / "f.csv"
        self._write_scores(e, np.array([3.0, 3.0]))
        self._write_scores(b, np.array([1.0, 2.0]))
        assert run("fuse", "--errors", e, "--base", b, "--out", out,
                   "--normalize-errors") == 3
        assert capsys.readouterr().err == (
            "numerical failure: cannot min-max normalize a constant error set\n"
        )
        assert not out.exists()

    def test_fuse_errors_extra_widen_the_range(self, tmp_path):
        e, x, b, out = (tmp_path / f"{n}.csv" for n in ("e", "x", "b", "f"))
        self._write_scores(e, np.array([2.0, 4.0]))
        self._write_scores(x, np.array([0.0, 6.0, 1.0]))
        self._write_scores(b, np.array([1.0, 1.0]))
        assert run("fuse", "--errors", e, "--base", b, "--out", out,
                   "--normalize-errors", "--errors-extra", x) == 0
        _, fused = fileio.load_scores(out)
        assert np.allclose(fused, [2.0 / 3.0, 1.0 / 3.0])


class TestSweepBench:
    def test_sweep_evr_table(self, synth_files, tmp_path, capsys):
        ind, ood = synth_files
        rc = run("sweep", "--param", "evr", "--values", "0.5,0.9,0.99",
                 "--train", ind, "--ind", ind, "--ood", ood,
                 "--method", "pca")
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 4  # header + 3 rows

    @pytest.mark.parametrize("command", ["fit", "sweep"])
    def test_gram_residual_clamp_reported(self, tmp_path, capsys, command):
        # Orthogonal rows give a flat Gram spectrum, so a target near 1
        # keeps every eigenvector and the fit clamps l to 1.
        x = tmp_path / "orth.oodf"
        fileio.save_features(x, np.eye(4))
        if command == "fit":
            rc = run("fit", "--train", x, "--method", "kcos", "--evr", 0.999999,
                     "--out", tmp_path / "m.oodm")
        else:
            rc = run("sweep", "--train", x, "--ind", x, "--ood", x,
                     "--method", "kcos", "--param", "evr", "--values", "0.5,0.999999")
        assert rc == 0
        assert capsys.readouterr().err == (
            "warning: explained-variance target 0.999999 keeps every Gram "
            "eigenvector (N=4, q=4); clamping the residual dimension to 1\n"
        )

    def test_sweep_every_point_fails(self, tmp_path, capsys):
        x = tmp_path / "same.oodf"
        fileio.save_features(x, np.ones((10, 3)))
        rc = run("sweep", "--train", x, "--ind", x, "--ood", x,
                 "--method", "pca", "--param", "evr", "--values", "0.5,0.9")
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.err == "".join(
            f"value {v} failed: total mapped variance is numerically zero "
            "(identical rows?)\n" for v in ("0.5", "0.9")
        )
        assert captured.out.split() == ["value", "fpr95", "auroc", "seconds"]

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

    @pytest.mark.parametrize("methods", ["", ","])
    def test_bench_empty_methods_usage(self, tmp_path, capsys, methods):
        rc = run("bench", "--train", tmp_path / "none.oodf", "--queries", 4,
                 "--methods", methods)
        assert rc == 1
        assert capsys.readouterr().err == "usage error: --methods is empty\n"


class TestDefaultGamma:
    """An absent --gamma is the median heuristic on the cosine-normalized
    training rows, computed at most once per command."""

    @pytest.fixture
    def heuristic_calls(self, monkeypatch):
        calls = []

        def counted(x):
            calls.append(x.shape)
            return median_heuristic_gamma(x)

        monkeypatch.setattr(cli, "median_heuristic_gamma", counted)
        return calls

    @staticmethod
    def _gamma(path):
        return median_heuristic_gamma(normalize_rows(fileio.load_features(path)))

    @pytest.mark.parametrize("argv,calls", [
        (("sweep", "--param", "evr", "--values", "0.5,0.6,0.7,0.8,0.9,0.95",
          "--method", "corp"), 1),
        (("sweep", "--param", "gamma", "--values", "0.5,1", "--method", "kgau"), 0),
        (("bench", "--methods", "corp,colp,kgau"), 1),
        (("bench", "--methods", "kcos,pca,cop,knn"), 0),
    ], ids=["sweep-evr", "sweep-gamma", "bench-kernels", "bench-no-bandwidth"])
    def test_sweep_and_bench_compute_it_at_most_once(self, synth_files, capsys,
                                                     heuristic_calls, argv, calls):
        ind, ood = synth_files
        files = (("--ind", ind, "--ood", ood) if argv[0] == "sweep"
                 else ("--queries", 4, "--warmup", 1, "--reps", 1))
        assert run(*argv, "--train", ind, *files) == 0
        assert heuristic_calls == [(200, 8)] * calls
        lines = capsys.readouterr().out.splitlines()
        defaulted = [l for l in lines if l.startswith("gamma defaulted")]
        assert defaulted == [f"gamma defaulted by median heuristic: "
                             f"{self._gamma(ind):.6g}"] * calls

    def test_sweep_table_equals_sweep_given_that_gamma(self, synth_files, capsys):
        ind, ood = synth_files
        argv = ("sweep", "--param", "evr", "--values", "0.5,0.9,0.99", "--train", ind,
                "--ind", ind, "--ood", ood, "--method", "corp", "--seed", 3)
        assert run(*argv) == 0
        default = capsys.readouterr().out.splitlines()
        assert run(*argv, "--gamma", repr(self._gamma(ind))) == 0
        given = capsys.readouterr().out.splitlines()
        # value, fpr95 and auroc; the seconds column is a timing
        assert [l.split()[:3] for l in default[1:]] == [l.split()[:3] for l in given]

    @pytest.mark.parametrize("method", ["corp", "colp", "kgau"])
    def test_fit_writes_the_bytes_of_a_fit_given_that_gamma(self, synth_files,
                                                            tmp_path, method):
        ind, _ = synth_files
        default, given = tmp_path / "default.oodm", tmp_path / "given.oodm"
        assert run("fit", "--train", ind, "--method", method, "--out", default) == 0
        assert run("fit", "--train", ind, "--method", method,
                   "--gamma", repr(self._gamma(ind)), "--out", given) == 0
        assert default.read_bytes() == given.read_bytes()

    @pytest.mark.parametrize("d", [3, 32])
    @pytest.mark.parametrize("n", [2000, 2001, 5000])
    def test_subsample_normalized_alone_keeps_the_bits(self, n, d):
        # Only the sampled rows are normalized; a row's unit vector does not
        # depend on the others, so gamma is the whole-input heuristic's.
        train = np.random.default_rng(n + d).normal(size=(n, d)) * 3.0 + 0.5
        flags = cli._default_gamma(argparse.Namespace(gamma=None), ["corp"], train)
        whole = median_heuristic_gamma(normalize_rows(train))
        assert flags.gamma.hex() == whole.hex()

    @pytest.mark.parametrize("row", [1, 2], ids=["not-sampled", "sampled"])
    def test_zero_row_fails_whether_or_not_it_is_sampled(self, tmp_path, capsys,
                                                         row):
        # Of 5000 rows the strided subsample takes row 2 but not row 1; a
        # zero row fails the fit either way, before a gamma is printed.
        train = np.random.default_rng(9).normal(size=(5000, 8))
        train[row] = 0.0
        assert featmap._heuristic_rows(5000)[:2].tolist() == [0, 2]
        path = tmp_path / "train.oodf"
        fileio.save_features(path, train)
        out = tmp_path / "m.oodm"
        assert run("fit", "--train", path, "--method", "corp", "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == f"data error: features row {row} has zero norm"
        assert "gamma defaulted" not in captured.out
        assert not out.exists()


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


class TestFitArgumentGate:
    # Files that do not exist: the gate must reject the arguments before
    # any file is read, so the exit code is 1 (usage), never 2 (data).
    BAD = [
        ("kcos", ("--evr", 1.0)),
        ("pca", ("--evr", 1.5)),
        ("corp", ("--rff-dim", 0)),
        ("corp", ("--gamma", -1.0)),
    ]
    IDS = ["kcos-evr-1", "pca-evr-1.5", "corp-rff-dim-0", "corp-gamma-neg"]

    @pytest.mark.parametrize("method,bad", BAD, ids=IDS)
    def test_fit(self, tmp_path, method, bad):
        assert run("fit", "--train", tmp_path / "none.oodf", "--method", method,
                   *bad, "--out", tmp_path / "m.oodm") == 1

    @pytest.mark.parametrize("method,bad", BAD, ids=IDS)
    def test_bench(self, tmp_path, method, bad):
        assert run("bench", "--train", tmp_path / "none.oodf", "--queries", 4,
                   "--methods", f"knn,{method}", *bad) == 1

    @pytest.mark.parametrize("method,bad", BAD, ids=IDS)
    def test_sweep(self, tmp_path, method, bad):
        missing = tmp_path / "none.oodf"
        param, value = bad[0][2:], bad[1]
        # the bad value comes second: every value of the grid is checked
        good = {"evr": 0.5, "rff-dim": 8, "gamma": 1.0}[param]
        assert run("sweep", "--param", param, "--values", f"{good},{value}",
                   "--train", missing, "--ind", missing, "--ood", missing,
                   "--method", method) == 1


class TestRffDimZero:
    def test_fit(self, synth_files, tmp_path):
        ind, _ = synth_files
        assert run("fit", "--train", ind, "--method", "corp", "--rff-dim", 0,
                   "--out", tmp_path / "m.oodm") == 1
        assert not (tmp_path / "m.oodm").exists()

    def test_bench(self, synth_files, capsys):
        ind, _ = synth_files
        assert run("bench", "--train", ind, "--queries", 4, "--methods", "corp",
                   "--rff-dim", 0, "--warmup", 1, "--reps", 1) == 1
        assert "rff_dim" not in capsys.readouterr().out

    def test_sweep(self, synth_files, capsys):
        ind, ood = synth_files
        assert run("sweep", "--param", "rff-dim", "--values", "0",
                   "--train", ind, "--ind", ind, "--ood", ood,
                   "--method", "corp", "--gamma", 1.0) == 1
        assert capsys.readouterr().out == ""


class TestGateRejectsNonFiniteValues:
    # An infinite gamma used to pass the gate: kgau then wrote a model its
    # loader rejects, corp failed in the eigensolver.
    @pytest.mark.parametrize("method", ["corp", "colp", "kgau"])
    def test_fit_gamma_inf(self, synth_files, tmp_path, capsys, method):
        ind, _ = synth_files
        capsys.readouterr()
        assert run("fit", "--train", ind, "--method", method, "--gamma", "inf",
                   "--out", tmp_path / "m.oodm") == 1
        assert capsys.readouterr().err == (
            "usage error: --gamma must be finite, got inf\n")
        assert not (tmp_path / "m.oodm").exists()

    def test_sweep_gamma_inf(self, synth_files, capsys):
        ind, ood = synth_files
        capsys.readouterr()
        assert run("sweep", "--param", "gamma", "--values", "0.5,inf",
                   "--train", ind, "--ind", ind, "--ood", ood,
                   "--method", "kgau") == 1
        assert capsys.readouterr().out == ""

    def test_bench_gamma_inf(self, synth_files, capsys):
        ind, _ = synth_files
        capsys.readouterr()
        assert run("bench", "--train", ind, "--queries", 4, "--methods", "kgau",
                   "--gamma", "inf", "--warmup", 1, "--reps", 1) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("value", ["inf", "16.7", "nan"])
    def test_sweep_rff_dim_not_an_integer(self, tmp_path, capsys, value):
        # Missing files: the value is rejected before any file is read.
        missing = tmp_path / "none.oodf"
        assert run("sweep", "--param", "rff-dim", "--values", f"16,{value}",
                   "--train", missing, "--ind", missing, "--ood", missing,
                   "--method", "corp", "--gamma", 1.0) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"usage error: --rff-dim must be an integer, got {value}\n")

    def test_sweep_rff_dim_integral_float(self, synth_files, capsys):
        ind, ood = synth_files
        capsys.readouterr()
        argv = ["--train", ind, "--ind", ind, "--ood", ood, "--method", "corp",
                "--gamma", 1.0, "--param", "rff-dim"]
        assert run("sweep", *argv, "--values", "16.0") == 0
        as_float = capsys.readouterr().out.split("\n")[1].split()[:3]
        assert run("sweep", *argv, "--values", "16") == 0
        assert capsys.readouterr().out.split("\n")[1].split()[:3] == as_float


class TestNonFinitePayload:
    @pytest.fixture(params=[np.nan, np.inf])
    def bad_file(self, tmp_path, request):
        # save_features refuses such values, so the file is written by hand.
        x = np.random.default_rng(4).normal(size=(30, 3)).astype("<f4")
        x[29, 1] = request.param
        path = tmp_path / "bad.oodf"
        path.write_bytes(b"OODF\x01" + (30).to_bytes(4, "little")
                         + (3).to_bytes(4, "little") + x.tobytes())
        return path

    def _message(self, path):
        return f"numerical failure: {path}: payload contains NaN or Inf\n"

    def test_fit(self, bad_file, tmp_path, capsys):
        out = tmp_path / "m.oodm"
        assert run("fit", "--train", bad_file, "--method", "pca", "--out", out) == 3
        assert capsys.readouterr().err == self._message(bad_file)
        assert not out.exists()

    def test_score(self, bad_file, tmp_path, capsys):
        model = tmp_path / "m.oodm"
        train = tmp_path / "t.oodf"
        fileio.save_features(train, np.random.default_rng(5).normal(size=(30, 3)))
        assert run("fit", "--train", train, "--method", "cop", "--out", model) == 0
        capsys.readouterr()
        out = tmp_path / "s.csv"
        assert run("score", "--model", model, "--features", bad_file,
                   "--out", out) == 3
        assert capsys.readouterr().err == self._message(bad_file)
        assert not out.exists()

    def test_last_block_only(self, tmp_path, monkeypatch, capsys):
        # 7-row blocks over 30 rows; the NaN and the Inf are both in the
        # last block (rows 28-29), so four clean blocks are read first.
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", 0)
        monkeypatch.setattr(linalg, "_MIN_BLOCK_ROWS", 7)
        x = np.random.default_rng(4).normal(size=(30, 3)).astype("<f4")
        x[28, 0], x[29, 2] = np.nan, np.inf
        bad = tmp_path / "bad.oodf"
        bad.write_bytes(b"OODF\x01" + (30).to_bytes(4, "little")
                        + (3).to_bytes(4, "little") + x.tobytes())
        out = tmp_path / "m.oodm"
        assert run("fit", "--train", bad, "--method", "pca", "--out", out) == 3
        assert capsys.readouterr().err == self._message(bad)
        assert not out.exists()


class TestScoreZeroRows:
    ZERO = 1
    MESSAGE = ("data error: row {} has zero norm "
               "(rerun with --skip-bad-rows to drop such rows)\n")

    def _files(self, tmp_path, method, n_rows=4, zero=ZERO):
        rng = np.random.default_rng(3)
        train = tmp_path / "t.oodf"
        fileio.save_features(train, rng.normal(size=(40, 3)))
        model_path = tmp_path / "m.oodm"
        assert run("fit", "--train", train, "--method", method, "--gamma", 0.5,
                   "--out", model_path) == 0
        x = rng.normal(size=(n_rows, 3))
        x[zero] = 0.0
        feat = tmp_path / "x.oodf"
        fileio.save_features(feat, x)
        return model_path, feat

    def _expected_csv(self, tmp_path, model_path, feat, kind, keep):
        # The rows that are kept, scored by the library directly.
        model = fileio.load_model(model_path)
        x = fileio.load_features(feat)[keep]
        if kind == "reg-error":
            values = reg_pca_error(model, x)
        elif isinstance(model, KernelSpaceModel):
            values = score_kernelspace(model, x)
        else:
            values = score_reconstruction(model, x)
        if kind == "error":
            values = -values
        ref = tmp_path / "ref.csv"
        fileio.save_scores(ref, keep, values)
        return ref.read_bytes()

    CASES = [
        ("cop", "score"), ("corp", "error"), ("kcos", "score"),
        ("kgau", "score"), ("pca", "reg-error"),
    ]

    @pytest.mark.parametrize("method,kind", CASES)
    def test_aborts_without_flag(self, tmp_path, capsys, method, kind):
        model_path, feat = self._files(tmp_path, method)
        capsys.readouterr()
        out = tmp_path / "s.csv"
        assert run("score", "--model", model_path, "--features", feat,
                   "--kind", kind, "--out", out) == 2
        assert capsys.readouterr().err == self.MESSAGE.format(self.ZERO)
        assert not out.exists()

    @pytest.mark.parametrize("method,kind", CASES)
    def test_skipped_with_flag(self, tmp_path, capsys, method, kind):
        model_path, feat = self._files(tmp_path, method)
        capsys.readouterr()
        out = tmp_path / "s.csv"
        assert run("score", "--model", model_path, "--features", feat,
                   "--kind", kind, "--skip-bad-rows", "--out", out) == 0
        assert capsys.readouterr().err == f"skipping zero-norm row {self.ZERO}\n"
        keep = np.array([0, 2, 3])
        assert out.read_bytes() == self._expected_csv(
            tmp_path, model_path, feat, kind, keep)

    def test_pca_scores_a_zero_row(self, tmp_path, capsys):
        model_path, feat = self._files(tmp_path, "pca")
        out = tmp_path / "s.csv"
        assert run("score", "--model", model_path, "--features", feat,
                   "--out", out) == 0
        assert capsys.readouterr().err == ""
        assert out.read_bytes() == self._expected_csv(
            tmp_path, model_path, feat, "score", np.arange(4))

    @pytest.mark.parametrize("method,kind", [("cop", "score"), ("pca", "reg-error")])
    def test_every_row_zero_with_flag(self, tmp_path, capsys, method, kind):
        model_path, feat = self._files(tmp_path, method, n_rows=3, zero=slice(None))
        capsys.readouterr()
        out = tmp_path / "s.csv"
        assert run("score", "--model", model_path, "--features", feat,
                   "--kind", kind, "--skip-bad-rows", "--out", out) == 2
        assert capsys.readouterr().err == (
            f"data error: every row of {feat} has zero norm\n")
        assert not out.exists()

    @pytest.mark.parametrize("method", ["cop", "kgau"])
    def test_zero_row_after_first_block(self, tmp_path, capsys, monkeypatch, method):
        # 64-row blocks: row 150 lies in the third block.
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", 0)
        model_path, feat = self._files(tmp_path, method, n_rows=200, zero=150)
        capsys.readouterr()
        out = tmp_path / "s.csv"
        assert run("score", "--model", model_path, "--features", feat,
                   "--out", out) == 2
        assert capsys.readouterr().err == self.MESSAGE.format(150)
        assert run("score", "--model", model_path, "--features", feat,
                   "--skip-bad-rows", "--out", out) == 0
        assert capsys.readouterr().err == "skipping zero-norm row 150\n"
        keep = np.delete(np.arange(200), 150)
        assert out.read_bytes() == self._expected_csv(
            tmp_path, model_path, feat, "score", keep)


class TestMethodTable:
    # The method byte each tag has always been written with.
    BYTE = {"pca": 0, "cop": 1, "corp": 2, "colp": 3, "kcos": 4, "kgau": 5}

    @pytest.mark.parametrize("method", list(fileio.METHODS))
    def test_fit_save_reload(self, synth_files, tmp_path, method):
        ind, _ = synth_files
        model_path = tmp_path / "m.oodm"
        assert run("fit", "--train", ind, "--method", method, "--seed", 2,
                   "--out", model_path) == 0
        assert fileio.method_for_model(fileio.load_model(model_path)) == method
        assert model_path.read_bytes()[5] == self.BYTE[method]

    def test_cli_choices_are_the_table(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        for command in ("fit", "sweep"):
            action = next(a for a in sub.choices[command]._actions
                          if a.dest == "method")
            assert list(action.choices) == list(fileio.METHODS)
        assert set(self.BYTE) == set(fileio.METHODS)


def test_python_dash_m_runs_the_cli():
    src = str(Path(kpca_ood.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # The package does not import its cli module, so runpy has nothing to
    # warn about when it runs kpca_ood.cli as __main__.
    for module in ("kpca_ood", "kpca_ood.cli"):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", module, "--help"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, (module, proc.stderr)
        assert proc.stdout.startswith("usage: kpca-ood")


def test_package_loads_cli_on_first_use():
    src = str(Path(kpca_ood.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, kpca_ood; print('kpca_ood.cli' in sys.modules); "
            "print(kpca_ood.cli.main.__module__); kpca_ood.no_such_name")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.stdout.split() == ["False", "kpca_ood.cli"]
    assert proc.stderr.rstrip().endswith(
        "AttributeError: module 'kpca_ood' has no attribute 'no_such_name'")


class TestArgumentGate:
    # One out-of-range value per numeric flag of each command. The input
    # files do not exist, so only the gate can answer: exit 1 with the
    # flag's usage error, before anything is read or written.
    BASE = {
        "synth": ["--kind", "norm-shift", "--n", "50", "--dim", "4", "--out", "{tmp}/d"],
        "fit": ["--train", "{missing}", "--method", "corp", "--out", "{tmp}/m.oodm"],
        "eval": ["--ind", "{missing}", "--ood", "{missing}"],
        "sweep": ["--train", "{missing}", "--ind", "{missing}", "--ood", "{missing}",
                  "--method", "corp"],
        "bench": ["--train", "{missing}", "--methods", "corp,knn"],
    }
    SEED = [("--seed", "-1"), ("--seed", str(2**64))]
    FIT = [("--evr", "1.5"), ("--gamma", "-1"), ("--rff-dim", "0")] + SEED
    BAD = {
        "synth": [("--n", "1"), ("--dim", "1")] + SEED,
        "fit": FIT,
        "eval": [("--tpr", "1.5")],
        "sweep": FIT + [("--tpr", "1.5")],
        "bench": FIT + [("--queries", "-1"), ("--knn-k", "0"), ("--reps", "0")],
    }
    NO_RULE = {("bench", "--warmup")}  # a negative count runs no warmup pass
    CASES = [(c, f, v) for c, rows in BAD.items() for f, v in rows]

    def _argv(self, tmp_path, command, flag, value):
        argv = [a.format(tmp=tmp_path, missing=tmp_path / "none.oodf")
                for a in self.BASE[command]]
        if command == "sweep":
            # The swept flag's own value is replaced by the grid's.
            argv += ["--param", "gamma", "--values", "1.0"] if flag == "--evr" else [
                "--param", "evr", "--values", "0.5"]
        return [command, *argv, flag, value]

    @pytest.mark.parametrize("command,flag,value", CASES,
                             ids=[f"{c}{f}={v}" for c, f, v in CASES])
    def test_rejected_before_any_file(self, tmp_path, capsys, command, flag, value):
        assert run(*self._argv(tmp_path, command, flag, value)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage error: {flag} ")
        assert list(tmp_path.iterdir()) == []

    def test_table_covers_every_numeric_flag(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        declared = {
            (command, action.option_strings[0])
            for command, parser in sub.choices.items()
            for action in parser._actions if action.type in (int, float)
        }
        assert {(c, f) for c, f, _ in self.CASES} | self.NO_RULE == declared

    @pytest.mark.parametrize("n_extra", [0, 1])
    def test_fuse_errors_extra_needs_normalize(self, tmp_path, capsys, n_extra):
        missing = tmp_path / "none.csv"
        assert run("fuse", "--errors", missing, "--base", missing,
                   "--out", tmp_path / "f.csv",
                   "--errors-extra", *[missing] * n_extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "usage error: --errors-extra needs --normalize-errors\n")
        assert list(tmp_path.iterdir()) == []

    def test_largest_seed_accepted(self, tmp_path):
        assert run("synth", "--kind", "norm-shift", "--n", 20, "--dim", 3,
                   "--seed", 2**64 - 1, "--out", tmp_path / "d") == 0

    def test_seed_checked_for_a_method_that_draws_nothing(self, synth_files, tmp_path):
        ind, _ = synth_files
        assert run("fit", "--train", ind, "--method", "pca", "--seed", -1,
                   "--out", tmp_path / "m.oodm") == 1
        assert not (tmp_path / "m.oodm").exists()


class TestBlasThreadCounts:
    """The determinism contract of the README, one fresh process per run.

    At a fixed OPENBLAS_NUM_THREADS a fit and a score give the same bytes
    every time. At another count a fit may differ in the last bits of its
    eigenvectors and Gram matrix, and scores of one saved model agree
    within 1e-12 relative. On 64-dim rows both the corp scatter (256 x 256)
    and the kgau Gram path are large enough for OpenBLAS to use 2 threads.
    """

    # argv: data prefix, output directory, directory of the model to score.
    SCRIPT = """
import sys
from kpca_ood.cli import main
data, out, ref = sys.argv[1:]
for m in ("corp", "kgau"):
    for argv in (
        ["fit", "--train", data + ".ind.oodf", "--method", m, "--gamma", "2",
         "--seed", "5", "--out", f"{out}/{m}.oodm"],
        ["score", "--model", f"{ref}/{m}.oodm", "--features", data + ".ood.oodf",
         "--out", f"{out}/{m}.csv"],
    ):
        if main(argv) != 0:
            sys.exit(f"{argv[0]} {m} failed")
"""

    def test_fixed_bytes_per_count_close_scores_across(self, tmp_path):
        data = tmp_path / "d"
        assert run("synth", "--kind", "sphere-cluster", "--n", 400, "--dim", 64,
                   "--seed", 3, "--out", data) == 0
        src = str(Path(kpca_ood.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        one, two, again = (tmp_path / n for n in ("t1", "t2", "t2b"))
        # The one-thread run scores its own model; the two-thread runs
        # score that same model.
        for out, threads in ((one, 1), (two, 2), (again, 2)):
            out.mkdir()
            proc = subprocess.run(
                [sys.executable, "-c", self.SCRIPT, str(data), str(out), str(one)],
                capture_output=True, text=True, timeout=300,
                env=dict(os.environ, PYTHONPATH=path,
                         OPENBLAS_NUM_THREADS=str(threads)),
            )
            assert proc.returncode == 0, proc.stderr
        for name in ("corp.oodm", "corp.csv", "kgau.oodm", "kgau.csv"):
            assert (two / name).read_bytes() == (again / name).read_bytes(), name
        for m in ("corp", "kgau"):
            idx1, s1 = fileio.load_scores(one / f"{m}.csv")
            idx2, s2 = fileio.load_scores(two / f"{m}.csv")
            assert np.array_equal(idx1, idx2)
            assert np.max(np.abs(s1 - s2) / np.abs(s1)) <= 1e-12, m


class TestCommandOutput:
    def test_bench_prints_train_size_and_rff_dim(self, synth_files, capsys):
        ind, _ = synth_files
        capsys.readouterr()
        assert run("bench", "--train", ind, "--queries", 4, "--methods", "corp",
                   "--warmup", 0, "--reps", 1) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "train_size=200  rff_dim=32"

    def test_bench_prints_p50_beside_mean_and_p99(self, synth_files, capsys):
        ind, _ = synth_files
        capsys.readouterr()
        assert run("bench", "--train", ind, "--queries", 4, "--methods", "cop,knn",
                   "--warmup", 0, "--reps", 1) == 0
        header, *rows = capsys.readouterr().out.splitlines()[:3]
        assert header.split() == ["scorer", "mean_us", "p50_us", "p99_us", "store_bytes"]
        for row, name in zip(rows, ["cop", "knn"]):
            fields = row.split()
            assert fields[0] == name and len(fields) == 5
            assert 0.0 < float(fields[2]) <= float(fields[3])

    def test_bench_without_queries_prints_no_context(self, synth_files, capsys):
        ind, _ = synth_files
        capsys.readouterr()
        assert run("bench", "--train", ind, "--queries", 0, "--methods", "cop") == 0
        assert capsys.readouterr().out == "(no queries benchmarked)\n"

    def test_eval_average_in_both_formats(self, tmp_path, capsys):
        ind, o1, o2 = (tmp_path / f"{n}.csv" for n in ("i", "o1", "o2"))
        fileio.save_scores(ind, np.arange(4), np.array([4.0, 5.0, 6.0, 7.0]))
        fileio.save_scores(o1, np.arange(2), np.array([0.0, 6.5]))
        fileio.save_scores(o2, np.arange(2), np.array([1.0, 2.0]))
        assert run("eval", "--ind", ind, "--ood", o1, o2) == 0
        text = capsys.readouterr().out.splitlines()
        assert text[-3:] == ["--- AVERAGE (equal weight per dataset)",
                             "fpr95  0.250000", "auroc  0.812500"]
        assert run("eval", "--ind", ind, "--ood", o1, o2, "--json-lines") == 0
        records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert records[-2:] == [
            {"dataset": "AVERAGE", "metric": "fpr95", "value": 0.25},
            {"dataset": "AVERAGE", "metric": "auroc", "value": 0.8125},
        ]


class TestUnreachedCliPaths:
    @pytest.mark.parametrize("param,message", [
        ("clusters", "--param expects key=value"),
        ("clusters=abc", "is not a number"),
    ])
    def test_synth_param_usage_errors(self, tmp_path, capsys, param, message):
        assert run("synth", "--kind", "sphere-cluster", "--n", 50, "--dim", 4,
                   "--out", tmp_path / "d", "--param", param) == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_values_must_be_numeric(self, tmp_path, capsys):
        missing = tmp_path / "none.oodf"
        assert run("sweep", "--train", missing, "--ind", missing, "--ood", missing,
                   "--method", "corp", "--param", "evr", "--values", "0.5,x") == 1
        assert "--values must be numeric" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,param,message", [
        ("sphere-cluster", "clusters=-3", "clusters must be >= 1, got -3"),
        ("low-rank-gauss", "noise=-1", "noise must be >= 0, got -1.0"),
    ])
    def test_synth_param_out_of_range(self, tmp_path, capsys, kind, param, message):
        assert run("synth", "--kind", kind, "--n", 50, "--dim", 4,
                   "--out", tmp_path / "d", "--param", param) == 2
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_fit_store_residual(self, synth_files, tmp_path):
        ind, ood = synth_files
        model_path = tmp_path / "m.oodm"
        assert run("fit", "--train", ind, "--method", "corp", "--seed", 3,
                   "--store-residual", "--out", model_path) == 0
        model = fileio.load_model(model_path)
        assert model.residual_basis is not None
        x = fileio.load_features(ood)
        residual, reconstruction = score_residual(model, x), score_reconstruction(model, x)
        np.testing.assert_allclose(residual, reconstruction, rtol=1e-12, atol=0.0)


def _error_classes():
    """Every exception class kpca_ood.errors defines."""
    return [
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, Exception)
        and obj.__module__ == errors.__name__
    ]


# The exit code the cli module docstring documents for each class: 1 usage,
# 2 data/format, 3 numerical. Errors of the package outside both families,
# ValueError and OSError count as data errors.
_EXIT_CODES = {
    cli.UsageError: 1,
    ValueError: 2,
    OSError: 2,
    errors.KpcaOodError: 2,
    errors.DataError: 2,
    errors.ZeroVectorError: 2,
    errors.DimMismatchError: 2,
    errors.MissingResidualBasisError: 2,
    errors.KTooLargeError: 2,
    errors.LengthMismatchError: 2,
    errors.IndexMismatchError: 2,
    errors.EmptyScoresError: 2,
    errors.InvalidSpecError: 2,
    errors.FormatError: 2,
    errors.NumericalError: 3,
    errors.NonSymmetricError: 3,
    errors.NonFiniteError: 3,
    errors.InvalidBandwidthError: 3,
    errors.DegenerateSpectrumError: 3,
    errors.AllZeroSpectrumError: 3,
}


def _instance(cls):
    if cls is errors.ZeroVectorError:
        return cls("features", 4)
    return cls("boom")


class TestExitCodes:
    def test_table_covers_every_error_class(self):
        assert set(_error_classes()) < set(_EXIT_CODES)

    @pytest.mark.parametrize("cls", list(_EXIT_CODES), ids=lambda c: c.__name__)
    def test_raised_from_a_command(self, monkeypatch, capsys, tmp_path, cls):
        exc = _instance(cls)

        def raising(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_eval", raising)
        assert run("eval", "--ind", tmp_path / "a.csv", "--ood", tmp_path / "b.csv") == (
            _EXIT_CODES[cls]
        )
        assert capsys.readouterr().err.endswith(f"{exc}\n")

    @pytest.mark.parametrize(
        "cls", [c for c in _error_classes() if issubclass(c, errors.KpcaOodError)],
        ids=lambda c: c.__name__,
    )
    def test_code_follows_the_error_family(self, monkeypatch, capsys, tmp_path, cls):
        # The expected code comes from the class tree, not from _EXIT_CODES:
        # a class added to errors.py is checked without a new table row.
        if issubclass(cls, errors.NumericalError):
            expected = 3
        else:
            assert issubclass(cls, errors.DataError) or cls in (
                errors.KpcaOodError, errors.MissingResidualBasisError)
            expected = 2
        exc = _instance(cls)

        def raising(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_score", raising)
        assert run("score", "--model", tmp_path / "m.oodm", "--features",
                   tmp_path / "x.oodf", "--out", tmp_path / "s.csv") == expected
        assert capsys.readouterr().err.endswith(f"{exc}\n")
