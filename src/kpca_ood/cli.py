"""Command-line entry point: fit, score, evaluate, fuse, sweep, bench, synth.

Every experiment is one reproducible command line: there is no config
file, and all randomness is controlled by explicit --seed flags. Exit
codes: 0 success, 1 usage error, 2 data/format error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import fileio
from .baselines import build_knn, fuse, knn_score, reg_pca_error
from .detector import DetectorModel, fit as fit_detector, score_reconstruction
from .errors import (
    DataError,
    IndexMismatchError,
    KpcaOodError,
    NumericalError,
)
from .featmap import (
    IDENTITY_STAGE,
    ZERO_NORM_FLOOR,
    cosine_rff_spec,
    cosine_spec,
    identity_spec,
    median_heuristic_gamma,
    normalize_rows,
    rff_build,
)
from .fileio import ALL_METHODS, KERNEL_METHODS
from .kernelspace import (
    GAUSSIAN_KERNEL,
    COSINE_KERNEL,
    KernelSpaceModel,
    fit_kernelspace,
    score_kernelspace,
)
from .metrics import bench_scorers, evaluate
from .synth import KINDS, SynthSpec, generate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

BENCH_METHODS = ALL_METHODS + ("knn",)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of SystemExit(2)
        raise UsageError(message)


# ----------------------------------------------------------------- helpers


def _parse_params(pairs) -> dict:
    params = {}
    for item in pairs or []:
        if "=" not in item:
            raise UsageError(f"--param expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        try:
            params[key.strip()] = float(value)
        except ValueError:
            raise UsageError(f"--param {key}: {value!r} is not a number") from None
    return params


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


def _resolve_gamma(args_gamma, train, method: str) -> float:
    """Explicit --gamma wins; otherwise the median heuristic on the
    cosine-normalized training rows (the input the kernel actually sees)."""
    if args_gamma is not None:
        _require(args_gamma > 0, f"--gamma must be > 0, got {args_gamma}")
        return float(args_gamma)
    gamma = median_heuristic_gamma(normalize_rows(train))
    print(f"gamma defaulted by median heuristic: {gamma:.6g}")
    return gamma


def _fit_model(method, train, evr, gamma, rff_dim, seed, store_residual=False):
    dim = train.shape[1]
    if method == "pca":
        return fit_detector(train, identity_spec(dim), evr, store_residual)
    if method == "cop":
        return fit_detector(train, cosine_spec(dim), evr, store_residual)
    if method in ("corp", "colp"):
        m = int(rff_dim) if rff_dim else 4 * dim
        _require(m >= 1, f"--rff-dim must be >= 1, got {m}")
        g = _resolve_gamma(gamma, train, method)
        kind = "gaussian" if method == "corp" else "laplacian"
        rff = rff_build(kind, g, m, dim, seed)
        return fit_detector(train, cosine_rff_spec(rff), evr, store_residual)
    if method == "kcos":
        return fit_kernelspace(train, COSINE_KERNEL, evr_target=evr)
    if method == "kgau":
        g = _resolve_gamma(gamma, train, method)
        return fit_kernelspace(train, GAUSSIAN_KERNEL, gamma=g, evr_target=evr)
    raise UsageError(f"unknown method {method!r}")


def _model_scores(model, x) -> np.ndarray:
    if isinstance(model, KernelSpaceModel):
        return score_kernelspace(model, x)
    return score_reconstruction(model, x)


def _rows_needing_direction(model, kind: str) -> bool:
    if kind == "reg-error":
        return True
    if isinstance(model, KernelSpaceModel):
        return True
    return IDENTITY_STAGE not in tuple(model.map_spec.stages)


# ---------------------------------------------------------------- commands


def cmd_synth(args) -> int:
    _require(args.n >= 2, f"--n must be >= 2, got {args.n}")
    _require(args.dim >= 2, f"--dim must be >= 2, got {args.dim}")
    spec = SynthSpec(
        kind=args.kind,
        n=args.n,
        dim=args.dim,
        seed=args.seed,
        params=_parse_params(args.param),
    )
    ind, ood = generate(spec)
    ind_path = f"{args.out}.ind.oodf"
    ood_path = f"{args.out}.ood.oodf"
    fileio.save_features(ind_path, ind)
    fileio.save_features(ood_path, ood)
    print(f"wrote {ind_path} ({ind.shape[0]}x{ind.shape[1]})")
    print(f"wrote {ood_path} ({ood.shape[0]}x{ood.shape[1]})")
    return EXIT_OK


def cmd_fit(args) -> int:
    _require(0.0 < args.evr <= 1.0, f"--evr must be in (0, 1], got {args.evr}")
    if args.method in KERNEL_METHODS:
        _require(args.evr < 1.0, "--evr must be < 1 for kernel-matrix methods")
    train = fileio.load_features(args.train)
    t0 = time.perf_counter()
    model = _fit_model(
        args.method, train, args.evr, args.gamma, args.rff_dim, args.seed,
        store_residual=args.store_residual,
    )
    elapsed = time.perf_counter() - t0
    fileio.save_model(args.out, model)
    if isinstance(model, KernelSpaceModel):
        print(f"method {args.method}: n_train={model.n_train} l={model.l}")
    else:
        head = ", ".join(f"{v:.6g}" for v in model.eigenvalues[:5])
        print(
            f"method {args.method}: D={model.feature_dim} q={model.q} "
            f"spectrum head [{head}]"
        )
    print(f"fitted in {elapsed:.3f}s on {train.shape[0]}x{train.shape[1]} rows")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_score(args) -> int:
    model = fileio.load_model(args.model)
    x = fileio.load_features(args.features)
    if args.kind == "reg-error":
        _require(
            isinstance(model, DetectorModel)
            and tuple(model.map_spec.stages) == (IDENTITY_STAGE,),
            "--kind reg-error needs a plain pca model",
        )

    keep = np.arange(x.shape[0])
    if _rows_needing_direction(model, args.kind):
        norms = np.linalg.norm(x, axis=1)
        bad = np.flatnonzero(norms < ZERO_NORM_FLOOR)
        if bad.size and not args.skip_bad_rows:
            raise DataError(
                f"row {int(bad[0])} has zero norm "
                "(rerun with --skip-bad-rows to drop such rows)"
            )
        for i in bad:
            print(f"skipping zero-norm row {int(i)}", file=sys.stderr)
        if bad.size:
            keep = np.setdiff1d(keep, bad)
            x = x[keep]

    if args.kind == "score":
        values = _model_scores(model, x)
    elif args.kind == "error":
        values = -_model_scores(model, x)
    else:
        values = reg_pca_error(model, x)
    fileio.save_scores(args.out, keep, values)
    print(f"wrote {args.out} ({values.size} rows)")
    return EXIT_OK


def cmd_eval(args) -> int:
    _require(0.0 < args.tpr <= 1.0, f"--tpr must be in (0, 1], got {args.tpr}")
    _, ind = fileio.load_scores(args.ind)
    reports = []
    for path in args.ood:
        _, ood = fileio.load_scores(path)
        reports.append((path, evaluate(ind, ood, args.tpr)))

    if args.json_lines:
        for path, rep in reports:
            for record in rep.to_records():
                record["dataset"] = path
                print(json.dumps(record))
        if len(reports) > 1:
            print(json.dumps({
                "dataset": "AVERAGE",
                "metric": "fpr95",
                "value": float(np.mean([r.fpr95 for _, r in reports])),
            }))
            print(json.dumps({
                "dataset": "AVERAGE",
                "metric": "auroc",
                "value": float(np.mean([r.auroc for _, r in reports])),
            }))
    else:
        for path, rep in reports:
            if len(reports) > 1:
                print(f"--- {path}")
            print(rep.to_text())
        if len(reports) > 1:
            print("--- AVERAGE (equal weight per dataset)")
            print(f"fpr95  {np.mean([r.fpr95 for _, r in reports]):.6f}")
            print(f"auroc  {np.mean([r.auroc for _, r in reports]):.6f}")
    return EXIT_OK


def cmd_fuse(args) -> int:
    idx_e, errors = fileio.load_scores(args.errors)
    idx_b, base = fileio.load_scores(args.base)
    if idx_e.shape != idx_b.shape or not np.array_equal(idx_e, idx_b):
        raise IndexMismatchError(
            "error and base score files disagree on row indices"
        )
    if args.normalize_errors:
        pool = [errors]
        for path in args.errors_extra or []:
            pool.append(fileio.load_scores(path)[1])
        allv = np.concatenate(pool)
        lo, hi = float(allv.min()), float(allv.max())
        if hi <= lo:
            raise NumericalError("cannot min-max normalize a constant error set")
        errors = (errors - lo) / (hi - lo)
    fused = fuse(errors, base)
    fileio.save_scores(args.out, idx_e, fused)
    print(f"wrote {args.out} ({fused.size} rows)")
    return EXIT_OK


def cmd_sweep(args) -> int:
    _require(args.param in ("evr", "gamma", "rff-dim"), "unknown --param")
    if args.param == "evr":
        pass
    elif args.method not in ("corp", "colp", "kgau"):
        raise UsageError(f"--param {args.param} needs an rff/kernel-width method")
    if args.param == "rff-dim":
        _require(args.method in ("corp", "colp"), "--param rff-dim needs corp/colp")
    try:
        values = [float(v) for v in args.values.split(",") if v]
    except ValueError:
        raise UsageError(f"--values must be numeric, got {args.values!r}") from None
    _require(bool(values), "--values is empty")

    train = fileio.load_features(args.train)
    ind = fileio.load_features(args.ind)
    ood = fileio.load_features(args.ood)

    rows, failed = [], 0
    for value in values:
        evr, gamma, rff_dim = args.evr, args.gamma, args.rff_dim
        if args.param == "evr":
            evr = value
        elif args.param == "gamma":
            gamma = value
        else:
            rff_dim = int(value)
        try:
            t0 = time.perf_counter()
            model = _fit_model(args.method, train, evr, gamma, rff_dim, args.seed)
            rep = evaluate(
                _model_scores(model, ind), _model_scores(model, ood), args.tpr
            )
            rows.append(
                (value, rep.fpr95, rep.auroc, time.perf_counter() - t0)
            )
        except (KpcaOodError, ValueError) as exc:
            failed += 1
            print(f"value {value:g} failed: {exc}", file=sys.stderr)
    print(f"{'value':>12} {'fpr95':>10} {'auroc':>10} {'seconds':>9}")
    for value, fpr, auc, secs in rows:
        print(f"{value:>12g} {fpr:>10.6f} {auc:>10.6f} {secs:>9.3f}")
    return EXIT_OK if failed == 0 else EXIT_NUMERIC


def cmd_bench(args) -> int:
    methods = [m for m in args.methods.split(",") if m]
    for m in methods:
        _require(m in BENCH_METHODS, f"unknown bench method {m!r}")
    _require(args.queries >= 0, "--queries must be >= 0")
    train = fileio.load_features(args.train)

    prng_rows = np.random.Generator(np.random.Philox(key=np.uint64(args.seed)))
    pick = prng_rows.integers(0, train.shape[0], size=args.queries)
    queries = train[pick]

    scorers, store_bytes = {}, {}
    rff_dim = int(args.rff_dim) if args.rff_dim else 4 * train.shape[1]
    with tempfile.TemporaryDirectory() as tmp:
        for m in methods:
            if m == "knn":
                scorer = build_knn(train, k=args.knn_k)
                store = os.path.join(tmp, "knn.oodf")
                fileio.save_features(store, scorer.train_normalized)
                store_bytes[m] = os.path.getsize(store)
                scorers[m] = (
                    lambda row, s=scorer: float(knn_score(s, row[None, :])[0])
                )
            else:
                model = _fit_model(
                    m, train, args.evr, args.gamma, rff_dim, args.seed
                )
                store = os.path.join(tmp, f"{m}.oodm")
                fileio.save_model(store, model)
                store_bytes[m] = os.path.getsize(store)
                scorers[m] = (
                    lambda row, mm=model: float(_model_scores(mm, row[None, :])[0])
                )
        report = bench_scorers(
            scorers,
            queries,
            warmup=args.warmup,
            reps=args.reps,
            train_size=train.shape[0],
            rff_dim=rff_dim,
        )
    report.store_bytes = store_bytes
    print(report.to_text())
    return EXIT_OK


# ----------------------------------------------------------------- parser


def build_parser() -> _Parser:
    parser = _Parser(prog="kpca-ood", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic InD/OoD feature files")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="prefix for .ind.oodf/.ood.oodf")
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="fit a detector on a training feature file")
    p.add_argument("--train", required=True)
    p.add_argument("--method", required=True, choices=ALL_METHODS)
    p.add_argument("--evr", type=float, default=0.90)
    p.add_argument("--gamma", type=float)
    p.add_argument("--rff-dim", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--store-residual", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("score", help="score a feature file with a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", choices=("score", "error", "reg-error"),
                   default="score")
    p.add_argument("--skip-bad-rows", action="store_true")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="detection metrics from score CSVs")
    p.add_argument("--ind", required=True)
    p.add_argument("--ood", required=True, nargs="+")
    p.add_argument("--tpr", type=float, default=0.95)
    p.add_argument("--json-lines", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fuse", help="combine an error CSV with base scores")
    p.add_argument("--errors", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--normalize-errors", action="store_true")
    p.add_argument("--errors-extra", nargs="*",
                   help="extra error CSVs included in the min-max range")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("sweep", help="fit/score/eval over a parameter grid")
    p.add_argument("--param", required=True, choices=("evr", "gamma", "rff-dim"))
    p.add_argument("--values", required=True, help="comma-separated list")
    p.add_argument("--train", required=True)
    p.add_argument("--ind", required=True)
    p.add_argument("--ood", required=True)
    p.add_argument("--method", required=True, choices=ALL_METHODS)
    p.add_argument("--evr", type=float, default=0.90)
    p.add_argument("--gamma", type=float)
    p.add_argument("--rff-dim", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tpr", type=float, default=0.95)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="per-query latency and store sizes")
    p.add_argument("--train", required=True)
    p.add_argument("--queries", type=int, default=200)
    p.add_argument("--methods", required=True, help="comma list, e.g. corp,knn")
    p.add_argument("--evr", type=float, default=0.90)
    p.add_argument("--gamma", type=float)
    p.add_argument("--rff-dim", type=int)
    p.add_argument("--knn-k", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--reps", type=int, default=3)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except KpcaOodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"invalid value: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
