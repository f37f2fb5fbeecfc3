"""Command-line entry point: fit, score, evaluate, fuse, sweep, bench, synth.

Every experiment is one reproducible command line: there is no config
file, and all randomness is controlled by explicit --seed flags. Exit
codes: 0 success, 1 usage error, 2 data/format error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
import warnings

import numpy as np

from . import fileio
from .baselines import build_knn, fuse, knn_score, reg_pca_error
from .detector import DEFAULT_EVR, fit as fit_detector, score_reconstruction
from .errors import (
    DataError,
    IndexMismatchError,
    KpcaOodError,
    NumericalError,
    ZeroVectorError,
)
from .featmap import (
    IDENTITY_STAGE,
    FeatureMapSpec,
    _heuristic_rows,
    median_heuristic_gamma,
    normalize_rows,
    rff_build,
    row_norms,
)
from .fileio import GRAM, METHODS
from .kernelspace import (
    COSINE_KERNEL,
    KernelSpaceModel,
    fit_kernelspace,
    score_kernelspace,
)
from .metrics import DEFAULT_TPR, bench_scorers, evaluate
from .rng import SEED_LIMIT, make_prng
from .synth import KINDS, SynthSpec, generate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


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


def _bench_methods(args) -> list[str]:
    return [m for m in args.methods.split(",") if m]


def _grid(args) -> list:
    """A sweep's (value, flags) pairs: a fit with the swept flag set to value."""
    stage, kernel = METHODS[args.method]
    applies = {
        "evr": True,
        "gamma": kernel not in (None, COSINE_KERNEL),
        "rff-dim": stage != GRAM and kernel is not None,
    }
    _require(applies[args.param], f"--param {args.param} is not a {args.method} input")
    try:
        values = [float(v) for v in args.values.split(",") if v]
    except ValueError:
        raise UsageError(f"--values must be numeric, got {args.values!r}") from None
    _require(bool(values), "--values is empty")
    flag = args.param.replace("-", "_")
    return [(v, argparse.Namespace(**{**vars(args), "command": "fit", flag: v}))
            for v in values]


def _check_args(args) -> None:
    """The argument gate: every flag rule, checked before any file is read.

    ``main`` runs it before dispatching; a sweep runs it again on each grid
    point, a fit with the swept value in place of its flag.
    """
    command = args.command
    if command == "synth":
        _require(args.n >= 2, f"--n must be >= 2, got {args.n}")
        _require(args.dim >= 2, f"--dim must be >= 2, got {args.dim}")
        _parse_params(args.param)
    elif command == "sweep":
        for _, point in _grid(args):
            _check_args(point)
    elif command == "bench":
        _require(bool(_bench_methods(args)), "--methods is empty")
        for m in _bench_methods(args):
            _require(m in METHODS or m == "knn", f"unknown bench method {m!r}")
        _require(args.queries >= 0, "--queries must be >= 0")
        _require(args.reps >= 1, f"--reps must be >= 1, got {args.reps}")
        _require(args.knn_k >= 1, f"--knn-k must be >= 1, got {args.knn_k}")
    elif command == "fuse":
        _require(args.normalize_errors or args.errors_extra is None,
                 "--errors-extra needs --normalize-errors")
    if command in ("fit", "bench"):
        evr, gamma, rff_dim = args.evr, args.gamma, args.rff_dim
        methods = [args.method] if command == "fit" else _bench_methods(args)
        _require(0.0 < evr <= 1.0, f"--evr must be in (0, 1], got {evr}")
        if any(m != "knn" and METHODS[m][0] == GRAM for m in methods):
            _require(evr < 1.0, "--evr must be < 1 for kernel-matrix methods")
        if rff_dim is not None:
            # A sweep value arrives as a float; :g prints an integral one as before.
            _require(float(rff_dim).is_integer(),
                     f"--rff-dim must be an integer, got {rff_dim:g}")
            _require(rff_dim >= 1, f"--rff-dim must be >= 1, got {rff_dim:g}")
        _require(gamma is None or gamma > 0, f"--gamma must be > 0, got {gamma}")
        _require(gamma is None or gamma < math.inf, f"--gamma must be finite, got {gamma}")
    if command in ("eval", "sweep"):
        _require(0.0 < args.tpr <= 1.0, f"--tpr must be in (0, 1], got {args.tpr}")
    if "seed" in args:
        _require(0 <= args.seed < SEED_LIMIT, f"--seed must be in [0, 2**64), got {args.seed}")


def _rff_dim(rff_dim, dim: int) -> int:
    """--rff-dim, or four times the input dimension when the flag is absent."""
    return 4 * dim if rff_dim is None else int(rff_dim)


def _default_gamma(flags, methods, train):
    """``flags`` with an absent --gamma filled in, when one of ``methods``
    has a Gaussian or Laplacian kernel; otherwise ``flags`` itself.

    The default is the median heuristic on the cosine-normalized training
    rows (the input the kernel actually sees). A command computes it at
    most once and passes it into every fit. Every row's norm is checked,
    so a zero row fails as ``normalize_rows(train)`` would, but only the
    rows the heuristic samples are normalized. A row's unit vector does
    not depend on the other rows, so gamma has the bits of
    ``median_heuristic_gamma(normalize_rows(train))``, while the step
    holds N-vectors and the subsample, never an N x d copy.
    """
    if flags.gamma is not None or all(
        m == "knn" or METHODS[m][1] in (None, COSINE_KERNEL) for m in methods
    ):
        return flags
    zero = row_norms(train)[1]
    if zero.size:
        raise ZeroVectorError("features", int(zero[0]))
    gamma = median_heuristic_gamma(
        normalize_rows(train[_heuristic_rows(train.shape[0])])
    )
    print(f"gamma defaulted by median heuristic: {gamma:.6g}")
    return argparse.Namespace(**{**vars(flags), "gamma": gamma})


def _fit_model(method, train, flags, store_residual=False):
    """Fit ``method`` as its METHODS row says, with the gated --evr, --gamma,
    --rff-dim and --seed of ``flags``; rff_dim may be None, and gamma is
    None only for a method without a bandwidth (see ``_default_gamma``).
    """
    stage, kernel = METHODS[method]
    gamma = flags.gamma
    if stage == GRAM:
        # A degenerate fit warns; show it as one stderr line with its numbers.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            model = fit_kernelspace(train, kernel, gamma=gamma, evr_target=flags.evr)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        return model
    dim = train.shape[1]
    rff = None
    if kernel is not None:
        rff = rff_build(kernel, gamma, _rff_dim(flags.rff_dim, dim), dim, flags.seed)
    return fit_detector(train, FeatureMapSpec(stage, dim, rff), flags.evr, store_residual)


def _model_scores(model, x) -> np.ndarray:
    if isinstance(model, KernelSpaceModel):
        return score_kernelspace(model, x)
    return score_reconstruction(model, x)


# ---------------------------------------------------------------- commands


def cmd_synth(args) -> int:
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
    train = fileio.load_features(args.train)
    t0 = time.perf_counter()
    args = _default_gamma(args, [args.method], train)
    model = _fit_model(args.method, train, args, args.store_residual)
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
            METHODS[fileio.method_for_model(model)][0] == IDENTITY_STAGE,
            "--kind reg-error needs a plain pca model",
        )

    def score(rows):
        if args.kind == "reg-error":
            return reg_pca_error(model, rows)
        values = _model_scores(model, rows)
        return -values if args.kind == "error" else values

    keep = np.arange(x.shape[0])
    try:
        values = score(x)
    except ZeroVectorError as exc:
        if not args.skip_bad_rows:
            raise DataError(
                f"row {exc.row_index} has zero norm "
                "(rerun with --skip-bad-rows to drop such rows)"
            ) from None
        zero = row_norms(x)[1]
        if zero.size == x.shape[0]:
            raise DataError(f"every row of {args.features} has zero norm")
        for i in zero:
            print(f"skipping zero-norm row {int(i)}", file=sys.stderr)
        keep = np.delete(keep, zero)
        values = score(x[keep])
    fileio.save_scores(args.out, keep, values)
    print(f"wrote {args.out} ({values.size} rows)")
    return EXIT_OK


def cmd_eval(args) -> int:
    _, ind = fileio.load_scores(args.ind)
    reports = [(path, evaluate(ind, fileio.load_scores(path)[1], args.tpr))
               for path in args.ood]
    average = {name: float(np.mean([getattr(r, name) for _, r in reports]))
               for name in ("fpr95", "auroc")}
    many = len(reports) > 1
    for path, rep in reports:
        if args.json_lines:
            for record in rep.to_records():
                print(json.dumps({**record, "dataset": path}))
        else:
            print(f"--- {path}\n{rep.to_text()}" if many else rep.to_text())
    if many and args.json_lines:
        for name, value in average.items():
            print(json.dumps({"dataset": "AVERAGE", "metric": name, "value": value}))
    elif many:
        print("--- AVERAGE (equal weight per dataset)")
        for name, value in average.items():
            print(f"{name}  {value:.6f}")
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
    train = fileio.load_features(args.train)
    ind = fileio.load_features(args.ind)
    ood = fileio.load_features(args.ood)

    if args.param != "gamma":
        args = _default_gamma(args, [args.method], train)
    rows, failed = [], 0
    for value, point in _grid(args):
        try:
            t0 = time.perf_counter()
            model = _fit_model(args.method, train, point)
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
    train = fileio.load_features(args.train)
    queries = train[make_prng(args.seed).integers(0, train.shape[0], size=args.queries)]

    methods = _bench_methods(args)
    args = _default_gamma(args, methods, train)
    scorers, store_bytes = {}, {}
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
                model = _fit_model(m, train, args)
                store = os.path.join(tmp, f"{m}.oodm")
                fileio.save_model(store, model)
                store_bytes[m] = os.path.getsize(store)
                scorers[m] = (
                    lambda row, mm=model: float(_model_scores(mm, row[None, :])[0])
                )
        report = bench_scorers(scorers, queries, warmup=args.warmup, reps=args.reps)
    report.store_bytes = store_bytes
    print(report.to_text())
    if report.per_query_micros:
        rff_dim = _rff_dim(args.rff_dim, train.shape[1])
        print(f"train_size={train.shape[0]}  rff_dim={rff_dim}")
    return EXIT_OK


# ----------------------------------------------------------------- parser


def build_parser() -> _Parser:
    parser = _Parser(prog="kpca-ood", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags shared by several commands, declared once.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    fitting = argparse.ArgumentParser(add_help=False)
    fitting.add_argument("--train", required=True)
    fitting.add_argument("--evr", type=float, default=DEFAULT_EVR)
    fitting.add_argument("--gamma", type=float)
    fitting.add_argument("--rff-dim", type=int)

    p = sub.add_parser("synth", parents=[seeded],
                       help="generate synthetic InD/OoD feature files")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", required=True, help="prefix for .ind.oodf/.ood.oodf")
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", parents=[fitting, seeded],
                       help="fit a detector on a training feature file")
    p.add_argument("--method", required=True, choices=METHODS)
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
    p.add_argument("--tpr", type=float, default=DEFAULT_TPR)
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

    p = sub.add_parser("sweep", parents=[fitting, seeded],
                       help="fit/score/eval over a parameter grid")
    p.add_argument("--param", required=True, choices=("evr", "gamma", "rff-dim"))
    p.add_argument("--values", required=True, help="comma-separated list")
    p.add_argument("--ind", required=True)
    p.add_argument("--ood", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--tpr", type=float, default=DEFAULT_TPR)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", parents=[fitting, seeded],
                       help="per-query latency and store sizes")
    p.add_argument("--queries", type=int, default=200)
    p.add_argument("--methods", required=True, help="comma list, e.g. corp,knn")
    p.add_argument("--knn-k", type=int, default=1)
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--reps", type=int, default=3)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_args(args)
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
