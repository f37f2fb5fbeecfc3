"""The four workloads: set-up, measured iterations and output checks.

child.py imports this module after kpca_ood, in a process whose BLAS is
pinned to one thread. NOTES.md says why each workload exists and what each
layer metric is predicted to move.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import kpca_ood as kp
from cpus import quietest_cpu
from spans import Tracer

# Single-row queries run untimed before each timed query loop.
WARMUP_QUERIES = 200
# Single-row and batch scores of the same row must agree this closely.
SCORE_REL_TOL = 1e-12
# AUROC/FPR95 recomputed by the reference below must match this closely.
METRIC_ABS_TOL = 1e-12
# Query latencies are ranked in blocks of this many, and the quietest share
# of blocks gives p50 and p99; see quiet_latency.
QUERY_BLOCK = 10
QUIET_SHARE = 0.1
# A run times at least this many queries: 1000 in its quiet tenth.
MIN_QUERY_SAMPLES = 10_000
# Self times of all spans must cover the traced wall time within this share.
SPAN_COVER_TOL = 0.01

# The CPUs this process may run on; each timed step starts on the quietest.
CPUS = frozenset(os.sched_getaffinity(0))

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    kind: str  # "cli": CLI fit/score/eval; "online": CLI fit, in-process queries; "knn"
    dim: int
    n_train: int
    n_test: int  # InD-test rows written; the OoD file has as many
    n_batch: int  # rows per side scored by the batch calls
    queries: int  # timed single-row queries per iteration, half InD, half OoD
    fit_repeats: int = 1  # fits per iteration; fit_s is the minimum over all of them
    score_passes: int = 1  # CLI score passes over both files per iteration
    method: str = ""
    fit_args: tuple = ()
    params: dict = field(default_factory=dict)
    # Traced run: functions this workload must reach, and ones it never may.
    must_call: tuple = ()
    must_not_call: tuple = ()


_ALWAYS = ("synth.generate", "rng.make_prng", "fileio.save_features", "metrics.evaluate")
_COVARIANCE = ("featmap.map_apply", "detector.fit", "detector.score_reconstruction")
_GRAM = ("kernelspace.gram", "kernelspace.fit_kernelspace", "kernelspace.score_kernelspace")
_KNN = ("baselines.build_knn", "baselines.knn_score")

WORKLOADS = {
    "batch-corp": Workload(
        kind="cli", dim=64, n_train=50_000, n_test=50_000, n_batch=50_000,
        queries=5000, score_passes=2, method="corp",
        fit_args=("--rff-dim", "256", "--gamma", "2.0"),
        must_call=_ALWAYS + _COVARIANCE + (
            "linalg.sym_eig", "linalg.as_feature_matrix", "cli.main",
            "fileio.load_features", "fileio.save_scores", "fileio.load_scores",
            "fileio.save_model", "fileio.load_model",
        ),
        must_not_call=_GRAM + _KNN + ("featmap.median_heuristic_gamma",),
    ),
    "online-corp": Workload(
        kind="online", dim=32, n_train=5000, n_test=10_000, n_batch=10_000,
        queries=20_000, method="corp",
        must_call=_ALWAYS + _COVARIANCE + (
            "linalg.as_feature_matrix", "featmap.median_heuristic_gamma", "cli.main",
        ),
        must_not_call=_GRAM + _KNN + ("fileio.save_scores", "fileio.load_scores"),
    ),
    "gram-kgau": Workload(
        kind="cli", dim=16, n_train=200, n_test=20_000, n_batch=20_000,
        queries=10_000, score_passes=2, method="kgau", fit_args=("--gamma", "2.0"),
        params={"clusters": 8.0},
        must_call=_ALWAYS + _GRAM + (
            "linalg.sym_eig", "fileio.save_model", "fileio.load_model", "cli.main",
        ),
        must_not_call=_KNN + ("featmap.map_apply", "detector.fit",
                              "featmap.median_heuristic_gamma"),
    ),
    "knn-50k": Workload(
        kind="knn", dim=64, n_train=50_000, n_test=50_000, n_batch=500,
        queries=1000, fit_repeats=3,
        must_call=_ALWAYS + _KNN,
        must_not_call=_GRAM + ("linalg.sym_eig", "featmap.map_apply", "detector.fit",
                               "detector.score_reconstruction", "cli.main"),
    ),
}


# ----------------------------------------------------------- references


def reference_auroc(ind: np.ndarray, ood: np.ndarray) -> float:
    """Mann-Whitney AUROC with tied values given their average rank."""
    _, inverse, counts = np.unique(
        np.concatenate([ind, ood]), return_inverse=True, return_counts=True
    )
    ranks = np.cumsum(counts) - (counts - 1) / 2.0
    u = ranks[inverse[: ind.size]].sum() - ind.size * (ind.size + 1) / 2.0
    return float(u / (ind.size * ood.size))


def reference_fpr(ind: np.ndarray, ood: np.ndarray, tpr: float = 0.95) -> float:
    """Share of OoD scores at or above the threshold that admits tpr of InD."""
    admit = min(max(math.ceil(tpr * ind.size - 1e-9), 1), ind.size)
    threshold = np.sort(ind)[ind.size - admit]
    return float(np.mean(ood >= threshold))


# ------------------------------------------------------------------ run


class Run:
    """One workload in this process: its inputs, ledger and iterations."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.dir = workdir
        self.tracer: Tracer | None = None  # set for the traced pass only
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.max_rel_diff = 0.0

    # ------------------------------------------------------------ ledger

    def check(self, ok: bool, what: str, count: int = 1, bad: int | None = None) -> None:
        """Count ``count`` operations, of which ``bad`` (or all if not ok) failed."""
        bad = (0 if ok else count) if bad is None else bad
        self.attempted += count
        self.failed += bad
        if bad and len(self.problems) < 20:
            self.problems.append(what)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def path(self, name: str) -> str:
        return str(self.dir / name)

    # ------------------------------------------------------------- set-up

    def setup(self) -> dict:
        """Generate the inputs from the seed and write the .oodf files."""
        w = self.w
        spec = kp.synth.SynthSpec(
            kind="sphere-cluster", n=w.n_train + w.n_test, dim=w.dim,
            seed=self.seed, params=dict(w.params),
        )
        ind, ood = kp.synth.generate(spec)
        parts = {"train": ind[: w.n_train], "test": ind[w.n_train :], "ood": ood[: w.n_test]}
        for part, x in parts.items():
            kp.fileio.save_features(self.path(f"{part}.oodf"), x)
        return parts

    def prepare(self, parts: dict) -> None:
        """Keep the inputs as the files hold them (float32) and pick the queries."""
        w = self.w
        x = {k: v.astype(np.float32).astype(np.float64) for k, v in parts.items()}
        self.train = x["train"]
        self.batch = (x["test"][: w.n_batch], x["ood"][: w.n_batch])
        half = w.queries // 2
        rng = np.random.default_rng(self.seed)
        self.query_idx = tuple(
            np.sort(rng.choice(w.n_batch, half, replace=False)) for _ in range(2)
        )
        self.query_rows = np.concatenate(
            [side[idx] for side, idx in zip(self.batch, self.query_idx)]
        )

    # -------------------------------------------------------------- steps

    def cli(self, *argv: str) -> tuple[float, str]:
        """Run one CLI command in this process; returns (seconds, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        quietest_cpu(CPUS)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = kp.cli.main(list(argv))
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                code = repr(exc)
            elapsed = time.perf_counter() - t0
        self.check(code == 0, f"kpca-ood {argv[0]} exited {code}: {err.getvalue()[-300:]}")
        return elapsed, out.getvalue()

    def queries(self, score, model, expected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Closed loop, one caller: each single-row call timed on its own."""
        views = [self.query_rows[i : i + 1] for i in range(self.query_rows.shape[0])]
        with self.span("bench.warmup"):
            for v in views[:WARMUP_QUERIES]:
                score(model, v)
        n = len(views)
        latency = np.full(n, np.nan)
        got = np.full(n, np.nan)
        clock = time.perf_counter
        errors = 0
        # Collections are triggered by allocation counts, largely the loop's
        # own, and land at random in the tail; timeit pauses them too.
        gc.collect()
        quietest_cpu(CPUS)
        gc.disable()
        try:
            with self.span("bench.queries"):
                for i, v in enumerate(views):
                    t0 = clock()
                    try:
                        s = score(model, v)
                    except Exception:  # counted as a failed query
                        errors += 1
                        continue
                    latency[i] = clock() - t0
                    got[i] = s[0]
        finally:
            gc.enable()
        self.check(errors == 0, f"{errors} single-row queries raised", count=n, bad=errors)
        with self.span("bench.checks"):
            scale = np.maximum(np.abs(got), np.abs(expected))
            rel = np.abs(got - expected) / np.where(scale > 0, scale, 1.0)
            bad = int(np.count_nonzero(~(rel <= SCORE_REL_TOL)))
            finite = rel[np.isfinite(rel)]
            if finite.size:
                self.max_rel_diff = max(self.max_rel_diff, float(finite.max()))
            self.check(bad == 0, f"{bad} single-row scores differ from batch scores",
                       count=n, bad=bad)
        return latency[np.isfinite(latency)], got

    def check_metrics(self, ind: np.ndarray, ood: np.ndarray, auroc: float, fpr: float, where: str) -> None:
        with self.span("bench.checks"):
            ref_a, ref_f = reference_auroc(ind, ood), reference_fpr(ind, ood)
            self.check(abs(ref_a - auroc) <= METRIC_ABS_TOL,
                       f"{where}: AUROC {auroc!r}, reference {ref_a!r}")
            self.check(abs(ref_f - fpr) <= METRIC_ABS_TOL,
                       f"{where}: FPR95 {fpr!r}, reference {ref_f!r}")

    # --------------------------------------------------------- iterations

    def iterate(self) -> dict:
        return {"cli": self._iterate_cli, "online": self._iterate_online,
                "knn": self._iterate_knn}[self.w.kind]()

    def _fit_cli(self) -> float:
        with self.span("bench.fit"):
            fit_s, _ = self.cli(
                "fit", "--train", self.path("train.oodf"), "--method", self.w.method,
                *self.w.fit_args, "--out", self.path("model.oodm"),
            )
        return fit_s

    def _iterate_cli(self) -> dict:
        fit_s = self._fit_cli()
        csv = {"test": self.path("ind.csv"), "ood": self.path("ood.csv")}
        score_s = [math.inf, math.inf]
        first = None
        for _ in range(self.w.score_passes):
            with self.span("bench.score"):
                for i, part in enumerate(csv):
                    seconds, _ = self.cli(
                        "score", "--model", self.path("model.oodm"),
                        "--features", self.path(f"{part}.oodf"), "--out", csv[part],
                    )
                    score_s[i] = min(score_s[i], seconds)
            with self.span("bench.checks"):
                scores = []
                for part in csv:
                    table = np.loadtxt(csv[part], delimiter=",", skiprows=1, ndmin=2)
                    self.check(table.shape == (self.w.n_batch, 2),
                               f"{csv[part]} has shape {table.shape}")
                    scores.append(table[:, 1])
                if first is None:
                    first = scores
                else:
                    self.check(all(np.array_equal(a, b) for a, b in zip(first, scores)),
                               "a repeated score pass gave other scores")
        with self.span("bench.eval"):
            eval_s, out = self.cli("eval", "--ind", csv["test"], "--ood", csv["ood"],
                                   "--json-lines")
        reported = {r["metric"]: r["value"] for r in map(json.loads, out.splitlines())}
        self.check_metrics(scores[0], scores[1], reported.get("auroc", math.nan),
                           reported.get("fpr95", math.nan), "eval on the score CSVs")
        expected = np.concatenate([s[idx] for s, idx in zip(scores, self.query_idx)])
        with self.span("bench.load"):
            model = kp.fileio.load_model(self.path("model.oodm"))
        score = (kp.kernelspace.score_kernelspace
                 if isinstance(model, kp.kernelspace.KernelSpaceModel)
                 else kp.detector.score_reconstruction)
        latency, _ = self.queries(score, model, expected)
        return {
            "fit_s": fit_s, "score_s": score_s, "eval_s": eval_s,
            "rows": 2 * self.w.n_batch, "latency": latency,
            "model_bytes": os.path.getsize(self.path("model.oodm")),
            "auroc": reported.get("auroc"), "fpr95": reported.get("fpr95"),
        }

    def _batch_and_eval(self, score, model, sides):
        """One batch score call per side (InD, OoD), then evaluate in process."""
        scores, score_s = [], []
        with self.span("bench.score"):
            for rows in sides:
                quietest_cpu(CPUS)
                t0 = time.perf_counter()
                scores.append(score(model, rows))
                score_s.append(time.perf_counter() - t0)
        ind, ood = scores
        with self.span("bench.eval"):
            quietest_cpu(CPUS)
            t0 = time.perf_counter()
            report = kp.metrics.evaluate(ind, ood)
            eval_s = time.perf_counter() - t0
        self.check_metrics(ind, ood, report.auroc, report.fpr95, "evaluate on batch scores")
        return score_s, eval_s, (ind, ood), report

    def _iterate_online(self) -> dict:
        fit_s = self._fit_cli()
        with self.span("bench.load"):
            model = kp.fileio.load_model(self.path("model.oodm"))
        score = kp.detector.score_reconstruction
        half = self.w.queries // 2
        sides = (self.query_rows[:half], self.query_rows[half:])
        score_s, eval_s, batch, _ = self._batch_and_eval(score, model, sides)
        latency, got = self.queries(score, model, np.concatenate(batch))
        auroc = fpr = math.nan
        if np.all(np.isfinite(got)):  # a failed query is already counted
            report = kp.metrics.evaluate(got[:half], got[half:])
            self.check_metrics(got[:half], got[half:], report.auroc, report.fpr95,
                               "evaluate on query scores")
            auroc, fpr = report.auroc, report.fpr95
        return {
            "fit_s": fit_s, "score_s": score_s, "eval_s": eval_s,
            "rows": self.query_rows.shape[0], "latency": latency,
            "model_bytes": os.path.getsize(self.path("model.oodm")),
            "auroc": auroc, "fpr95": fpr,
        }

    def _iterate_knn(self) -> dict:
        store = self.path("knn.oodf")
        fit_s = math.inf
        with self.span("bench.fit"):
            for _ in range(self.w.fit_repeats):
                quietest_cpu(CPUS)
                t0 = time.perf_counter()
                scorer = kp.baselines.build_knn(self.train, k=1)
                kp.fileio.save_features(store, scorer.train_normalized)
                fit_s = min(fit_s, time.perf_counter() - t0)
        score = kp.baselines.knn_score
        score_s, eval_s, batch, report = self._batch_and_eval(score, scorer, self.batch)
        expected = np.concatenate([side[idx] for side, idx in zip(batch, self.query_idx)])
        latency, _ = self.queries(score, scorer, expected)
        return {
            "fit_s": fit_s, "score_s": score_s, "eval_s": eval_s,
            "rows": 2 * self.w.n_batch, "latency": latency,
            "model_bytes": os.path.getsize(store),
            "auroc": report.auroc, "fpr95": report.fpr95,
        }


# ------------------------------------------------------------- summary


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, read from the library numpy links; None if unknown."""
    import ctypes

    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes = []
    get.restype = ctypes.c_int
    return int(get())


def environment() -> dict:
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    return {
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
    }


def quiet_latency(latency: np.ndarray) -> tuple[float, float, int]:
    """p50 and p99 over the quietest tenth of QUERY_BLOCK-query blocks.

    ``latency`` is in time order. Blocks are ranked by their median and the
    fastest tenth is pooled; returns (p50, p99, pooled sample count).
    """
    n_blocks = max(1, latency.size // QUERY_BLOCK)
    blocks = latency[: n_blocks * QUERY_BLOCK].reshape(n_blocks, -1)
    keep = np.argsort(np.median(blocks, axis=1))[: math.ceil(n_blocks * QUIET_SHARE)]
    pool = blocks[keep].ravel()
    p50, p99 = np.percentile(pool, [50, 99])
    return float(p50), float(p99), int(pool.size)


def summarize(run: Run, iterations: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics of one run as name -> [value, unit], plus details."""
    latency = np.concatenate([it["latency"] for it in iterations]) * 1e6
    p50, p99, pooled = quiet_latency(latency)
    first = iterations[0]
    # Each step's quiet time is its minimum over the iterations, each score
    # side on its own; the pipeline is the sum of its steps' quiet times.
    fit_s = min(it["fit_s"] for it in iterations)
    score_s = sum(map(min, zip(*(it["score_s"] for it in iterations))))
    eval_s = min(it["eval_s"] for it in iterations)
    metrics = {
        "fit_s": [fit_s, "s"],
        "score_rows_per_s": [first["rows"] / score_s, "rows/s"],
        "pipeline_s": [fit_s + score_s + eval_s, "s"],
        "query_p50_us": [p50, "us"],
        "query_p99_us": [p99, "us"],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"],
        "model_bytes": [first["model_bytes"], "B"],
        "auroc": [first["auroc"], "1"],
        "fpr95": [first["fpr95"], "1"],
        "fail_ratio": [run.failed / max(run.attempted, 1), "1"],
    }
    p50_all, p99_all = np.percentile(latency, [50, 99])
    details = {
        "iterations": len(iterations),
        "query_samples": int(latency.size),
        "query_samples_pooled": pooled,
        "query_p50_all_us": float(p50_all),
        "query_p99_all_us": float(p99_all),
        "per_iteration": {k: [it[k] for it in iterations]
                          for k in ("fit_s", "score_s", "eval_s")},
    }
    return metrics, details


def measure(run: Run, seconds: float) -> list[dict]:
    """Repeat the iteration while another one fits in ``seconds``.

    Runs at least until MIN_QUERY_SAMPLES queries were timed, so that the
    pooled quiet tenth leaves ten samples beyond its p99.
    """
    iterations = []
    start = time.perf_counter()
    while True:
        iterations.append(run.iterate())
        elapsed = time.perf_counter() - start
        samples = sum(it["latency"].size for it in iterations)
        if (samples >= MIN_QUERY_SAMPLES
                and elapsed * (len(iterations) + 1) / len(iterations) > seconds):
            break
    for it in iterations[1:]:
        run.check(it["auroc"] == iterations[0]["auroc"]
                  and it["model_bytes"] == iterations[0]["model_bytes"],
                  "a repeated iteration gave another AUROC or model size")
    return iterations


def trace(run: Run) -> tuple[dict, dict]:
    """One untraced and one traced pass of set-up plus one iteration."""
    t0 = time.perf_counter()
    run.setup()
    untraced = run.iterate()
    untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    required = set(run.w.must_call) | set(run.w.must_not_call)
    try:
        tracer.install(required)
    except LookupError as exc:
        run.check(False, f"tracer: {exc}")
        return {}, {"untraced_wall_s": untraced_s}
    run.tracer = tracer
    try:
        t0 = time.perf_counter()
        with tracer.span("bench.run"):
            with tracer.span("bench.setup"):
                run.setup()
            run.iterate()
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
        run.tracer = None

    for problem in tracer.coverage_problems(traced_s, SPAN_COVER_TOL):
        run.check(False, f"span coverage: {problem}")
    for name in run.w.must_call:
        run.check(tracer.calls(name) > 0, f"span coverage: {name} yielded no span")
    for name in run.w.must_not_call:
        run.check(tracer.calls(name) == 0, f"span coverage: {name} ran on {run.name}")

    metrics = {k: [v, unit] for k, (v, unit) in tracer.metrics().items()}
    afm = "linalg.as_feature_matrix"
    metrics[f"{afm}.calls_per_query"] = [
        tracer.calls(afm, "bench.queries") / run.query_rows.shape[0], "calls/query"]
    metrics["trace.overhead_s"] = [traced_s - untraced_s, "s"]
    metrics["trace.wall_s"] = [traced_s, "s"]
    info = {"untraced_wall_s": untraced_s, "traced_wall_s": traced_s,
            "untraced": summarize(run, [untraced])[0]}
    return metrics, info


def main(run: Run, setup_s: float, seconds: float, traced: bool) -> None:
    """Measure one prepared workload; print its result as the last stdout line."""
    env = environment()
    print(json.dumps({"environment": env}), flush=True)
    run.check(env["blas_threads"] in (None, 1),
              f"OpenBLAS runs {env['blas_threads']} threads, not 1")
    if traced:
        metrics, info = trace(run)
    else:
        metrics, info = summarize(run, measure(run, seconds))
    info["max_rel_score_diff"] = run.max_rel_diff
    print(json.dumps({
        "workload": run.name, "seed": run.seed, "setup_s": setup_s,
        "metrics": metrics, "info": info, "attempted": run.attempted,
        "failed": run.failed, "problems": run.problems,
    }), flush=True)
