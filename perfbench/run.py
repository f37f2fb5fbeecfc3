"""Benchmark entry point: fit -> score -> eval on four workloads.

    python3 perfbench/run.py --workload batch-corp --seed 11 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another

Each workload runs in its own child process (child.py) with BLAS pinned to
one thread. Set-up runs SETUP_SAMPLES times, each in a fresh process, and
setup_s is their median. With --trace 0 the result carries the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics from a
traced pass. The last stdout line is the result JSON; the lines before it
record the environment and the full report. Any failed operation or check
makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cpus import quietest_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("batch-corp", "online-corp", "gram-kgau", "knn-50k")
DEFAULT_SEED = 11  # NOTES.md names the held-out seed
SETUP_SAMPLES = 5
# One workload, set-up samples included, must end within this many seconds.
BUDGET_S = 170.0

PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(Exception):
    """A child process failed before it could report a result."""


def run_child(workload: str, args, workdir: Path, deadline: float, setup_only: bool) -> list[dict]:
    workdir.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **PINNED)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{workload}: out of time before a child could start")
    # A set-up process runs on the quietest CPU, inherited from this one; the
    # measured child gets every CPU and picks one before each timed step.
    cpus = frozenset(os.sched_getaffinity(0))
    if setup_only:
        quietest_cpu(cpus)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: child did not finish within {remaining:.0f} s") from None
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: child exited {proc.returncode} without a result")
    return lines


def run_workload(workload: str, args, spec: dict) -> dict:
    """Set-up samples, then the measured child; returns the merged record."""
    deadline = time.monotonic() + BUDGET_S
    base = WORK / f"{workload}-{os.getpid()}"
    try:
        samples = [
            run_child(workload, args, base / f"setup{i}", deadline, True)[-1]["setup_s"]
            for i in range(SETUP_SAMPLES)
        ]
        *notes, result = run_child(workload, args, base / "run", deadline, False)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    result["setup_samples_s"] = samples
    metrics = result["metrics"]
    metrics["setup_s"] = [statistics.median(samples), "s"]
    for note in notes:
        print(json.dumps(note))

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    chosen = {}
    for m in wanted:
        value, unit = metrics.get(m["name"], (None, None))
        ok = value is not None and unit == m["unit"]
        result["attempted"] += 1
        if not ok:
            result["failed"] += 1
            result["problems"].append(f"metric {m['name']} missing or not in {m['unit']}")
        chosen[m["name"]] = {"value": value, "unit": m["unit"]}
    result["chosen"] = chosen
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "kpca_ood" / "__init__.py").is_file():
        print(f"no kpca_ood sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args, spec))
            print(json.dumps({"report": results[-1]}), flush=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for r in results:
        for problem in r["problems"]:
            print(f"{r['workload']}: {problem}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["chosen"]
    else:
        # Untraced, every workload also shows the figures BENCHMARK.json
        # cannot hold (fpr95 and fail_ratio can be 0).
        metrics = {}
        for r in results:
            shown = r["chosen"] if args.trace else {
                k: {"value": v, "unit": u} for k, (v, u) in r["metrics"].items()}
            for key, m in shown.items():
                metrics[f"{r['workload']}.{key}"] = m
        width = max(map(len, metrics))
        for key, m in metrics.items():
            print(f"{key:<{width}}  {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
