"""Detection metrics and a per-query latency benchmark.

Convention throughout: in-distribution samples score HIGHER. The
false-positive rate is evaluated at the largest threshold that still
admits the target fraction of in-distribution scores (inclusive >= on
both sides, lower interpolation at the percentile), so reported numbers
are reproducible bit-for-bit. AUROC is the tie-corrected Mann-Whitney
statistic P(ind > ood) + 0.5 * P(ind = ood), counted on the sorted scores
rather than integrated along a curve, which makes tie handling exact.

The benchmark times scorer callables one query row at a time on the
calling thread, after warmup passes; wall-clock only, nothing asserted.
While it runs, the OpenBLAS that numpy links is pinned to one thread and
restored afterwards; where that library's thread controls are not found,
BLAS threading is left alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyScoresError, NonFiniteError

DEFAULT_TPR = 0.95


def _check_scores(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64).ravel()
    if v.size == 0:
        raise EmptyScoresError(f"{name} score set is empty")
    if not np.all(np.isfinite(v)):
        raise NonFiniteError(f"{name} scores contain NaN or Inf")
    return v


def fpr_at_tpr(ind_scores, ood_scores, tpr_target: float = DEFAULT_TPR):
    """False-positive rate at the threshold admitting tpr_target of InD.

    Returns (fpr, threshold). The threshold is the largest score s such
    that at least tpr_target of the InD scores are >= s; the FPR is the
    fraction of OoD scores >= s.
    """
    ind = _check_scores(ind_scores, "ind")
    ood = _check_scores(ood_scores, "ood")
    if not 0.0 < tpr_target <= 1.0:
        raise ValueError(f"tpr_target must be in (0, 1], got {tpr_target}")
    n = ind.size
    # smallest admit count whose fraction reaches the target; the epsilon
    # guards against 0.95*n landing just above an exact integer
    r = int(np.ceil(tpr_target * n - 1e-9))
    r = min(max(r, 1), n)
    threshold = float(np.sort(ind)[n - r])
    fpr = float(np.mean(ood >= threshold))
    return fpr, threshold


def auroc(ind_scores, ood_scores) -> float:
    """P(ind > ood) + 0.5 * P(ind = ood), exact under ties.

    Two binary searches in the sorted OoD scores count, for each InD
    score, the OoD scores below it and those equal to it. Both counts are
    integers, so the numerator is exact while it is below 2**52.
    """
    ind = np.sort(_check_scores(ind_scores, "ind"))
    ood = np.sort(_check_scores(ood_scores, "ood"))
    below = np.searchsorted(ood, ind, side="left")
    equal = np.searchsorted(ood, ind, side="right") - below
    u = below.sum() + 0.5 * equal.sum()
    return float(u / (ind.size * ood.size))


@dataclass(eq=False)
class EvalReport:
    """Detection metrics for one InD/OoD score pair."""

    fpr95: float
    auroc: float
    n_ind: int
    n_ood: int
    threshold_at_95tpr: float
    tpr_target: float = DEFAULT_TPR

    def to_records(self) -> list[dict]:
        return [
            {"metric": "fpr95", "value": self.fpr95, "tpr_target": self.tpr_target},
            {"metric": "auroc", "value": self.auroc},
            {"metric": "threshold", "value": self.threshold_at_95tpr},
            {"metric": "n_ind", "value": self.n_ind},
            {"metric": "n_ood", "value": self.n_ood},
        ]

    def to_text(self) -> str:
        rows = [
            ("fpr95", f"{self.fpr95:.6f}"),
            ("auroc", f"{self.auroc:.6f}"),
            ("threshold", f"{self.threshold_at_95tpr:.17g}"),
            ("n_ind", str(self.n_ind)),
            ("n_ood", str(self.n_ood)),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def evaluate(ind_scores, ood_scores, tpr_target: float = DEFAULT_TPR) -> EvalReport:
    # fpr_at_tpr checks both score sets before it reads tpr_target.
    fpr, thr = fpr_at_tpr(ind_scores, ood_scores, tpr_target)
    return EvalReport(
        fpr95=fpr,
        auroc=auroc(ind_scores, ood_scores),
        n_ind=int(np.size(ind_scores)),
        n_ood=int(np.size(ood_scores)),
        threshold_at_95tpr=thr,
        tpr_target=tpr_target,
    )


@dataclass(eq=False)
class LatencyStats:
    mean_us: float
    p50_us: float
    p99_us: float


@dataclass(eq=False)
class BenchReport:
    """Per-scorer per-query wall-clock latency and store sizes."""

    per_query_micros: dict[str, LatencyStats] = field(default_factory=dict)
    store_bytes: dict[str, int] = field(default_factory=dict)

    def to_text(self) -> str:
        if not self.per_query_micros:
            return "(no queries benchmarked)"
        lines = [
            f"{'scorer':<12}{'mean_us':>12}{'p50_us':>12}{'p99_us':>12}"
            f"{'store_bytes':>14}"
        ]
        for name, stats in self.per_query_micros.items():
            size = self.store_bytes.get(name)
            lines.append(
                f"{name:<12}{stats.mean_us:>12.2f}{stats.p50_us:>12.2f}"
                f"{stats.p99_us:>12.2f}{size if size is not None else '-':>14}"
            )
        return "\n".join(lines)


@functools.cache
def _openblas_thread_controls():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None.

    They are looked up in numpy's own extension module, which has the
    OpenBLAS that numpy links loaded already.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def _single_blas_thread():
    """Pin OpenBLAS to one thread inside the block; a no-op if it is not found."""
    controls = _openblas_thread_controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def bench_scorers(scorers: dict, queries, warmup: int = 5, reps: int = 3) -> BenchReport:
    """Time each scorer callable per query row, single-threaded.

    ``scorers`` maps a name to a callable taking one 1-D query vector.
    Warmup passes are untimed; every (rep, query) call afterwards
    contributes one latency sample. Warmup and timing run with numpy's
    OpenBLAS pinned to one thread, and the previous thread count is
    restored on return, also when a scorer raises; if the OpenBLAS
    thread controls are not found, BLAS threading is left as it is.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2:
        raise ValueError(f"queries must be 2-D, got shape {q.shape}")
    report = BenchReport()
    if q.shape[0] == 0:
        return report
    with _single_blas_thread():
        for name, fn in scorers.items():
            for _ in range(warmup):
                for row in q:
                    fn(row)
            samples = np.empty(reps * q.shape[0])
            i = 0
            for _ in range(reps):
                for row in q:
                    t0 = time.perf_counter()
                    fn(row)
                    samples[i] = time.perf_counter() - t0
                    i += 1
            micros = samples * 1e6
            p50, p99 = np.percentile(micros, [50, 99])
            report.per_query_micros[name] = LatencyStats(
                mean_us=float(micros.mean()), p50_us=float(p50), p99_us=float(p99)
            )
    return report
