import ctypes
import glob
import os

import numpy as np
import pytest

from kpca_ood import metrics
from kpca_ood.errors import EmptyScoresError, NonFiniteError
from kpca_ood.metrics import auroc, bench_scorers, evaluate, fpr_at_tpr


def _openblas_threads():
    """get/set thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        set_.argtypes = [ctypes.c_int]
        return get, set_
    return None


OPENBLAS = _openblas_threads()


def brute_force_fpr(ind, ood, tpr_target):
    """Exhaustive search over candidate thresholds (the InD scores)."""
    ind = np.asarray(ind, dtype=float)
    ood = np.asarray(ood, dtype=float)
    best = None
    for s in sorted(set(ind), reverse=True):
        if np.mean(ind >= s) >= tpr_target:
            best = s
            break
    return float(np.mean(ood >= best)), best


def brute_force_auroc(ind, ood):
    """O(n*m) pairwise comparison with half credit for ties."""
    ind = np.asarray(ind, dtype=float)
    ood = np.asarray(ood, dtype=float)
    gt = np.sum(ind[:, None] > ood[None, :])
    eq = np.sum(ind[:, None] == ood[None, :])
    return (gt + 0.5 * eq) / (ind.size * ood.size)


class TestFprAtTpr:
    def test_perfect_separation(self):
        fpr, _ = fpr_at_tpr(np.ones(10), np.zeros(10))
        assert fpr == 0.0

    def test_identical_distributions(self):
        x = np.arange(20.0)
        fpr, _ = fpr_at_tpr(x, x)
        assert fpr >= 0.95

    def test_worked_example(self):
        ind = np.arange(1.0, 101.0)  # 1..100
        ood = np.array([0.5, 5.5, 200.0])
        fpr, thr = fpr_at_tpr(ind, ood, 0.95)
        assert thr == 6.0  # 95 of 100 InD scores are >= 6
        assert abs(fpr - 1.0 / 3.0) <= 1e-15

    def test_tpr_one_uses_min(self):
        rng = np.random.default_rng(0)
        ind = rng.normal(size=37)
        _, thr = fpr_at_tpr(ind, [0.0], tpr_target=1.0)
        assert thr == ind.min()

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(5, 200))
            ind = np.round(rng.normal(size=n), 2)  # inject ties
            ood = np.round(rng.normal(size=int(rng.integers(5, 200))), 2)
            tpr = float(rng.uniform(0.5, 1.0))
            got_fpr, got_thr = fpr_at_tpr(ind, ood, tpr)
            want_fpr, want_thr = brute_force_fpr(ind, ood, tpr)
            assert got_thr == want_thr
            assert got_fpr == want_fpr

    def test_empty_rejected(self):
        with pytest.raises(EmptyScoresError):
            fpr_at_tpr([], [1.0])
        with pytest.raises(EmptyScoresError):
            fpr_at_tpr([1.0], [])


class TestAuroc:
    def test_perfect(self):
        assert auroc([2.0, 3.0], [0.0, 1.0]) == 1.0

    def test_identical(self):
        x = np.arange(10.0)
        assert auroc(x, x) == 0.5

    def test_worked_example(self):
        # pairs: (3 > 2) hit, (1 < 2) miss -> 0.5
        assert auroc([3.0, 1.0], [2.0]) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            ind = np.round(rng.normal(size=int(rng.integers(2, 120))), 1)
            ood = np.round(rng.normal(size=int(rng.integers(2, 120))), 1)
            assert abs(auroc(ind, ood) - brute_force_auroc(ind, ood)) <= 1e-12

    def test_complement_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = np.round(rng.normal(size=30), 1)
            b = np.round(rng.normal(size=40), 1)
            total = auroc(a, b) + auroc(b, a)
            # IEEE division precludes literal equality (e.g. 1/3 + 2/3);
            # 2 ulps is the attainable bound
            assert abs(total - 1.0) <= 2 * np.finfo(float).eps

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        ind = rng.normal(size=50)
        ood = rng.normal(size=60)
        base_a = auroc(ind, ood)
        base_f, base_t = fpr_at_tpr(ind, ood)
        for f in [np.exp, lambda v: 3 * v + 1, np.arctan]:
            assert abs(auroc(f(ind), f(ood)) - base_a) <= 1e-12
            got_f, _ = fpr_at_tpr(f(ind), f(ood))
            assert got_f == base_f


class TestOracleProperty:
    """Both metrics equal the quadratic oracles exactly under random ties."""

    def test_metrics_equal_oracles(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        values = st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -1e-300,
                             1e300, -1e300]),
            st.floats(-1e300, 1e300, allow_nan=False, allow_subnormal=False),
        )

        # A pool of 1 to 4 values makes ties common, and a pool of one makes
        # every score equal.
        @st.composite
        def score_pair(draw):
            pool = draw(st.lists(values, min_size=1, max_size=4))
            side = st.lists(st.sampled_from(pool), min_size=1, max_size=60)
            return draw(side), draw(side)

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(
            pair=score_pair(),
            tpr=st.one_of(st.sampled_from([0.95, 0.5, 1.0]), st.floats(0.01, 1.0)),
        )
        @hypothesis.example(pair=([0.0, -0.0, 0.0], [-0.0]), tpr=0.95)
        @hypothesis.example(pair=([1e-300], [1e300, -1e300]), tpr=1.0)
        @hypothesis.example(pair=([2.0] * 7, [2.0] * 60), tpr=0.95)
        def check(pair, tpr):
            ind, ood = (np.array(side) for side in pair)
            assert auroc(ind, ood) == brute_force_auroc(ind, ood)
            # == takes -0.0 for 0.0: the oracle's set keeps either zero.
            assert fpr_at_tpr(ind, ood, tpr) == brute_force_fpr(ind, ood, tpr)

        check()


class TestEvaluate:
    def test_report_fields(self):
        rep = evaluate(np.ones(8), np.zeros(5))
        assert rep.fpr95 == 0.0
        assert rep.auroc == 1.0
        assert rep.n_ind == 8
        assert rep.n_ood == 5
        assert "fpr95" in rep.to_text()
        metrics = {r["metric"] for r in rep.to_records()}
        assert metrics == {"fpr95", "auroc", "threshold", "n_ind", "n_ood"}

    def test_each_score_set_checked_once_per_metric(self, monkeypatch):
        calls, check = [], metrics._check_scores

        def counted(x, name):
            calls.append(name)
            return check(x, name)

        monkeypatch.setattr(metrics, "_check_scores", counted)
        rep = evaluate([[3.0, 1.0], [2.0, 0.5]], np.zeros(3))
        assert calls == ["ind", "ood", "ind", "ood"]
        assert (rep.n_ind, rep.n_ood) == (4, 3)

    @pytest.mark.parametrize("ind, ood, tpr, error, message", [
        ([], [np.nan], 0.95, EmptyScoresError, "ind score set is empty"),
        ([np.inf], [], 0.95, NonFiniteError, "ind scores contain NaN or Inf"),
        ([1.0], [], 2.0, EmptyScoresError, "ood score set is empty"),
        ([1.0], [np.nan], 2.0, NonFiniteError, "ood scores contain NaN or Inf"),
        ([1.0], [0.0], 2.0, ValueError, "tpr_target must be in"),
    ])
    def test_first_error_wins(self, ind, ood, tpr, error, message):
        with pytest.raises(error, match=message):
            evaluate(ind, ood, tpr)


class TestBench:
    def test_zero_queries_empty_report(self):
        rep = bench_scorers({"noop": lambda r: 0.0}, np.empty((0, 3)))
        assert rep.per_query_micros == {}

    def test_latency_measured(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=(20, 4))
        rep = bench_scorers(
            {"sum": lambda r: float(r.sum())}, q, warmup=1, reps=2
        )
        stats = rep.per_query_micros["sum"]
        assert stats.mean_us > 0.0
        assert stats.p99_us >= stats.mean_us * 0.1
        assert "sum" in rep.to_text()

    def test_p50_next_to_mean_and_p99(self, monkeypatch):
        # A clock that makes the five calls take 1, 2, 3, 4 and 100 us.
        ticks = iter(np.cumsum([0.0, 1, 0, 2, 0, 3, 0, 4, 0, 100]) * 1e-6)
        monkeypatch.setattr(metrics.time, "perf_counter", lambda: next(ticks))
        rep = bench_scorers({"noop": lambda r: 0.0}, np.ones((5, 2)), warmup=0, reps=1)
        stats = rep.per_query_micros["noop"]
        assert stats.mean_us == pytest.approx(22.0)
        assert stats.p50_us == pytest.approx(3.0)
        assert stats.p99_us == pytest.approx(4.0 + 0.96 * 96.0)
        header, row = rep.to_text().splitlines()
        assert header.split() == ["scorer", "mean_us", "p50_us", "p99_us", "store_bytes"]
        assert row.split() == ["noop", "22.00", "3.00", "96.16", "-"]

    @pytest.mark.skipif(
        OPENBLAS is None, reason="numpy's OpenBLAS thread controls not found"
    )
    def test_blas_pinned_to_one_thread_and_restored(self):
        get, set_ = OPENBLAS
        original = get()
        try:
            set_(2)  # a count other than 1, so that the restore is visible
            before = get()
            seen = []
            q = np.ones((3, 4))
            bench_scorers(
                {"probe": lambda r: seen.append(get())}, q, warmup=1, reps=1
            )
            assert seen and set(seen) == {1}
            assert get() == before

            def boom(row):
                raise RuntimeError("scorer failed")

            with pytest.raises(RuntimeError, match="scorer failed"):
                bench_scorers({"boom": boom}, q, warmup=1, reps=1)
            assert get() == before
        finally:
            set_(original)


class TestBenchArguments:
    def test_reps_zero(self):
        with pytest.raises(ValueError, match="reps must be >= 1, got 0"):
            bench_scorers({"noop": lambda r: 0.0}, np.ones((2, 3)), reps=0)

    def test_one_d_queries(self):
        with pytest.raises(ValueError, match="queries must be 2-D"):
            bench_scorers({"noop": lambda r: 0.0}, np.ones(3))

    def test_without_openblas_controls(self, monkeypatch):
        # BLAS threading is left as it is, and the scorers are still timed.
        monkeypatch.setattr(metrics, "_openblas_thread_controls", lambda: None)
        rep = bench_scorers({"noop": lambda r: 0.0}, np.ones((2, 3)), warmup=0, reps=1)
        assert list(rep.per_query_micros) == ["noop"]
