"""Per-layer busy time and counts for the traced benchmark run.

The program has no spans of its own, so the tracer wraps the public
functions of every kpca_ood module and installs each wrapper at every
module attribute that holds the original function. Callers import by name
(``from .linalg import sym_eig`` in ``detector``), so patching only the
defining module would miss their calls and read zero.

Spans are aggregated as they close instead of kept one by one: a traced
online-corp run makes a few hundred thousand calls. For each span name the
tracer keeps calls, inclusive time (outermost activation only, so recursion
is not counted twice), self time (duration minus what direct child spans
cover), errors raised, and one optional work count.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "kpca_ood"
LAYERS = (
    "synth", "rng", "linalg", "featmap", "detector",
    "kernelspace", "baselines", "fileio", "metrics", "cli",
)

# Work counts kept beside the timings: metric suffix and how to read the
# amount of work from one call's arguments and result.
WORK_COUNTS = {
    "featmap.map_apply": ("rows", lambda args, result: result.shape[0]),
    "linalg.sym_eig": ("n", lambda args, result: result.eigenvalues.shape[0]),
    "fileio.load_features": ("bytes", lambda args, result: os.path.getsize(args[0])),
}

CALLS, INCL, SELF, ERRORS, WORK = range(5)


class Tracer:
    """Wraps kpca_ood's public functions while installed; aggregates spans."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.phase_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.wrapped: set[str] = set()
        self._stack: list[list] = []  # one [child_time] cell per open span
        self._depth: dict[str, int] = defaultdict(int)
        self._phase = ""
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # ---------------------------------------------------------------- spans

    def _record(self, name: str):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0, 0]
        return st

    def _wrap(self, name: str, fn):
        st = self._record(name)
        count = WORK_COUNTS.get(name, (None, None))[1]
        stack, depth, phase_calls = self._stack, self._depth, self.phase_calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st[ERRORS] += 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][0] += dur
                if not depth[name]:
                    st[INCL] += dur
                st[SELF] += dur - cell[0]
                st[CALLS] += 1
                phase_calls[(self._phase, name)] += 1
            if count is not None:
                st[WORK] += int(count(args, result))
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span of the benchmark's own code; also sets the current phase."""
        st = self._record(name)
        cell = [0.0]
        outer_phase, self._phase = self._phase, name
        self._stack.append(cell)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            self._phase = outer_phase
            if self._stack:
                self._stack[-1][0] += dur
            st[INCL] += dur
            st[SELF] += dur - cell[0]
            st[CALLS] += 1

    # ------------------------------------------------------ install / remove

    def install(self, required) -> None:
        """Wrap every public function and patch it wherever it is bound.

        Raises LookupError when a name in ``required`` is not a public
        function of its module any more, so a rename fails the run instead
        of reporting zero.
        """
        modules = {
            layer: importlib.import_module(f"{PACKAGE}.{layer}")
            for layer in LAYERS
        }
        wrappers = {}
        for layer, mod in modules.items():
            for attr, value in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and isinstance(value, types.FunctionType)
                    and value.__module__ == mod.__name__
                ):
                    name = f"{layer}.{attr}"
                    wrappers[value] = self._wrap(name, value)
                    self.wrapped.add(name)
        missing = sorted(set(required) - self.wrapped)
        if missing:
            raise LookupError(f"no public function named {', '.join(missing)}")
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -------------------------------------------------------------- results

    def calls(self, name: str, phase: str | None = None) -> int:
        if phase is None:
            return self.stats.get(name, [0])[CALLS]
        return self.phase_calls.get((phase, name), 0)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every span and module figure as name -> (value, unit)."""
        out = {}
        by_layer = {layer: [0.0, 0] for layer in LAYERS}
        for name in sorted(self.wrapped | set(self.stats)):
            st = self.stats.get(name, [0, 0.0, 0.0, 0, 0])
            out[f"{name}.s"] = (st[INCL], "s")
            out[f"{name}.self_s"] = (st[SELF], "s")
            out[f"{name}.calls"] = (st[CALLS], "count")
            if name in WORK_COUNTS:
                suffix = WORK_COUNTS[name][0]
                out[f"{name}.{suffix}"] = (st[WORK], "B" if suffix == "bytes" else "count")
            layer = name.split(".", 1)[0]
            if layer in by_layer:
                by_layer[layer][0] += st[SELF]
                by_layer[layer][1] += st[ERRORS]
        for layer, (self_s, errors) in by_layer.items():
            out[f"{layer}.self_s"] = (self_s, "s")
            out[f"{layer}.errors"] = (errors, "count")
        return out

    def coverage_problems(self, wall_s: float, tolerance: float) -> list[str]:
        """Self times must be non-negative and together cover the wall time."""
        problems = [
            f"{name} self time {st[SELF]:.3g} s is negative"
            for name, st in self.stats.items()
            if st[SELF] < -1e-9
        ]
        covered = sum(st[SELF] for st in self.stats.values())
        if abs(covered - wall_s) > tolerance * wall_s:
            problems.append(
                f"self times sum to {covered:.6f} s, traced wall time is {wall_s:.6f} s"
            )
        return problems
