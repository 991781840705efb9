"""Timing wrappers installed around trendlab's public functions.

The tracer rebinds each traced function at every place it is looked up
(the defining module, every trendlab module that imported the name, the
package namespace, and ``KernelBank.estimate`` on the class) and puts the
originals back on ``uninstall``. Coarse calls become spans kept in memory;
hot inner calls, which run hundreds of thousands of times per long
series, are only aggregated per name. Every traced call adds its duration
to its caller's child time, so self time = busy time - traced child time.
"""
from __future__ import annotations

import inspect
import os
import sys
import time
from contextlib import contextmanager

# (module, public name) in pipeline order; names are "<module>.<name>".
TRACED = (
    ("series_io", "load_prices"),
    ("kernels", "build_kernel_bank"),
    ("kernels", "KernelBank.estimate"),
    ("decompose", "sliding_trend"),
    ("decompose", "oscillation_score"),
    ("decompose", "emit_decomposition"),
    ("moments", "moment_tracks"),
    ("moments", "emit_moments"),
    ("forecast", "forecast_point"),
    ("forecast", "forecast_moments"),
    ("forecast", "forecast_trend"),
    ("backtest", "walk_forward"),
    ("backtest", "emit_report"),
    ("gbm", "oscillation_probability"),
    ("gbm", "simulate_paths"),
    ("gbm", "residual_integral"),
    ("cli", "main"),
)

# Aggregated only: per-origin calls on the forecast path, per-row GBM integrals.
HOT = frozenset({
    "kernels.KernelBank.estimate",
    "forecast.forecast_point",
    "forecast.forecast_moments",
    "forecast.forecast_trend",
    "gbm.residual_integral",
})

# Sizes computed from each call's arguments and result (labelled computed).
COUNTERS = (
    "series_io.rows",
    "series_io.bytes_read",
    "decompose.oscillation_score.windows",
    "moments.window_values",
    "backtest.origins",
    "backtest.skipped",
    "gbm.normals",
    "cli.files_written",
    "cli.bytes_written",
)


def _count_load(a, result, counts):
    counts["series_io.rows"] += len(result)
    counts["series_io.bytes_read"] += os.path.getsize(a["path"])


def _count_oscillation(a, result, counts):
    n, low = len(a["fluctuation"]), a["min_window"]
    counts["decompose.oscillation_score.windows"] += (n - low + 1) * (n - low + 2) // 2


def _count_moments(a, result, counts):
    n, m = len(a["fluctuation"]), a["M"]
    counts["moments.window_values"] += (n - m) * (m + 1)


def _count_walk_forward(a, result, counts):
    counts["backtest.origins"] += sum(r.origins for r in result.results)
    counts["backtest.skipped"] += sum(r.skipped for r in result.results)


def _count_normals(a, result, counts):
    counts["gbm.normals"] += a["params"].paths * a["params"].steps


_HOOKS = {
    "series_io.load_prices": _count_load,
    "decompose.oscillation_score": _count_oscillation,
    "moments.moment_tracks": _count_moments,
    "backtest.walk_forward": _count_walk_forward,
    "gbm.oscillation_probability": _count_normals,
    "gbm.simulate_paths": _count_normals,
}


class Tracer:
    """Collects per-name call statistics, coarse spans and computed counts."""

    def __init__(self) -> None:
        # name -> [calls, busy seconds, self seconds, errors]
        self.stats = {f"{mod}.{name}": [0, 0.0, 0.0, 0] for mod, name in TRACED}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.spans: list[dict] = []
        self._stack: list[list] = []  # frames: [child seconds, span id or None]
        self._next_id = 0
        self._op = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------
    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "trendlab" or k.startswith("trendlab."))]
        for mod_name, name in TRACED:
            full = f"{mod_name}.{name}"
            module = sys.modules[f"trendlab.{mod_name}"]
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._rebind(cls, meth, self._wrap(full, original))
                continue
            original = getattr(module, name)
            wrapper = self._wrap(full, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, wrapper)

    def _rebind(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- wrappers ------------------------------------------------------
    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        if name in HOT:
            def hot(*args, **kwargs):
                frame = [0.0, None]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    stats[3] += 1
                    raise
                finally:
                    dur = clock() - start
                    stack.pop()
                    stats[0] += 1
                    stats[1] += dur
                    stats[2] += dur - frame[0]
                    if stack:
                        stack[-1][0] += dur
            return hot

        hook = _HOOKS.get(name)
        signature = inspect.signature(fn)

        def coarse(*args, **kwargs):
            span_id = self._new_id()
            parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                self.spans.append({"id": span_id, "parent": parent, "op": self._op,
                                   "name": name, "start": start, "end": end})
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result, self.counts)
            return result
        return coarse

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextmanager
    def operation(self, name: str):
        """Root span of one benchmark operation; its calls share its op id."""
        self._op += 1
        span_id = self._new_id()
        frame = [0.0, span_id]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({"id": span_id, "parent": None, "op": self._op,
                               "name": name, "start": start, "end": end})

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def metrics(self, rounds: int) -> dict[str, dict]:
        """Per-round means of every statistic and counter, with units."""
        out: dict[str, dict] = {}
        for name, (calls, busy, self_s, errors) in self.stats.items():
            out[f"{name}.calls"] = {"value": calls / rounds, "unit": "count"}
            out[f"{name}.s"] = {"value": busy / rounds, "unit": "s"}
            if name == "kernels.KernelBank.estimate":
                continue
            out[f"{name}.self_s"] = {"value": self_s / rounds, "unit": "s"}
            out[f"{name}.errors"] = {"value": errors / rounds, "unit": "count"}
        for name, value in self.counts.items():
            unit = "bytes" if name.endswith("bytes_read") or name.endswith("bytes_written") else "count"
            out[name] = {"value": value / rounds, "unit": unit}
        return out
