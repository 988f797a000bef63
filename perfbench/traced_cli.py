"""Run one ``probdense`` CLI command with the library's layers wrapped in spans.

Usage: python3 perfbench/traced_cli.py STATS_JSON -- CLI_ARGS...

Nothing inside the library changes: after importing ``probdense.cli`` this
script replaces each traced function in every module namespace where a
caller looks it up (``rkhs`` and ``denseness`` import ``pairwise`` and
``fit_kernel_ridge`` by name, ``cli`` imports the solvers by name).  A span
records calls, inclusive time (outermost entries only) and self time
(inclusive minus the time of wrapped callees), plus a few work counts.  The
statistics are written as JSON to STATS_JSON when the command returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# span name -> "module:attribute" places where callers look the function up
SPANS = {
    "kernels.pairwise": ("probdense.kernels:pairwise", "probdense.rkhs:pairwise"),
    "kernels.gram_matrix": (
        "probdense.kernels:gram_matrix",
        "probdense.erm:gram_matrix",
        "probdense.rkhs:gram_matrix",
        "probdense.cli:gram_matrix",
    ),
    "rkhs.eval": ("probdense.rkhs:RkhsFunction.__call__",),
    "erm.fit_kernel_ridge": (
        "probdense.erm:fit_kernel_ridge",
        "probdense.denseness:fit_kernel_ridge",
        "probdense.cli:fit_kernel_ridge",
    ),
    "erm.fit_erm": ("probdense.erm:fit_erm", "probdense.cli:fit_erm"),
    "erm.fit_pairwise": ("probdense.erm:fit_pairwise", "probdense.cli:fit_pairwise"),
    "denseness.run_study": ("probdense.denseness:run_study", "probdense.cli:run_study"),
    "denseness.sup_gap": ("probdense.denseness:sup_gap_estimate",),
    # target labels, wherever a target is evaluated
    "denseness.sample": (
        "probdense.denseness:IntervalIndicator.__call__",
        "probdense.denseness:PiecewiseConstant.__call__",
        "probdense.denseness:SignStep.__call__",
        "probdense.denseness:SineWave.__call__",
    ),
    "metrics.ky_fan": ("probdense.metrics:ky_fan_metric", "probdense.denseness:ky_fan_metric"),
    "metrics.psi_metric": ("probdense.metrics:psi_metric", "probdense.denseness:psi_metric"),
    "config.parse": (
        "probdense.config:parse_study_config",
        "probdense.config:parse_fit_config",
        "probdense.cli:parse_study_config",
        "probdense.cli:parse_fit_config",
    ),
    "reporting.emit": ("probdense.reporting:emit_report", "probdense.cli:emit_report"),
}
# sampler factories: the closures they return are timed as denseness.sample
SAMPLER_FACTORIES = (
    "probdense.denseness:uniform_sampler",
    "probdense.denseness:truncated_gaussian_sampler",
)
# counted, not timed: its time stays in the caller's self time
COUNTERS = {"erm.cho_factor": ("probdense.erm:cho_factor",)}


class Tracer:
    """Per-span calls, inclusive and self times, kept in memory until the command returns."""

    def __init__(self):
        self.stats = {}
        self._stack = []  # one [callee_seconds] cell per open span
        self._depth = {}
        self.top_level_s = 0.0

    def span(self, name, fn, count=None):
        """fn wrapped in a span; count(stat, args, result) adds work counts."""
        stat = self.stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell = [0.0]
            self._stack.append(cell)
            self._depth[name] = self._depth.get(name, 0) + 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self._depth[name] -= 1
                stat["calls"] += 1
                stat["self_s"] += dt - cell[0]
                if self._depth[name] == 0:
                    stat["s"] += dt
                if self._stack:
                    self._stack[-1][0] += dt
                else:
                    self.top_level_s += dt
            if count is not None:
                count(stat, args, result)
            return result

        wrapper.__traced__ = True
        return wrapper

    def counter(self, name, fn):
        """fn wrapped to count calls and raised exceptions, with no span."""
        stat = self.stats.setdefault(name, {"calls": 0, "failures": 0})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat["calls"] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                stat["failures"] += 1
                raise

        return wrapper


def _count_pairwise(stat, args, result):
    stat["entries"] = stat.get("entries", 0) + int(result.size)
    stat["max_out_mb"] = max(stat.get("max_out_mb", 0.0), result.nbytes / 2**20)


def _count_points(stat, args, result):
    import numpy as np  # already loaded by probdense

    shape = np.shape(args[1])
    stat["points"] = stat.get("points", 0) + (1 if len(shape) == 1 else shape[0])


def _count_iters(stat, args, result):
    if isinstance(result, tuple):
        stat["iters"] = stat.get("iters", 0) + int(result[1].n_iters)


COUNTS = {
    "kernels.pairwise": _count_pairwise,
    "rkhs.eval": _count_points,
    "erm.fit_erm": _count_iters,
    "erm.fit_pairwise": _count_iters,
}


def _resolve(place):
    """(owner, attribute) for 'module:attr' or 'module:Class.attr'; None if absent."""
    module_name, _, dotted = place.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = dotted.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


def install(tracer: Tracer) -> list:
    """Wrap every traced place; returns the places that do not exist."""
    missing = []
    wrapped = {}  # id(original) -> wrapper, so one function gets one wrapper

    def patch(place, make):
        found = _resolve(place)
        if found is None:
            missing.append(place)
            return
        owner, attr = found
        original = getattr(owner, attr)
        if getattr(original, "__traced__", False):
            return
        if id(original) not in wrapped:
            wrapped[id(original)] = make(original)
        setattr(owner, attr, wrapped[id(original)])

    def traced_factory(factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return tracer.span("denseness.sample", factory(*args, **kwargs))

        wrapper.__traced__ = True
        return wrapper

    for name, places in SPANS.items():
        for place in places:
            patch(place, lambda fn, name=name: tracer.span(name, fn, COUNTS.get(name)))
    for place in SAMPLER_FACTORIES:
        patch(place, traced_factory)
    for name, places in COUNTERS.items():
        for place in places:
            patch(place, lambda fn, name=name: tracer.counter(name, fn))
    return missing


def main(argv) -> int:
    stats_path = argv[0]
    if argv[1] != "--":
        raise SystemExit("usage: traced_cli.py STATS_JSON -- CLI_ARGS...")
    t0 = time.perf_counter()
    import probdense.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    missing = install(tracer)
    try:
        rc = cli.main(argv[2:])
    finally:
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "import_s": import_s,
                    "top_level_s": tracer.top_level_s,
                    "spans": tracer.stats,
                    "missing": missing,
                },
                fh,
            )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
