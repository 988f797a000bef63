"""probdense benchmark: one workload, one run, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: each workload invocation runs its ``probdense``
CLI steps one after another, each in a fresh child process, and the next
invocation starts when the previous one has finished, as long as it is
expected to end inside the S-second window (at least one always runs).  BLAS
threads are left at their default.

--trace 0 reports the end-to-end metrics: wall_s (median invocation wall
time), setup_s (median of fresh-process import + config parse) and
peak_rss_mb (median over invocations of the largest child ru_maxrss).
--trace 1 runs traced, untraced and traced invocations and reports the
per-layer metrics of perfbench/traced_cli.py.  Every output is checked
(perfbench/checks.py); the last stdout line is the JSON result and the exit
code is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
RUN_BUDGET_S = 165.0  # stay inside the 180 s a run may take

# (span, field) pairs reported as "<span>.<field>"; see perfbench/README.md
PER_LAYER = (
    ("kernels.pairwise", "self_s"),
    ("kernels.pairwise", "calls"),
    ("kernels.pairwise", "entries"),
    ("kernels.pairwise", "max_out_mb"),
    ("kernels.gram_matrix", "s"),
    ("rkhs.eval", "s"),
    ("rkhs.eval", "self_s"),
    ("rkhs.eval", "points"),
    ("erm.fit_kernel_ridge", "self_s"),
    ("erm.cho_factor", "calls"),
    ("erm.cho_factor", "failures"),
    ("erm.fit_pairwise", "s"),
    ("erm.fit_pairwise", "iters"),
    ("erm.fit_erm", "s"),
    ("erm.fit_erm", "iters"),
    ("denseness.sup_gap", "s"),
    ("denseness.sup_gap", "self_s"),
    ("denseness.sample", "s"),
    ("denseness.run_study", "self_s"),
    ("metrics.ky_fan", "s"),
    ("metrics.psi_metric", "s"),
    ("config.parse", "s"),
    ("reporting.emit", "s"),
)
UNITS = {"s": "s", "self_s": "s", "max_out_mb": "MB"}  # every other field is a count
COUNT_FIELDS = ("calls", "entries", "points", "iters", "failures", "max_out_mb")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def tail_percentile(values):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    k = len(values)
    if k < 11:
        return None
    p = int(100 * (1 - 10 / k))
    return p, quantiles(values, n=100, method="inclusive")[p - 1]


# ---------------------------------------------------------------- processes


class Runner:
    """Starts child processes in the checkout and enforces the run's deadline."""

    def __init__(self, root: Path, logs: Path, deadline: float):
        self.root = root
        self.logs = logs
        self.deadline = deadline
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH="src" + (os.pathsep + path if path else ""))
        self._count = 0

    def run(self, argv):
        """Run argv to completion: (wall seconds, ru_maxrss in MiB, exit code, log path)."""
        self._count += 1
        log_path = self.logs / f"{self._count:04d}.log"
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT
            )
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                # wait4, not Popen.wait, because it returns the child's rusage
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, log_path


def python_argv(*args):
    return [sys.executable, *map(str, args)]


def run_invocation(runner, steps, stats_dir=None):
    """Run every step once, traced when stats_dir is given.

    Returns (wall, peak rss MiB, [(step, exit code)], [(step wall, trace stats)]).
    """
    t0 = time.perf_counter()
    peak = 0.0
    results, stats = [], []
    for step in steps:
        if stats_dir is None:
            argv = python_argv("-m", "probdense.cli", *step.argv())
        else:
            stats_path = stats_dir / f"{step.label}.stats.json"
            argv = python_argv(HERE / "traced_cli.py", stats_path, "--", *step.argv())
        wall, rss, rc, log = runner.run(argv)
        peak = max(peak, rss)
        results.append((step, rc))
        if rc != 0:
            print(f"  {step.label}: exit code {rc}, log {log}")
        elif stats_dir is not None:
            stats.append((wall, json.loads(stats_path.read_text(encoding="utf-8"))))
    return time.perf_counter() - t0, peak, results, stats


def snapshot(steps):
    """Output and manifest bytes of every step (None where missing)."""

    def read(path):
        return path.read_bytes() if path.exists() else None

    return [(read(Path(s.out)), read(Path(f"{s.out}.manifest.txt"))) for s in steps]


# ---------------------------------------------------------------- checking


class Checker:
    """Checks each invocation's outputs and counts operations and failures."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.objectives = {}
        self.self_tested = set()

    def _check_step(self, step, rc):
        """(problems per operation, self-test of the gate or None) for one step."""
        ref = None if self.reference is None else self.reference[step.label]
        if step.kind == "study":
            from probdense.config import parse_study_config

            cfg = parse_study_config(step.config)
            ops = [f"cell {i}" for i in range(len(cfg.sample_sizes) * cfg.replicates)]
            read, jumps = checks.read_study, bool(checks.jump_heights(cfg.target))

            def gate(res, r):
                return checks.check_study(res, cfg, r)

        else:
            ops, read, jumps = [step.label], checks.read_fit, False

            def gate(res, r):
                return checks.check_fit(res, step.label, r)

        if rc != 0:
            return {op: [f"exit code {rc}"] for op in ops}, None
        try:
            result = read(step)
        except (OSError, ValueError, KeyError) as exc:
            return {op: [f"unreadable output: {exc!r}"] for op in ops}, None
        if step.kind == "fit":
            self.objectives[step.label] = result["objective"]
        return gate(result, ref), lambda: checks.self_test(step.kind, result, gate, ref, jumps)

    def check(self, results):
        """results: [(step, exit code)] of one invocation."""
        for step, rc in results:
            problems, self_test = self._check_step(step, rc)
            self.attempted += len(problems)
            bad = {op: p for op, p in problems.items() if p}
            self.failed += len(bad)
            self.problems += [f"{step.label} {op}: {'; '.join(p)}" for op, p in bad.items()]
            if self_test is not None and not bad and step.label not in self.self_tested:
                self.self_tested.add(step.label)
                self.problems += [f"gate self-test on {step.label}: {e}" for e in self_test()]


# ---------------------------------------------------------------- machine


def machine_block() -> dict:
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


# ---------------------------------------------------------------- tracing


def aggregate(step_stats):
    """Sum one traced invocation's per-step statistics and check its time accounting.

    Returns (spans, totals, missing places, problems).  Per step, the self
    times must sum to the time of the outermost spans, and the process wall
    time minus the import and those spans (the unwrapped residual) must not
    be negative.
    """
    spans, problems, missing = {}, [], set()
    total = {"wall": 0.0, "import_s": 0.0, "residual_s": 0.0, "self_sum": 0.0}
    for wall, st in step_stats:
        missing.update(st["missing"])
        self_times = [s["self_s"] for s in st["spans"].values() if "self_s" in s]
        self_sum = sum(self_times)
        if abs(self_sum - st["top_level_s"]) > 1e-6 + 1e-9 * st["top_level_s"]:
            problems.append(f"self times sum to {self_sum!r}, outermost spans to {st['top_level_s']!r}")
        if min(self_times, default=0.0) < -1e-6:
            problems.append("negative self time")
        residual = wall - st["import_s"] - st["top_level_s"]
        if residual < 0:
            problems.append(f"spans exceed the process wall time by {-residual!r} s")
        total["wall"] += wall
        total["import_s"] += st["import_s"]
        total["residual_s"] += residual
        total["self_sum"] += self_sum
        for name, s in st["spans"].items():
            acc = spans.setdefault(name, {})
            for key, value in s.items():
                acc[key] = max(acc.get(key, 0), value) if key == "max_out_mb" else acc.get(key, 0) + value
    return spans, total, sorted(missing), problems


def per_layer_table(spans, total):
    lines = [f"  {'span':<24}{'calls':>9}{'s':>11}{'self_s':>11}  counts"]
    for name in sorted(spans):
        s = spans[name]
        extra = " ".join(f"{k}={s[k]:.6g}" for k in COUNT_FIELDS[1:] if k in s)
        times = f"{s['s']:>11.4f}{s['self_s']:>11.4f}" if "s" in s else f"{'-':>11}{'-':>11}"
        lines.append(f"  {name:<24}{s['calls']:>9}{times}  {extra}")
    lines.append(f"  {'cli.import':<24}{'':>9}{total['import_s']:>11.4f}{total['import_s']:>11.4f}")
    lines.append(f"  {'residual (unwrapped)':<24}{'':>9}{'':>11}{total['residual_s']:>11.4f}")
    accounted = total["self_sum"] + total["import_s"] + total["residual_s"]
    lines.append(f"  self times + import + residual = {accounted:.4f} s; traced wall = {total['wall']:.4f} s")
    return lines


# ---------------------------------------------------------------- main


def measure(args, runner, steps, probe, checker) -> dict:
    """--trace 0: set-up samples, then the closed loop of invocations."""
    setup = []
    for _ in range(SETUP_SAMPLES):
        wall, _, rc, log = runner.run(probe)
        if rc != 0:
            checker.problems.append(f"set-up probe exited with {rc}; see {log}")
        setup.append(wall)
    walls, rss = [], []
    measure_start = time.monotonic()
    while True:
        wall, peak, results, _ = run_invocation(runner, steps)
        walls.append(wall)
        rss.append(peak)
        checker.check(results)
        # start another invocation only if it should end inside the window
        end = time.monotonic() + median(walls)
        if end > min(measure_start + args.seconds, runner.deadline - 5):
            break
    for name, values in (("wall_s", walls), ("setup_s", setup)):
        tail = tail_percentile(values)
        tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no percentile has 10 samples beyond it"
        print(f"{name}: median {median(values):.4f} s over {len(values)} samples ({tail_text}); "
              f"samples {', '.join(f'{v:.4f}' for v in values)}")
    return {
        "wall_s": (median(walls), "s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (median(rss), "MB"),
    }


def trace(args, runner, steps, work, checker) -> dict:
    """--trace 1: traced, untraced, traced; per-layer metrics of the traced pair."""

    def traced_invocation(i):
        stats_dir = work / f"trace{i}"
        stats_dir.mkdir()
        wall, _, results, stats = run_invocation(runner, steps, stats_dir)
        checker.check(results)
        return (wall, *aggregate(stats)), snapshot(steps)

    # the untraced invocation sits between the traced ones, so drift in
    # machine speed shifts both sides of trace.overhead_s alike
    (wall_a, spans_a, total_a, missing, problems_a), out_a = traced_invocation(0)
    untraced_wall, _, results, _ = run_invocation(runner, steps)
    checker.check(results)
    out_untraced = snapshot(steps)
    (wall_b, spans_b, total_b, _, problems_b), out_b = traced_invocation(1)

    if not out_a == out_untraced == out_b:
        checker.problems.append("traced and untraced runs wrote different output bytes")
    checker.problems += problems_a + problems_b
    for name in sorted(set(spans_a) | set(spans_b)):
        a, b = spans_a.get(name, {}), spans_b.get(name, {})
        for key in COUNT_FIELDS:
            if a.get(key) != b.get(key):
                checker.problems.append(
                    f"count {name}.{key} differs between traced runs: {a.get(key)} vs {b.get(key)}"
                )
    if missing:
        print("not traced (absent in this version): " + ", ".join(missing))
    print(f"per-layer split (first traced invocation of {args.workload}):")
    print("\n".join(per_layer_table(spans_a, total_a)))

    metrics = {}
    for span, key in PER_LAYER:
        a, b = spans_a.get(span, {}).get(key, 0), spans_b.get(span, {}).get(key, 0)
        unit = UNITS.get(key, "count")
        metrics[f"{span}.{key}"] = ((a + b) / 2 if unit == "s" else a, unit)
    metrics["cli.import_s"] = ((total_a["import_s"] + total_b["import_s"]) / 2, "s")
    metrics["trace.residual_s"] = ((total_a["residual_s"] + total_b["residual_s"]) / 2, "s")
    metrics["trace.overhead_s"] = ((wall_a + wall_b) / 2 - untraced_wall, "s")
    for loss in ("ranking", "pinball"):
        metrics[f"objective.{loss}"] = (checker.objectives.get(loss, 0.0), "1")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "probdense" / "cli.py").is_file():
        fail(f"run from the repository root: {root}/src/probdense/cli.py not found")
    if not 0 <= args.seed < 2**32:
        fail("--seed must be in [0, 2**32)")
    sys.path.insert(0, str(root / "src"))
    # on SIGTERM, unwind so that Runner.run kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    runner = Runner(root, work / "logs", start + RUN_BUDGET_S)
    steps = WORKLOADS[args.workload](args.seed, work.relative_to(root))
    checker = Checker(checks.load_reference(args.workload, args.seed))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}; reference values: "
          f"{'recorded' if checker.reference is not None else 'none, invariants only'}")
    print("machine " + json.dumps(machine_block(), sort_keys=True))

    probe = python_argv(HERE / "setup_probe.py", *(f"{s.kind}:{s.config}" for s in steps))
    runner.run(probe)  # warm-up: byte-compile caches, page in the libraries
    if args.trace == 0:
        metrics = measure(args, runner, steps, probe, checker)
    else:
        metrics = trace(args, runner, steps, work, checker)

    for loss, value in sorted(checker.objectives.items()):
        print(f"objective.{loss}: {value!r} (recomputed from the written fit)")
    failed_ratio = checker.failed / max(1, checker.attempted)
    print(f"failed_ratio: {failed_ratio:.6g} ({checker.failed} of {checker.attempted} operations)")
    for problem in checker.problems[:40]:
        print(f"CHECK FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value!r} {unit}")
    correct = not checker.problems and checker.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
