"""Record the reference values that perfbench/checks.py compares outputs against.

Usage (from the repository root): python3 perfbench/record_reference.py SEED...

Runs every workload once per seed, refuses to record outputs that break an
invariant, and stores per-cell study metrics and recomputed fit objectives
in perfbench/reference.json, keyed by workload and seed.  Re-record only
when a workload's inputs change, never to make a failing check pass.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import checks
from run import Checker, Runner, run_invocation
from workloads import WORKLOADS


def dumps(table) -> str:
    """JSON with one line per study cell, so that diffs of the file stay readable."""

    def block(items, indent, render):
        pad = " " * indent
        body = ",\n".join(f"{pad} {json.dumps(k)}: {render(v)}" for k, v in items)
        return "{\n" + body + "\n" + pad + "}"

    def step(value):
        if not isinstance(value, list):
            return json.dumps(value)
        return "[\n" + ",\n".join("     " + json.dumps(c, sort_keys=True) for c in value) + "\n   ]"

    def seeds(by_seed):
        return block(sorted(by_seed.items(), key=lambda kv: int(kv[0])), 1,
                     lambda steps: block(sorted(steps.items()), 2, step))

    return block(sorted(table.items()), 0, seeds) + "\n"


def main(seeds) -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    table = json.loads(checks.REFERENCE_PATH.read_text(encoding="utf-8"))
    for seed in seeds:
        for name, prepare in WORKLOADS.items():
            work = root / ".bench_work" / "record" / name
            shutil.rmtree(work, ignore_errors=True)
            (work / "logs").mkdir(parents=True)
            steps = prepare(seed, work.relative_to(root))
            runner = Runner(root, work / "logs", time.monotonic() + 600)
            checker = Checker(None)
            wall, _, results, _ = run_invocation(runner, steps)
            checker.check(results)
            if checker.problems:
                print("\n".join(checker.problems[:20]), file=sys.stderr)
                return 1
            entry = {}
            for step in steps:
                if step.kind == "study":
                    entry[step.label] = checks.read_study(step)["cells"]
                else:
                    entry[step.label] = checker.objectives[step.label]
            table.setdefault(name, {})[str(seed)] = entry
            print(f"{name} seed {seed}: {wall:.2f} s", flush=True)
    checks.REFERENCE_PATH.write_text(dumps(table), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
