"""Smoke test: every script in demos/, and README's Python quick start, runs to completion
against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


def test_demos_are_found():
    # an empty parametrize list would skip test_demo_runs silently
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    proc = _run(str(script))
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs():
    # the first python block after the "Quick start" heading, as written
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    proc = _run("-c", code)
    assert proc.returncode == 0, proc.stderr
