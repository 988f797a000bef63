"""Output checks: recorded reference values where the seed has them, invariants always.

An operation is one study cell or one fit.  Each check returns a dict from
operation label to the list of its problems; an operation with problems
counts as failed.  Study metrics must match the reference within RTOL (the
CSV bytes themselves differ with the BLAS thread count, by up to ~3e-14
relative).  A fit passes the reference when its objective, recomputed here
from the written centres and coefficients with the public loss and
``gram_matrix``, is at most the reference plus RTOL: a better solver passes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-9
METRICS = ("d_psi", "ky_fan", "sup_gap", "l1_gap", "risk_gap")
# A continuous fit misses a jump of height J by at least (J - its own rise
# across the two straddling grid points) / 2 somewhere on the sup grid.
SUP_GAP_FLOOR = 0.45
# Observed suboptimality of the budgeted ranking solver is 0.3-1.7 %.
RANKING_SLACK = 1.05
PINBALL_COVERAGE = (0.85, 0.95)

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference(workload: str, seed: int):
    """Recorded values for (workload, seed), or None when none were recorded."""
    table = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + 1e-300


# ---------------------------------------------------------------- studies


def read_study(step):
    """Parse the study CSV and manifest into {"cells": [...], "partial": bool}."""
    with open(step.out, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    cells = [
        {"n": int(r["n"]), "replicate": int(r["replicate"]), **{m: float(r[m]) for m in METRICS}}
        for r in rows
    ]
    manifest = Path(str(step.out) + ".manifest.txt").read_text(encoding="utf-8")
    partial = any(line.replace(" ", "") == "partial=true" for line in manifest.splitlines())
    return {"cells": cells, "partial": partial}


def jump_heights(target) -> list:
    """Heights of the target's jumps strictly inside its domain."""
    low, high = target.domain
    delta = 1e-9 * (high - low)
    heights = []
    for j in target.discontinuities:
        if low < j - delta and j + delta < high:
            side = target(np.array([[j - delta], [j + delta]]))
            heights.append(abs(float(side[1] - side[0])))
    return heights


def check_study(result, cfg, reference) -> dict:
    """Problems per cell: errors, reference mismatches, broken invariants."""
    from probdense.denseness import ConvergenceReport, StudyCell, risk_convergence_check

    expected = [(n, r) for n in cfg.sample_sizes for r in range(cfg.replicates)]
    labels = [f"n={n} rep={r}" for n, r in expected]
    problems = {label: [] for label in labels}
    cells = result["cells"]
    if [(c["n"], c["replicate"]) for c in cells] != expected:
        for label in labels:
            problems[label].append("CSV rows do not match the configured cells")
        return problems
    if result["partial"]:
        for label in labels:
            problems[label].append("manifest says partial = true")
    for label, cell in zip(labels, cells):
        if not all(math.isfinite(cell[m]) for m in METRICS):
            problems[label].append("error cell (non-finite metrics)")
    if reference is not None:
        if len(reference) != len(cells):
            for label in labels:
                problems[label].append(f"reference has {len(reference)} cells")
        for label, cell, ref in zip(labels, cells, reference):
            for m in METRICS:
                if not _close(cell[m], ref[m]):
                    problems[label].append(f"{m} {cell[m]!r} != reference {ref[m]!r}")
    # invariants of the paper's claim, for any seed
    finite = [c for c in cells if all(math.isfinite(c[m]) for m in METRICS)]
    if len(finite) == len(cells):
        report = ConvergenceReport(
            cfg,
            tuple(StudyCell(**{k: c[k] for k in ("n", "replicate", *METRICS)}) for c in cells),
        )
        whole = []
        check = risk_convergence_check(report)
        if not check.passed:
            whole.append(f"risk_convergence_check failed (worst margin {check.worst_margin!r})")
        sizes = cfg.sample_sizes

        def mean_d_psi(n):
            return sum(c["d_psi"] for c in cells if c["n"] == n) / cfg.replicates

        if len(sizes) > 1 and not mean_d_psi(sizes[-1]) < mean_d_psi(sizes[0]):
            whole.append("d_psi at the largest n is not below d_psi at the smallest n")
        for label, cell in zip(labels, cells):
            problems[label].extend(whole)
        heights = jump_heights(cfg.target)
        if heights:
            floor = SUP_GAP_FLOOR * max(heights)
            for label, cell in zip(labels, cells):
                if cell["sup_gap"] < floor:
                    problems[label].append(f"sup_gap {cell['sup_gap']!r} below {floor!r}")
    return problems


# ---------------------------------------------------------------- fits


def read_fit(step):
    """Recompute the objective of the written fit; returns the quantities checked."""
    from probdense.erm import PinballLoss, RankingSquaredLoss
    from probdense.kernels import GaussianRBF, gram_matrix

    from workloads import FIT_GAMMA, FIT_LAMBDA, PINBALL_TAU

    with open(step.out, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    centres = np.array([[float(r[k]) for k in r if k != "alpha"] for r in rows])
    alpha = np.array([float(r["alpha"]) for r in rows])
    x, y = step.meta["x"], step.meta["y"]
    out = {"same_centres": centres.shape == (x.size, 1) and bool(np.all(centres[:, 0] == x))}
    K = gram_matrix(GaussianRBF(gamma=FIT_GAMMA), centres)
    lam = FIT_LAMBDA
    n = y.size

    if step.label == "ranking":
        loss = RankingSquaredLoss()

        def objective(a):
            f = K @ a
            pairs = loss.pair_values(y[:, None] - y[None, :], f[:, None] - f[None, :])
            return float(pairs.mean() + lam * (a @ (K @ a)))

        # exact minimiser: ((2/n) P K + lam I) a = (2/n) P y, P the centring matrix
        P = np.eye(n) - 1.0 / n
        out["optimum"] = objective(np.linalg.solve((2.0 / n) * P @ K + lam * np.eye(n), (2.0 / n) * P @ y))
    else:
        loss = PinballLoss(PINBALL_TAU)

        def objective(a):
            return float(np.mean(loss.values(y, K @ a)) + lam * (a @ (K @ a)))

        out["coverage"] = float(np.mean(y <= K @ alpha))
    out["objective"] = objective(alpha) if np.all(np.isfinite(alpha)) else math.inf
    out["objective_at_zero"] = objective(np.zeros(n))
    return out


def check_fit(result, loss: str, reference) -> dict:
    """Problems of one fit, keyed by its loss label; reference is an objective or None."""
    problems = []
    obj = result["objective"]
    if not result["same_centres"]:
        problems.append("centres differ from the training inputs")
    if not math.isfinite(obj):
        problems.append("objective is not finite")
    elif obj > result["objective_at_zero"]:
        problems.append(f"objective {obj!r} above the zero function's {result['objective_at_zero']!r}")
    if reference is not None and not obj <= reference * (1.0 + RTOL):
        problems.append(f"objective {obj!r} above reference {reference!r}")
    if loss == "ranking":
        opt = result["optimum"]
        if obj < opt * (1.0 - RTOL) or obj > opt * RANKING_SLACK:
            problems.append(f"objective {obj!r} outside [1, {RANKING_SLACK}] x optimum {opt!r}")
    else:
        low, high = PINBALL_COVERAGE
        if not low <= result["coverage"] <= high:
            problems.append(f"coverage {result['coverage']!r} of the tau = 0.9 fit outside [{low}, {high}]")
    return {loss: problems}


# ---------------------------------------------------------------- gate self-test


def self_test(kind, result, check, reference, jumps=False) -> list:
    """Feed the gate perturbed copies of a passing result; returns what it let through.

    check(result, reference) -> problems dict.  Reference perturbations are
    fed with the reference, invariant perturbations without it, so both
    halves of the gate are exercised; a better fit objective must pass.
    """
    escaped = []

    def expect(label, res, ref, fail):
        caught = any(check(res, ref).values())
        if caught != fail:
            escaped.append(f"{label}: gate {'passed' if not caught else 'failed'} it")

    if kind == "study":
        cells = result["cells"]
        largest = max(c["n"] for c in cells)

        def changed(pick, **changes):
            return {**result, "cells": [{**c, **changes} if pick(c) else c for c in cells]}

        if reference is not None:
            bumped = changed(lambda c: c is cells[0], d_psi=cells[0]["d_psi"] * (1 + 1e-6))
            expect("d_psi x (1 + 1e-6)", bumped, reference, True)
        expect("partial manifest", {**result, "partial": True}, None, True)
        expect("risk_gap above l1_gap",
               changed(lambda c: c is cells[0], risk_gap=cells[0]["l1_gap"] + 1e-3), None, True)
        expect("d_psi not decaying", changed(lambda c: c["n"] == largest, d_psi=1.0), None, True)
        if jumps:
            expect("sup_gap 0", changed(lambda c: c is cells[-1], sup_gap=0.0), None, True)
    else:
        if reference is not None:
            expect("objective x (1 + 1e-6)", {**result, "objective": reference * (1 + 1e-6)}, reference, True)
            better = 0.5 * (reference + result.get("optimum", 0.998 * reference))
            expect("better objective", {**result, "objective": better}, reference, False)
        above_zero = {**result, "objective": result["objective_at_zero"] * 1.01}
        expect("objective above zero function", above_zero, None, True)
        expect("moved centres", {**result, "same_centres": False}, None, True)
    return escaped
