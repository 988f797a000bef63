"""Benchmark workloads: each turns a seed into CLI steps and their inputs.

A workload invocation is a fixed list of steps; each step is one fresh
``probdense`` CLI process.  Every input the program reads (config files and
datasets) is generated here from the benchmark seed and written under the
work directory, so the program only ever sees generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# configs/study_indicator.ini as shipped, with the seed taken from the
# benchmark.  Kept here rather than read from configs/ so that an edit to
# the shipped example cannot silently change what the benchmark measures.
STUDY_INDICATOR = """\
[study]
target = indicator
lower = 0.0
upper = 0.5
sample_sizes = 64 256 1024 4096
replicates = 3
seed = {seed}

[kernel]
family = gaussian_rbf

[schedule]
gamma_coeff = 1.0
lambda_coeff = 1.0
"""

# Many tiny cells: 6 sizes x 24 replicates = 144 cells, a three-piece target
# (six jumps), the compactly supported Wendland kernel and a non-uniform
# sampler, so the sup grid, sampling and per-call overhead carry weight.
STUDY_SMALL_CELLS = """\
[study]
target = piecewise
pieces = 0.1 0.25 1.0 ; 0.4 0.6 -0.5 ; 0.75 0.9 0.8
sample_sizes = 16 32 64 128 256 512
replicates = 24
seed = {seed}
psi = ratio
sampler = truncated_gaussian

[kernel]
family = wendland_c2
"""

# both fits: Gaussian kernel of bandwidth FIT_GAMMA, penalty FIT_LAMBDA
FIT_GAMMA = 0.2
FIT_LAMBDA = 1e-3
PINBALL_TAU = 0.9

# (label, loss line(s), sample size, max_iters, step_size0)
FIT_JOBS = (
    ("ranking", "loss = ranking_squared", 400, 500, 1.0),
    ("pinball", f"loss = pinball\ntau = {PINBALL_TAU!r}", 1000, 2000, 0.5),
)


@dataclass(frozen=True)
class Step:
    """One CLI process: its argv after ``probdense``, its output and its checks."""

    kind: str  # "study" or "fit"
    label: str
    config: Path
    out: Path
    meta: dict = field(default_factory=dict)

    def argv(self) -> list:
        command = "study" if self.kind == "study" else "fit"
        return [command, "--config", str(self.config), "--out", str(self.out)]


def _study(template: str, label: str):
    def prepare(seed: int, work: Path) -> list:
        config = work / f"{label}.ini"
        config.write_text(template.format(seed=seed), encoding="utf-8")
        return [Step("study", label, config, work / f"{label}.csv")]

    return prepare


def heteroscedastic_data(rng: np.random.Generator, n: int):
    """1-D inputs on [0, 1]; y = sin(2 pi x) + (0.1 + 0.4 x) * N(0, 1)."""
    x = rng.uniform(0.0, 1.0, n)
    y = np.sin(2.0 * np.pi * x) + (0.1 + 0.4 * x) * rng.standard_normal(n)
    return x, y


def _prepare_fits(seed: int, work: Path) -> list:
    steps = []
    streams = np.random.SeedSequence(seed).spawn(len(FIT_JOBS))
    for (label, loss, n, max_iters, step0), stream in zip(FIT_JOBS, streams):
        x, y = heteroscedastic_data(np.random.default_rng(stream), n)
        data = work / f"{label}_data.csv"
        data.write_text(
            "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, y)), encoding="utf-8"
        )
        config = work / f"{label}.ini"
        config.write_text(
            f"[fit]\ndata = {data}\n{loss}\nlambda = {FIT_LAMBDA!r}\n"
            f"max_iters = {max_iters}\nstep_size0 = {step0!r}\n\n"
            f"[kernel]\nfamily = gaussian_rbf\ngamma = {FIT_GAMMA!r}\n",
            encoding="utf-8",
        )
        steps.append(
            Step("fit", label, config, work / f"{label}_fit.csv", {"x": x, "y": y})
        )
    return steps


# name -> prepare(seed, work_dir) -> [Step]; why each workload exists is
# recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "study_indicator": _study(STUDY_INDICATOR, "study_indicator"),
    "study_small_cells": _study(STUDY_SMALL_CELLS, "study_small_cells"),
    "fit_iterative": _prepare_fits,
}
