"""Tests for config parsing and the command line front end."""

import dataclasses
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import probdense
from probdense import (
    CappedPsi,
    IntervalIndicator,
    PiecewiseConstant,
    RatioPsi,
    SignStep,
    SineWave,
    StudyConfig,
    TabulatedPsi,
)
from probdense import config
from probdense.cli import main
from probdense.config import (
    FitJob,
    KernelEvalJob,
    PsiJob,
    parse_fit_config,
    parse_kernel_eval_config,
    parse_study_config,
)
from probdense.denseness import _METRICS
from probdense.erm import _LOSSES
from probdense.kernels import _KERNEL_FAMILIES
from probdense.metrics import _PSI_KINDS
from probdense.reporting import read_report_csv
from probdense.util import ConfigError

MINIMAL_STUDY = """\
[study]
target = sine
sample_sizes = 4 8
seed = 7
"""

TINY_STUDY = """\
[study]
target = indicator
lower = 0.0
upper = 0.5
sample_sizes = 4, 8
replicates = 1
seed = 123
eval_sample_size = 16
grid_resolution = 51
"""


def write(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_minimal_study_config_defaults(tmp_path):
    cfg = parse_study_config(write(tmp_path, MINIMAL_STUDY))
    assert isinstance(cfg.target, SineWave)
    assert cfg.sample_sizes == (4, 8)
    assert cfg.seed == 7
    assert cfg.kernel_family == "gaussian_rbf"
    assert cfg.gamma_coeff == 1.0 and cfg.lambda_coeff == 1.0
    assert isinstance(cfg.psi, CappedPsi)
    assert cfg.sampler == "uniform"
    assert cfg.eval_sample_size == 80


def _unfilled_keys(tables, cls, objects):
    """Keys whose field is missing from a class they fill: cls, or the classes of their variant."""
    unfilled = []
    for table in tables:
        for key, spec in table.items():
            owner, _, choice = spec.variant.partition(" = ")
            if owner not in objects:
                owners = [cls]
            else:
                owners = [objects[owner][choice]] if choice else list(objects[owner].values())
            if any(spec.field not in {f.name for f in dataclasses.fields(c)} for c in owners):
                unfilled.append(key)
    return unfilled


def test_every_config_key_fills_a_field():
    # the reader drops a key whose field its class lacks, so a row left behind
    # without its field would be accepted and ignored
    kernels = {"family": _KERNEL_FAMILIES}
    losses = {name: cls for name, (cls, _) in _LOSSES.items()}
    study = {key: classes for key, (classes, _) in config._STUDY_OBJECTS.items()}
    assert _unfilled_keys(config._STUDY.values(), StudyConfig, study) == []
    assert _unfilled_keys([config._PSI], PsiJob, {"psi": _PSI_KINDS}) == []
    assert _unfilled_keys([config._POINT_KERNEL], KernelEvalJob, kernels) == []
    # accepted and ignored while perfbench/workloads.py still writes them
    fit = _unfilled_keys(config._FIT.values(), FitJob, {**kernels, "loss": losses})
    assert fit == ["max_iters", "step_size0"]


def test_study_config_round_trip(tmp_path):
    text = """\
[study]
target = piecewise
pieces = 0.0 0.2 1.0 ; 0.4 0.6 -2.0
domain = 0.0 1.0
sample_sizes = 8 32
replicates = 2
seed = 9
psi = custom
psi_grid_x = 0.0 1.0 5.0
psi_grid_y = 0.0 0.6 0.9
eval_sample_size = 100
grid_resolution = 501
sampler = truncated_gaussian

[kernel]
family = wendland_c2

[schedule]
gamma_coeff = 0.7
lambda_coeff = 2.5
"""
    cfg = StudyConfig(
        target=PiecewiseConstant(((0.0, 0.2, 1.0), (0.4, 0.6, -2.0))),
        sample_sizes=(8, 32),
        seed=9,
        replicates=2,
        kernel_family="wendland_c2",
        gamma_coeff=0.7,
        lambda_coeff=2.5,
        psi=TabulatedPsi((0.0, 1.0, 5.0), (0.0, 0.6, 0.9)),
        eval_sample_size=100,
        grid_resolution=501,
        sampler="truncated_gaussian",
    )
    assert parse_study_config(write(tmp_path, text)) == cfg


fractions = st.floats(0.0, 1.0)
positive = st.floats(1e-3, 1e3)


def _values(values) -> str:
    """A list value as config text; repr writes every float so that it reads back bitwise."""
    return " ".join(map(repr, values))


@st.composite
def study_files(draw):
    """(text, cfg): a study config file, written key by key, and the StudyConfig it describes.

    Covers every target, psi kind, sampler and kernel family; a domain or an
    eval_sample_size that is not drawn is left out, so the file takes the default.
    """
    kind = draw(st.sampled_from(["indicator", "piecewise", "sign", "sine"]))
    lines = ["[study]", f"target = {kind}"]
    low, high = (-1.0, 1.0) if kind == "sign" else (0.0, 1.0)
    kw = {}
    if draw(st.booleans()):
        low = draw(st.floats(-10.0, 10.0))
        high = low + draw(st.floats(0.1, 10.0))
        kw["domain"] = (low, high)
        lines.append(f"domain = {_values((low, high))}")
    at = lambda t: min(high, low + t * (high - low))
    try:
        if kind == "indicator":
            a, b = sorted(at(t) for t in draw(st.lists(fractions, min_size=2, max_size=2)))
            target = IntervalIndicator(a, b, **kw)
            lines += [f"lower = {a!r}", f"upper = {b!r}"]
        elif kind == "piecewise":
            k = draw(st.integers(1, 3))
            ends = sorted(draw(st.lists(fractions, min_size=2 * k, max_size=2 * k, unique=True)))
            levels = draw(st.lists(st.floats(-5.0, 5.0), min_size=k, max_size=k))
            pieces = tuple((at(ends[2 * i]), at(ends[2 * i + 1]), levels[i]) for i in range(k))
            target = PiecewiseConstant(pieces, **kw)
            lines.append(f"pieces = {' ; '.join(map(_values, pieces))}")
        elif kind == "sign":
            offset = at(draw(fractions))
            target = SignStep(offset, **kw)
            lines.append(f"offset = {offset!r}")
        else:
            frequency = draw(positive)
            target = SineWave(frequency, **kw)
            lines.append(f"frequency = {frequency!r}")
    except ValueError:
        assume(False)
    sizes = tuple(sorted(draw(st.lists(st.integers(1, 5000), min_size=1, max_size=5, unique=True))))
    replicates = draw(st.integers(1, 10))
    seed = draw(st.integers(0, 2**63 - 1))
    lines += [f"sample_sizes = {_values(sizes)}", f"replicates = {replicates}", f"seed = {seed}"]
    psi_kind = draw(st.sampled_from(["ratio", "capped", "custom"]))
    lines.append(f"psi = {psi_kind}")
    if psi_kind == "custom":
        steps = draw(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=5))
        grid_x = tuple(np.cumsum([0.0] + steps).tolist())
        grid_y = tuple(draw(st.lists(fractions, min_size=len(grid_x), max_size=len(grid_x))))
        assume(all(b > a for a, b in zip(grid_x, grid_x[1:])))
        psi = TabulatedPsi(grid_x, grid_y)
        lines += [f"psi_grid_x = {_values(grid_x)}", f"psi_grid_y = {_values(grid_y)}"]
    else:
        psi = RatioPsi() if psi_kind == "ratio" else CappedPsi()
    eval_sample_size = draw(st.none() | st.integers(1, 10**6))
    if eval_sample_size is not None:
        lines.append(f"eval_sample_size = {eval_sample_size}")
    grid_resolution = draw(st.integers(2, 20001))
    sampler = draw(st.sampled_from(["uniform", "truncated_gaussian"]))
    family = draw(st.sampled_from(["gaussian_rbf", "wendland_c2"]))
    gamma_coeff, lambda_coeff = draw(positive), draw(positive)
    lines += [
        f"grid_resolution = {grid_resolution}",
        f"sampler = {sampler}",
        "[kernel]",
        f"family = {family}",
        "[schedule]",
        f"gamma_coeff = {gamma_coeff!r}",
        f"lambda_coeff = {lambda_coeff!r}",
    ]
    cfg = StudyConfig(
        target=target,
        sample_sizes=sizes,
        seed=seed,
        replicates=replicates,
        kernel_family=family,
        gamma_coeff=gamma_coeff,
        lambda_coeff=lambda_coeff,
        psi=psi,
        eval_sample_size=eval_sample_size,
        grid_resolution=grid_resolution,
        sampler=sampler,
    )
    return "\n".join(lines) + "\n", cfg


@settings(max_examples=200, deadline=None)
@given(case=study_files())
def test_format_then_parse_is_the_identity(tmp_path_factory, case):
    text, cfg = case
    path = tmp_path_factory.mktemp("roundtrip") / "study.ini"
    path.write_text(text, encoding="utf-8")
    assert parse_study_config(path) == cfg


def test_piecewise_rows_parse(tmp_path):
    text = MINIMAL_STUDY.replace(
        "target = sine", "target = piecewise\npieces = 0.0 0.2 1.0 ; 0.4, 0.6, 2.0"
    )
    cfg = parse_study_config(write(tmp_path, text))
    assert cfg.target.pieces == ((0.0, 0.2, 1.0), (0.4, 0.6, 2.0))


def test_errors_carry_line_numbers(tmp_path):
    p = write(tmp_path, MINIMAL_STUDY + "grid_resolution = one\n")
    with pytest.raises(ConfigError, match=rf"{re.escape(str(p))}:5: grid_resolution"):
        parse_study_config(p)
    # a range error of the dataclass is reported under the key's name, at its line
    fit = FIT_BASE.format(data="d.csv", loss="squared", extra="").replace("0.1", "-1")
    q = write(tmp_path, fit, "q.ini")
    with pytest.raises(ConfigError, match=rf"{re.escape(str(q))}:4: lambda must be positive"):
        parse_fit_config(q)
    zero = write(tmp_path, fit.replace("-1", "0"), "zero.ini")
    with pytest.raises(ConfigError, match=rf"{re.escape(str(zero))}:4: lambda must be positive, got 0.0"):
        parse_fit_config(zero)
    # a bandwidth that the kernel rejects is reported at the gamma_coeff line
    r = write(tmp_path, MINIMAL_STUDY + "[schedule]\ngamma_coeff = 1e-160\n", "r.ini")
    with pytest.raises(ConfigError, match=rf"{re.escape(str(r))}:6: gamma_coeff 1e-160 at n = 8"):
        parse_study_config(r)


def test_unknown_key_suggests_close_match(tmp_path):
    p = write(tmp_path, MINIMAL_STUDY.replace("sample_sizes", "sample_size"))
    with pytest.raises(ConfigError, match=r"did you mean 'sample_sizes'\?"):
        parse_study_config(p)


def test_unknown_section_suggests_close_match(tmp_path):
    p = write(tmp_path, MINIMAL_STUDY + "\n[kernal]\nfamily = gaussian_rbf\n")
    with pytest.raises(ConfigError, match=r"did you mean \[kernel\]\?"):
        parse_study_config(p)


def test_enum_value_suggests_close_match(tmp_path):
    p = write(tmp_path, MINIMAL_STUDY.replace("target = sine", "target = indicater"))
    with pytest.raises(ConfigError, match=r"did you mean 'indicator'\?"):
        parse_study_config(p)


@pytest.mark.parametrize(
    "text,pattern",
    [
        ("[study]\ntarget = sine\ntarget = sine\n", "duplicate key"),
        ("[study]\nx = 1\n[study]\n", r"duplicate section \[study\]"),
        ("x = 1\n", r"outside any \[section\]"),
        ("[study\ntarget = sine\n", "malformed section header"),
        ("[study]\ntarget sine\n", "expected 'key = value'"),
        ("[]\n", "empty section name"),
        ("[study]\nBad-Key = 1\n", "invalid key"),
    ],
)
def test_syntax_errors(tmp_path, text, pattern):
    with pytest.raises(ConfigError, match=pattern):
        parse_study_config(write(tmp_path, text))


def test_missing_required_key_and_section(tmp_path):
    p = write(tmp_path, "[study]\ntarget = sine\nsample_sizes = 4 8\n")
    with pytest.raises(ConfigError, match="missing required key 'seed'"):
        parse_study_config(p)
    q = write(tmp_path, "[fit]\ndata = d.csv\nloss = squared\nlambda = 0.1\n", "fit.ini")
    with pytest.raises(ConfigError, match=r"missing required section \[kernel\]"):
        parse_fit_config(q)


def test_non_increasing_sample_sizes_rejected(tmp_path):
    p = write(tmp_path, MINIMAL_STUDY.replace("4 8", "8 8"))
    with pytest.raises(ConfigError, match=":3: sample_sizes must be strictly increasing"):
        parse_study_config(p)


def test_invalid_psi_table_rejected(tmp_path):
    text = MINIMAL_STUDY + "psi = custom\npsi_grid_x = 0 2 1\npsi_grid_y = 0 0.5 1\n"
    with pytest.raises(ConfigError, match="invalid psi table"):
        parse_study_config(write(tmp_path, text))


FIT_BASE = """\
[fit]
data = {data}
loss = {loss}
lambda = 0.1
{extra}
[kernel]
family = gaussian_rbf
gamma = 1.0
"""


def test_fit_pinball_requires_tau(tmp_path):
    p = write(tmp_path, FIT_BASE.format(data="d.csv", loss="pinball", extra=""))
    with pytest.raises(ConfigError, match="missing required key 'tau'"):
        parse_fit_config(p)
    q = write(tmp_path, FIT_BASE.format(data="d.csv", loss="pinball", extra="tau = 1.5\n"), "q.ini")
    with pytest.raises(ConfigError, match=r"tau must lie strictly in \(0, 1\)"):
        parse_fit_config(q)


def test_fit_solver_loss_mismatch(tmp_path):
    # the loss picks its one solver; no key can pick another
    p = write(tmp_path, FIT_BASE.format(data="d.csv", loss="absolute", extra="solver = ridge\n"))
    with pytest.raises(ConfigError, match=rf"{re.escape(str(p))}:5: unknown key 'solver' in \[fit\]"):
        parse_fit_config(p)


@pytest.mark.parametrize("loss", ["pinball\ntau = 0.9", "absolute"])
def test_fit_subgradient_solver_rejected_for_quantile_losses(tmp_path, loss):
    # the exact dual solve is these losses' one solver
    p = write(tmp_path, FIT_BASE.format(data="d.csv", loss=loss, extra="solver = subgradient\n"))
    line = 4 + loss.count("\n") + 1
    with pytest.raises(ConfigError, match=rf"{re.escape(str(p))}:{line}: unknown key 'solver' in \[fit\]"):
        parse_fit_config(p)


# every loss of the [fit] table with the solver it records in the manifest
FIT_LOSSES = [
    ("squared", "ridge"),
    ("absolute", "dual"),
    ("pinball\ntau = 0.9", "dual"),
    ("ranking_squared", "pairwise"),
]


def test_fit_default_solvers(tmp_path):
    for loss, solver in FIT_LOSSES:
        p = write(tmp_path, FIT_BASE.format(data="d.csv", loss=loss, extra=""), "fit.ini")
        assert parse_fit_config(p).solver == solver


@pytest.mark.parametrize("key", ["solver", "tol"])
@pytest.mark.parametrize("loss,solver", FIT_LOSSES, ids=lambda v: v.split()[0])
def test_fit_solver_and_tol_are_unknown_keys(tmp_path, loss, solver, key):
    # no loss has a second solver, and no solver iterates to a tolerance
    bad = f"{key} = {solver if key == 'solver' else '1e-6'}"
    text = FIT_BASE.format(data="d.csv", loss=loss, extra=bad + "\n")
    p = write(tmp_path, text)
    line = text.splitlines().index(bad) + 1
    with pytest.raises(ConfigError, match=rf"{re.escape(str(p))}:{line}: unknown key '{key}' in \[fit\]"):
        parse_fit_config(p)


@pytest.mark.parametrize("loss,solver", FIT_LOSSES, ids=lambda v: v.split()[0])
def test_fit_iteration_keys_are_accepted_and_ignored(tmp_path, loss, solver):
    plain = parse_fit_config(write(tmp_path, FIT_BASE.format(data="d.csv", loss=loss, extra="")))
    extra = "max_iters = 500\nstep_size0 = 0.5\n"
    job = parse_fit_config(write(tmp_path, FIT_BASE.format(data="d.csv", loss=loss, extra=extra), "it.ini"))
    assert (job.solver, job.lam, job.loss, job.kernel) == (solver, 0.1, plain.loss, plain.kernel)
    assert not {"max_iters", "step_size0"} & {f.name for f in dataclasses.fields(job)}


INDICATOR = "target = indicator\nlower = 0.0\nupper = 0.5"


def study_with(select, bad):
    return f"[study]\n{select}\nsample_sizes = 4 8\nseed = 7\n{bad}\n"


def kernel_with(select, bad):
    return f"[points]\npoints = 0 ; 1\n[kernel]\n{select}\n{bad}\n"


def fit_with(select, bad):
    return FIT_BASE.format(data="d.csv", loss=select, extra=bad + "\n")


@pytest.mark.parametrize(
    "make,select,bad,variant",
    [
        pytest.param(study_with, "target = sine", "lower = 0.1", "target = indicator", id="lower"),
        pytest.param(study_with, "target = sign", "upper = 0.5", "target = indicator", id="upper"),
        pytest.param(study_with, INDICATOR, "pieces = 0 0.1 1", "target = piecewise", id="pieces"),
        pytest.param(study_with, INDICATOR, "offset = 0.2", "target = sign", id="offset"),
        pytest.param(study_with, INDICATOR, "frequency = 3.0", "target = sine", id="frequency"),
        pytest.param(
            study_with, "target = sine\npsi = capped", "psi_grid_x = 0 1", "psi = custom",
            id="psi_grid_x",
        ),
        pytest.param(
            study_with, "target = sine", "psi_grid_y = 0 1", "psi = custom", id="psi_grid_y"
        ),
        pytest.param(
            kernel_with, "family = wendland_c2", "gamma = 1.0", "family = gaussian_rbf", id="gamma"
        ),
        pytest.param(
            kernel_with, "family = gaussian_rbf\ngamma = 1.0", "support_radius = 1.0",
            "family = wendland_c2", id="support_radius",
        ),
        pytest.param(
            kernel_with, "gamma = 1.0", "support_radius = 1.0", "family = wendland_c2",
            id="support_radius-default-family",
        ),
        pytest.param(fit_with, "absolute", "tau = 0.5", "loss = pinball", id="tau"),
    ],
)
def test_key_for_unselected_variant_rejected(tmp_path, make, select, bad, variant):
    # a key given under another variant is an error at its own line, never ignored
    text = make(select, bad)
    p = write(tmp_path, text)
    line = text.splitlines().index(bad) + 1
    key = bad.partition(" =")[0]
    parse = {study_with: parse_study_config, kernel_with: parse_kernel_eval_config}
    message = f"{p}:{line}: {key} only applies to {variant}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse.get(make, parse_fit_config)(p)


def test_fit_seed_key_is_unknown(tmp_path):
    p = write(tmp_path, FIT_BASE.format(data="d.csv", loss="squared", extra="seed = 3\n"))
    with pytest.raises(ConfigError, match=r":5: unknown key 'seed' in \[fit\]"):
        parse_fit_config(p)


def test_kernel_eval_points_must_share_dimension(tmp_path):
    text = "[kernel]\ngamma = 1.0\n[points]\npoints = 0 1 ; 2\n"
    with pytest.raises(ConfigError, match="share one dimension"):
        parse_kernel_eval_config(write(tmp_path, text))


def run_cli(*argv):
    return main(list(argv))


def test_cli_study_writes_deterministic_csv(tmp_path, capsys):
    cfg = write(tmp_path, TINY_STUDY)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("study", "--config", str(cfg), "--out", str(out1)) == 0
    assert run_cli("study", "--config", str(cfg), "--out", str(out2)) == 0
    assert "wrote" in capsys.readouterr().out
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    text = b1.decode()
    assert text.startswith("n,replicate,d_psi,ky_fan,sup_gap,l1_gap,risk_gap\n")
    assert len(text.splitlines()) == 3
    manifest = (tmp_path / "a.csv.manifest.txt").read_text()
    assert "seed = 123\n" in manifest
    assert "seed_source = config\n" in manifest
    assert "partial = false\n" in manifest


def test_cli_does_not_import_scipy_stats(tmp_path):
    # no scipy module at all, with either sampler
    uniform = write(tmp_path, TINY_STUDY, "u.ini")
    gaussian = write(tmp_path, TINY_STUDY + "sampler = truncated_gaussian\n")
    data = tmp_path / "d.csv"
    data.write_text("0.0,1.0\n0.5,2.0\n1.0,0.5\n")
    fits = [
        write(tmp_path, FIT_BASE.format(data=data, loss=loss, extra=""), f"{solver}{i}.ini")
        for i, (loss, solver) in enumerate(FIT_LOSSES)
    ]
    out = ["--out", str(tmp_path / "o.csv")]
    studies = [["study", "--config", str(c), *out] for c in (uniform, gaussian)]
    runs = studies + [["fit", "--config", str(f), *out] for f in fits]
    code = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "import probdense.cli\n"
        "assert scipy_modules() == [], f'imported by probdense.cli: {scipy_modules()}'\n"
        f"for argv in {runs!r}:\n"
        "    assert probdense.cli.main(argv) == 0\n"
        "    assert scipy_modules() == [], f'imported by {argv}: {scipy_modules()}'\n"
    )
    src = str(Path(probdense.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr


def _outputs_under_one_and_two_threads(tmp_path, command, cfg):
    """The --out file and manifest bytes of one CLI run per BLAS thread count, 1 and 2."""
    src = str(Path(probdense.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads / "o.csv"
        out.parent.mkdir()
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from probdense.cli import main; sys.exit(main(sys.argv[1:]))",
             command, "--config", str(cfg), "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        outputs.append((out.read_bytes(), Path(str(out) + ".manifest.txt").read_bytes()))
    return outputs


def test_study_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    # d_psi sums 20 000 weighted terms; a BLAS dot splits a sum that long
    # across its threads, so its rounding depended on their number.  On a
    # host with one CPU OpenBLAS may not split it, and then this test
    # cannot see that defect.
    gaussian = (
        "[study]\ntarget = indicator\nlower = 0.0\nupper = 0.5\nsample_sizes = 16 32\n"
        "replicates = 4\nseed = 11\neval_sample_size = 20000\ngrid_resolution = 101\n"
    )
    # at n = 256 the dense Cholesky of a Wendland fit takes the gemm updates
    # of its 64-column blocks
    wendland = (
        "[study]\ntarget = piecewise\npieces = 0.1 0.25 1.0 ; 0.4 0.6 -0.5\n"
        "sample_sizes = 64 256\nreplicates = 2\nseed = 11\ngrid_resolution = 101\n"
        "sampler = truncated_gaussian\n[kernel]\nfamily = wendland_c2\n"
    )
    for name, text in (("gaussian", gaussian), ("wendland", wendland)):
        (tmp_path / name).mkdir()
        cfg = write(tmp_path / name, text)
        one, two = _outputs_under_one_and_two_threads(tmp_path / name, "study", cfg)
        assert one == two, name


@pytest.mark.parametrize(
    "loss", ["squared", "pinball\ntau = 0.9", "ranking_squared"], ids=["ridge", "dual", "pairwise"]
)
def test_fit_output_does_not_depend_on_the_blas_thread_count(tmp_path, loss):
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, 400)
    data = tmp_path / "d.csv"
    np.savetxt(data, np.column_stack([x, np.sin(6.0 * x) + 0.3 * rng.normal(size=400)]), delimiter=",")
    text = f"[fit]\ndata = {data}\nloss = {loss}\nlambda = 1e-3\n[kernel]\ngamma = 0.2\n"
    one, two = _outputs_under_one_and_two_threads(tmp_path, "fit", write(tmp_path, text))
    assert one == two


def test_cli_seed_override_recorded(tmp_path):
    cfg = write(tmp_path, TINY_STUDY)
    out = tmp_path / "o.csv"
    assert run_cli("study", "--config", str(cfg), "--out", str(out), "--seed", "77") == 0
    manifest = (tmp_path / "o.csv.manifest.txt").read_text()
    assert "seed = 77\n" in manifest
    assert "seed_source = override\n" in manifest


def test_cli_writes_only_under_out(tmp_path):
    cfg = write(tmp_path, TINY_STUDY)
    out = tmp_path / "results" / "r.csv"
    out.parent.mkdir()
    before = set(tmp_path.rglob("*"))
    assert run_cli("study", "--config", str(cfg), "--out", str(out)) == 0
    created = set(tmp_path.rglob("*")) - before
    assert created == {out, out.parent / "r.csv.manifest.txt"}


def test_cli_exit_codes(tmp_path, capsys):
    bad = write(tmp_path, MINIMAL_STUDY.replace("seed = 7", "seed = x"))
    assert run_cli("study", "--config", str(bad), "--out", str(tmp_path / "o.csv")) == 1
    assert "config error" in capsys.readouterr().err

    # outputs near the float limit overflow the ridge solve, and the ranking
    # fit's check of their spread
    data = tmp_path / "d.csv"
    data.write_text("0.0,1e308\n0.001,-1e308\n")
    failures = {
        "squared": "solve gave non-finite coefficients",
        "ranking_squared": "outputs' spread max y - min y overflows",
    }
    for loss, failure in failures.items():
        text = FIT_BASE.format(data=data, loss=loss, extra="").replace("lambda = 0.1", "lambda = 1e-12")
        overflow = write(tmp_path, text, f"{loss}.ini")
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_cli("fit", "--config", str(overflow), "--out", str(tmp_path / "f.csv")) == 2
        err = capsys.readouterr().err
        assert f"numerical failure: {failure} (n=2, lam=1e-12)" in err
        assert "Traceback" not in err
        assert not (tmp_path / "f.csv").exists()

    cfg = write(tmp_path, TINY_STUDY, "t.ini")
    missing = tmp_path / "no" / "such" / "dir" / "o.csv"
    assert run_cli("study", "--config", str(cfg), "--out", str(missing)) == 3
    assert "i/o failure" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "level,sizes,failed",
    [
        # the first cell's l1_gap overflows, the second cell's evaluation
        ("1.7e308", "16 32", {16: "l1_gap is", 32: "fitted values or distances are"}),
        # the smallest fits ring the most: their l1_gap alone overflows
        ("1e306", "4 8 16 32 64", {4: "l1_gap is", 8: "l1_gap is"}),
    ],
    ids=["level-1.7e308", "level-1e306"],
)
def test_cli_study_cells_whose_numbers_overflow_fail_alone(tmp_path, capsys, level, sizes, failed):
    cfg = write(tmp_path, f"[study]\ntarget = piecewise\npieces = 0.1 0.6 {level}\nsample_sizes = {sizes}\nseed = 1\n")
    out = tmp_path / "o.csv"
    assert run_cli("study", "--config", str(cfg), "--out", str(out)) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith(", partial)\n")
    assert "Traceback" not in captured.err and "RuntimeWarning" not in captured.err
    manifest = (tmp_path / "o.csv.manifest.txt").read_text()
    assert "partial = true\n" in manifest
    errors = dict(re.findall(r"^error_cell = n=(\d+) replicate=0: (.*)$", manifest, re.M))
    assert sorted(map(int, errors)) == sorted(failed)
    for n, msg in errors.items():
        assert msg == f"{failed[int(n)]} not finite (n={n}, lam={1.0 / int(n)!r})"
    for cell in read_report_csv(out):
        metrics = [getattr(cell, name) for name in _METRICS]
        assert np.all(np.isnan(metrics)) if cell.n in failed else np.all(np.isfinite(metrics))
        if cell.n not in failed:
            # the fits miss the huge level everywhere, and both metrics are at most 1
            assert cell.d_psi <= 1.0 and cell.ky_fan <= 1.0


def test_cli_rejects_bad_sampler_parameters_as_config_error(tmp_path, capsys):
    # the truncated Gaussian has one shape; its old centre and scale keys are unknown
    text = TINY_STUDY + "sampler = truncated_gaussian\nsampler_center = 5.0\n"
    cfg = write(tmp_path, text)
    out = tmp_path / "o.csv"
    assert run_cli("study", "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    line = len(text.splitlines())
    assert f"config error: {cfg}:{line}: unknown key 'sampler_center' in [study]" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("sampler", ["uniform", "truncated_gaussian"])
def test_cli_rejects_a_domain_whose_width_overflows(tmp_path, capsys, sampler):
    text = TINY_STUDY + f"sampler = {sampler}\ndomain = -1e308 1e308\n"
    cfg = write(tmp_path, text)
    out = tmp_path / "o.csv"
    assert run_cli("study", "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    line = len(text.splitlines())
    assert f"config error: {cfg}:{line}: invalid indicator target: domain must be" in err
    assert "of finite width" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("sampler", ["uniform", "truncated_gaussian"])
def test_cli_rejects_a_sine_domain_whose_phase_overflows(tmp_path, capsys, sampler):
    text = MINIMAL_STUDY + f"sampler = {sampler}\ndomain = 1e308 1.5e308\n"
    cfg = write(tmp_path, text)
    out = tmp_path / "o.csv"
    assert run_cli("study", "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    line = len(text.splitlines())
    assert f"config error: {cfg}:{line}: invalid sine target: domain [1e+308, 1.5e+308]" in err
    assert "overflows the phase" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_negative_seed_is_rejected_without_a_traceback(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL_STUDY.replace("seed = 7", "seed = -3"))
    with pytest.raises(ConfigError, match=rf"{re.escape(str(cfg))}:4: seed must be >= 0, got -3"):
        parse_study_config(cfg)
    out = tmp_path / "o.csv"
    assert run_cli("study", "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"config error: {cfg}:4: seed must be >= 0" in err
    assert "Traceback" not in err
    # the --seed override is a usage error
    good = write(tmp_path, TINY_STUDY, "good.ini")
    for seed in ("-1", "x"):
        assert run_cli("study", "--config", str(good), "--out", str(out), "--seed", seed) == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "argument --seed: must be" in err
        assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini", "good.ini"]


def test_cli_fit_pairwise_one_row_dataset_is_a_config_error(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("0.5,1.0\n")
    cfg = write(tmp_path, FIT_BASE.format(data=data, loss="ranking_squared", extra=""))
    out = tmp_path / "fit.csv"
    assert run_cli("fit", "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"config error: dataset {data}: pairwise fitting needs at least 2 observations" in err
    assert "Traceback" not in err
    assert not out.exists() and not (tmp_path / "fit.csv.manifest.txt").exists()


@pytest.mark.parametrize(
    "command,extra",
    [
        ("validate-psi", ["--seed", "5"]),
        ("fit", ["--seed", "9"]),
        ("kernel-eval", ["--seed", "1"]),
        ("report", ["--seed", "1"]),
        ("study", ["--bogus"]),
    ],
)
def test_cli_usage_errors_exit_1(tmp_path, capsys, command, extra):
    # --seed exists on study only; argparse's own exit code 2 would read as a numerical failure
    out = tmp_path / "o.txt"
    assert run_cli(command, "--config", "a.ini", "--out", str(out), *extra) == 1
    assert "usage:" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli("study", "--config", "a.ini") == 1
    assert "required: --out" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["study", "--help"]])
def test_cli_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_cli_fit_ridge_end_to_end(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("0.0,1.0\n0.5,0.2\n1.0,2.0\n")
    cfg = write(tmp_path, FIT_BASE.format(data=data, loss="squared", extra=""))
    out = tmp_path / "fit.csv"
    assert run_cli("fit", "--config", str(cfg), "--out", str(out)) == 0
    assert "ridge" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "x0,alpha"
    assert len(lines) == 4
    centers = np.array([float(l.split(",")[0]) for l in lines[1:]])
    assert np.array_equal(centers, np.array([0.0, 0.5, 1.0]))
    manifest = (tmp_path / "fit.csv.manifest.txt").read_text()
    assert "solver = ridge\n" in manifest
    assert "seed = none\nseed_source = config\n" in manifest


def test_cli_fit_quantile_reports_the_dual_solve(tmp_path, capsys, monkeypatch):
    # the shipped example; its data path is relative to the repository root
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    out = tmp_path / "quantile.csv"
    assert run_cli("fit", "--config", "configs/fit_quantile.ini", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert re.search(r"\(dual: objective \S+, duality gap \S+ after \d+ steps\)", printed)
    gap = float(re.search(r"duality gap (\S+) after", printed).group(1))
    assert 0.0 <= gap <= 1e-10
    assert "solver = dual\n" in (tmp_path / "quantile.csv.manifest.txt").read_text()
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    data = np.loadtxt("configs/quantile_data.csv", delimiter=",", ndmin=2)
    assert np.array_equal(rows[:, 0], data[:, 0])


REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("config", sorted((REPO / "configs").glob("*.ini")), ids=lambda p: p.name)
def test_every_shipped_config_runs(tmp_path, capsys, caplog, monkeypatch, config):
    # each file's header gives its command line, run from the repository root
    command = re.search(r"^#\s+probdense (\S+) --config configs/", config.read_text(), re.M).group(1)
    monkeypatch.chdir(REPO)
    before = set(os.listdir(REPO))
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING):
        assert run_cli(command, "--config", f"configs/{config.name}", "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    assert not caplog.records
    assert sorted(os.listdir(tmp_path)) == ["out", "out.manifest.txt"]
    assert set(os.listdir(REPO)) == before


def test_cli_fit_pairwise_reports_direct_solve(tmp_path, capsys):
    # the iteration keys stay accepted for every loss; the direct solve ignores them
    data = tmp_path / "d.csv"
    data.write_text("0.0,1.0\n0.5,0.2\n1.0,2.0\n")
    extra = "max_iters = 500\nstep_size0 = 1.0\n"
    cfg = write(tmp_path, FIT_BASE.format(data=data, loss="ranking_squared", extra=extra))
    assert run_cli("fit", "--config", str(cfg), "--out", str(tmp_path / "fit.csv")) == 0
    out = capsys.readouterr().out
    assert "(pairwise: direct solve, objective " in out
    assert "budget" not in out and "grad norm" not in out


def test_cli_kernel_eval(tmp_path, capsys):
    cfg = write(tmp_path, "[kernel]\ngamma = 1.0\n[points]\npoints = 0.0 ; 1.0\n")
    out = tmp_path / "gram.csv"
    assert run_cli("kernel-eval", "--config", str(cfg), "--out", str(out)) == 0
    assert "2x2 Gram" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "i,j,value"
    assert "0,1,0.36787944117144233" in lines
    assert "0,0,1.0" in lines
    manifest = (tmp_path / "gram.csv.manifest.txt").read_text()
    assert "sup_kernel_norm = 1.0\n" in manifest
    assert "min_gram_eigenvalue = " in manifest
    assert "seed = none\n" in manifest


def test_cli_rejects_points_that_overflow_the_support_radius(tmp_path, capsys):
    # the Wendland kernel divides every coordinate by its radius: 1e300 / 1e-150 overflows
    kernel = "[kernel]\nfamily = wendland_c2\nsupport_radius = 1e-150\n"
    cfg = write(tmp_path, kernel + "[points]\npoints = 0.0 ; 1e300\n")
    out = tmp_path / "gram.csv"
    assert run_cli("kernel-eval", "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"config error: {cfg}:5: points divided by support_radius 1e-150 overflow" in err
    assert "Traceback" not in err
    assert not out.exists()

    data = tmp_path / "d.csv"
    data.write_text("0.0,1.0\n1e300,2.0\n")
    text = FIT_BASE.format(data=data, loss="squared", extra="")
    fit = write(tmp_path, text.replace("family = gaussian_rbf\ngamma = 1.0", kernel[9:]), "fit.ini")
    assert run_cli("fit", "--config", str(fit), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"config error: invalid dataset {data}: inputs divided by support_radius" in err
    assert "Traceback" not in err
    assert not out.exists()

    study = MINIMAL_STUDY + "domain = 0.0 1e300\n[kernel]\nfamily = wendland_c2\n"
    study += "[schedule]\ngamma_coeff = 1e-150\n"
    cfg = write(tmp_path, study, "study.ini")
    assert run_cli("study", "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "gamma_coeff 1e-150 at n = 8: domain divided by support_radius" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_kernel_eval_skips_probe_on_duplicates(tmp_path, capsys):
    cfg = write(tmp_path, "[kernel]\ngamma = 1.0\n[points]\npoints = 0.5 ; 0.5\n")
    out = tmp_path / "gram.csv"
    assert run_cli("kernel-eval", "--config", str(cfg), "--out", str(out)) == 0
    capsys.readouterr()
    manifest = (tmp_path / "gram.csv.manifest.txt").read_text()
    assert "min_gram_eigenvalue = skipped (duplicate points)\n" in manifest


def test_cli_validate_psi_pass_and_fail(tmp_path, capsys):
    ok = write(tmp_path, "[psi]\npsi = capped\n", "ok.ini")
    out = tmp_path / "ok.txt"
    assert run_cli("validate-psi", "--config", str(ok), "--out", str(out)) == 0
    assert out.read_text().startswith("psi axioms: pass")
    assert "pass" in capsys.readouterr().out

    bad = write(
        tmp_path,
        "[psi]\npsi = custom\npsi_grid_x = 0 1 2\npsi_grid_y = 0 1 4\n",
        "bad.ini",
    )
    out2 = tmp_path / "bad.txt"
    assert run_cli("validate-psi", "--config", str(bad), "--out", str(out2)) == 0
    text = out2.read_text()
    assert text.startswith("psi axioms: FAIL")
    assert "outside [0, 1]" in text
    assert "subadditivity" in text
    assert "FAIL" in capsys.readouterr().out


def test_cli_validate_psi_rejects_a_grid_whose_pair_sums_overflow(tmp_path, capsys):
    cfg = write(tmp_path, "[psi]\npsi = ratio\ngrid_max = 1e308\ngrid_n = 10\n")
    out = tmp_path / "psi.txt"
    assert run_cli("validate-psi", "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"config error: {cfg}:3: grid_max must be at most half the largest double" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not out.exists()


def test_cli_report_summarizes_study_csv(tmp_path, capsys):
    cfg = write(tmp_path, TINY_STUDY)
    study_out = tmp_path / "s.csv"
    assert run_cli("study", "--config", str(cfg), "--out", str(study_out)) == 0
    capsys.readouterr()
    out = tmp_path / "summary.txt"
    assert run_cli("report", "--config", str(study_out), "--out", str(out)) == 0
    text = out.read_text()
    assert "worst risk-transfer margin" in text
    assert "(ok)" in text
    assert "d_psi decay from n=4 to n=8" in text
    assert capsys.readouterr().out == text


HEADER = "n,replicate,d_psi,ky_fan,sup_gap,l1_gap,risk_gap\n"
SUMMARY_HEADER = "n  replicates  mean_d_psi  mean_ky_fan  mean_sup_gap  mean_l1_gap"


@pytest.mark.parametrize(
    "command,content,code,expected",
    [
        # report: the input CSV is unreadable, empty, or malformed
        ("report", None, 1, ["cannot read report CSV {path}: "]),
        ("report", "", 1, ["{path}: empty report CSV"]),
        ("report", "n,replicate\n", 1, ["{path}: unexpected CSV header ['n', 'replicate']"]),
        ("report", HEADER + "4,0,0.1\n", 1, ["{path}:2: expected 7 fields, got 3"]),
        ("report", HEADER + "4,zero,0.1,0.1,0.1,0.1,0.1\n", 1, ["{path}:2: malformed row: "]),
        # report: a CSV without cells, and one whose every cell failed
        ("report", HEADER, 0, ["empty report"]),
        (
            "report",
            HEADER + "4,0,nan,nan,nan,nan,nan\n4,1,nan,nan,nan,nan,nan\n",
            0,
            [SUMMARY_HEADER, "4  0  all cells failed", "failed cells: 2"],
        ),
        # fit: the dataset is missing, empty, or has no output column
        ("fit", None, 1, ["cannot read dataset {path}: "]),
        ("fit", "", 1, ["dataset {path} has no rows"]),
        ("fit", "0.0\n1.0\n", 1, ["dataset {path} needs at least two columns (features..., output)"]),
    ],
    ids=[
        "report-unreadable", "report-empty", "report-header", "report-fields", "report-row",
        "report-no-cells", "report-all-failed",
        "fit-missing", "fit-empty", "fit-one-column",
    ],
)
def test_cli_report_and_dataset_inputs(tmp_path, capsys, command, content, code, expected):
    # a bad input is one config error line on stderr and no output; a report
    # without finite cells still summarizes
    path = tmp_path / "input.csv"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    cfg = path
    if command == "fit":
        cfg = write(tmp_path, FIT_BASE.format(data=path, loss="squared", extra=""))
    out = tmp_path / "out.txt"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == code
    printed = capsys.readouterr()
    lines = [line.format(path=path) for line in expected]
    if code == 1:
        assert printed.err.startswith(f"config error: {lines[0]}"), printed.err
        assert printed.err.count("\n") == 1, printed.err
        assert not out.exists()
    else:
        assert printed.err == ""
        assert out.read_text().splitlines() == lines
        assert printed.out == out.read_text()
