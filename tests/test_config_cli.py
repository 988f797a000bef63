"""Tests for config parsing and the command line front end."""

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
from probdense.cli import main
from probdense.config import (
    format_study_config,
    parse_fit_config,
    parse_kernel_eval_config,
    parse_study_config,
)
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


def test_study_config_round_trip(tmp_path):
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
        sampler_center=0.4,
        sampler_scale=0.3,
    )
    text = format_study_config(cfg)
    assert parse_study_config(write(tmp_path, text)) == cfg


fractions = st.floats(0.0, 1.0)
positive = st.floats(1e-3, 1e3)


@st.composite
def study_configs(draw):
    """Valid StudyConfigs over every target, psi kind, sampler and kernel family."""
    kind = draw(st.sampled_from(["indicator", "piecewise", "sign", "sine"]))
    low, high = (-1.0, 1.0) if kind == "sign" else (0.0, 1.0)
    kw = {}
    if draw(st.booleans()):
        low = draw(st.floats(-10.0, 10.0))
        high = low + draw(st.floats(0.1, 10.0))
        kw["domain"] = (low, high)
    at = lambda t: min(high, low + t * (high - low))
    try:
        if kind == "indicator":
            a, b = sorted(draw(st.lists(fractions, min_size=2, max_size=2)))
            target = IntervalIndicator(at(a), at(b), **kw)
        elif kind == "piecewise":
            k = draw(st.integers(1, 3))
            ends = sorted(draw(st.lists(fractions, min_size=2 * k, max_size=2 * k, unique=True)))
            levels = draw(st.lists(st.floats(-5.0, 5.0), min_size=k, max_size=k))
            pieces = tuple((at(ends[2 * i]), at(ends[2 * i + 1]), levels[i]) for i in range(k))
            target = PiecewiseConstant(pieces, **kw)
        elif kind == "sign":
            target = SignStep(at(draw(fractions)), **kw)
        else:
            target = SineWave(draw(positive), **kw)
    except ValueError:
        assume(False)
    psi_kind = draw(st.sampled_from(["ratio", "capped", "custom"]))
    if psi_kind == "custom":
        steps = draw(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=5))
        grid_x = tuple(np.cumsum([0.0] + steps).tolist())
        grid_y = tuple(draw(st.lists(fractions, min_size=len(grid_x), max_size=len(grid_x))))
        assume(all(b > a for a, b in zip(grid_x, grid_x[1:])))
        psi = TabulatedPsi(grid_x, grid_y)
    else:
        psi = RatioPsi() if psi_kind == "ratio" else CappedPsi()
    sampler = draw(st.sampled_from(["uniform", "truncated_gaussian"]))
    center = scale = None
    if sampler == "truncated_gaussian":
        center = draw(st.none() | fractions.map(at))
        scale = draw(st.none() | positive)
    sizes = sorted(draw(st.lists(st.integers(1, 5000), min_size=1, max_size=5, unique=True)))
    return StudyConfig(
        target=target,
        sample_sizes=tuple(sizes),
        seed=draw(st.integers(0, 2**63 - 1)),
        replicates=draw(st.integers(1, 10)),
        kernel_family=draw(st.sampled_from(["gaussian_rbf", "wendland_c2"])),
        gamma_coeff=draw(positive),
        lambda_coeff=draw(positive),
        psi=psi,
        eval_sample_size=draw(st.none() | st.integers(1, 10**6)),
        grid_resolution=draw(st.integers(2, 20001)),
        sampler=sampler,
        sampler_center=center,
        sampler_scale=scale,
    )


@settings(max_examples=200, deadline=None)
@given(cfg=study_configs())
def test_format_then_parse_is_the_identity(tmp_path_factory, cfg):
    path = tmp_path_factory.mktemp("roundtrip") / "study.ini"
    path.write_text(format_study_config(cfg), encoding="utf-8")
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
    p = write(tmp_path, FIT_BASE.format(data="d.csv", loss="absolute", extra="solver = ridge\n"))
    with pytest.raises(ConfigError, match="solver 'ridge' does not apply to loss 'absolute'"):
        parse_fit_config(p)


def test_fit_default_solvers(tmp_path):
    for loss, solver in [("squared", "ridge"), ("absolute", "subgradient"), ("ranking_squared", "pairwise")]:
        p = write(tmp_path, FIT_BASE.format(data="d.csv", loss=loss, extra=""), f"{loss}.ini")
        assert parse_fit_config(p).solver == solver


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
            study_with, "target = sine\nsampler = uniform", "sampler_center = 0.3",
            "sampler = truncated_gaussian", id="sampler_center",
        ),
        pytest.param(
            study_with, "target = sine", "sampler_scale = 0.1", "sampler = truncated_gaussian",
            id="sampler_scale",
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
    cfg = write(tmp_path, TINY_STUDY + "sampler = truncated_gaussian\n")
    argv = ["study", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]
    code = (
        "import sys\n"
        "import probdense.cli\n"
        "assert 'scipy.stats' not in sys.modules, 'imported by probdense.cli'\n"
        f"assert probdense.cli.main({argv!r}) == 0\n"
        "assert 'scipy.stats' not in sys.modules, 'imported by the study'\n"
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

    data = tmp_path / "d.csv"
    data.write_text("0.0,1.0\n0.5,0.2\n1.0,2.0\n")
    diverge = write(
        tmp_path,
        FIT_BASE.format(data=data, loss="absolute", extra="step_size0 = 1e200\nmax_iters = 50\n"),
        "div.ini",
    )
    assert run_cli("fit", "--config", str(diverge), "--out", str(tmp_path / "f.csv")) == 2
    assert "numerical failure" in capsys.readouterr().err

    cfg = write(tmp_path, TINY_STUDY, "t.ini")
    missing = tmp_path / "no" / "such" / "dir" / "o.csv"
    assert run_cli("study", "--config", str(cfg), "--out", str(missing)) == 3
    assert "i/o failure" in capsys.readouterr().err


def test_cli_rejects_bad_sampler_parameters_as_config_error(tmp_path, capsys):
    text = TINY_STUDY + "sampler = truncated_gaussian\nsampler_center = 5.0\n"
    cfg = write(tmp_path, text)
    out = tmp_path / "o.csv"
    assert run_cli("study", "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    line = len(text.splitlines())
    assert f"config error: {cfg}:{line}: sampler_center 5.0 outside domain" in err
    assert "Traceback" not in err
    assert not out.exists()


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


def test_cli_fit_pairwise_reports_direct_solve(tmp_path, capsys):
    # the subgradient knobs stay accepted for every solver; the direct solve ignores them
    data = tmp_path / "d.csv"
    data.write_text("0.0,1.0\n0.5,0.2\n1.0,2.0\n")
    extra = "max_iters = 500\nstep_size0 = 1.0\ntol = 1e-6\n"
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
