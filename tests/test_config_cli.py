"""Tests for config parsing and the command line front end."""

import re

import numpy as np
import pytest

from probdense import (
    CappedPsi,
    PiecewiseConstant,
    SineWave,
    StudyConfig,
    TabulatedPsi,
)
from probdense.cli import main
from probdense.config import (
    format_study_config,
    parse_config,
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


def test_fit_tau_rejected_for_other_losses(tmp_path):
    p = write(tmp_path, FIT_BASE.format(data="d.csv", loss="absolute", extra="tau = 0.5\n"))
    with pytest.raises(ConfigError, match="tau only applies to the pinball loss"):
        parse_fit_config(p)


def test_fit_solver_loss_mismatch(tmp_path):
    p = write(tmp_path, FIT_BASE.format(data="d.csv", loss="absolute", extra="solver = ridge\n"))
    with pytest.raises(ConfigError, match="solver 'ridge' does not apply to loss 'absolute'"):
        parse_fit_config(p)


def test_fit_default_solvers(tmp_path):
    for loss, solver in [("squared", "ridge"), ("absolute", "subgradient"), ("ranking_squared", "pairwise")]:
        p = write(tmp_path, FIT_BASE.format(data="d.csv", loss=loss, extra=""), f"{loss}.ini")
        assert parse_fit_config(p).solver == solver


def test_cross_family_bandwidth_keys_rejected(tmp_path):
    gauss = "[kernel]\nfamily = gaussian_rbf\nsupport_radius = 1.0\n[points]\npoints = 0 ; 1\n"
    with pytest.raises(ConfigError, match="support_radius only applies to wendland_c2"):
        parse_kernel_eval_config(write(tmp_path, gauss))
    wend = "[kernel]\nfamily = wendland_c2\ngamma = 1.0\n[points]\npoints = 0 ; 1\n"
    with pytest.raises(ConfigError, match="gamma only applies to gaussian_rbf"):
        parse_kernel_eval_config(write(tmp_path, wend, "w.ini"))


def test_kernel_eval_points_must_share_dimension(tmp_path):
    text = "[kernel]\ngamma = 1.0\n[points]\npoints = 0 1 ; 2\n"
    with pytest.raises(ConfigError, match="share one dimension"):
        parse_kernel_eval_config(write(tmp_path, text))


def test_parse_config_dispatch(tmp_path):
    p = write(tmp_path, MINIMAL_STUDY)
    assert parse_config(p, "study").seed == 7
    with pytest.raises(ValueError, match="no config parser"):
        parse_config(p, "report")


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
    assert text.startswith("n,replicate,d_psi,ky_fan,sup_gap,l1_gap,risk_gap,wall_time_s\n")
    assert len(text.splitlines()) == 3
    manifest = (tmp_path / "a.csv.manifest.txt").read_text()
    assert "seed = 123\n" in manifest
    assert "seed_source = config\n" in manifest
    assert "partial = false\n" in manifest


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
    assert "seed = 0\n" in manifest


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
