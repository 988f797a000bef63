"""Command line front end.

Subcommands: kernel-eval, fit, study, validate-psi, report.  Every command
reads one input named by --config, writes its results under --out (plus a
``<out>.manifest.txt`` beside it), and never writes anywhere else.  Exit
codes: 0 success, 1 config error (command line usage errors included),
2 numerical failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    parse_fit_config,
    parse_kernel_eval_config,
    parse_psi_config,
    parse_study_config,
)
from .denseness import run_study
from .erm import Dataset, fit_erm, fit_kernel_ridge, fit_pairwise
from .kernels import gram_matrix, sup_kernel_norm
from .metrics import validate_psi
from .reporting import _write_manifest, emit_report, read_report_csv, summarize_report
from .rkhs import injectivity_probe
from .util import ConfigError, NumericalError, _fmt

log = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probdense",
        description="kernel fitting and denseness studies under probability metrics",
    )
    parser.add_argument("--version", action="version", version=f"probdense {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "kernel-eval": "evaluate a kernel on probe points and report Gram diagnostics",
        "fit": "fit one model described by a config file to a CSV dataset",
        "study": "run a denseness study and write its report CSV",
        "validate-psi": "check the psi axioms for a configured transform",
        "report": "summarize an existing study report CSV",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="input config file (CSV for 'report')")
        p.add_argument("--out", required=True, help="output file path")
        if name == "study":
            p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        p.add_argument(
            "-v",
            "--verbose",
            action="count",
            default=0,
            help="-v for progress, -vv for debug detail",
        )
    return parser


def _config_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _cmd_study(args) -> int:
    cfg = parse_study_config(args.config)
    seed_source = "config"
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
        seed_source = "override"
    report = run_study(cfg)
    emit_report(report, args.out, seed_source=seed_source, config_sha256=_config_sha256(args.config))
    print(f"wrote {args.out} ({len(report.cells)} cells{', partial' if report.partial else ''})")
    return 0


def _load_dataset(path) -> Dataset:
    try:
        raw = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read dataset {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed dataset {path}: {exc}") from None
    if raw.shape[1] < 2:
        raise ConfigError(f"dataset {path} needs at least two columns (features..., output)")
    try:
        return Dataset(raw[:, :-1], raw[:, -1])
    except ValueError as exc:
        raise ConfigError(f"invalid dataset {path}: {exc}") from None


def _cmd_fit(args) -> int:
    job = parse_fit_config(args.config)
    cfg = job.fit_config
    data = _load_dataset(job.data_path)
    if job.solver == "ridge":
        fitted = fit_kernel_ridge(data, job.kernel, cfg.lam)
        detail = "direct solve"
    elif job.solver == "subgradient":
        fitted, info = fit_erm(data, job.kernel, job.loss, cfg, return_info=True)
        detail = f"objective {info.objective:.6g} after {info.n_iters} iterations"
    else:
        fitted, info = fit_pairwise(data, job.kernel, job.loss, cfg, return_info=True)
        detail = f"direct solve, objective {info.objective:.6g}"
    out = Path(args.out)
    d = fitted.centers.shape[1]
    header = ",".join([f"x{i}" for i in range(d)] + ["alpha"])
    rows = [
        ",".join([_fmt(v) for v in fitted.centers[i]] + [_fmt(fitted.coefficients[i])])
        for i in range(fitted.centers.shape[0])
    ]
    out.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    sha = _config_sha256(args.config)
    _write_manifest(args.out, None, "config", sha, (f"solver = {job.solver}",))
    print(f"wrote {args.out} ({job.solver}: {detail})")
    return 0


def _cmd_kernel_eval(args) -> int:
    job = parse_kernel_eval_config(args.config)
    K = gram_matrix(job.kernel, job.points)
    n = K.shape[0]
    lines = ["i,j,value"]
    for i in range(n):
        for j in range(n):
            lines.append(f"{i},{j},{_fmt(K[i, j])}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    sup = sup_kernel_norm(job.kernel, job.points)
    try:
        lam_min = injectivity_probe(job.kernel, job.points)
        probe_line = f"min_gram_eigenvalue = {_fmt(lam_min)}"
        probe_msg = f"min Gram eigenvalue {lam_min:.6g}"
    except ValueError:
        probe_line = "min_gram_eigenvalue = skipped (duplicate points)"
        probe_msg = "injectivity probe skipped: duplicate points"
    _write_manifest(
        args.out,
        None,
        "config",
        _config_sha256(args.config),
        (f"sup_kernel_norm = {_fmt(sup)}", probe_line),
    )
    print(f"wrote {args.out} ({n}x{n} Gram; sup norm {sup:.6g}; {probe_msg})")
    return 0


def _cmd_validate_psi(args) -> int:
    job = parse_psi_config(args.config)
    result = validate_psi(job.psi, job.grid_max, job.grid_n)
    Path(args.out).write_text(str(result) + "\n", encoding="utf-8")
    _write_manifest(args.out, None, "config", _config_sha256(args.config))
    print(str(result).splitlines()[0])
    return 0


def _cmd_report(args) -> int:
    rows = read_report_csv(args.config)
    summary = summarize_report(rows)
    Path(args.out).write_text(summary, encoding="utf-8")
    _write_manifest(args.out, None, "config", _config_sha256(args.config))
    print(summary, end="")
    return 0


_COMMANDS = {
    "study": _cmd_study,
    "fit": _cmd_fit,
    "kernel-eval": _cmd_kernel_eval,
    "validate-psi": _cmd_validate_psi,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a numerical failure here
        if exc.code != 2:
            raise
        return 1
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
