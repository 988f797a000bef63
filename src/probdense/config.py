"""Flat key-value config files with sections, for the command line tools.

Grammar (diff-friendly, line oriented):

* blank lines and lines starting with ``#`` or ``;`` are ignored
* ``[section]`` opens a section; ``key = value`` lines belong to it
* keys match ``[a-z0-9_]+``; duplicate keys or sections are errors
* list values are whitespace/comma separated; row values ("pieces",
  "points") separate rows with ``;``

Errors carry ``path:line`` locations, and unknown keys suggest a known key
at edit distance one.  parse -> format -> parse is the identity for study
configs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .denseness import (
    IntervalIndicator,
    PiecewiseConstant,
    SignStep,
    SineWave,
    StudyConfig,
)
from .erm import (
    AbsoluteLoss,
    FitConfig,
    PinballLoss,
    RankingSquaredLoss,
    SquaredLoss,
)
from .kernels import GaussianRBF, WendlandC2
from .metrics import CappedPsi, RatioPsi, TabulatedPsi
from .util import ConfigError

__all__ = [
    "parse_config",
    "parse_study_config",
    "parse_fit_config",
    "parse_kernel_eval_config",
    "parse_psi_config",
    "format_study_config",
    "FitJob",
    "KernelEvalJob",
    "PsiJob",
]

_KEY_RE = re.compile(r"[a-z0-9_]+")


def _edit_distance(a: str, b: str) -> int:
    if a == b:
        return 0
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _suggest(key: str, known) -> str | None:
    close = sorted(k for k in known if _edit_distance(key, k) == 1)
    return close[0] if close else None


def _read_raw(path) -> dict:
    """Syntax pass: {section: {key: (value, lineno)}}."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"{path}:{lineno}: malformed section header {line!r}")
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"{path}:{lineno}: empty section name")
            if name in sections:
                raise ConfigError(f"{path}:{lineno}: duplicate section [{name}]")
            current = {}
            sections[name] = current
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key {key!r} appears outside any [section]")
        if not _KEY_RE.fullmatch(key):
            raise ConfigError(f"{path}:{lineno}: invalid key {key!r}")
        if key in current:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        current[key] = (value.strip(), lineno)
    return sections


def _check_sections(path, sections, allowed, required):
    for name in sections:
        if name not in allowed:
            hint = _suggest(name, allowed)
            extra = f" (did you mean [{hint}]?)" if hint else ""
            raise ConfigError(f"{path}: unknown section [{name}]{extra}")
    for name in required:
        if name not in sections:
            raise ConfigError(f"{path}: missing required section [{name}]")


def _check_keys(path, name, entries, allowed):
    for key, (_, lineno) in entries.items():
        if key not in allowed:
            hint = _suggest(key, allowed)
            extra = f" (did you mean {hint!r}?)" if hint else ""
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in [{name}]{extra}")


def _require(path, name, entries, key):
    if key not in entries:
        raise ConfigError(f"{path}: missing required key '{key}' in [{name}]")
    return entries[key]


def _float(path, key, raw, lineno, positive=False, nonnegative=False) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{path}:{lineno}: {key} must be a real number, got {raw!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"{path}:{lineno}: {key} must be finite, got {raw!r}")
    if positive and value <= 0.0:
        raise ConfigError(f"{path}:{lineno}: {key} must be > 0, got {raw!r}")
    if nonnegative and value < 0.0:
        raise ConfigError(f"{path}:{lineno}: {key} must be >= 0, got {raw!r}")
    return value


def _int(path, key, raw, lineno, minimum=None) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{path}:{lineno}: {key} must be an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}:{lineno}: {key} must be >= {minimum}, got {value}")
    return value


def _enum(path, key, raw, lineno, choices) -> str:
    if raw not in choices:
        hint = _suggest(raw, choices)
        extra = f" (did you mean {hint!r}?)" if hint else ""
        raise ConfigError(
            f"{path}:{lineno}: {key} must be one of {', '.join(choices)}; got {raw!r}{extra}"
        )
    return raw


def _split_list(raw: str) -> list:
    return raw.replace(",", " ").split()


def _float_list(path, key, raw, lineno) -> list:
    items = _split_list(raw)
    if not items:
        raise ConfigError(f"{path}:{lineno}: {key} must be a nonempty list")
    return [_float(path, key, item, lineno) for item in items]


def _int_list(path, key, raw, lineno, minimum=None) -> list:
    items = _split_list(raw)
    if not items:
        raise ConfigError(f"{path}:{lineno}: {key} must be a nonempty list")
    return [_int(path, key, item, lineno, minimum=minimum) for item in items]


_PSI_NAMES = ("ratio", "capped", "custom")
_TARGET_NAMES = ("indicator", "piecewise", "sign", "sine")
_FAMILY_NAMES = ("gaussian_rbf", "wendland_c2")
_SAMPLER_NAMES = ("uniform", "truncated_gaussian")
_LOSS_NAMES = ("squared", "absolute", "pinball", "ranking_squared")
_SOLVER_NAMES = ("ridge", "subgradient", "pairwise")

_STUDY_KEYS = {
    "target", "lower", "upper", "pieces", "offset", "frequency", "domain",
    "sample_sizes", "replicates", "seed", "psi", "psi_grid_x", "psi_grid_y",
    "eval_sample_size", "grid_resolution", "sampler", "sampler_center",
    "sampler_scale",
}
_SCHEDULE_KEYS = {"gamma_coeff", "lambda_coeff"}


def _parse_psi(path, name, entries, default="capped"):
    kind = default
    if "psi" in entries:
        raw, lineno = entries["psi"]
        kind = _enum(path, "psi", raw, lineno, _PSI_NAMES)
    if kind == "ratio":
        return RatioPsi()
    if kind == "capped":
        return CappedPsi()
    gx_raw, gx_line = _require(path, name, entries, "psi_grid_x")
    gy_raw, gy_line = _require(path, name, entries, "psi_grid_y")
    gx = _float_list(path, "psi_grid_x", gx_raw, gx_line)
    gy = _float_list(path, "psi_grid_y", gy_raw, gy_line)
    try:
        return TabulatedPsi(tuple(gx), tuple(gy))
    except ValueError as exc:
        raise ConfigError(f"{path}:{gx_line}: invalid psi table: {exc}") from None


def _parse_target(path, entries):
    raw, lineno = _require(path, "study", entries, "target")
    kind = _enum(path, "target", raw, lineno, _TARGET_NAMES)
    default_domain = (-1.0, 1.0) if kind == "sign" else (0.0, 1.0)
    domain = default_domain
    if "domain" in entries:
        draw, dline = entries["domain"]
        vals = _float_list(path, "domain", draw, dline)
        if len(vals) != 2:
            raise ConfigError(f"{path}:{dline}: domain must be two reals 'low high'")
        domain = (vals[0], vals[1])
    try:
        if kind == "indicator":
            lo_raw, lo_line = _require(path, "study", entries, "lower")
            up_raw, up_line = _require(path, "study", entries, "upper")
            return IntervalIndicator(
                _float(path, "lower", lo_raw, lo_line),
                _float(path, "upper", up_raw, up_line),
                domain,
            )
        if kind == "piecewise":
            raw_pieces, pline = _require(path, "study", entries, "pieces")
            pieces = []
            for row in raw_pieces.split(";"):
                vals = _float_list(path, "pieces", row, pline)
                if len(vals) != 3:
                    raise ConfigError(
                        f"{path}:{pline}: each piece must be 'lower upper level', got {row.strip()!r}"
                    )
                pieces.append(tuple(vals))
            return PiecewiseConstant(tuple(pieces), domain)
        if kind == "sign":
            offset = 0.0
            if "offset" in entries:
                oraw, oline = entries["offset"]
                offset = _float(path, "offset", oraw, oline)
            return SignStep(offset, domain)
        frequency = 1.0
        if "frequency" in entries:
            fraw, fline = entries["frequency"]
            frequency = _float(path, "frequency", fraw, fline, positive=True)
        return SineWave(frequency, domain)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}:{lineno}: invalid {kind} target: {exc}") from None


def parse_study_config(path) -> StudyConfig:
    """Parse and validate a [study]/[kernel]/[schedule] config file."""
    sections = _read_raw(path)
    _check_sections(path, sections, {"study", "kernel", "schedule"}, {"study"})
    study = sections["study"]
    _check_keys(path, "study", study, _STUDY_KEYS)
    kernel = sections.get("kernel", {})
    _check_keys(path, "kernel", kernel, {"family"})
    schedule = sections.get("schedule", {})
    _check_keys(path, "schedule", schedule, _SCHEDULE_KEYS)

    target = _parse_target(path, study)
    sizes_raw, sizes_line = _require(path, "study", study, "sample_sizes")
    sizes = _int_list(path, "sample_sizes", sizes_raw, sizes_line, minimum=1)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigError(
            f"{path}:{sizes_line}: sample_sizes must be strictly increasing, got {sizes}"
        )
    seed_raw, seed_line = _require(path, "study", study, "seed")
    seed = _int(path, "seed", seed_raw, seed_line)

    kwargs = {}
    if "replicates" in study:
        raw, lineno = study["replicates"]
        kwargs["replicates"] = _int(path, "replicates", raw, lineno, minimum=1)
    if "eval_sample_size" in study:
        raw, lineno = study["eval_sample_size"]
        kwargs["eval_sample_size"] = _int(path, "eval_sample_size", raw, lineno, minimum=1)
    if "grid_resolution" in study:
        raw, lineno = study["grid_resolution"]
        kwargs["grid_resolution"] = _int(path, "grid_resolution", raw, lineno, minimum=2)
    if "sampler" in study:
        raw, lineno = study["sampler"]
        kwargs["sampler"] = _enum(path, "sampler", raw, lineno, _SAMPLER_NAMES)
    if "sampler_center" in study:
        raw, lineno = study["sampler_center"]
        kwargs["sampler_center"] = _float(path, "sampler_center", raw, lineno)
    if "sampler_scale" in study:
        raw, lineno = study["sampler_scale"]
        kwargs["sampler_scale"] = _float(path, "sampler_scale", raw, lineno, positive=True)
    if "family" in kernel:
        raw, lineno = kernel["family"]
        kwargs["kernel_family"] = _enum(path, "family", raw, lineno, _FAMILY_NAMES)
    if "gamma_coeff" in schedule:
        raw, lineno = schedule["gamma_coeff"]
        kwargs["gamma_coeff"] = _float(path, "gamma_coeff", raw, lineno, positive=True)
    if "lambda_coeff" in schedule:
        raw, lineno = schedule["lambda_coeff"]
        kwargs["lambda_coeff"] = _float(path, "lambda_coeff", raw, lineno, positive=True)

    psi = _parse_psi(path, "study", study)
    try:
        return StudyConfig(
            target=target,
            sample_sizes=tuple(sizes),
            seed=seed,
            psi=psi,
            **kwargs,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid study config: {exc}") from None


def _format_float(value: float) -> str:
    return repr(float(value))


def format_study_config(cfg: StudyConfig) -> str:
    """Canonical text form of a study config; parses back to an equal config."""
    lines = ["[study]"]
    t = cfg.target
    if isinstance(t, IntervalIndicator):
        lines += [
            "target = indicator",
            f"lower = {_format_float(t.lower)}",
            f"upper = {_format_float(t.upper)}",
        ]
    elif isinstance(t, PiecewiseConstant):
        rows = " ; ".join(
            f"{_format_float(a)} {_format_float(b)} {_format_float(c)}" for a, b, c in t.pieces
        )
        lines += ["target = piecewise", f"pieces = {rows}"]
    elif isinstance(t, SignStep):
        lines += ["target = sign", f"offset = {_format_float(t.offset)}"]
    else:
        lines += ["target = sine", f"frequency = {_format_float(t.frequency)}"]
    lines.append(f"domain = {_format_float(t.domain[0])} {_format_float(t.domain[1])}")
    lines.append("sample_sizes = " + " ".join(str(n) for n in cfg.sample_sizes))
    lines.append(f"replicates = {cfg.replicates}")
    lines.append(f"seed = {cfg.seed}")
    if isinstance(cfg.psi, RatioPsi):
        lines.append("psi = ratio")
    elif isinstance(cfg.psi, CappedPsi):
        lines.append("psi = capped")
    else:
        lines.append("psi = custom")
        lines.append("psi_grid_x = " + " ".join(_format_float(v) for v in cfg.psi.grid_x))
        lines.append("psi_grid_y = " + " ".join(_format_float(v) for v in cfg.psi.grid_y))
    lines.append(f"eval_sample_size = {cfg.eval_sample_size}")
    lines.append(f"grid_resolution = {cfg.grid_resolution}")
    lines.append(f"sampler = {cfg.sampler}")
    if cfg.sampler_center is not None:
        lines.append(f"sampler_center = {_format_float(cfg.sampler_center)}")
    if cfg.sampler_scale is not None:
        lines.append(f"sampler_scale = {_format_float(cfg.sampler_scale)}")
    lines += ["", "[kernel]", f"family = {cfg.kernel_family}"]
    lines += [
        "",
        "[schedule]",
        f"gamma_coeff = {_format_float(cfg.gamma_coeff)}",
        f"lambda_coeff = {_format_float(cfg.lambda_coeff)}",
    ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class FitJob:
    """One supervised fit: data location, loss, solver choice, kernel, knobs."""

    data_path: str
    loss: object
    solver: str
    kernel: object
    fit_config: FitConfig


@dataclass(frozen=True, eq=False)
class KernelEvalJob:
    """Kernel diagnostics request: a kernel and probe points."""

    kernel: object
    points: np.ndarray


@dataclass(frozen=True, eq=False)
class PsiJob:
    """Psi axiom validation request."""

    psi: object
    grid_max: float
    grid_n: int


def _parse_point_kernel(path, sections, required_bandwidth=True):
    kernel = sections.get("kernel", {})
    _check_keys(path, "kernel", kernel, {"family", "gamma", "support_radius"})
    family = "gaussian_rbf"
    if "family" in kernel:
        raw, lineno = kernel["family"]
        family = _enum(path, "family", raw, lineno, _FAMILY_NAMES)
    if family == "gaussian_rbf":
        if "support_radius" in kernel:
            _, lineno = kernel["support_radius"]
            raise ConfigError(f"{path}:{lineno}: support_radius only applies to wendland_c2")
        if "gamma" not in kernel:
            if required_bandwidth:
                raise ConfigError(f"{path}: missing required key 'gamma' in [kernel]")
            return GaussianRBF()
        raw, lineno = kernel["gamma"]
        return GaussianRBF(_float(path, "gamma", raw, lineno, positive=True))
    if "gamma" in kernel:
        _, lineno = kernel["gamma"]
        raise ConfigError(f"{path}:{lineno}: gamma only applies to gaussian_rbf")
    if "support_radius" not in kernel:
        if required_bandwidth:
            raise ConfigError(f"{path}: missing required key 'support_radius' in [kernel]")
        return WendlandC2()
    raw, lineno = kernel["support_radius"]
    return WendlandC2(_float(path, "support_radius", raw, lineno, positive=True))


_FIT_KEYS = {"data", "loss", "tau", "solver", "lambda", "max_iters", "step_size0", "tol", "seed"}


def parse_fit_config(path) -> FitJob:
    """Parse a [fit]/[kernel] config file into a FitJob."""
    sections = _read_raw(path)
    _check_sections(path, sections, {"fit", "kernel"}, {"fit", "kernel"})
    fit = sections["fit"]
    _check_keys(path, "fit", fit, _FIT_KEYS)
    data_raw, _ = _require(path, "fit", fit, "data")
    if not data_raw:
        raise ConfigError(f"{path}: key 'data' in [fit] must name a CSV file")
    loss_raw, loss_line = _require(path, "fit", fit, "loss")
    loss_name = _enum(path, "loss", loss_raw, loss_line, _LOSS_NAMES)
    if loss_name == "pinball":
        tau_raw, tau_line = _require(path, "fit", fit, "tau")
        tau = _float(path, "tau", tau_raw, tau_line)
        if not 0.0 < tau < 1.0:
            raise ConfigError(f"{path}:{tau_line}: tau must lie strictly in (0, 1), got {tau!r}")
        loss = PinballLoss(tau)
    else:
        if "tau" in fit:
            _, tau_line = fit["tau"]
            raise ConfigError(f"{path}:{tau_line}: tau only applies to the pinball loss")
        loss = {
            "squared": SquaredLoss(),
            "absolute": AbsoluteLoss(),
            "ranking_squared": RankingSquaredLoss(),
        }[loss_name]

    default_solver = {
        "squared": "ridge",
        "absolute": "subgradient",
        "pinball": "subgradient",
        "ranking_squared": "pairwise",
    }[loss_name]
    solver = default_solver
    if "solver" in fit:
        raw, lineno = fit["solver"]
        solver = _enum(path, "solver", raw, lineno, _SOLVER_NAMES)
        valid = {
            "ridge": ("squared",),
            "subgradient": ("squared", "absolute", "pinball"),
            "pairwise": ("ranking_squared",),
        }[solver]
        if loss_name not in valid:
            raise ConfigError(
                f"{path}:{lineno}: solver {solver!r} does not apply to loss {loss_name!r}"
            )

    lam_raw, lam_line = _require(path, "fit", fit, "lambda")
    lam = _float(path, "lambda", lam_raw, lam_line, positive=True)
    # max_iters, step_size0 and tol are read only by the subgradient solver,
    # but accepted (and validated) for every solver
    max_iters = 1000
    if "max_iters" in fit:
        raw, lineno = fit["max_iters"]
        max_iters = _int(path, "max_iters", raw, lineno, minimum=1)
    step_size0 = 1.0
    if "step_size0" in fit:
        raw, lineno = fit["step_size0"]
        step_size0 = _float(path, "step_size0", raw, lineno, positive=True)
    tol = 1e-8
    if "tol" in fit:
        raw, lineno = fit["tol"]
        tol = _float(path, "tol", raw, lineno, nonnegative=True)
    seed = 0
    if "seed" in fit:
        raw, lineno = fit["seed"]
        seed = _int(path, "seed", raw, lineno)
    kernel = _parse_point_kernel(path, sections)
    return FitJob(data_raw, loss, solver, kernel, FitConfig(lam, max_iters, step_size0, tol, seed))


def parse_kernel_eval_config(path) -> KernelEvalJob:
    """Parse a [kernel]/[points] config file into a KernelEvalJob."""
    sections = _read_raw(path)
    _check_sections(path, sections, {"kernel", "points"}, {"kernel", "points"})
    pts_section = sections["points"]
    _check_keys(path, "points", pts_section, {"points"})
    raw, lineno = _require(path, "points", pts_section, "points")
    rows = []
    width = None
    for row in raw.split(";"):
        vals = _float_list(path, "points", row, lineno)
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise ConfigError(
                f"{path}:{lineno}: point rows must share one dimension, got {len(vals)} vs {width}"
            )
        rows.append(vals)
    return KernelEvalJob(_parse_point_kernel(path, sections), np.asarray(rows, dtype=float))


def parse_psi_config(path) -> PsiJob:
    """Parse a [psi] config file into a PsiJob."""
    sections = _read_raw(path)
    _check_sections(path, sections, {"psi"}, {"psi"})
    psi_section = sections["psi"]
    _check_keys(path, "psi", psi_section, {"psi", "psi_grid_x", "psi_grid_y", "grid_max", "grid_n"})
    _require(path, "psi", psi_section, "psi")
    psi = _parse_psi(path, "psi", psi_section)
    grid_max = 10.0
    if "grid_max" in psi_section:
        raw, lineno = psi_section["grid_max"]
        grid_max = _float(path, "grid_max", raw, lineno, positive=True)
    grid_n = 1000
    if "grid_n" in psi_section:
        raw, lineno = psi_section["grid_n"]
        grid_n = _int(path, "grid_n", raw, lineno, minimum=2)
    return PsiJob(psi, grid_max, grid_n)


def parse_config(path, command: str):
    """Dispatch to the per-command parser; commands needing no INI raise."""
    parsers = {
        "study": parse_study_config,
        "fit": parse_fit_config,
        "kernel-eval": parse_kernel_eval_config,
        "validate-psi": parse_psi_config,
    }
    if command not in parsers:
        raise ValueError(f"no config parser for command {command!r}")
    return parsers[command](path)
