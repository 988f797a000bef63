"""Flat key-value config files with sections, for the command line tools.

Grammar (diff-friendly, line oriented):

* blank lines and lines starting with ``#`` or ``;`` are ignored
* ``[section]`` opens a section; ``key = value`` lines belong to it
* keys match ``[a-z0-9_]+``; duplicate keys or sections are errors
* list values are whitespace/comma separated; row values ("pieces",
  "points") separate rows with ``;``

One table per section maps each key to its value parser, dataclass field
and variant; one reader applies them, and defaults and range checks live in
the dataclasses.  Errors carry ``path:line``; unknown keys suggest a key one
edit away.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .denseness import _SAMPLERS, _TARGETS, StudyConfig
from .erm import _LOSSES, _check_lam
from .kernels import _KERNEL_FAMILIES
from .metrics import _PSI_KINDS, _psi_grid
from .util import ConfigError

__all__ = [
    "parse_study_config",
    "parse_fit_config",
    "parse_kernel_eval_config",
    "parse_psi_config",
    "FitJob",
    "KernelEvalJob",
    "PsiJob",
]


def _did_you_mean(word: str, known, form: str = "{!r}") -> str:
    """" (did you mean X?)" for the first known name one edit away from word, else ""."""
    for name in sorted(known):
        short, long = sorted((word, name), key=len)
        if len(long) == len(short) + 1:
            close = any(long[:i] + long[i + 1 :] == short for i in range(len(long)))
        else:
            close = len(long) == len(short) and sum(a != b for a, b in zip(word, name)) == 1
        if close:
            return f" (did you mean {form.format(name)}?)"
    return ""


# value parsers: raw text -> value; a ValueError message follows the key name


def _number(cast, kind: str):
    def parse(raw: str):
        try:
            value = cast(raw)
        except ValueError:
            raise ValueError(f"must be {kind}, got {raw!r}") from None
        if not abs(value) < np.inf:
            raise ValueError(f"must be finite, got {raw!r}")
        return value
    return parse


_real = _number(float, "a real number")
_int = _number(int, "an integer")


def _list(item, length=None, sep=None):
    """Items split on sep (default: whitespace and commas), exactly length of them if given."""
    def parse(raw: str) -> tuple:
        items = raw.split(sep) if sep else raw.replace(",", " ").split()
        if not items or length not in (None, len(items)):
            raise ValueError(f"must be {length or 'one or more'} values, got {raw.strip()!r}")
        return tuple(item(v) for v in items)
    return parse


def _points(raw: str) -> np.ndarray:
    rows = _list(_list(_real), sep=";")(raw)
    if len({len(r) for r in rows}) > 1:
        raise ValueError(f"rows must share one dimension, got lengths {[len(r) for r in rows]}")
    return np.asarray(rows)


def _one_of(names):
    def parse(raw: str) -> str:
        if raw not in names:
            hint = _did_you_mean(raw, names)
            raise ValueError(f"must be one of {', '.join(names)}; got {raw!r}{hint}")
        return raw
    return parse


@dataclass(frozen=True)
class _Key:
    """A key's value parser, the dataclass field it fills and its variant.

    "target = sine" limits the key to that choice of the selector key target,
    "target" allows every choice; default is an absent selector key's choice.
    """

    parse: object
    field: str
    variant: str = ""
    required: bool = False
    default: str | None = None


_PSI = {
    "psi": _Key(_one_of(_PSI_KINDS), "psi"),
    "psi_grid_x": _Key(_list(_real), "grid_x", "psi = custom", True),
    "psi_grid_y": _Key(_list(_real), "grid_y", "psi = custom", True),
}

_STUDY = {
    "study": {
        "target": _Key(_one_of(_TARGETS), "target", required=True),
        "lower": _Key(_real, "lower", "target = indicator", True),
        "upper": _Key(_real, "upper", "target = indicator", True),
        "pieces": _Key(_list(_list(_real, 3), sep=";"), "pieces", "target = piecewise", True),
        "offset": _Key(_real, "offset", "target = sign"),
        "frequency": _Key(_real, "frequency", "target = sine"),
        "domain": _Key(_list(_real, 2), "domain", "target"),
        "sample_sizes": _Key(_list(_int), "sample_sizes", required=True),
        "replicates": _Key(_int, "replicates"),
        "seed": _Key(_int, "seed", required=True),
        **_PSI,
        "eval_sample_size": _Key(_int, "eval_sample_size"),
        "grid_resolution": _Key(_int, "grid_resolution"),
        "sampler": _Key(_one_of(_SAMPLERS), "sampler"),
    },
    "kernel": {"family": _Key(_one_of(_KERNEL_FAMILIES), "kernel_family")},
    "schedule": {
        "gamma_coeff": _Key(_real, "gamma_coeff"),
        "lambda_coeff": _Key(_real, "lambda_coeff"),
    },
}
# selector key -> (name -> class, label of its errors): the objects a study builds
_STUDY_OBJECTS = {"target": (_TARGETS, "{} target"), "psi": (_PSI_KINDS, "psi table")}

_POINT_KERNEL = {
    "family": _Key(_one_of(_KERNEL_FAMILIES), "kernel", default="gaussian_rbf"),
    "gamma": _Key(_real, "gamma", "family = gaussian_rbf", True),
    "support_radius": _Key(_real, "support_radius", "family = wendland_c2", True),
}
_KERNEL_OBJECT = {"family": (_KERNEL_FAMILIES, "{} kernel")}

_FIT = {
    "fit": {
        "data": _Key(str, "data_path", required=True),
        "loss": _Key(_one_of(_LOSSES), "loss", required=True),
        "tau": _Key(_real, "tau", "loss = pinball", True),
        "lambda": _Key(_real, "lam", required=True),
        # accepted and ignored: no solver iterates, and no class has these
        # fields, but the benchmark's fit configs still write them; these two
        # rows go once those configs stop writing them
        "max_iters": _Key(_int, "max_iters"),
        "step_size0": _Key(_real, "step_size0"),
    },
    "kernel": _POINT_KERNEL,
}


def _read(path, tables, objects) -> dict:
    """Read a config file with one table per section: {key: (value, lineno, field)}.

    A section with a required key is required; an absent selector key gets its
    default (lineno None).  Each key of objects {key: (name -> class, error
    label)} gets the object of the chosen class, built from that variant's keys.
    """
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
            if name not in tables:
                hint = _did_you_mean(name, tables, "[{}]")
                raise ConfigError(f"{path}:{lineno}: unknown section [{name}]{hint}")
            if name in sections:
                raise ConfigError(f"{path}:{lineno}: duplicate section [{name}]")
            current = sections[name] = {}
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key {key!r} appears outside any [section]")
        if not re.fullmatch(r"[a-z0-9_]+", key):
            raise ConfigError(f"{path}:{lineno}: invalid key {key!r}")
        if key in current:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        current[key] = (value.strip(), lineno)
    found = {}
    for name, entries in sections.items():
        table = tables[name]
        for key, (raw, lineno) in entries.items():
            if key not in table:
                hint = _did_you_mean(key, table)
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in [{name}]{hint}")
            if not raw:
                raise ConfigError(f"{path}:{lineno}: {key} has no value")
            try:
                found[key] = (table[key].parse(raw), lineno, table[key].field)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {key} {exc}") from None
    for name, table in tables.items():
        if name not in sections and any(spec.required for spec in table.values()):
            raise ConfigError(f"{path}: missing required section [{name}]")
        for key, spec in table.items():
            if spec.default is not None:
                found.setdefault(key, (spec.default, None, spec.field))
            owner, _, choice = spec.variant.partition(" = ")
            applies = not choice or found.get(owner, (None,))[0] == choice
            if key in found and not applies:
                raise ConfigError(f"{path}:{found[key][1]}: {key} only applies to {spec.variant}")
            if key not in found and applies and spec.required:
                raise ConfigError(f"{path}: missing required key '{key}' in [{name}]")
    for key, (classes, what) in objects.items():
        if key in found:
            name, line, field = found[key]
            found[key] = (_build(path, classes[name], found, line, what.format(name)), line, field)
    return found


def _build(path, cls, found, line=None, what=None, **objects):
    """cls from the given keys that fill its fields, plus already built objects.

    Its ValueError becomes a ConfigError prefixed "invalid {what}"; a message that
    starts with a given key's field names the key and points at its line.
    """
    names = {f.name for f in fields(cls)}
    given = {field: (key, value, n) for key, (value, n, field) in found.items() if field in names}
    try:
        return cls(**{field: value for field, (_, value, _) in given.items()} | objects)
    except ValueError as exc:
        first, _, rest = str(exc).partition(" ")
        key, _, at = given.get(first, (first, None, line))
        where = f"{path}:{at}" if at is not None else str(path)
        raise ConfigError(f"{where}: {f'invalid {what}: ' if what else ''}{key} {rest}") from None


def parse_study_config(path) -> StudyConfig:
    """Parse and validate a [study]/[kernel]/[schedule] config file."""
    return _build(path, StudyConfig, _read(path, _STUDY, _STUDY_OBJECTS))


@dataclass(frozen=True, eq=False)
class FitJob:
    """One supervised fit: data location, loss, the loss's solver, kernel, penalty lam."""

    data_path: str
    loss: object
    solver: str
    kernel: object
    lam: float

    def __post_init__(self):
        _check_lam(self.lam)


@dataclass(frozen=True, eq=False)
class KernelEvalJob:
    """Kernel diagnostics request: a kernel and probe points."""

    kernel: object
    points: np.ndarray

    def __post_init__(self):
        # a Wendland kernel divides the points by its support radius
        self.kernel._scaled(self.points, "points")


@dataclass(frozen=True, eq=False)
class PsiJob:
    """Psi axiom validation request: psi checked on grid_n points of [0, grid_max]."""

    psi: object
    grid_max: float = 10.0
    grid_n: int = 1000

    def __post_init__(self):
        _psi_grid(self.grid_max, self.grid_n)


def parse_fit_config(path) -> FitJob:
    """Parse a [fit]/[kernel] config file into a FitJob."""
    found = _read(path, _FIT, _KERNEL_OBJECT)
    name, line, _ = found["loss"]
    cls, solver = _LOSSES[name]
    loss = _build(path, cls, found, line, f"{name} loss")
    return _build(path, FitJob, found, loss=loss, solver=solver)


def parse_kernel_eval_config(path) -> KernelEvalJob:
    """Parse a [kernel]/[points] config file into a KernelEvalJob."""
    tables = {"kernel": _POINT_KERNEL, "points": {"points": _Key(_points, "points", required=True)}}
    return _build(path, KernelEvalJob, _read(path, tables, _KERNEL_OBJECT))


def parse_psi_config(path) -> PsiJob:
    """Parse a [psi] config file into a PsiJob."""
    table = {**_PSI, "psi": _Key(_one_of(_PSI_KINDS), "psi", required=True)}
    table.update(grid_max=_Key(_real, "grid_max"), grid_n=_Key(_int, "grid_n"))
    return _build(path, PsiJob, _read(path, {"psi": table}, {"psi": _STUDY_OBJECTS["psi"]}))
