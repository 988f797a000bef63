"""Serialization of study reports: CSV data file plus run manifest.

The CSV is the data product and is byte-identical for identical reports:
RFC-4180 formatting, '\\n' line endings, floats written with shortest
round-trip precision (at most 17 significant digits).  The manifest records
provenance (seed, config hash, library version) in the same deterministic
style.  Errored cells appear with nan metrics; their messages go to the
manifest.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from . import __version__
from .denseness import _METRICS, ConvergenceReport, StudyCell
from .util import ConfigError, _fmt

__all__ = ["emit_report", "read_report_csv", "summarize_report"]

# one column per StudyCell field but the error, which goes to the manifest
CSV_HEADER = ["n", "replicate", *_METRICS]


def _write_manifest(out_path, seed, seed_source: str, config_sha256: str, extra=()) -> None:
    """Write ``<out_path>.manifest.txt``: seed, its source, config hash, version, extra lines."""
    lines = [
        f"seed = {'none' if seed is None else seed}",
        f"seed_source = {seed_source}",
        f"config_sha256 = {config_sha256}",
        f"library_version = {__version__}",
        *extra,
    ]
    Path(str(out_path) + ".manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_csv(path, header, rows) -> None:
    """Write header and rows as RFC-4180 CSV with '\\n' line endings (study, fit, Gram tables)."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def emit_report(report: ConvergenceReport, out_path, seed_source: str, config_sha256: str) -> None:
    """Write the report CSV to out_path and the manifest next to it.

    The manifest records the seed's source ("config" or "override") and the
    config file's sha256.  Serializing the same report twice yields
    byte-identical files.
    """
    _write_csv(
        out_path,
        CSV_HEADER,
        ([c.n, c.replicate, *(_fmt(getattr(c, m)) for m in _METRICS)] for c in report.cells),
    )
    lines = [f"partial = {'true' if report.partial else 'false'}"]
    for c in report.cells:
        if c.error is not None:
            lines.append(f"error_cell = n={c.n} replicate={c.replicate}: {c.error}")
    _write_manifest(out_path, report.config.seed, seed_source, config_sha256, lines)


def read_report_csv(path) -> list:
    """Parse a study CSV back into StudyCells; malformed input raises ConfigError.

    The CSV holds no error messages (they are in the manifest), so every
    cell comes back with error None; a failed cell keeps its nan metrics.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read report CSV {path}: {exc}") from exc
    reader = csv.reader(text.splitlines())
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError(f"{path}: empty report CSV") from None
    if header != CSV_HEADER:
        raise ConfigError(f"{path}: unexpected CSV header {header!r}")
    cells = []
    for i, row in enumerate(reader, start=2):
        if len(row) != len(CSV_HEADER):
            raise ConfigError(f"{path}:{i}: expected {len(CSV_HEADER)} fields, got {len(row)}")
        try:
            cells.append(StudyCell(int(row[0]), int(row[1]), *(float(v) for v in row[2:])))
        except ValueError as exc:
            raise ConfigError(f"{path}:{i}: malformed row: {exc}") from None
    return cells


def summarize_report(rows) -> str:
    """Human-readable decay summary of a study CSV.

    Per sample size: replicate means of each gap metric; then the worst
    risk-transfer margin risk_gap <= |L|_1 * l1_gap + 1e-10 over all
    finite cells (|L|_1 = 1: risk_gap is taken under the absolute loss),
    and the d_psi decay ratio between the largest and smallest sample size.
    """
    if not rows:
        return "empty report\n"
    sizes = sorted({r.n for r in rows})
    lines = ["n  replicates  mean_d_psi  mean_ky_fan  mean_sup_gap  mean_l1_gap"]
    means = {}
    for n in sizes:
        group = [r for r in rows if r.n == n and not math.isnan(r.d_psi)]
        if not group:
            lines.append(f"{n}  0  all cells failed")
            continue
        m = len(group)
        mean = lambda key: sum(getattr(r, key) for r in group) / m
        means[n] = mean("d_psi")
        lines.append(
            f"{n}  {m}  {mean('d_psi'):.6g}  {mean('ky_fan'):.6g}  "
            f"{mean('sup_gap'):.6g}  {mean('l1_gap'):.6g}"
        )
    finite = [r for r in rows if not math.isnan(r.risk_gap)]
    if finite:
        worst = min(r.l1_gap + 1e-10 - r.risk_gap for r in finite)
        lines.append(f"worst risk-transfer margin: {worst:.6g} ({'ok' if worst >= 0 else 'VIOLATED'})")
    failed = len(rows) - len(finite)
    if failed:
        lines.append(f"failed cells: {failed}")
    if len(sizes) >= 2 and sizes[0] in means and sizes[-1] in means and means[sizes[0]] > 0:
        ratio = means[sizes[-1]] / means[sizes[0]]
        lines.append(f"d_psi decay from n={sizes[0]} to n={sizes[-1]}: x{ratio:.4g}")
    return "\n".join(lines) + "\n"
