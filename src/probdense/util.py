"""Shared helpers: error types, seed derivation, array validation, float text."""

from __future__ import annotations

import zlib

import numpy as np

__all__ = [
    "NumericalError",
    "ConfigError",
    "derive_rng",
    "as_points",
    "as_weights",
]


class NumericalError(RuntimeError):
    """A numerical routine failed beyond recoverable tolerance."""


class ConfigError(ValueError):
    """A configuration file or parsed configuration is invalid."""


def _fmt(value: float) -> str:
    """Shortest round-trip text of a float, as written to every output file."""
    return repr(float(value))


def _tag_to_uint32(tag) -> int:
    if isinstance(tag, str):
        return zlib.crc32(tag.encode("utf-8"))
    value = int(tag)
    if value < 0:
        raise ValueError(f"seed tag must be nonnegative, got {tag!r}")
    return value


def derive_rng(seed: int, *tags) -> np.random.Generator:
    """Deterministic child generator for (seed, tags).

    Distinct tag tuples yield statistically independent streams; the same
    tuple always yields the same stream.  String tags are hashed with crc32
    so purpose labels ("train", "eval") can never collide with small ints
    by accident of ordering.
    """
    key = tuple(_tag_to_uint32(t) for t in tags)
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=key))


def as_points(x, name: str = "points") -> np.ndarray:
    """Coerce to a float (n, d) array; 1-D input becomes a column."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError(f"{name} must be a nonempty (n, d) array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def as_weights(w, n: int, name: str = "weights") -> np.ndarray:
    """Coerce to a length-n probability vector (nonnegative, sums to 1)."""
    arr = np.asarray(w, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if np.any(arr < 0.0):
        raise ValueError(f"{name} must be nonnegative")
    total = float(arr.sum())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"{name} must sum to 1 within 1e-12, got {total!r}")
    return arr
