"""Flat key=value configuration files and the rule every config obeys.

One ``key = value`` pair per line; blank lines and ``#`` comments are
ignored.  Keys mirror dataclass field names, so ``load_config`` reads
any config dataclass from a file.  Config dataclasses check their fields
in ``__post_init__``, so a config that exists is a valid one.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from pathlib import Path

from .errors import ArgumentError


def require_finite(cfg) -> None:
    """Raise :class:`ArgumentError` if a float field of ``cfg`` is nan or inf."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ArgumentError(f"{type(cfg).__name__}.{f.name} must be finite, got {value}")


def require_seed(what: str, seed: int) -> int:
    """Return ``seed`` if it is a 64-bit word; ``Rng`` would alias any other."""
    if not 0 <= seed < 1 << 64:
        raise ArgumentError(f"{what} must lie in [0, 2**64), got {seed}")
    return seed


def load_config(cls, path: str | Path):
    """Read config dataclass ``cls`` from a key=value file.  Every line is parsed
    before the keys are checked and converted in file order, so a malformed
    line is reported ahead of an unknown key or a bad value anywhere."""
    pairs: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ArgumentError(f"{path}: not UTF-8: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ArgumentError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ArgumentError(f"{path}:{lineno}: empty key")
        if key in pairs:
            raise ArgumentError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()

    hints = typing.get_type_hints(cls)
    fields = {f.name: hints[f.name] for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in pairs.items():
        if key not in fields:
            raise ArgumentError(
                f"unknown config key {key!r} (valid: {', '.join(sorted(fields))})"
            )
        try:
            kwargs[key] = fields[key](value)
        except ValueError as exc:
            raise ArgumentError(
                f"config key {key!r}: cannot parse {value!r} as {fields[key].__name__}"
            ) from exc
    return cls(**kwargs)
