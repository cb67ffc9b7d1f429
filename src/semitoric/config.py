"""Run configuration: the probe schedules and the CLI run description,
read from JSON and validated before any eigensolve.  Each numeric tolerance
lives as a private constant beside the code that reads it."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigurationError


@dataclass
class ProbeConfig:
    """Schedules for the double-limit extractions (hbar -> 0 then x -> 0)."""

    k_list: list[int] = field(default_factory=lambda: [100, 200, 300, 400, 500])
    x_schedule: list[float] = field(default_factory=lambda: [0.04, 0.03, 0.02, 0.01])
    # wider schedule for the log-expansion stage: sequential coefficient fits
    # need more nodes than fit parameters
    x_taylor: list[float] = field(
        default_factory=lambda: [0.12, 0.10, 0.08, 0.07, 0.06, 0.05, 0.04, 0.03, 0.02, 0.01]
    )
    mu_list: list[float] = field(default_factory=lambda: [1.0, 1.5, 2.0])

    def validate(self) -> None:
        # one probe-table row per k: a repeated k would collapse in the family;
        # hbar = 1/k needs k >= 1
        ks = self.k_list
        if not ks or any(b <= a for a, b in zip(ks, ks[1:])):
            raise ConfigurationError("k_list must be nonempty and strictly ascending")
        if ks[0] < 1:
            raise ConfigurationError(f"k values must be at least 1, got {ks[0]}")
        # inf and nan pass the ordering and sign checks below
        for name in ("x_schedule", "x_taylor", "mu_list"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigurationError(f"{name} values must be finite")
        xs = self.x_schedule
        if not xs or any(b >= a for a, b in zip(xs, xs[1:])) or min(xs) <= 0:
            raise ConfigurationError("x_schedule must be strictly decreasing and positive")
        # the recovery fits each mu's log expansion in ln x through at least
        # 6 x values, and its order-2 jet and Taylor solves are 3x3, one row per mu
        if len(self.x_taylor) < 6 or min(self.x_taylor) <= 0:
            raise ConfigurationError("x_taylor needs at least 6 values, all positive")
        # the gradient's second offset 2 x (``recover_fr_gradient`` at its
        # mu = 2) must stay within the span of offsets the recovery reads
        lo, hi = min(xs), max(self.x_taylor)
        if 2 * lo > hi:
            raise ConfigurationError(
                f"2 * min(x_schedule) = {2 * lo:g} must be at most max(x_taylor) = {hi:g}")
        if len(self.mu_list) != 3 or len(set(self.mu_list)) != 3:
            raise ConfigurationError("mu_list must hold 3 distinct values")
        # each g_mu probe (x, mu x) must stay within the x_taylor span
        lo, hi = min(self.x_taylor), max(self.x_taylor)
        for m in self.mu_list:
            if abs(m) * lo > hi:
                raise ConfigurationError(f"mu_list entry {m:g}: |mu| * min(x_taylor) = "
                                         f"{abs(m) * lo:g} must be at most {hi:g}")


@dataclass
class RunConfig:
    """Full CLI run description, read from a JSON file by ``from_json``."""

    model: str = "spin-oscillator"
    r1: float = 1.0
    r2: float = 2.5
    t: float = 0.5
    probes: ProbeConfig = field(default_factory=ProbeConfig)
    output_dir: str = "out"

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        """Read a config file; an unreadable file, a key that names no field
        or a value of the wrong JSON type raises ConfigurationError."""
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as e:
            raise ConfigurationError(f"cannot read config {path}: {e.strerror}") from e
        except ValueError as e:   # malformed JSON or bytes that are not text
            raise ConfigurationError(f"cannot parse config {path}: {e}") from e
        _check_fields(cls, raw, "config")
        probes = raw.pop("probes", {})
        _check_fields(ProbeConfig, probes, "probes")
        return cls(probes=ProbeConfig(**probes), **raw)


# JSON type of each field annotation (bool, a JSON type of its own, is no number)
_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "ProbeConfig": dict}


def _is_json(value, annotation: str) -> bool:
    if annotation.startswith("list["):
        return isinstance(value, list) and all(_is_json(v, annotation[5:-1]) for v in value)
    return not isinstance(value, bool) and isinstance(value, _JSON_TYPES[annotation])


def _check_fields(kind, raw, where: str) -> None:
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    types = {f.name: f.type for f in fields(kind)}
    unknown = sorted(set(raw) - set(types))
    if unknown:
        raise ConfigurationError(f"unknown {where} key(s): {', '.join(unknown)}")
    for name, value in raw.items():
        if not _is_json(value, types[name]):
            raise ConfigurationError(
                f"{where} key {name!r} must be {types[name]}, got {json.dumps(value)}")
