"""Centralized numeric tolerances and run configuration.

All magic constants used by solvers, labelling and limit extraction sit
here so that tests and the CLI share one source of truth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

from .errors import ConfigurationError


@dataclass(frozen=True)
class Tolerances:
    # spectral
    eig_rel: float = 1e-12          # eigenvalue accuracy, relative to spectral radius
    block_j_rel: float = 1e-12      # J-eigenvalue spread allowed inside one block
    commutator: float = 1e-10       # dense-oracle [J,H] bound on interior states
    # lattice detection
    separation_eps0: float = 0.05   # min pairwise separation >= eps0 * hbar^N0
    separation_n0: float = 1.0
    search_radius: float = 0.42     # transport search radius, fraction of shortest basis vector
    ambiguity_ratio: float = 1.8    # second candidate closer than ratio*first -> ambiguous
    column_gap: float = 0.5         # column split threshold, fraction of hbar
    min_region_points: int = 10     # refuse labelling below this (TooSparse)
    # fits
    max_condition: float = 1e9
    bisection_max_iter: int = 200


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
    mu: float = 2.0
    mu_list: list[float] = field(default_factory=lambda: [1.0, 1.5, 2.0])

    def validate(self) -> None:
        # one probe-table row per k: a repeated k would collapse in the family
        ks = self.k_list
        if not ks or any(b <= a for a, b in zip(ks, ks[1:])):
            raise ConfigurationError("k_list must be nonempty and strictly ascending")
        xs = self.x_schedule
        if not xs or any(b >= a for a, b in zip(xs, xs[1:])) or min(xs) <= 0:
            raise ConfigurationError("x_schedule must be strictly decreasing and positive")
        # the gradient scale 2 pi / ln(mu) is undefined at mu <= 0 and mu = 1
        if not (self.mu > 0 and self.mu != 1):
            raise ConfigurationError("mu must be positive and different from 1")
        # the recovery fits each mu's log expansion in ln x through at least
        # 6 x values, and its order-1 jet and Taylor solves take n + 2 = 3 mus
        if len(self.x_taylor) < 6 or min(self.x_taylor) <= 0:
            raise ConfigurationError("x_taylor needs at least 6 values, all positive")
        if len(self.mu_list) != 3 or len(set(self.mu_list)) != 3:
            raise ConfigurationError("mu_list must hold 3 distinct values")


@dataclass
class RunConfig:
    """Full CLI run description; JSON round-trippable."""

    model: str = "spin-oscillator"
    r1: float = 1.0
    r2: float = 2.5
    t: float = 0.5
    probes: ProbeConfig = field(default_factory=ProbeConfig)
    output_dir: str = "out"
    seed: int = 0

    def validate(self) -> None:
        self.probes.validate()

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        """Read a config file; an unreadable file, a key that names no field
        or a value of the wrong JSON type raises ConfigurationError."""
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as e:
            raise ConfigurationError(f"cannot read config {path}: {e.strerror}") from e
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


TOL = Tolerances()
