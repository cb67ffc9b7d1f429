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
    delta: float = 0.4              # height-invariant strip exponent, in (0, 1/2)
    c_width: float = 1.0

    def validate(self) -> None:
        if not self.k_list or sorted(self.k_list) != list(self.k_list):
            raise ValueError("k_list must be nonempty and ascending")
        xs = self.x_schedule
        if not xs or any(b >= a for a, b in zip(xs, xs[1:])) or min(xs) <= 0:
            raise ValueError("x_schedule must be strictly decreasing and positive")
        if not 0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 1/2)")


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
        """Read a config file; an unreadable file or a key that names no
        field raises ConfigurationError."""
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as e:
            raise ConfigurationError(f"cannot read config {path}: {e.strerror}") from e
        _check_keys(cls, raw, "config")
        probes = raw.pop("probes", {})
        _check_keys(ProbeConfig, probes, "probes")
        return cls(probes=ProbeConfig(**probes), **raw)


def _check_keys(kind, raw, where: str) -> None:
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(kind)})
    if unknown:
        raise ConfigurationError(f"unknown {where} key(s): {', '.join(unknown)}")


TOL = Tolerances()
