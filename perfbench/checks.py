"""Correctness checks of the benchmark, independent of the program's own."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class Check:
    """One checked quantity: passes when ``error <= budget``.

    An exact check (a count that must be zero) has budget 0; its ratio is 0
    when it passes and at least 1 when it fails.
    """

    name: str
    error: float
    budget: float

    @property
    def ratio(self) -> float:
        if self.budget > 0:
            return self.error / self.budget
        return 0.0 if self.error == 0 else max(1.0, float(self.error))

    @property
    def ok(self) -> bool:
        return self.error <= self.budget


def circle_distance(a: float, b: float) -> float:
    """Distance between a and b in R/Z."""
    return abs((a - b + 0.5) % 1.0 - 0.5)


def labelling_mismatches(assignment: dict, true_labels: np.ndarray) -> int:
    """Points whose label differs from one integer unimodular affine image of
    the true label, after the best such map; unlabelled points count too.

    The map is the rounded least-squares fit of labels against true labels,
    so a labelling that is right up to one affine map scores 0 and any point
    moved off that map scores 1.
    """
    n = len(true_labels)
    if not assignment:
        return n
    idx = np.fromiter(assignment.keys(), dtype=np.int64, count=len(assignment))
    got = np.array([assignment[i] for i in idx], dtype=np.int64).reshape(-1, 2)
    truth = np.asarray(true_labels, dtype=np.int64)[idx]
    design = np.hstack([truth, np.ones((len(idx), 1), dtype=np.int64)])
    coef, *_ = np.linalg.lstsq(design.astype(float), got.astype(float), rcond=None)
    coef = np.rint(coef).astype(np.int64)
    det = coef[0, 0] * coef[1, 1] - coef[1, 0] * coef[0, 1]
    if abs(det) != 1:
        return n
    wrong = int(np.count_nonzero(np.any(design @ coef != got, axis=1)))
    return wrong + (n - len(idx))


def max_rel_diff(a, b) -> float:
    """Largest |x - y| / max(|x|, |y|) over matching numeric leaves of two
    JSON values; a leaf or key present on one side only counts as 1."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys = set(a) | set(b)
        return max((max_rel_diff(a.get(k), b.get(k)) for k in keys), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return 1.0
        return max((max_rel_diff(x, y) for x, y in zip(a, b)), default=0.0)
    if isinstance(a, bool) or isinstance(b, bool):
        return 0.0 if a == b else 1.0
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if a == b:
            return 0.0
        if not (math.isfinite(a) and math.isfinite(b)):
            return 1.0
        return abs(a - b) / max(abs(a), abs(b))
    return 0.0 if a == b else 1.0
