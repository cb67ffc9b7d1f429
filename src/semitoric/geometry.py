"""Plane rectangles used for spectral windows and chart domains."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Rect:
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def contains(self, pts) -> np.ndarray:
        p = np.atleast_2d(np.asarray(pts, dtype=float))
        return (
            (p[:, 0] >= self.xmin)
            & (p[:, 0] <= self.xmax)
            & (p[:, 1] >= self.ymin)
            & (p[:, 1] <= self.ymax)
        )

    def intersection(self, other: "Rect") -> "Rect":
        return Rect(
            max(self.xmin, other.xmin),
            min(self.xmax, other.xmax),
            max(self.ymin, other.ymin),
            min(self.ymax, other.ymax),
        )

