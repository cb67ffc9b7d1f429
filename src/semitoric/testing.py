"""Deterministic generators of valid synthetic charts for tests and the CLI.

A chart is usable as lattice ground truth only if its leading part is a
comfortable diffeomorphism: candidates are resampled until the Jacobian
determinant keeps a margin over the whole domain.
"""

from __future__ import annotations

import numpy as np

from .geometry import Rect
from .lattice import ChartSpec

__all__ = ["random_chart"]

_DOMAIN = Rect(-0.55, 0.55, -0.55, 0.55)
_HALF_DOMAIN = Rect(-0.55, 0.55, 0.0, 0.9)
_NONLINEARITY = 0.22   # bound on the random quadratic and sine coefficients
_MIN_DET = 0.35        # least Jacobian determinant of g0 over the domain
_MARGIN_GRID = 15      # the determinant is sampled on this many x and y values


def _jacobian_margin(g0, dom: Rect) -> float:
    eps = 1e-6
    dets = []
    for x in np.linspace(dom.xmin, dom.xmax, _MARGIN_GRID):
        for y in np.linspace(dom.ymin, dom.ymax, _MARGIN_GRID):
            p = np.array([x, y])
            dx = (np.asarray(g0(p + [eps, 0])) - np.asarray(g0(p - [eps, 0]))) / (2 * eps)
            dy = (np.asarray(g0(p + [0, eps])) - np.asarray(g0(p - [0, eps]))) / (2 * eps)
            dets.append(dx[0] * dy[1] - dx[1] * dy[0])
    return float(np.min(dets))


def random_chart(rng: np.random.Generator, half: bool = False) -> ChartSpec:
    """Orientation-preserving nonlinear chart with a safe Jacobian margin.

    Half charts keep the semitoric structure (first component is xi_1 up to
    a constant and a mild shear) so they model spectra near an elliptic
    line; regular charts get a full random linear part.
    """
    dom = _HALF_DOMAIN if half else _DOMAIN
    for _ in range(200):
        a = rng.uniform(-_NONLINEARITY, _NONLINEARITY, 6)
        shift = rng.uniform(-0.5, 0.5, 2)
        if half:
            n_shear = rng.integers(-1, 2)
            scale = rng.uniform(0.7, 1.4)

            def g0(xi, a=a, shift=shift, n=n_shear, s=scale):
                return np.array([
                    xi[0] + shift[0],
                    s * xi[1] + n * xi[0] + a[0] * xi[0] ** 2
                    + a[1] * xi[0] * xi[1] + a[2] * xi[1] ** 2 + shift[1],
                ])
        else:
            L = rng.uniform(-1.0, 1.0, (2, 2))
            L[0, 0] += 1.5
            L[1, 1] += 1.5

            def g0(xi, L=L, a=a, shift=shift):
                return L @ xi + shift + np.array([
                    a[0] * xi[0] ** 2 + a[1] * xi[1] ** 2 + a[2] * np.sin(2 * xi[0]),
                    a[3] * xi[0] * xi[1] + a[4] * xi[1] ** 2 + a[5] * np.sin(2 * xi[1]),
                ])
        if _jacobian_margin(g0, dom) < _MIN_DET:
            continue
        g1_vec = rng.uniform(-0.3, 0.3, 2)
        if half:
            # keep columns exact so strips of width hbar^(3/2) stay clean
            g1_vec[0] = 0.0

        def g1(xi, v=g1_vec):
            return v

        chart = ChartSpec(g0, g1, dom, half=half)
        chart.check_injective()
        return chart
    raise RuntimeError("could not draw a valid chart in 200 attempts")
