"""Closed-form invariant values of the two model systems.

Used as the "theory" column of plot data and as acceptance targets.  The
coupled-momenta entries are only tabulated for the standard parameters
(r1, r2, t) = (1, 5/2, 1/2).
"""

from __future__ import annotations

import numpy as np

from .models import SPIN_OSCILLATOR, ModelSpec

__all__ = ["reference_invariants", "reference_rho"]


def reference_invariants(model: ModelSpec) -> dict | None:
    if model.kind == SPIN_OSCILLATOR:
        return {
            "focus_focus": (1.0, 0.0),
            "dx_fr": 0.0,
            "dy_fr": 2.0,
            "sigma1_priv": 0.0,
            "S01": 5 * np.log(2) / (2 * np.pi),
            "S00": 1.0,
            "dxdy_fr": -0.25,
            "S11": 1 / (8 * np.pi),
            "S20": 0.0,
            "S02": 0.0,
            "dh_kinks": [-1.0, 1.0],
        }
    if (model.r1, model.r2, model.t) == (1.0, 2.5, 0.5):
        return {
            "focus_focus": (-1.5, 0.0),
            "dx_fr": -1.0 / 3.0,
            "dy_fr": 10.0 / 3.0,
            "sigma1_priv": np.arctan(13 / 9) / (2 * np.pi),
            "S01": (3.5 * np.log(2) + 3 * np.log(3) - 1.5 * np.log(5)) / (2 * np.pi),
            "S00": 2 + (3 - 5 * np.arctan(0.75) - 2 * np.arctan(3.0)) / np.pi,
            "dh_kinks": [-1.5, 1.5],
        }
    return None


def reference_rho(model: ModelSpec, x) -> np.ndarray:
    """Duistermaat-Heckman density = slice length of the reference polygon,
    at each abscissa of the array x."""
    lo, hi = model.polygon_slice(x)
    return np.maximum(hi - lo, 0.0)
