"""First-order invariants: gradient of the normal-form function, the
rotation coefficient sigma1(0), the twisting number, and S_{0,1}.

All recoveries follow the same pattern: evaluate spacing functionals at
probes offset by (x, ...) from the focus-focus value, extrapolate hbar -> 0
over the k family, then send x -> 0 along the schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ActionDiscontinuity, SignError
from .extrap import hbar_limit, x_limit
from .spacings import A1A2Sample, LabelledSpectrum

__all__ = [
    "FrJet",
    "TaylorInvariant",
    "twisting_number",
    "probe_samples",
    "recover_fr_gradient",
    "recover_sigma1",
    "recover_S01",
]


@dataclass
class FrJet:
    """Partial derivatives of the Eliasson function f_r at the critical value,
    keyed by multi-index (i, j) = (d/dx power, d/dy power), orders >= 1."""

    derivs: dict[tuple[int, int], float]

    def __post_init__(self):
        if self.dy <= 0:
            raise SignError(f"dy f_r(0) = {self.dy} <= 0 violates the orientation convention")

    @property
    def dx(self) -> float:
        return self.derivs.get((1, 0), 0.0)

    @property
    def dy(self) -> float:
        return self.derivs.get((0, 1), 0.0)

    @property
    def slope_s0(self) -> float:
        """Tangent slope of the radial curve: -dx f_r / dy f_r."""
        return -self.dx / self.dy


_INTEGER_SNAP = 1e-9   # a sigma1 this close to an integer n counts as n


def twisting_number(sigma1: float) -> int:
    """The twisting number p, the integer part of sigma1(0).

    A sigma1 within 1e-9 of an integer n gives p = n: an integer sigma1 is
    recovered with a rounding residue of either sign, and a plain floor
    would turn a residue of -3e-14 into p = n - 1.
    """
    n = round(sigma1)
    return int(n) if abs(sigma1 - n) <= _INTEGER_SNAP else math.floor(sigma1)


@dataclass
class TaylorInvariant:
    """sigma1(0) with its twisting number and the Taylor coefficients,
    S_{0,0} being the height and S_{1,0} the privileged fractional part."""

    sigma1_0: float
    twisting_p: int
    s_coeffs: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        if self.twisting_p != twisting_number(self.sigma1_0):
            raise ValueError("twisting_p must be the integer part of sigma1_0")

    @property
    def sigma1_privileged(self) -> float:
        return self.sigma1_0 - self.twisting_p

    @property
    def sigma2_0(self) -> float:
        return self.s_coeffs.get((0, 1), float("nan"))


def probe_samples(family: dict[int, LabelledSpectrum], origin, dx: float,
                  dy: float) -> list[A1A2Sample]:
    """a1a2_interpolated at the offset (dx, dy) from each k's own origin
    (``origin`` where a spectrum carries none), in ascending k."""
    out = []
    for k in sorted(family):
        spec = family[k]
        x0, y0 = spec.origin if getattr(spec, "origin", None) is not None else origin
        out.append(spec.a1a2_interpolated((x0 + dx, y0 + dy)))
    return out


def recover_fr_gradient(family: dict[int, LabelledSpectrum], origin, x: float,
                        mu: float = 2.0) -> tuple[float, float, dict]:
    """(dx f_r(0), dy f_r(0), info) from probes at horizontal offsets x and mu*x.

    dx f_r(0) ~ 2*pi*(a1(x,0) - a1(mu*x,0)) / ln(mu), same for dy with a2;
    the error budget is O(x ln x) + O(hbar).  info carries, keyed by x, the
    empirical hbar-convergence slopes and the per-k samples (already
    scaled) the hbar limits were fitted to.
    """
    ks = sorted(family)
    x = float(x)
    scale = 2 * np.pi / np.log(mu)
    pairs = list(zip(probe_samples(family, origin, x, 0.0),
                     probe_samples(family, origin, mu * x, 0.0)))
    d1 = [near.a1 - far.a1 for near, far in pairs]
    d2 = [near.a2 - far.a2 for near, far in pairs]
    lim1, info1 = hbar_limit(ks, d1)
    lim2, info2 = hbar_limit(ks, d2)
    dxfr, dyfr = float(scale * lim1), float(scale * lim2)
    if dyfr <= 0:
        raise SignError(f"recovered dy f_r(0) = {dyfr:.4f} <= 0")
    return dxfr, dyfr, {
        "hbar_slopes": {x: (info1["slope"], info2["slope"])},
        "per_k": {x: ([float(scale * v) for v in d1], [float(scale * v) for v in d2])},
    }


def _sigma_tilde(family, origin, s0, x):
    """hbar->0 limit of a1 + s0*a2 along the radial direction at offset x,
    with detection (and unipotent correction) of integer action jumps;
    returns (limit, hbar slope, corrected per-k values)."""
    ks = sorted(family)
    vals = np.array([s.a1 + s0 * s.a2 for s in probe_samples(family, origin, x, s0 * x)])
    med = np.median(vals)
    jumps = np.round(vals - med)
    if np.any(jumps != 0):
        vals = vals - jumps  # composition with (j,l) -> (j, l+n*j) on the odd k out
    lim, info = hbar_limit(ks, vals)
    return lim, info["slope"], vals.tolist()


def recover_sigma1(family: dict[int, LabelledSpectrum], origin, s0: float,
                   x_schedule) -> tuple[float, dict]:
    """sigma1(0) for the action variable selected by the labelling.

    sigma_tilde_1(x) = (E_(j,l)-E_(j+1,l))/(E_(j,l+1)-E_(j,l))
                       + hbar*s0/(E_(j,l+1)-E_(j,l))  at c = (x, s0*x),
    extrapolated hbar -> 0 and then x -> 0.  info carries, per x, the hbar
    limits, their slopes and the per-k values (after the integer-jump
    correction) they were fitted to.
    """
    xs = sorted(x_schedule, reverse=True)
    per_x, slopes, per_k = [], [], []
    for x in xs:
        val, slope, vals = _sigma_tilde(family, origin, s0, x)
        per_x.append(val)
        slopes.append(slope)
        per_k.append(vals)
    per_x = np.array(per_x)
    # a jump of ~ an integer across the schedule means the action changed chart
    steps = np.diff(per_x)
    if np.any(np.abs(steps) > 0.5):
        raise ActionDiscontinuity(
            f"sigma1 probes jump by {steps[np.argmax(np.abs(steps))]:+.2f} across the x schedule"
        )
    val, info = x_limit(xs, per_x)
    info["per_x"] = dict(zip(xs, per_x))
    info["hbar_slopes"] = dict(zip(xs, slopes))
    info["per_k"] = dict(zip(xs, per_k))
    return val, info


def recover_S01(family: dict[int, LabelledSpectrum], origin, s0: float,
                dy_fr: float, x_schedule) -> tuple[float, dict]:
    """S_{0,1} = lim lim ( hbar / (dy f_r(0) (E_(j,l+1)-E_(j,l))) + ln(x)/2pi ).

    info carries, per x, the hbar limits, their slopes and the per-k values
    they were fitted to."""
    if dy_fr <= 0:
        raise SignError("dy f_r(0) must be positive")
    ks = sorted(family)
    xs = sorted(x_schedule, reverse=True)
    per_x = []
    slopes, per_k = {}, {}
    for x in xs:
        vals = [s.a2 / dy_fr + np.log(x) / (2 * np.pi)
                for s in probe_samples(family, origin, x, s0 * x)]
        lim, inf = hbar_limit(ks, vals)
        per_x.append(lim)
        slopes[x] = inf["slope"]
        per_k[x] = [float(v) for v in vals]
    val, info = x_limit(xs, np.array(per_x))
    info["per_x"] = dict(zip(xs, per_x))
    info["hbar_slopes"] = slopes
    info["per_k"] = per_k
    return val, info
