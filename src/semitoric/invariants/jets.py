"""First-order invariants: gradient of the normal-form function, the
rotation coefficient sigma1(0), the twisting number, and S_{0,1}.

All recoveries follow the same pattern: evaluate spacing functionals at
probes offset by x*(1, slope) from the focus-focus value (``ray_samples``),
extrapolate hbar -> 0 over the k family, then send x -> 0 along the
schedule (``double_limit``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ActionDiscontinuity, SignError
from .extrap import double_limit, hbar_limits
from .spacings import LabelledSpectrum, ray_samples

__all__ = [
    "FrJet",
    "TaylorInvariant",
    "twisting_number",
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


def recover_fr_gradient(family: dict[int, LabelledSpectrum], x: float,
                        mu: float = 2.0) -> tuple[float, float, dict]:
    """(dx f_r(0), dy f_r(0), info) from probes at horizontal offsets x and mu*x.

    dx f_r(0) ~ 2*pi*(a1(x,0) - a1(mu*x,0)) / ln(mu), same for dy with a2;
    the error budget is O(x ln x) + O(hbar).  info has the keys of
    ``double_limit``'s, each value a (dx, dy) pair keyed by x; "per_k"
    holds the per-k samples (already scaled) the hbar limits were fitted to.
    Every spectrum of ``family`` must carry an ``origin`` (see ``ray_samples``).
    """
    ks = sorted(family)
    x = float(x)
    scale = 2 * np.pi / np.log(mu)
    a1, a2 = ray_samples(family, 0.0, [x, mu * x])
    diffs = np.column_stack([a1[:, 0] - a1[:, 1], a2[:, 0] - a2[:, 1]])
    lims, slopes = hbar_limits(ks, diffs)
    dxfr, dyfr = float(scale * lims[0]), float(scale * lims[1])
    if dyfr <= 0:
        raise SignError(f"recovered dy f_r(0) = {dyfr:.4f} <= 0")
    d1, d2 = (scale * diffs).T.tolist()
    return dxfr, dyfr, {
        "per_k": {x: (d1, d2)},
        "per_x": {x: (dxfr, dyfr)},
        "hbar_slopes": {x: tuple(slopes)},
        "cond": None,
    }


def recover_sigma1(ks, xs, a1, a2, s0: float) -> tuple[float, dict]:
    """sigma1(0) for the action variable selected by the labelling, from
    the probe table of the ray c = (x, s0*x) (``ray_samples``).

    sigma_tilde_1(x) = (E_(j,l)-E_(j+1,l))/(E_(j,l+1)-E_(j,l))
                       + hbar*s0/(E_(j,l+1)-E_(j,l)) = a1 + s0*a2,
    extrapolated hbar -> 0 and then x -> 0.  A per-k value an integer away
    from its column's median is an integer action jump, undone by the
    composition with (j,l) -> (j, l+n*j) on the odd k out; info (see
    ``double_limit``) carries the per-k values after that correction.
    """
    vals = a1 + s0 * a2
    vals = vals - np.round(vals - np.median(vals, axis=0))
    val, info = double_limit(ks, xs, vals)
    # a jump of ~ an integer across the schedule means the action changed chart
    steps = np.diff(list(info["per_x"].values()))
    if np.any(np.abs(steps) > 0.5):
        raise ActionDiscontinuity(
            f"sigma1 probes jump by {steps[np.argmax(np.abs(steps))]:+.2f} across the x schedule"
        )
    return val, info


def recover_S01(ks, xs, a2, dy_fr: float) -> tuple[float, dict]:
    """S_{0,1} = lim lim ( hbar / (dy f_r(0) (E_(j,l+1)-E_(j,l))) + ln(x)/2pi )
    from the a2 table of the ray c = (x, s0*x); info as ``double_limit``'s."""
    if dy_fr <= 0:
        raise SignError("dy f_r(0) must be positive")
    return double_limit(ks, xs, a2 / dy_fr + np.log(xs) / (2 * np.pi))
