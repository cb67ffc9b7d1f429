"""First-order invariants: gradient of the normal-form function, the
rotation coefficient sigma1(0), the twisting number, and S_{0,1}.

All recoveries follow the same pattern on a probe table, the spacing
functionals at offsets x*(1, slope) from the focus-focus value with one
row per k and one column per x (``ray_samples``, which the pipeline
reads): extrapolate hbar -> 0 over the k family, then send x -> 0 along
the schedule (``double_limit``).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ActionDiscontinuity, SignError
from .extrap import double_limit, hbar_limits

__all__ = [
    "twisting_number",
    "recover_fr_gradient",
    "recover_sigma1",
    "recover_S01",
]


_INTEGER_SNAP = 1e-9   # a sigma1 this close to an integer n counts as n


def twisting_number(sigma1: float) -> tuple[int, float]:
    """The twisting number p, the integer part of sigma1(0), and the
    residue S_{1,0} = sigma1 - p in [0, 1).

    A sigma1 within 1e-9 of an integer n gives p = n: an integer sigma1 is
    recovered with a rounding residue of either sign, and a plain floor
    would turn a residue of -3e-14 into p = n - 1.  A sigma1 snapped up to
    n leaves a negative residue, which reads 0.
    """
    n = round(sigma1)
    p = int(n) if abs(sigma1 - n) <= _INTEGER_SNAP else math.floor(sigma1)
    return p, sigma1 - p if sigma1 > p else 0.0


def recover_fr_gradient(ks, xs, a1, a2) -> tuple[float, float, dict]:
    """(dx f_r(0), dy f_r(0), info) from the probe table of the ray of
    slope 0 at the two offsets xs = (x, mu*x) (``ray_samples``).

    dx f_r(0) ~ 2*pi*(a1(x,0) - a1(mu*x,0)) / ln(mu), same for dy with a2;
    the error budget is O(x ln x) + O(hbar).  info holds the per-k samples
    the hbar limits were fitted to ("per_k", a k x 2 array of the scaled
    differences for dx and dy) and the two fits' convergence slopes
    ("hbar_slopes", [dx, dy]).
    """
    scale = 2 * np.pi / np.log(xs[1] / xs[0])
    diffs = np.column_stack([a1[:, 0] - a1[:, 1], a2[:, 0] - a2[:, 1]])
    lims, slopes = hbar_limits(ks, diffs)
    dxfr, dyfr = float(scale * lims[0]), float(scale * lims[1])
    if dyfr <= 0:
        raise SignError(f"recovered dy f_r(0) = {dyfr:.4f} <= 0")
    return dxfr, dyfr, {"per_k": scale * diffs, "hbar_slopes": slopes}


def recover_sigma1(ks, xs, a1, a2, s0: float) -> tuple[float, dict]:
    """sigma1(0) for the action variable selected by the labelling, from
    the probe table of the ray c = (x, s0*x) (``ray_samples``).

    sigma_tilde_1(x) = (E_(j,l)-E_(j+1,l))/(E_(j,l+1)-E_(j,l))
                       + hbar*s0/(E_(j,l+1)-E_(j,l)) = a1 + s0*a2,
    extrapolated hbar -> 0 and then x -> 0.  A per-k value an integer away
    from its column's median means that k's labels chose another action
    (an integer action jump), and raises ActionDiscontinuity naming that k
    and x.  info is ``double_limit``'s plus the k x x table it fitted
    ("per_k").
    """
    vals = a1 + s0 * a2
    jumps = np.round(vals - np.median(vals, axis=0))
    if jumps.any():
        i, j = np.argwhere(jumps)[0]
        raise ActionDiscontinuity(
            f"sigma1 probe at k={ks[i]}, x={xs[j]:g} lies {jumps[i, j]:+.0f} from the "
            f"median over k: an integer action jump")
    val, info = double_limit(ks, xs, vals)
    # a jump of ~ an integer across the schedule means the action changed chart
    steps = np.diff(info["per_x"])
    if np.any(np.abs(steps) > 0.5):
        raise ActionDiscontinuity(
            f"sigma1 probes jump by {steps[np.argmax(np.abs(steps))]:+.2f} across the x schedule"
        )
    return val, {**info, "per_k": vals}


def recover_S01(ks, xs, a2, dy_fr: float) -> tuple[float, dict]:
    """S_{0,1} = lim lim ( hbar / (dy f_r(0) (E_(j,l+1)-E_(j,l))) + ln(x)/2pi )
    from the a2 table of the ray c = (x, s0*x); info is ``double_limit``'s
    plus the k x x table it fitted ("per_k")."""
    if dy_fr <= 0:
        raise SignError("dy f_r(0) must be positive")
    table = a2 / dy_fr + np.log(xs) / (2 * np.pi)
    val, info = double_limit(ks, xs, table)
    return val, {**info, "per_k": table}
