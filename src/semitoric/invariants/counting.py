"""Counting-based invariants: height, Duistermaat-Heckman profile, and
location of the focus-focus critical value.

Weyl-type counting in vertical strips of width ~ hbar^delta recovers the
reduced symplectic volume: with N_hbar(x, delta) the number of joint
eigenvalues in [x - hbar^delta, x + hbar^delta] x R,

    (hbar^(2-delta) / 2) N_hbar(x, delta)  ->  rho_J(x),

the Duistermaat-Heckman density.  Counting only below the focus-focus
ordinate and centering at its abscissa gives the height invariant S_{0,0},
the sub-critical reduced volume.  J's spectrum is an exact hbar-lattice of
columns, so column_height counts the one column at x0 instead: hbar times
its count below y0 tends to S_{0,0} with no strip width to choose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NoPeak, WindowTooNarrow
from .extrap import hbar_limit

__all__ = [
    "CloudCounter",
    "DHProfile",
    "height_invariant",
    "column_height",
    "dh_profile",
    "detect_kinks",
    "locate_focus_focus",
]


class CloudCounter:
    """Counter backed by explicit point arrays {k: (n,2) array}."""

    def __init__(self, clouds: dict[int, np.ndarray]):
        self.clouds = {k: np.asarray(p, dtype=float) for k, p in clouds.items()}
        self.ks = sorted(clouds)

    def count(self, k, xlo, xhi, ylo=-np.inf, yhi=np.inf) -> int:
        p = self.clouds[k]
        return int(np.sum((p[:, 0] >= xlo) & (p[:, 0] <= xhi)
                          & (p[:, 1] >= ylo) & (p[:, 1] <= yhi)))


@dataclass
class DHProfile:
    samples: np.ndarray          # (n, 2): abscissa, scaled count
    k: int


def height_invariant(counter, x0: float, y0: float, delta: float = 0.4) -> tuple[float, dict]:
    """S_{0,0} = lim (hbar^(2-delta) / 2) #{spectrum in strip, y <= y0},
    extrapolated over the k family with the known hbar^delta error shape:
    the paper's route, which does not use the column lattice."""
    if not 0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    ks = list(counter.ks)
    raw = []
    for k in ks:
        hb = 1.0 / k
        w = hb ** delta
        n = counter.count(k, x0 - w, x0 + w, -np.inf, y0)
        if n < 10:
            raise WindowTooNarrow(f"k={k}: strip contains only {n} points")
        raw.append(hb ** (2 - delta) / 2 * n)
    hb = 1.0 / np.asarray(ks, dtype=float)
    A = np.vstack([np.ones_like(hb), hb ** delta]).T
    coef, *_ = np.linalg.lstsq(A, np.asarray(raw), rcond=None)
    return float(coef[0]), {"raw": dict(zip(ks, raw))}


def column_height(counter, origins) -> tuple[float, dict]:
    """S_{0,0} = lim hbar #{column at x0, y <= y0} over origins {k: (x0, y0)},
    x0 a column abscissa; [x0 - 0.45 hbar, x0 + 0.45 hbar] holds that column
    alone.  info carries the per-k n_k / k ("raw") and the hbar_limit slope
    (None when fewer than two samples differ from the limit)."""
    ks = sorted(origins)
    raw = []
    for k in ks:
        x0, y0 = origins[k]
        n = counter.count(k, x0 - 0.45 / k, x0 + 0.45 / k, -np.inf, y0)
        if n < 10:
            raise WindowTooNarrow(f"k={k}: column at x={x0} holds only {n} points below y0")
        raw.append(n / k)
    lim, info = hbar_limit(ks, raw)
    return lim, {"raw": dict(zip(ks, raw)), "slope": info["slope"]}


def dh_profile(counter, k: int, delta: float, x_grid) -> DHProfile:
    if not 0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    hb = 1.0 / k
    w = hb ** delta
    vals = [hb ** (2 - delta) / 2 * counter.count(k, x - w, x + w) for x in x_grid]
    return DHProfile(np.column_stack([x_grid, vals]), k)


def detect_kinks(profile: DHProfile, half_window: float = 0.35,
                 min_jump: float = 0.3) -> list[float]:
    """Abscissae where the piecewise-linear profile changes slope: two-sided
    line fits, local maxima of the slope jump above min_jump."""
    xg, rho = profile.samples[:, 0], profile.samples[:, 1]
    jumps = []
    for x in xg:
        left = (xg >= x - half_window) & (xg < x)
        right = (xg > x) & (xg <= x + half_window)
        if left.sum() < 3 or right.sum() < 3:
            jumps.append(0.0)
            continue
        sl = np.polyfit(xg[left], rho[left], 1)[0]
        sr = np.polyfit(xg[right], rho[right], 1)[0]
        jumps.append(abs(sr - sl))
    jumps = np.asarray(jumps)
    hits = [i for i in range(1, len(xg) - 1)
            if jumps[i] > min_jump and jumps[i] >= jumps[i - 1] and jumps[i] >= jumps[i + 1]]
    merged: list[list[float]] = []
    step = xg[1] - xg[0] if len(xg) > 1 else 1.0
    for i in hits:
        if merged and abs(xg[i] - merged[-1][-1]) < 2.5 * step:
            merged[-1].append(xg[i])
        else:
            merged.append([xg[i]])
    return [float(np.mean(c)) for c in merged]


_PEAK_FACTOR = 1.8    # least ratio of the hbar/spacing peak to its column median
_REFINE_STEPS = 4     # columns scanned on each side of a kink candidate


def locate_focus_focus(ladder_provider, k: int,
                       x_candidates) -> list[tuple[float, float]]:
    """Classify candidate abscissae by the log-divergence of inverse level
    spacings in the vertical line above them.

    ladder_provider(k, x) must return (x_actual, ascending eigenvalue array)
    for the spectral column nearest x.  A focus-focus value shows an interior
    peak of hbar/spacing growing like -C ln|y - y0|; elliptic candidates do
    not.  Kink candidates are only accurate to the profile resolution, so
    the _REFINE_STEPS neighboring columns on each side are scanned for the
    strongest peak.
    Returns the located values; raises NoPeak if none qualifies.
    """
    hb = 1.0 / k
    found = []
    for xc in x_candidates:
        best = None
        # nearest columns first so ties keep the candidate abscissa
        for step in sorted(range(-_REFINE_STEPS, _REFINE_STEPS + 1), key=abs):
            x_act, ev = ladder_provider(k, xc + step * hb)
            if len(ev) < 8:
                continue
            mids = 0.5 * (ev[1:] + ev[:-1])
            inv = hb / np.diff(ev)
            i = int(np.argmax(inv))
            span = ev[-1] - ev[0]
            if not (ev[0] + 0.05 * span < mids[i] < ev[-1] - 0.05 * span):
                continue
            score = inv[i] / np.median(inv)
            if score < _PEAK_FACTOR:
                continue
            if best is None or score > best[0]:
                best = (score, x_act, _refine_peak(mids, inv, i))
        if best is not None:
            found.append((float(best[1]), float(best[2])))
    if not found:
        raise NoPeak("no interior spacing peak among the candidates")
    return found


def _refine_peak(mids, inv, i):
    """Least-squares fit of inv ~ -C ln|y - y0| + D, scanning y0 inside the
    minimal gap around the raw peak."""
    lo, hi = max(0, i - 8), min(len(mids), i + 9)
    y, v = mids[lo:hi], inv[lo:hi]
    gap_lo = mids[i - 1] if i - 1 >= 0 else mids[i]
    gap_hi = mids[i + 1] if i + 1 < len(mids) else mids[i]
    best = (np.inf, mids[i])
    for y0 in np.linspace(gap_lo, gap_hi, 41):
        r = np.abs(y - y0)
        keep = r > 1e-12
        if keep.sum() < 4:
            continue
        A = np.vstack([np.log(r[keep]), np.ones(int(keep.sum()))]).T
        coef, res, *_ = np.linalg.lstsq(A, v[keep], rcond=None)
        if coef[0] < 0 and len(res) and res[0] < best[0]:
            best = (float(res[0]), float(y0))
    return best[1]
