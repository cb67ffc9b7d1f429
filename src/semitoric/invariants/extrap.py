"""Limit extraction helpers for the double limits hbar -> 0 then x -> 0.

The hbar limit at fixed probe is a least-squares fit in powers of hbar over
the k schedule; the x limit fits the known error shape A + B*x*ln(x) + C*x.
Every extraction reports an empirical convergence slope alongside the value.
A probe table has one row per k (ascending) and one column per probe x:
``hbar_limits`` takes the hbar limit of each column, ``double_limit`` then
sends x -> 0.
"""

from __future__ import annotations

import numpy as np

from ..errors import IllConditioned

__all__ = ["hbar_limit", "hbar_limits", "x_limit", "double_limit", "loglog_slope"]

_MAX_CONDITION = 1e9   # least-squares design matrices above this condition number are refused


def hbar_limit(ks, vals):
    """Fit vals ~ a0 + a1*hbar + a2*hbar^2 (degree len(ks) - 1 for fewer
    than three ks); return (a0, info).

    info carries the fit residual and the empirical convergence order (the
    log-log regression slope of |val_k - limit| against k; None when it is
    not finite, as when fewer than two samples differ from the limit)."""
    ks = np.asarray(ks, dtype=float)
    vals = np.asarray(vals, dtype=float)
    order = min(2, len(ks) - 1)
    hb = 1.0 / ks
    A = np.vstack([hb ** i for i in range(order + 1)]).T
    coef, res, *_ = np.linalg.lstsq(A, vals, rcond=None)
    rms = float(np.sqrt(res[0] / len(ks))) if len(res) else 0.0
    slope = loglog_slope(ks, vals - coef[0])
    return float(coef[0]), {"rms": rms, "slope": slope if np.isfinite(slope) else None}


def hbar_limits(ks, table):
    """hbar_limit of each column of ``table`` (one row per k in ``ks``);
    returns (limits array, list of the columns' convergence slopes)."""
    fits = [hbar_limit(ks, col) for col in np.asarray(table, dtype=float).T]
    return np.array([lim for lim, _ in fits]), [info["slope"] for _, info in fits]


def x_limit(xs, vals):
    """Fit vals ~ a + b*x*ln(x) + c*x; return (a, info). Falls back to the
    smallest-x value when the schedule is too short to fit."""
    xs = np.asarray(xs, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if len(xs) < 3:
        return float(vals[np.argmin(xs)]), {"cond": None}
    A = np.vstack([np.ones_like(xs), xs * np.log(xs), xs]).T
    coef, cond = _guarded_lstsq(A, vals, "x-limit design matrix")
    return float(coef[0]), {"cond": cond}


def _guarded_lstsq(A, b, what: str):
    """Least-squares solution of A v = b and the condition number of A;
    raises IllConditioned, its message led by ``what``, when the condition
    number exceeds _MAX_CONDITION."""
    cond = np.linalg.cond(A)
    if cond > _MAX_CONDITION:
        raise IllConditioned(f"{what} condition {cond:.2e}")
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    return coef, float(cond)


def double_limit(ks, xs, table):
    """hbar -> 0 in each column of ``table`` (one row per k in ``ks``, one
    column per x in ``xs``), then x -> 0; returns (value, info).

    info holds the hbar limits ("per_x", an array aligned with xs), their
    convergence slopes ("hbar_slopes", a list aligned with xs) and the x-fit
    condition number ("cond", None for a schedule too short to fit).
    """
    per_x, slopes = hbar_limits(ks, table)
    val, fit = x_limit(xs, per_x)
    return val, {"per_x": per_x, "hbar_slopes": slopes, "cond": fit["cond"]}


def loglog_slope(ks, errs):
    """Regression slope of ln|err| against ln k (empirical convergence order)."""
    ks = np.asarray(ks, dtype=float)
    errs = np.abs(np.asarray(errs, dtype=float))
    keep = errs > 0
    if keep.sum() < 2:
        return -np.inf
    return float(np.polyfit(np.log(ks[keep]), np.log(errs[keep]), 1)[0])
