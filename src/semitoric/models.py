"""The two quantum semitoric model systems and their joint spectra.

Both systems carry an S^1 symmetry: the first operator J is diagonal in
the natural product basis and constant on finite chains that the second
operator H preserves, so H block-diagonalizes into real symmetric
tridiagonal matrices indexed by a conserved integer.

Spin-oscillator on R^2 x S^2 (hbar = 1/k):
    J = (u^2+v^2)/2 + z,   H = (ux + vy)/2.
Basis f_n ⊗ e_l, with f_n the normalized Bargmann monomials
(w f_n = sqrt((n+1)/k) f_{n+1}, k^{-1} d/dw f_n = sqrt(n/k) f_{n-1})
and e_l the sphere basis of dimension 2k.  J eigenvalue on f_n ⊗ e_l is
1 + (n-l)/k, so blocks are chains of constant m = n - l.

Coupled angular momenta on S^2 x S^2 (r2 > r1 > 0 half-integers):
    J = r1 z1 + r2 z2,   H = (1-t) z1 + t (x1 x2 + y1 y2 + z1 z2).
Product basis e_{l1} ⊗ e_{l2} of dimension N1*N2, Ni = 2*k*ri.  J is
quantized as r1*Z⊗I + r2*I⊗Z, which makes its eigenvalue
r1 + r2 - (1+s)/k a function of s = l1 + l2 alone and the pair commute
exactly (the coupling only moves (l1,l2) -> (l1±1, l2∓1)).
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CommutatorViolation, ConfigurationError, DimensionMismatch, EmptyWindow
from .geometry import Rect
from .tridiag import eigs_sym_tridiagonal

SPIN_OSCILLATOR = "spin-oscillator"
COUPLED_ANGULAR_MOMENTA = "coupled-angular-momenta"

_BLOCK_J_REL = 1e-12   # J-eigenvalue spread allowed inside one block, relative to r1 + r2

__all__ = [
    "SPIN_OSCILLATOR",
    "COUPLED_ANGULAR_MOMENTA",
    "ModelSpec",
    "TridiagonalBlock",
    "BlockSequence",
    "JointSpectrum",
    "build_blocks",
    "joint_spectrum",
    "spectrum_to_csv",
    "spectrum_to_json",
]


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    r1: float = 1.0
    r2: float = 2.5
    t: float = 0.5

    def __post_init__(self):
        if self.kind not in (SPIN_OSCILLATOR, COUPLED_ANGULAR_MOMENTA):
            raise ConfigurationError(f"unknown model kind {self.kind!r}")
        if self.kind == COUPLED_ANGULAR_MOMENTA:
            if not (np.isfinite(self.r2) and self.r2 > self.r1 > 0):
                raise ConfigurationError("coupled angular momenta require finite r2 > r1 > 0")
            if not 0.0 <= self.t <= 1.0:
                raise ConfigurationError("coupling parameter t must lie in [0, 1]")

    def check_dimensions(self, k: int) -> None:
        if k < 1:
            raise DimensionMismatch("k must be a positive integer")
        if self.kind != COUPLED_ANGULAR_MOMENTA:
            return
        n1, n2 = _dims(self, k)
        for name, r, n in (("r1", self.r1, n1), ("r2", self.r2, n2)):
            if n < 1 or abs(2 * k * r - n) > 1e-9:
                raise DimensionMismatch(f"2*k*{name} = {2 * k * r} is not a positive integer")
        # state (l1, l2) of block s = l1 + l2 departs from the block's J value
        # by (1 + 2 l1) d1 + (1 + 2 l2) d2, di = 1/(2k) - ri/ni: affine in each
        # index, so largest at a corner li in {0, ni - 1}
        d1, d2 = 1 / (2 * k) - self.r1 / n1, 1 / (2 * k) - self.r2 / n2
        spread = max(abs(a * d1 + b * d2) for a in (1, 2 * n1 - 1) for b in (1, 2 * n2 - 1))
        if spread > _BLOCK_J_REL * (self.r1 + self.r2):
            raise DimensionMismatch(f"J eigenvalue spread {spread:.3e} within a block "
                                    f"at k = {k}: r1, r2 are off the 1/(2k) grid")


@dataclass(frozen=True)
class TridiagonalBlock:
    block_id: int
    j_value: float
    diag: np.ndarray
    offdiag: np.ndarray

    @property
    def size(self) -> int:
        return len(self.diag)

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues; CommutatorViolation when two coincide,
        since H must have a simple spectrum on each J-eigenspace."""
        ev = eigs_sym_tridiagonal(self.diag, self.offdiag)
        if np.any(np.diff(ev) <= 0):
            raise CommutatorViolation(f"non-simple spectrum in block {self.block_id}")
        return ev


@dataclass(frozen=True)
class JointSpectrum:
    """Joint eigenvalues as parallel arrays sorted by (block, idx): point i is
    (x[i], y[i]), eigenvalue number idx[i] (ascending) of block block[i]."""

    k: int
    x: np.ndarray
    y: np.ndarray
    block: np.ndarray
    idx: np.ndarray

    def as_array(self) -> np.ndarray:
        return np.column_stack((self.x, self.y))

    def __len__(self) -> int:
        return len(self.x)


def _spectrum(k: int, columns, ylo: float = -np.inf, yhi: float = np.inf) -> JointSpectrum:
    """Spectrum from per-column triples (x, block id, ascending eigenvalues);
    y is cut to [ylo, yhi] after idx has counted each whole column."""
    xs, ids, evs = zip(*columns)
    sizes = [len(ev) for ev in evs]
    y = np.concatenate(evs)
    idx = np.arange(len(y)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    keep = (ylo <= y) & (y <= yhi)
    x, block = np.repeat(xs, sizes)[keep], np.repeat(ids, sizes)[keep]
    y, idx = y[keep], idx[keep]
    order = np.lexsort((idx, block))
    return JointSpectrum(k, x[order], y[order], block[order], idx[order])


# ---------------------------------------------------------------------------
# block construction

def _dims(model: ModelSpec, k: int) -> tuple[int, int]:
    """Coupled sphere dimensions (n1, n2) = (2 k r1, 2 k r2)."""
    return round(2 * k * model.r1), round(2 * k * model.r2)


def _chain_bounds(model: ModelSpec, k: int, ids):
    """First and last chain index of each block id (scalar or array): the
    sphere index l of the spin-oscillator, l1 of coupled (l2 = s - l1)."""
    if model.kind == SPIN_OSCILLATOR:
        return np.maximum(0, -ids), 2 * k - 1
    n1, n2 = _dims(model, k)
    return np.maximum(0, ids - (n2 - 1)), np.minimum(n1 - 1, ids)


def _chain(model: ModelSpec, k: int, block_id: int) -> np.ndarray:
    lo, hi = _chain_bounds(model, k, block_id)
    return np.arange(lo, hi + 1)


def _j_value(model: ModelSpec, k: int, block_id):
    """J eigenvalue of each block id (scalar or array)."""
    if model.kind == SPIN_OSCILLATOR:
        return 1.0 + block_id / k
    return model.r1 + model.r2 - (1 + block_id) / k


def _spin_block(model: ModelSpec, k: int, m: int) -> TridiagonalBlock:
    ls = _chain(model, k, m)
    diag = np.zeros(len(ls))
    off = np.sqrt((ls[:-1] + m + 1) / k) * np.sqrt(
        (ls[:-1] + 1) * (2 * k - 1 - ls[:-1])
    ) / (2 * np.sqrt(2) * k)
    return TridiagonalBlock(m, _j_value(model, k, m), diag, off)


def _coupled_block(model: ModelSpec, k: int, s: int) -> TridiagonalBlock:
    n1, n2 = _dims(model, k)
    l1 = _chain(model, k, s)
    l2 = s - l1
    t = model.t
    pref = t * (1 + n1) * (1 + n2) / (n1 * n2)
    diag = ((1 - t) * (1 + n1) / n1) * (n1 - 1 - 2 * l1) / n1 \
        + pref * (n1 - 1 - 2 * l1) * (n2 - 1 - 2 * l2) / (n1 * n2)
    off = pref * 2.0 / (n1 * n2) * np.sqrt(
        (l1[:-1] + 1) * (n1 - 1 - l1[:-1]) * l2[:-1] * (n2 - l2[:-1])
    )
    return TridiagonalBlock(s, _j_value(model, k, s), diag, off)


class BlockSequence(Sequence):
    """The J-blocks of one window, in ascending block id.  ``sizes`` and
    ``j_values`` hold the block dimensions and J eigenvalues in closed form;
    a block's matrix is built only when the block is accessed."""

    def __init__(self, model: ModelSpec, k: int, ids: range):
        self.model, self.k, self.ids = model, k, ids
        lo, hi = _chain_bounds(model, k, np.asarray(ids))
        self.sizes = hi - lo + 1
        self.j_values = _j_value(model, k, np.asarray(ids))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        build = _spin_block if self.model.kind == SPIN_OSCILLATOR else _coupled_block
        return build(self.model, self.k, self.ids[i])


def _block_id_range(model: ModelSpec, k: int, j_window) -> range:
    xlo, xhi = j_window
    if xhi < xlo:
        raise EmptyWindow("empty j_window")
    if model.kind == SPIN_OSCILLATOR:
        lo = max(int(np.ceil((xlo - 1) * k - 1e-9)), -(2 * k - 1))
        hi = int(np.floor((xhi - 1) * k + 1e-9))
        return range(lo, hi + 1)
    smax = sum(_dims(model, k)) - 2
    rsum = model.r1 + model.r2
    lo = max(int(np.ceil((rsum - xhi) * k - 1 - 1e-9)), 0)
    hi = min(int(np.floor((rsum - xlo) * k - 1 + 1e-9)), smax)
    return range(lo, hi + 1)


def build_blocks(model: ModelSpec, k: int, j_window) -> BlockSequence:
    """Every J-eigenspace block whose j_value lies in [j_window[0], j_window[1]]."""
    model.check_dimensions(k)
    ids = _block_id_range(model, k, j_window)
    if len(ids) == 0:
        raise EmptyWindow(f"no block intersects j_window {j_window}")
    return BlockSequence(model, k, ids)


def joint_spectrum(model: ModelSpec, k: int, window: Rect | None = None) -> JointSpectrum:
    """All joint eigenvalues (x, y) with x in the window's x-range; y filtered
    to the window's y-range but indexed by position in the full block spectrum."""
    if window is None:
        if model.kind == SPIN_OSCILLATOR:
            raise EmptyWindow("spin-oscillator needs a finite window (J unbounded)")
        rsum = model.r1 + model.r2
        window = Rect(-rsum, rsum, -2.0, 2.0)
    blocks = build_blocks(model, k, (window.xmin, window.xmax))
    columns = [(b.j_value, b.block_id, b.eigenvalues()) for b in blocks]
    return _spectrum(k, columns, window.ymin, window.ymax)


# ---------------------------------------------------------------------------
# export

def _rows(spec: JointSpectrum):
    return zip(spec.x.tolist(), spec.y.tolist(), spec.block.tolist(), spec.idx.tolist())


def spectrum_to_csv(spec: JointSpectrum) -> str:
    lines = ["k,x,y,block,idx"]
    lines += [f"{spec.k},{x:.17g},{y:.17g},{b},{i}" for x, y, b, i in _rows(spec)]
    return "\n".join(lines) + "\n"


def spectrum_to_json(spec: JointSpectrum) -> str:
    return json.dumps(
        {
            "k": spec.k,
            "points": [{"x": x, "y": y, "block": b, "idx": i} for x, y, b, i in _rows(spec)],
        },
        indent=2,
    )
