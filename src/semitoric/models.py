"""The quantum semitoric model systems and their joint spectra.

Each system carries an S^1 symmetry: the first operator J is diagonal in
the natural product basis and constant on finite chains that the second
operator H preserves, so H block-diagonalizes into real symmetric
tridiagonal matrices indexed by a conserved integer, the block id.  J is
affine in the block id with slope +-hbar, hbar = 1/k.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CommutatorViolation, ConfigurationError, DimensionMismatch, EmptyWindow
from .geometry import Rect
from .tridiag import eigs_in_window, eigs_sym_tridiagonal

SPIN_OSCILLATOR = "spin-oscillator"
COUPLED_ANGULAR_MOMENTA = "coupled-angular-momenta"

_BLOCK_J_REL = 1e-12   # J-eigenvalue spread allowed inside one block, relative to r1 + r2

__all__ = [
    "SPIN_OSCILLATOR",
    "COUPLED_ANGULAR_MOMENTA",
    "ModelSpec",
    "BlockSequence",
    "JointSpectrum",
    "build_blocks",
    "joint_spectrum",
]


@dataclass(frozen=True)
class ModelSpec:
    """A model system.  ``ModelSpec(kind, r1=..., r2=..., t=...)`` returns an
    instance of the kind's subclass.  A subclass validates its parameters in
    ``__post_init__`` and supplies ``check_dimensions``, ``j_value(k, ids)``
    (the J value of each block id), ``_id_bounds(k)``, ``_chain_bounds(k,
    ids)``, the builder ``_block(k, id)`` of a block's matrix (diag,
    offdiag), ``j_range`` (None when J is unbounded), ``strip``,
    ``dh_range`` (the J-range of the Duistermaat-Heckman profile),
    ``polygon_ymax``, and the privileged polygon (zero
    twisting, upward cut): ``polygon_vertices``, ``polygon_slice(x)`` and
    ``hausdorff_budget`` (in multiples of hbar)."""

    kind: str
    r1: float = 1.0
    r2: float = 2.5
    t: float = 0.5

    def __new__(cls, kind=None, *args, **kwargs):
        # compared by equality, not hashed: an unhashable kind is refused too
        if cls is ModelSpec and kind not in tuple(_KINDS):
            raise ConfigurationError(f"unknown model kind {kind!r}")
        return super().__new__(_KINDS[kind] if cls is ModelSpec else cls)

    def __post_init__(self):
        """Defined so that the generated __init__ calls a subclass's override."""

    def check_dimensions(self, k: int) -> None:
        if k < 1:
            raise DimensionMismatch("k must be a positive integer")

    def j_sign(self, k: int) -> int:
        return 1 if self.j_value(k, 1) > self.j_value(k, 0) else -1

    def _chain(self, k: int, block_id: int) -> np.ndarray:
        lo, hi = self._chain_bounds(k, block_id)
        return np.arange(lo, hi + 1)


class _SpinOscillator(ModelSpec):
    """Spin-oscillator on R^2 x S^2 (r1, r2 and t unused):
        J = (u^2+v^2)/2 + z,   H = (ux + vy)/2.
    Basis f_n ⊗ e_l, with f_n the normalized Bargmann monomials
    (w f_n = sqrt((n+1)/k) f_{n+1}, k^{-1} d/dw f_n = sqrt(n/k) f_{n-1})
    and e_l the sphere basis of dimension 2k.  J eigenvalue on f_n ⊗ e_l is
    1 + (n-l)/k, so blocks are chains of constant m = n - l, indexed by the
    sphere index l."""

    j_range = None
    strip = (-0.8, 2.0)
    dh_range = (-0.95, 2.5)
    polygon_ymax = 2.6
    polygon_vertices = ((-1.0, -1.0), (1.0, 1.0))
    hausdorff_budget = 6.0

    def j_value(self, k: int, block_id):
        return 1.0 + block_id / k

    def _id_bounds(self, k: int):
        return -(2 * k - 1), np.inf

    def _chain_bounds(self, k: int, ids):
        return np.maximum(0, -ids), 2 * k - 1

    def _block(self, k: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        ls = self._chain(k, m)
        diag = np.zeros(len(ls))
        off = np.sqrt((ls[:-1] + m + 1) / k) * np.sqrt(
            (ls[:-1] + 1) * (2 * k - 1 - ls[:-1])
        ) / (2 * np.sqrt(2) * k)
        return diag, off

    def polygon_slice(self, x: float) -> tuple[float, float]:
        if x < -1.0:
            return (0.0, -1.0)
        return (-1.0, min(x, 1.0))


class _CoupledAngularMomenta(ModelSpec):
    """Coupled angular momenta on S^2 x S^2 (r2 > r1 > 0 half-integers):
        J = r1 z1 + r2 z2,   H = (1-t) z1 + t (x1 x2 + y1 y2 + z1 z2).
    Product basis e_{l1} ⊗ e_{l2} of dimension N1*N2, Ni = 2*k*ri.  J is
    quantized as r1*Z⊗I + r2*I⊗Z, which makes its eigenvalue
    r1 + r2 - (1+s)/k a function of s = l1 + l2 alone and the pair commute
    exactly (the coupling only moves (l1,l2) -> (l1±1, l2∓1)).  Blocks are
    indexed by s, chains by l1 (l2 = s - l1)."""

    polygon_ymax = 1.2
    hausdorff_budget = 8.0

    def __post_init__(self):
        if not (np.isfinite(self.r2) and self.r2 > self.r1 > 0):
            raise ConfigurationError("coupled angular momenta require finite r2 > r1 > 0")
        if not 0.0 <= self.t <= 1.0:
            raise ConfigurationError("coupling parameter t must lie in [0, 1]")

    def check_dimensions(self, k: int) -> None:
        super().check_dimensions(k)
        n1, n2 = self._dims(k)
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

    def _dims(self, k: int) -> tuple[int, int]:
        return round(2 * k * self.r1), round(2 * k * self.r2)

    @property
    def j_range(self) -> tuple[float, float]:
        return (-(self.r1 + self.r2), self.r1 + self.r2)

    @property
    def strip(self) -> tuple[float, float]:
        return (-(self.r1 + self.r2) + 0.2, self.r1 + self.r2 - 0.4)

    @property
    def dh_range(self) -> tuple[float, float]:
        return (-(self.r1 + self.r2) + 0.06, self.r1 + self.r2 - 0.06)

    @property
    def polygon_vertices(self) -> list[tuple[float, float]]:
        r1, r2 = self.r1, self.r2
        return [(-(r1 + r2), -r1), (r1 - r2, r1), (r2 - r1, -r1), (r1 + r2, r1)]

    def j_value(self, k: int, block_id):
        return self.r1 + self.r2 - (1 + block_id) / k

    def _id_bounds(self, k: int):
        return 0, sum(self._dims(k)) - 2

    def _chain_bounds(self, k: int, ids):
        n1, n2 = self._dims(k)
        return np.maximum(0, ids - (n2 - 1)), np.minimum(n1 - 1, ids)

    def _block(self, k: int, s: int) -> tuple[np.ndarray, np.ndarray]:
        n1, n2 = self._dims(k)
        l1 = self._chain(k, s)
        l2 = s - l1
        t = self.t
        pref = t * (1 + n1) * (1 + n2) / (n1 * n2)
        diag = ((1 - t) * (1 + n1) / n1) * (n1 - 1 - 2 * l1) / n1 \
            + pref * (n1 - 1 - 2 * l1) * (n2 - 1 - 2 * l2) / (n1 * n2)
        off = pref * 2.0 / (n1 * n2) * np.sqrt(
            (l1[:-1] + 1) * (n1 - 1 - l1[:-1]) * l2[:-1] * (n2 - l2[:-1])
        )
        return diag, off

    def polygon_slice(self, x: float) -> tuple[float, float]:
        r1, r2 = self.r1, self.r2
        if abs(x) > r1 + r2:
            return (0.0, -1.0)
        return (max(-r1, x - r2), min(r1, x + r2))


_KINDS = {SPIN_OSCILLATOR: _SpinOscillator, COUPLED_ANGULAR_MOMENTA: _CoupledAngularMomenta}


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

class BlockSequence(Sequence):
    """The J-blocks of one window, in ascending block id.  Block i is
    ``ids[i]``, of dimension ``sizes[i]`` and J eigenvalue ``j_values[i]``,
    all in closed form; its matrix ``self[i] = (diag, offdiag)`` is built
    only when it is accessed."""

    def __init__(self, model: ModelSpec, k: int, ids: range):
        self.model, self.k, self.ids = model, k, ids
        lo, hi = model._chain_bounds(k, np.asarray(ids))
        self.sizes = hi - lo + 1
        self.j_values = model.j_value(k, np.asarray(ids))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        return self.model._block(self.k, self.ids[i])

    def eigenvalues(self, i: int) -> np.ndarray:
        """Ascending eigenvalues of block i; CommutatorViolation when two
        coincide, since H must have a simple spectrum on each J-eigenspace."""
        return self._simple(i, eigs_sym_tridiagonal(*self[i]))

    def eigenvalue_window(self, i: int, lo: int, hi: int) -> np.ndarray:
        """Eigenvalues number lo..hi (both included) of block i's ascending
        spectrum, solved alone; CommutatorViolation as for ``eigenvalues``."""
        return self._simple(i, eigs_in_window(*self[i], lo, hi))

    def _simple(self, i: int, ev: np.ndarray) -> np.ndarray:
        if np.any(np.diff(ev) <= 0):
            raise CommutatorViolation(f"non-simple spectrum in block {self.ids[i]}")
        return ev


def build_blocks(model: ModelSpec, k: int, j_window) -> BlockSequence:
    """Every J-eigenspace block whose j_value lies in [j_window[0], j_window[1]]:
    J is affine in the block id with slope +-1/k, so the ids are one inversion
    of that map, clamped to the model's id bounds."""
    model.check_dimensions(k)
    xlo, xhi = j_window
    if xhi < xlo:
        raise EmptyWindow("empty j_window")
    j0, sign = model.j_value(k, 0), model.j_sign(k)
    lo, hi = sorted((sign * (xlo - j0) * k, sign * (xhi - j0) * k))
    first, last = model._id_bounds(k)
    ids = range(max(int(np.ceil(lo - 1e-9)), first), min(int(np.floor(hi + 1e-9)), last) + 1)
    if len(ids) == 0:
        raise EmptyWindow(f"no block intersects j_window {j_window}")
    return BlockSequence(model, k, ids)


def joint_spectrum(model: ModelSpec, k: int, window: Rect | None = None) -> JointSpectrum:
    """All joint eigenvalues (x, y) with x in the window's x-range; y filtered
    to the window's y-range but indexed by position in the full block spectrum."""
    if window is None:
        if model.j_range is None:
            raise EmptyWindow(f"{model.kind} needs a finite window (J unbounded)")
        window = Rect(*model.j_range, -2.0, 2.0)
    blocks = build_blocks(model, k, (window.xmin, window.xmax))
    columns = zip(blocks.j_values, blocks.ids, map(blocks.eigenvalues, range(len(blocks))))
    return _spectrum(k, columns, window.ymin, window.ymax)

