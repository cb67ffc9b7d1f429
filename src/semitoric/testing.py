"""Ground truth for the tests and the synthetic-lattice benchmark.

``random_chart`` draws valid synthetic charts.  A chart is usable as
lattice ground truth only if its leading part is a comfortable
diffeomorphism: candidates are resampled until the Jacobian determinant
keeps a margin over the whole domain.

``dense_oracle_spectrum`` is the independent route to a joint spectrum:
dense J and H on the (truncated) product basis, checked to commute, with H
diagonalized on each J eigenspace.  ``spectrum_columns`` splits a spectrum
into its columns for comparison with the block solves.

``strip_density`` is the paper's Weyl-law estimate of the
Duistermaat-Heckman density, the reference for the exact column reads.
"""

from __future__ import annotations

import numpy as np

from .errors import CommutatorViolation
from .geometry import Rect
from .lattice import ChartSpec
from .models import SPIN_OSCILLATOR, JointSpectrum, ModelSpec, _spectrum
from .pipeline import ModelCounter

__all__ = ["random_chart", "dense_oracle_spectrum", "spectrum_columns", "strip_density"]

_DOMAIN = Rect(-0.55, 0.55, -0.55, 0.55)
_HALF_DOMAIN = Rect(-0.55, 0.55, 0.0, 0.9)
_NONLINEARITY = 0.22   # bound on the random quadratic and sine coefficients
_MIN_DET = 0.35        # least Jacobian determinant of g0 over the domain
_MARGIN_GRID = 15      # the determinant is sampled on this many x and y values
_COMMUTATOR = 1e-10    # dense-oracle [J,H] bound on interior states


def _jacobian_margin(g0, dom: Rect) -> float:
    eps = 1e-6
    xs = np.linspace(dom.xmin, dom.xmax, _MARGIN_GRID)
    ys = np.linspace(dom.ymin, dom.ymax, _MARGIN_GRID)
    p = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    dx = (np.asarray(g0(p + [eps, 0])) - np.asarray(g0(p - [eps, 0]))) / (2 * eps)
    dy = (np.asarray(g0(p + [0, eps])) - np.asarray(g0(p - [0, eps]))) / (2 * eps)
    return float(np.min(dx[:, 0] * dy[:, 1] - dx[:, 1] * dy[:, 0]))


def random_chart(rng: np.random.Generator, half: bool = False) -> ChartSpec:
    """Orientation-preserving nonlinear chart with a safe Jacobian margin.

    Half charts keep the semitoric structure (first component is xi_1 up to
    a constant and a mild shear) so they model spectra near an elliptic
    line; regular charts get a full random linear part.  Both g0 and g1
    map points along the last axis, so one call maps one (2,) point or a
    whole (n, 2) grid; the linear part is a stacked matmul, which gives
    each point the bits of its own ``L @ xi``.
    """
    dom = _HALF_DOMAIN if half else _DOMAIN
    for _ in range(200):
        a = rng.uniform(-_NONLINEARITY, _NONLINEARITY, 6)
        shift = rng.uniform(-0.5, 0.5, 2)
        if half:
            n_shear = rng.integers(-1, 2)
            scale = rng.uniform(0.7, 1.4)

            def g0(xi, a=a, shift=shift, n=n_shear, s=scale):
                x, y = xi[..., 0], xi[..., 1]
                return np.stack([
                    x + shift[0],
                    s * y + n * x + a[0] * x ** 2 + a[1] * x * y + a[2] * y ** 2 + shift[1],
                ], axis=-1)
        else:
            L = rng.uniform(-1.0, 1.0, (2, 2))
            L[0, 0] += 1.5
            L[1, 1] += 1.5

            def g0(xi, L=L, a=a, shift=shift):
                x, y = xi[..., 0], xi[..., 1]
                return np.matmul(L, xi[..., None])[..., 0] + shift + np.stack([
                    a[0] * x ** 2 + a[1] * y ** 2 + a[2] * np.sin(2 * x),
                    a[3] * x * y + a[4] * y ** 2 + a[5] * np.sin(2 * y),
                ], axis=-1)
        if _jacobian_margin(g0, dom) < _MIN_DET:
            continue
        g1_vec = rng.uniform(-0.3, 0.3, 2)
        if half:
            # keep columns exact so strips of width hbar^(3/2) stay clean
            g1_vec[0] = 0.0

        def g1(xi, v=g1_vec):
            return np.broadcast_to(v, np.shape(xi))

        chart = ChartSpec(g0, g1, dom, half=half)
        chart.check_injective()
        return chart
    raise RuntimeError("could not draw a valid chart in 200 attempts")


# ---------------------------------------------------------------------------
# dense verification oracle

def _spin_dense(k: int, n_max: int):
    nb, ns = n_max + 1, 2 * k
    W = np.zeros((nb, nb))
    D = np.zeros((nb, nb))
    for n in range(nb - 1):
        W[n + 1, n] = np.sqrt((n + 1) / k)
        D[n, n + 1] = np.sqrt((n + 1) / k)
    Nop = np.diag([(n + 0.5) / k for n in range(nb)])
    X, Y, Z = _sphere_ops_dense(ns)
    J = np.kron(Nop, np.eye(ns)) + np.kron(np.eye(nb), Z)
    H = (np.kron(W + D, X) + (1j * np.kron(W - D, Y)).real) / (2 * np.sqrt(2))
    interior = np.array([n <= n_max - 2 for n in range(nb) for _ in range(ns)])
    return J, H, interior


def _sphere_ops_dense(n: int):
    X = np.zeros((n, n))
    Y = np.zeros((n, n), dtype=complex)
    Z = np.zeros((n, n))
    for l in range(n):
        Z[l, l] = (n - 1 - 2 * l) / n
        if l >= 1:
            X[l - 1, l] += np.sqrt(l * (n - l)) / n
            Y[l - 1, l] += 1j * np.sqrt(l * (n - l)) / n
        if l <= n - 2:
            X[l + 1, l] += np.sqrt((l + 1) * (n - 1 - l)) / n
            Y[l + 1, l] += -1j * np.sqrt((l + 1) * (n - 1 - l)) / n
    return X, Y, Z


def _coupled_dense(model: ModelSpec, k: int):
    n1, n2 = round(2 * k * model.r1), round(2 * k * model.r2)
    X1, Y1, Z1 = _sphere_ops_dense(n1)
    X2, Y2, Z2 = _sphere_ops_dense(n2)
    I1, I2 = np.eye(n1), np.eye(n2)
    t = model.t
    J = model.r1 * np.kron(Z1, I2) + model.r2 * np.kron(I1, Z2)
    H = ((1 - t) * (1 + n1) / n1) * np.kron(Z1, I2) + t * (1 + n1) * (1 + n2) / (n1 * n2) * (
        np.kron(X1, X2) + np.kron(Y1, Y2).real + np.kron(Z1, Z2)
    )
    interior = np.ones(n1 * n2, dtype=bool)
    return J, H, interior


def dense_oracle_spectrum(model: ModelSpec, k: int, n_max: int = 60) -> JointSpectrum:
    """Independent route: dense J and H on the (truncated) product basis,
    commutator check, then H diagonalized on each numerically-clustered
    J eigenspace. Intended for small k only."""
    model.check_dimensions(k)
    if model.kind == SPIN_OSCILLATOR:
        J, H, interior = _spin_dense(k, n_max)
    else:
        J, H, interior = _coupled_dense(model, k)
    comm = J @ H - H @ J
    bound = np.abs(comm[np.ix_(interior, interior)]).max()
    if bound > _COMMUTATOR:
        raise CommutatorViolation(f"interior commutator norm {bound:.3e}")
    w, V = np.linalg.eigh(J)
    # cluster J eigenvalues
    splits = np.where(np.diff(w) > 1e-8)[0] + 1
    columns = []
    for g in np.split(np.arange(len(w)), splits):
        jv = float(np.mean(w[g]))
        Hs = V[:, g].T @ H @ V[:, g]
        columns.append((jv, _nearest_block_id(model, k, jv), np.sort(np.linalg.eigvalsh(Hs))))
    return _spectrum(k, columns)


def _nearest_block_id(model: ModelSpec, k: int, jv: float) -> int:
    if model.kind == SPIN_OSCILLATOR:
        return round((jv - 1.0) * k)
    return round((model.r1 + model.r2 - jv) * k - 1)


def spectrum_columns(spec: JointSpectrum) -> dict[int, np.ndarray]:
    """block_id -> ascending eigenvalue array (one exact-x column each)."""
    ids, starts = np.unique(spec.block, return_index=True)
    return dict(zip(ids.tolist(), np.split(spec.y, starts[1:])))


def strip_density(model: ModelSpec, k: int, x: float, delta: float) -> float:
    """(hbar^(2-delta) / 2) N_hbar(x, delta), N_hbar the number of joint
    eigenvalues in the strip [x - hbar^delta, x + hbar^delta] x R: the
    paper's estimate of the Duistermaat-Heckman density rho_J(x)."""
    hb = 1.0 / k
    w = hb ** delta
    return hb ** (2 - delta) / 2 * ModelCounter(model, [k]).count(k, x - w, x + w)
