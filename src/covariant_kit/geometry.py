"""Minkowski metric, Lorentz/Poincare group elements, and affine charts.

Conventions used throughout the package:

* metric signature (-+++), eta = diag(-1, 1, 1, 1);
* rotation/boost parameters are a 6-vector ``omega`` ordered by the index
  planes (0,1), (0,2), (0,3), (1,2), (1,3), (2,3);
* the generator for plane (a, b) is ``J[s, r] = delta(s,a) eta[b,r]
  - delta(s,b) eta[a,r]``, so boosts exponentiate to cosh/sinh blocks and
  spatial rotations to cos/sin blocks;
* only the proper orthochronous component is admitted (det = +1, top-left
  entry >= 1).

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm, logm

__all__ = [
    "ETA",
    "PLANES",
    "ALGEBRAIC_TOL",
    "GROUP_LAW_TOL",
    "minkowski_metric",
    "plane_generator",
    "lorentz_generators",
    "lorentz_exp",
    "lorentz_log_params",
    "LorentzTransform",
    "PoincareElement",
    "AffineMap",
    "AffineChart",
    "ChartTransition",
    "chart_transition",
    "transition_jacobian",
]

# Default tolerances: ~100x the double-precision rounding floor for plain
# algebraic identities, one order looser for composed group laws.
ALGEBRAIC_TOL = 1e-12
GROUP_LAW_TOL = 1e-10

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])
ETA.setflags(write=False)

#: Index planes (alpha, beta) with alpha < beta; fixes the meaning of the
#: six components of an ``omega`` parameter vector.
PLANES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def minkowski_metric() -> np.ndarray:
    """Return a fresh copy of eta = diag(-1, 1, 1, 1)."""
    return np.array(ETA)


def plane_generator(alpha: int, beta: int) -> np.ndarray:
    """Generator of rotations/boosts in the (alpha, beta) coordinate plane.

    ``J[s, r] = delta(s, alpha) eta[beta, r] - delta(s, beta) eta[alpha, r]``.
    """
    if not (0 <= alpha < beta <= 3):
        raise ValueError(f"plane indices must satisfy 0 <= alpha < beta <= 3, got ({alpha}, {beta})")
    J = np.zeros((4, 4))
    J[alpha, :] += ETA[beta, :]
    J[beta, :] -= ETA[alpha, :]
    return J


_GENERATORS = np.stack([plane_generator(a, b) for a, b in PLANES])
_GENERATORS.setflags(write=False)


def lorentz_generators() -> np.ndarray:
    """All six generators, stacked in ``PLANES`` order, shape (6, 4, 4).

    Returns a fresh, writable copy of the module's read-only stack.
    """
    return np.array(_GENERATORS)


def _check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    return arr


@dataclass(frozen=True)
class LorentzTransform:
    """A 4x4 matrix preserving the Minkowski metric.

    ``params`` holds the 6-vector of exponential coordinates when the
    transform was built from one; it is ``None`` for transforms assembled
    by other means (products, raw matrices).
    """

    matrix: np.ndarray
    params: np.ndarray | None = None
    tol: float = ALGEBRAIC_TOL

    def __post_init__(self):
        m = _check_finite(self.matrix, "Lorentz matrix")
        if m.shape != (4, 4):
            raise ValueError(f"Lorentz matrix must be 4x4, got {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if self.params is not None:
            p = _check_finite(self.params, "Lorentz parameters").copy()
            p.setflags(write=False)
            object.__setattr__(self, "params", p)
        resid = np.abs(m.T @ ETA @ m - ETA).max()
        if resid > self.tol:
            raise ValueError(f"matrix does not preserve the metric (residual {resid:.3e})")
        det = np.linalg.det(m)
        if abs(det - 1.0) > self.tol or m[0, 0] < 1.0 - self.tol:
            raise ValueError("matrix is not proper orthochronous (det != +1 or time reversal)")

    def inverse(self) -> "LorentzTransform":
        """Exact inverse eta Lambda^T eta; negated parameters when known."""
        inv = ETA @ self.matrix.T @ ETA
        params = None if self.params is None else -self.params
        return LorentzTransform(inv, params, self.tol)

    def metric_residual(self) -> float:
        return float(np.abs(self.matrix.T @ ETA @ self.matrix - ETA).max())


def lorentz_exp(params: np.ndarray) -> LorentzTransform:
    """Exponentiate a 6-vector of plane parameters to a LorentzTransform.

    Returns exp(sum_i params[i] * J_i) with the generators in ``PLANES``
    order. Uses scaling-and-squaring (scipy) internally.
    """
    p = _check_finite(params, "rotation parameters")
    if p.shape != (6,):
        raise ValueError(f"expected 6 plane parameters, got shape {p.shape}")
    X = np.einsum("i,ijk->jk", p, _GENERATORS)
    return LorentzTransform(expm(X), p)


def lorentz_log_params(matrix: np.ndarray) -> np.ndarray:
    """Recover exponential coordinates of a proper orthochronous matrix.

    Uses the principal matrix logarithm, so transforms containing a
    rotation by exactly pi (branch point) are rejected.
    """
    m = _check_finite(matrix, "Lorentz matrix")
    L = np.real(logm(m))
    # In this generator basis the strict upper triangle of the log *is* omega.
    params = np.array([L[a, b] for a, b in PLANES])
    check = expm(np.einsum("i,ijk->jk", params, _GENERATORS))
    if np.abs(check - m).max() > 1e-9:
        raise ValueError("matrix log failed to land in the rotation/boost chart")
    return params


@dataclass(frozen=True)
class PoincareElement:
    """Pair (Lambda, a): a Lorentz transform followed by a translation."""

    transform: LorentzTransform
    translation: np.ndarray = field(default_factory=lambda: np.zeros(4))

    def __post_init__(self):
        a = _check_finite(self.translation, "translation").copy()
        if a.shape != (4,):
            raise ValueError(f"translation must be a 4-vector, got shape {a.shape}")
        a.setflags(write=False)
        object.__setattr__(self, "translation", a)

    @classmethod
    def identity(cls) -> "PoincareElement":
        return cls(LorentzTransform(np.eye(4), np.zeros(6)))

    @classmethod
    def from_params(cls, omega: np.ndarray, a: np.ndarray | None = None) -> "PoincareElement":
        """Build from 6 rotation/boost parameters and a translation 4-vector."""
        trans = np.zeros(4) if a is None else a
        return cls(lorentz_exp(omega), trans)

    @property
    def matrix(self) -> np.ndarray:
        return self.transform.matrix

    @property
    def params(self) -> np.ndarray | None:
        return self.transform.params

    def compose(self, other: "PoincareElement") -> "PoincareElement":
        """Group product self o other: (L2 L1, L2 a1 + a2) with self = g2."""
        mat = LorentzTransform(self.matrix @ other.matrix, tol=max(self.transform.tol, 10 * ALGEBRAIC_TOL))
        return PoincareElement(mat, self.matrix @ other.translation + self.translation)

    def inverse(self) -> "PoincareElement":
        inv = self.transform.inverse()
        return PoincareElement(inv, -(inv.matrix @ self.translation))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """x -> Lambda x + a for a point (4,) or batch (..., 4)."""
        return np.asarray(points) @ self.matrix.T + self.translation

    def point_map(self) -> "AffineMap":
        return AffineMap(self.matrix, self.translation)


@dataclass(frozen=True)
class AffineMap:
    """Invertible affine map r -> linear r + offset on R^4."""

    linear: np.ndarray
    offset: np.ndarray = field(default_factory=lambda: np.zeros(4))

    def __post_init__(self):
        L = _check_finite(self.linear, "linear part").copy()
        c = _check_finite(self.offset, "offset").copy()
        if L.shape != (4, 4) or c.shape != (4,):
            raise ValueError("affine map needs a 4x4 linear part and a 4-vector offset")
        if abs(np.linalg.det(L)) <= 1e-12:
            raise ValueError("affine map has a singular linear part")
        L.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "linear", L)
        object.__setattr__(self, "offset", c)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        # One (N, 4) x (4, 4) product: the sums of points @ linear.T, sooner.
        out = np.tensordot(points, self.linear.T, axes=1)
        out += self.offset
        return out

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other."""
        return AffineMap(self.linear @ other.linear, self.linear @ other.offset + self.offset)

    def inverse(self) -> "AffineMap":
        inv = np.linalg.inv(self.linear)
        return AffineMap(inv, -(inv @ self.offset))

    @classmethod
    def identity(cls) -> "AffineMap":
        return cls(np.eye(4), np.zeros(4))


@dataclass(frozen=True)
class AffineChart:
    """Global affine coordinate system u(x) = L x + c on R^4."""

    linear: np.ndarray = field(default_factory=lambda: np.eye(4))
    offset: np.ndarray = field(default_factory=lambda: np.zeros(4))

    def __post_init__(self):
        # Delegate validation/freezing to AffineMap semantics.
        m = AffineMap(self.linear, self.offset)
        object.__setattr__(self, "linear", m.linear)
        object.__setattr__(self, "offset", m.offset)

    def as_map(self) -> AffineMap:
        return AffineMap(self.linear, self.offset)

    def coords(self, points: np.ndarray) -> np.ndarray:
        """Point -> coordinate tuple."""
        return self.as_map()(points)

    def point(self, coords: np.ndarray) -> np.ndarray:
        """Coordinate tuple -> point (inverse chart)."""
        return self.as_map().inverse()(coords)


@dataclass(frozen=True)
class ChartTransition:
    """The four composite maps induced by a chart change u -> u'.

    ``coord_map`` sends old coordinates to new ones (u' o u^-1) and
    ``coord_map_inv`` is its inverse (u o u'^-1).  ``point_map`` is the
    diffeomorphism u^-1 o u' read as moving points, with ``point_map_inv``
    its inverse (u'^-1 o u).
    """

    coord_map: AffineMap
    coord_map_inv: AffineMap
    point_map: AffineMap
    point_map_inv: AffineMap


def chart_transition(u: AffineChart, u_prime: AffineChart) -> ChartTransition:
    """All four transition maps between two affine charts."""
    m = u.as_map()
    mp = u_prime.as_map()
    coord = mp.compose(m.inverse())
    point = m.inverse().compose(mp)
    return ChartTransition(
        coord_map=coord,
        coord_map_inv=coord.inverse(),
        point_map=point,
        point_map_inv=point.inverse(),
    )


def transition_jacobian(mapping: AffineMap) -> float:
    """Determinant of the linear part; +1 for Poincare transitions."""
    return float(np.linalg.det(mapping.linear))
