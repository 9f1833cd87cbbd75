"""Minkowski metric, Lorentz matrices, and affine maps: charts and Poincare elements.

A Poincare element (Lambda, a) is the affine map x -> Lambda x + a, so
``PoincareElement`` is an ``AffineMap`` whose linear part is checked to be
Lorentz and whose Jacobian is exactly 1.

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

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ETA",
    "PLANES",
    "ALGEBRAIC_TOL",
    "minkowski_metric",
    "plane_generator",
    "lorentz_generators",
    "lorentz_exp",
    "lorentz_log_params",
    "lorentz_residuals",
    "AffineMap",
    "PoincareElement",
    "ChartTransition",
    "chart_transition",
]

# Default tolerance: ~100x the double-precision rounding floor for plain
# algebraic identities.
ALGEBRAIC_TOL = 1e-12

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
_GENERATOR_ROWS = _GENERATORS.reshape(6, 16)

#: Each plane's generator holds +1 at (alpha, beta), and at (beta, alpha)
#: +1 for a boost (symmetric) or -1 for a rotation.
_UPPER = tuple(np.array(ix) for ix in zip(*PLANES))
_LOWER_SIGN = (1, 1, 1, -1, -1, -1)
_IDENTITY = np.eye(4)

# Below this a^2 + b^2 the coefficients of the exponential come from their
# Taylor series (``_divided_series``): the closed form of c3 subtracts two
# numbers near 1 and divides by a^2 + b^2, losing about eps / (a^2 + b^2)
# of its relative accuracy.  Eight terms reach roundoff below it.
_SERIES_BELOW = 0.25
#: Taylor coefficients in z of cosh sqrt(z) and sinh sqrt(z) / sqrt(z).
_COSH_SERIES = tuple(1 / math.factorial(2 * n) for n in range(8))
_SINHC_SERIES = tuple(1 / math.factorial(2 * n + 1) for n in range(8))
# Added to a^2 and b^2, so that sinh(a)/a, sin(b)/b and the divisions by
# a^2 + b^2 stay finite at a = 0 or b = 0; no result moves by a
# representable amount.
_TINY = 1e-300
# A rotation this close to pi has its axis set by roundoff, and at pi the
# principal logarithm is not unique.
_BRANCH_TOL = 1e-8


def lorentz_generators() -> np.ndarray:
    """All six generators, stacked in ``PLANES`` order, shape (6, 4, 4).

    Returns a fresh, writable copy of the module's read-only stack.
    """
    return np.array(_GENERATORS)


def _check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    return arr


def _residuals(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-matrix max|L^T eta L - eta| and |det L - 1| of one 4x4 matrix or a stack (..., 4, 4)."""
    m = np.asarray(matrices)
    return np.abs(m.swapaxes(-1, -2) @ ETA @ m - ETA).max(axis=(-2, -1)), np.abs(np.linalg.det(m) - 1.0)


def lorentz_residuals(matrices: np.ndarray) -> tuple[float, float]:
    """Worst metric residual max|L^T eta L - eta| and worst |det L - 1|.

    Takes one 4x4 matrix or a stack of shape (..., 4, 4).
    """
    return tuple(float(r.max()) for r in _residuals(matrices))


def _check_lorentz(matrices: np.ndarray, tol: float) -> None:
    """Raise unless every matrix is proper orthochronous and preserves the metric within
    ``tol * max(1, max|L|)^2``: roundoff in L^T eta L and det L grows with the entries squared.

    A test passes only on a finite bound and a residual at or below it, so a matrix whose
    residual or bound overflows (entries past about 1e154) fails."""
    with np.errstate(over="ignore", invalid="ignore"):
        metric, det = _residuals(matrices)
        bound = tol * np.maximum(1.0, np.abs(matrices).max(axis=(-2, -1))) ** 2
    finite = np.isfinite(bound)
    if not (finite & (metric <= bound)).all():
        raise ValueError(f"matrix does not preserve the metric (residual {metric.max():.3e})")
    if not (finite & (det <= bound) & (matrices[..., 0, 0] >= 1.0 - tol)).all():
        raise ValueError("matrix is not proper orthochronous (det != +1 or time reversal)")


def _algebra_elements(w: np.ndarray) -> np.ndarray:
    """The so(1,3) matrices sum_i w[..., i] J_i for coordinates w (..., 6).

    Exact: each entry of the product has one nonzero term, +-w[i].
    """
    return (w @ _GENERATOR_ROWS).reshape(w.shape[:-1] + (4, 4))


def _eigen_squares(w) -> tuple[float, float, float, float]:
    """(a^2, b^2, p, q^2) of one so(1,3) element with coordinates w (six floats).

    Its eigenvalues are +-a and +-ib.  The invariants are p = a^2 - b^2 =
    tr(X^2)/2 and q = +-ab, the Pfaffian of eta X (boost vector . rotation
    axis; q^2 = -det X).  Reading q off the coordinates, instead of from
    tr(X^4) = 2 p^2 + 4 q^2, avoids cancelling two fourth powers.  a^2 and
    b^2 are raised by ``_TINY``.
    """
    w0, w1, w2, w3, w4, w5 = w
    p = (w0 * w0 + w1 * w1 + w2 * w2) - (w3 * w3 + w4 * w4 + w5 * w5)
    q = w0 * w5 - w1 * w4 + w2 * w3
    q2 = q * q
    larger = (math.hypot(p, 2.0 * q) + abs(p)) / 2
    smaller = q2 / larger if larger else 0.0  # a^2 b^2 = q^2, without cancellation
    if p < 0:
        larger, smaller = smaller, larger
    return larger + _TINY, smaller + _TINY, p, q2


def _divided_series(p: float, q2: float, series: tuple) -> tuple[float, float]:
    """(A, B) with F(z) = A + B z at z = a^2 and z = -b^2, F the power series ``series``.

    B = (F(a^2) - F(-b^2)) / (a^2 + b^2) = sum_n f_n h_{n-1} and
    A = F(a^2) - B a^2 = f_0 + q^2 sum_n f_n h_{n-2}, where h_n are the
    complete symmetric polynomials of a^2 and -b^2: h_0 = 1, h_1 = p,
    h_n = p h_{n-1} + q^2 h_{n-2}.  Exact at p = q = 0.
    """
    A, B = series[0], 0.0
    h_prev, h = 0.0, 1.0
    for f in series[1:]:
        A += q2 * f * h_prev
        B += f * h
        h_prev, h = h, p * h + q2 * h_prev
    return A, B


def _exp_coefficients(w) -> tuple[float, float, float, float]:
    """(c0, c1, c2, c3) with exp X = c0 + c1 X + c2 X^2 + c3 X^3, X = sum_i w[i] J_i."""
    a2, b2, p, q2 = _eigen_squares(w)
    d = a2 + b2
    if d < _SERIES_BELOW:
        (c0, c2), (c1, c3) = _divided_series(p, q2, _COSH_SERIES), _divided_series(p, q2, _SINHC_SERIES)
        return c0, c1, c2, c3
    a, b = math.sqrt(a2), math.sqrt(b2)
    sinhc, sinc = math.sinh(a) / a, math.sin(b) / b
    return (
        (b2 * math.cosh(a) + a2 * math.cos(b)) / d,
        (b2 * sinhc + a2 * sinc) / d,
        2.0 * (math.sinh(a / 2) ** 2 + math.sin(b / 2) ** 2) / d,  # (cosh a - cos b) / d
        (sinhc - sinc) / d,
    )


def _exp(w: np.ndarray) -> np.ndarray:
    """exp(sum_i w[..., i] J_i) for coordinates w (..., 6); unchecked.

    The four coefficients of a row are scalar work, so that a row's matrix
    does not depend on the stack it came in; the powers of X and their sum
    are one stacked product each.
    """
    lead = w.shape[:-1]
    try:
        coeffs = [_exp_coefficients(row) for row in w.reshape(-1, 6).tolist()]
    except OverflowError:
        raise ValueError("Lorentz matrix must be finite") from None
    powers = np.empty(lead + (4, 4, 4))  # I, X, X^2, X^3
    powers[..., 0, :, :] = _IDENTITY
    X = powers[..., 1, :, :]
    X[...] = _algebra_elements(w)
    np.matmul(X, X, out=powers[..., 2, :, :])
    np.matmul(powers[..., 2, :, :], X, out=powers[..., 3, :, :])
    c = np.array(coeffs).reshape(lead + (1, 4))
    return (c @ powers.reshape(lead + (4, 16))).reshape(lead + (4, 4))


def lorentz_exp(params: np.ndarray) -> np.ndarray:
    """Exponentiate plane-parameter rows, shape (..., 6) -> (..., 4, 4).

    Returns exp(sum_i params[..., i] J_i) with the generators in ``PLANES``
    order.  X = sum_i params[i] J_i has eigenvalues +-a and +-ib, so by
    Cayley-Hamilton exp X = c0 + c1 X + c2 X^2 + c3 X^3 with

    * c0 = (b^2 cosh a + a^2 cos b) / (a^2 + b^2), c1 the same with
      sinh(a)/a and sin(b)/b;
    * c2 = (cosh a - cos b) / (a^2 + b^2), c3 the same with sinh(a)/a and
      sin(b)/b;

    and all four from their Taylor series for a^2 + b^2 < 0.25.  A null
    generator (a = b = 0) has X^3 = 0, where the series is exact.
    Every matrix is checked as ``PoincareElement`` checks its linear part,
    and a row's matrix does not depend on the stack it came in.
    """
    p = _check_finite(params, "rotation parameters")
    if p.shape[-1:] != (6,):
        raise ValueError(f"expected rows of 6 plane parameters, got shape {p.shape}")
    m = _check_finite(_exp(p), "Lorentz matrix")
    _check_lorentz(m, ALGEBRAIC_TOL)
    return m


def lorentz_log_params(matrix: np.ndarray) -> np.ndarray:
    """Recover exponential coordinates of a proper orthochronous matrix.

    S = (Lambda - eta Lambda^T eta) / 2 = sinh X has eigenvalues +-sinh a
    and +-i sin b, and tr Lambda = 2 cosh a + 2 cos b places b in [0, pi].
    Then X = c1 S + c3 S^3, where c1 + c3 z takes the value a / sinh a at
    z = sinh^2 a and b / sin b at z = -sin^2 b.  This is the principal
    logarithm, so a rotation by pi (branch point) is rejected, as is any
    matrix whose logarithm does not exponentiate back to it within 1e-9.
    """
    m = _check_finite(matrix, "Lorentz matrix")
    if m.shape != (4, 4):
        raise ValueError(f"Lorentz matrix must be 4x4, got {m.shape}")
    rows = m.tolist()
    # Coordinates of S: (L[a][b] + L[b][a]) / 2 for a boost, the difference for a rotation.
    s = [(rows[a][b] + sign * rows[b][a]) / 2 for (a, b), sign in zip(PLANES, _LOWER_SIGN)]
    sinh2_a, sin2_b, _, _ = _eigen_squares(s)
    sinh_a, sin_b = math.sqrt(sinh2_a), math.sqrt(sin2_b)
    a = math.asinh(sinh_a)
    try:
        cos_b = (rows[0][0] + rows[1][1] + rows[2][2] + rows[3][3]) / 2 - math.cosh(a)
    except OverflowError:
        raise ValueError("matrix log failed to land in the rotation/boost chart") from None
    if cos_b < 0 and sin_b < _BRANCH_TOL:
        raise ValueError("matrix log is undefined at a rotation by pi (branch point)")
    # c3 loses relative accuracy as d -> 0, but S^3 shrinks with d, so the
    # logarithm does not.
    u, v = a / sinh_a, math.atan2(sin_b, cos_b) / sin_b
    d = sinh2_a + sin2_b
    c1, c3 = (sin2_b * u + sinh2_a * v) / d, (u - v) / d
    s = np.array(s)
    S = _algebra_elements(s)
    params = c1 * s + c3 * (S @ S @ S)[_UPPER]
    if not np.abs(_exp(params[None])[0] - m).max() <= 1e-9:
        raise ValueError("matrix log failed to land in the rotation/boost chart")
    return params


def _checked_affine(linear: np.ndarray, offset: np.ndarray, lead: tuple = ()) -> tuple:
    """Linear parts ``lead + (4, 4)``, offsets ``lead + (4,)`` and their Jacobians det(linear),
    each map checked as an :class:`AffineMap` checks its own: finite, and no ``|det| <= 1e-12``."""
    L, c = _check_finite(linear, "linear part"), _check_finite(offset, "offset")
    if L.shape != lead + (4, 4) or c.shape != lead + (4,):
        raise ValueError("affine map needs a 4x4 linear part and a 4-vector offset")
    det = np.linalg.det(L)
    if not (np.abs(det) > 1e-12).all():
        raise ValueError("affine map has a singular linear part")
    return L, c, det


@dataclass(frozen=True)
class AffineMap:
    """Invertible affine map r -> linear r + offset on R^4.

    A coordinate chart is one of these, read as sending points to their
    coordinates: ``u(x)`` is the coordinate tuple of x and ``u.inverse()(c)``
    the point with coordinates c.  ``jacobian`` is det(linear), computed
    once for the singularity check.
    """

    linear: np.ndarray
    offset: np.ndarray = field(default_factory=lambda: np.zeros(4))
    jacobian: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        L, c, det = _checked_affine(self.linear, self.offset)
        L, c = L.copy(), c.copy()
        L.setflags(write=False)
        c.setflags(write=False)
        for name, value in (("linear", L), ("offset", c), ("jacobian", float(det))):
            object.__setattr__(self, name, value)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """``points @ linear.T + offset`` for a point (4,) or batch (..., 4), never aliasing ``points``.

        The result is the (..., 4) view of a fresh coordinate-major (4, ...)
        array, so each ``out[..., k]`` is contiguous: one (4, 4) x (4, N)
        product, then the offset added per coordinate row.  A coordinate-major
        input (such as the grid's point blocks) is read without a copy.
        """
        pts = np.asarray(points)
        last = pts.ndim - 1
        cols = pts.transpose((last, *range(last)))
        out = self.linear @ cols.reshape(4, -1)
        out += self.offset[:, None]
        return out.reshape(cols.shape).transpose((*range(1, last + 1), 0))

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
class PoincareElement(AffineMap):
    """A Poincare group element (Lambda, a): the affine map x -> Lambda x + a.

    ``linear`` is a proper orthochronous Lorentz matrix, so ``jacobian`` is
    exactly 1.  ``params`` holds its exponential coordinates when the element
    was built from them, and is None for elements assembled by other means
    (products, inverses of such, raw matrices).
    """

    params: np.ndarray | None = None

    def __post_init__(self):
        L = _check_finite(self.linear, "Lorentz matrix")
        if L.shape != (4, 4):
            raise ValueError(f"Lorentz matrix must be 4x4, got {L.shape}")
        _check_lorentz(L, ALGEBRAIC_TOL)
        self._freeze(L.copy(), self.offset, self.params)

    @classmethod
    def _derived(cls, linear: np.ndarray, offset: np.ndarray, params: np.ndarray | None = None) -> "PoincareElement":
        """An element whose matrix is Lorentz by construction, so only checked finite: an exponential, or a product
        or inverse of checked elements, whose roundoff grows with its factors' entries (a bound on its own rejects
        g g^-1 at rapidity 5)."""
        return object.__new__(cls)._freeze(_check_finite(linear, "Lorentz matrix"), offset, params)

    def _freeze(self, linear: np.ndarray, offset: np.ndarray, params: np.ndarray | None) -> "PoincareElement":
        a = _check_finite(offset, "translation").copy()
        if a.shape != (4,):
            raise ValueError(f"translation must be a 4-vector, got shape {a.shape}")
        if params is not None:
            params = _check_finite(params, "Lorentz parameters").copy()
        for name, value in (("linear", linear), ("offset", a), ("params", params)):
            if value is not None:
                value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "jacobian", 1.0)
        return self

    @classmethod
    def identity(cls) -> "PoincareElement":
        return cls(np.eye(4), np.zeros(4), np.zeros(6))

    @classmethod
    def from_params(cls, omega: np.ndarray, a: np.ndarray | None = None) -> "PoincareElement":
        """Build from 6 rotation/boost parameters and a translation 4-vector."""
        p = _check_finite(omega, "rotation parameters")
        if p.shape != (6,):
            raise ValueError(f"expected 6 plane parameters, got shape {p.shape}")
        return cls._derived(lorentz_exp(p), np.zeros(4) if a is None else a, p)

    def compose(self, other: AffineMap) -> AffineMap:
        """Group product self o other: (L2 L1, L2 a1 + a2) with self = g2; a plain AffineMap unless other is an element.

        g o g = exp(2X) exactly, so the square of an element with parameters has them doubled, which keeps a
        spinor matrix of the product on the sheet of the double cover that the factors' matrices multiply to.
        Every other product has None.
        """
        if not isinstance(other, PoincareElement):
            return super().compose(other)
        same = self.params is not None and other.params is not None and np.array_equal(self.params, other.params)
        params = 2 * self.params if same else None
        return self._derived(self.linear @ other.linear, self.linear @ other.offset + self.offset, params)

    def inverse(self) -> "PoincareElement":
        """Exact inverse (eta Lambda^T eta, -eta Lambda^T eta a); negated parameters when known."""
        inv = ETA @ self.linear.T @ ETA
        return self._derived(inv, -(inv @ self.offset), None if self.params is None else -self.params)


@dataclass(frozen=True)
class ChartTransition:
    """The two composite maps induced by a chart change u -> u'.

    ``coord_map`` sends old coordinates to new ones (u' o u^-1);
    ``point_map`` is the diffeomorphism u^-1 o u' read as moving points.
    Their inverses are ``.inverse()`` of each.
    """

    coord_map: AffineMap
    point_map: AffineMap


def chart_transition(u: AffineMap, u_prime: AffineMap) -> ChartTransition:
    """The coordinate and point maps between two affine charts."""
    u_inv = u.inverse()
    return ChartTransition(coord_map=u_prime.compose(u_inv), point_map=u_inv.compose(u_prime))
