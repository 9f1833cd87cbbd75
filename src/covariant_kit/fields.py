"""Sampled field functions and their transformation laws.

A field is a smooth map R^4 -> C^n carried together with its analytic
gradient, so every transformation below chain-rules the gradient instead
of re-differencing it.

Transformation conventions (fixed once, used everywhere):

* ``passive_transform``   phi'(x) = D  phi(L^-1 (x - a))     (component
  relabeling; matrix ``D`` is the plain representation matrix);
* ``active_transform``    phi'(x) = J  D^T phi(L x + a)      (point-moving
  law; the *transposed* matrix acts, the argument uses the forward map,
  and ``J`` is the Jacobian determinant of that map -- identically 1 for
  Poincare elements);
* ``transform_test_function``  f'(x) = D f(L^-1 (x - a)).

Writing the active argument as the forward map L x + a is a choice; the
same law evaluated at the inverse group element produces the
L^-1 (x - a) variant seen elsewhere.  With these three laws the smearing
pairing satisfies  pairing(active phi, f) == pairing(phi, transformed f)
exactly (up to quadrature), which is the check ``pairing`` is built for.
The Jacobian factor is a scalar, so whether it is written inside or
outside the matrix action is immaterial.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .generators import _central_diff
from .geometry import AffineMap, PoincareElement
from .representations import FieldRep, rep_matrix_for_element

__all__ = [
    "SingularFrameError",
    "FieldFunction",
    "wave_packet",
    "constant_field",
    "FrameChange",
    "GridSpec",
    "passive_transform",
    "active_transform",
    "transform_test_function",
    "frame_change_components",
    "cocycle_check",
    "pairing",
    "dump_field_csv",
    "gradient_fd_residual",
]


class SingularFrameError(ValueError):
    """A frame-change matrix was singular at an evaluation point."""

    def __init__(self, point: np.ndarray):
        self.point = np.asarray(point)
        super().__init__(f"frame-change matrix is singular at point {self.point.tolist()}")


@dataclass(frozen=True)
class FieldFunction:
    """n-component field with vectorised evaluation and analytic gradient.

    ``evaluate`` maps points of shape (..., 4) to values (..., n);
    ``gradient`` maps them to (..., n, 4) where the last axis is the
    coordinate derivative direction.  Both must be pure functions.
    ``evaluate`` may return a real (float64) array for a field whose
    values are real, such as a wave packet with real coefficients; it
    stands for the complex array with zero imaginary parts.
    """

    n: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.evaluate(points)


def _normalise_components(components) -> list[list[tuple[complex, tuple[int, int, int, int], int]]]:
    """Turn the accepted component shorthands into ``(coeff, powers, 1)`` term lists."""
    if isinstance(components, int):
        components = [1.0] * components
    terms = []
    for comp in components:
        if np.isscalar(comp):
            terms.append([(complex(comp), (0, 0, 0, 0), 1)])
            continue
        comp_terms = []
        for term in comp:
            if isinstance(term, dict):
                coeff, powers = term["coeff"], term["powers"]
            else:
                coeff, powers = term
            if np.iterable(coeff):
                coeff = complex(coeff[0], coeff[1])
            powers = tuple(int(p) for p in powers)
            if len(powers) != 4 or any(p < 0 for p in powers):
                raise ValueError(f"monomial powers must be 4 nonnegative ints, got {powers}")
            comp_terms.append((complex(coeff), powers, 1))
        terms.append(comp_terms)
    if not terms:
        raise ValueError("a wave packet needs at least one component")
    return terms


def _r2(ys: list) -> np.ndarray:
    """|y|^2 from the 4 coordinate columns, added left to right as np.sum(y * y, axis=-1) adds."""
    r2 = ys[0] * ys[0]
    for y in ys[1:]:
        r2 += y * y
    return r2


def _polynomial(ys: list, comp_terms, imag: bool = False):
    """Real (or imaginary) part of one component polynomial at columns ``ys``.

    Terms are summed from 0 in order, each coefficient part times the
    powers multiplied left to right, starting from the term's integer
    factor when it is not 1: the parts of the complex sum, operation for
    operation.  The unit monomial stays a scalar.
    """
    acc = 0.0
    for coeff, powers, factor in comp_terms:
        term = coeff.imag if imag else coeff.real
        mono = None if factor == 1 else factor
        for k, p in enumerate(powers):
            if p:
                mono = ys[k] ** p if mono is None else mono * ys[k] ** p
        acc = acc + (term if mono is None else term * mono)
    return acc


def wave_packet(center: np.ndarray, width: float, components=1) -> FieldFunction:
    """Gaussian wave packet with optional polynomial prefactors.

    Component i evaluates to ``P_i(y) exp(-|y|^2 / width^2)`` with
    ``y = x - center`` (Euclidean norm, so the packet is effectively
    compactly supported).  ``components`` is either an int (that many
    unit-amplitude components), or one entry per component: a scalar
    amplitude or a list of monomial terms ``(coeff, (p0, p1, p2, p3))``.
    When every coefficient is real, ``evaluate`` returns float64 values
    equal to the real parts of the complex ones; otherwise complex128.
    """
    c = np.asarray(center, dtype=float)
    if c.shape != (4,) or not np.all(np.isfinite(c)):
        raise ValueError("wave packet center must be a finite 4-vector")
    s = float(width)
    if not (s > 0 and np.isfinite(s)):
        raise ValueError("wave packet width must be positive and finite")
    terms = _normalise_components(components)
    n = len(terms)
    real = all(coeff.imag == 0 for comp_terms in terms for coeff, _, _ in comp_terms)

    # dP_i/dy_k: each term with p_k > 0, with p_k lowered by one and kept as its factor.
    dterms = [[[(coeff, tuple(p - (j == k) for j, p in enumerate(powers)), powers[k])
                for coeff, powers, _ in comp_terms if powers[k]] for k in range(4)] for comp_terms in terms]

    def _envelope(ys: list) -> np.ndarray:
        # r2 / -s^2 is -r2 / s^2 exactly, one pass sooner.
        return np.exp(_r2(ys) / -s**2)

    def evaluate(points: np.ndarray) -> np.ndarray:
        # Values only, no gradient; (a+0j)(b+0j) == ab, so a real packet stays real.
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            # Keep the columns arrays: numpy scalars take y ** p through pow().
            return evaluate(pts[None])[0]
        ys = [pts[..., k] - c[k] for k in range(4)]
        envelope = _envelope(ys)
        if real:
            vals = np.empty(envelope.shape + (n,))
            for i, comp_terms in enumerate(terms):
                np.multiply(_polynomial(ys, comp_terms), envelope, out=vals[..., i])
            return vals
        vals = np.empty(envelope.shape + (n,), dtype=complex)
        for i, comp_terms in enumerate(terms):
            vals.real[..., i] = _polynomial(ys, comp_terms)
            vals.imag[..., i] = _polynomial(ys, comp_terms, imag=True)
        vals *= envelope[..., None]
        return vals

    def gradient(points: np.ndarray) -> np.ndarray:
        # d/dx_k (P e) = (dP/dy_k - (2 / s^2) P y_k) e, per part in the complex order.
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            return gradient(pts[None])[0]
        ys = [pts[..., k] - c[k] for k in range(4)]
        envelope = _envelope(ys)
        out = np.zeros(envelope.shape + (n, 4), dtype=complex)
        parts = ((out.real, False),) if real else ((out.real, False), (out.imag, True))
        for i, comp_terms in enumerate(terms):
            for part, imag in parts:
                scaled = (2.0 / s**2) * _polynomial(ys, comp_terms, imag)
                for k in range(4):
                    part[..., i, k] = (_polynomial(ys, dterms[i][k], imag) - scaled * ys[k]) * envelope
        return out

    return FieldFunction(n, evaluate, gradient)


def constant_field(values: Sequence[complex]) -> FieldFunction:
    """Field equal to ``values`` everywhere; gradient identically zero."""
    v = np.atleast_1d(np.asarray(values, dtype=complex))
    n = v.shape[0]

    def evaluate(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points)
        return np.broadcast_to(v, pts.shape[:-1] + (n,)).copy()

    def gradient(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points)
        return np.zeros(pts.shape[:-1] + (n, 4), dtype=complex)

    return FieldFunction(n, evaluate, gradient)


@dataclass(frozen=True)
class FrameChange:
    """Pointwise invertible matrix field A(x) relating two frames.

    ``matrix`` maps points (..., 4) to matrices (..., n, n).  Supply
    ``matrix_gradient`` (points -> (..., n, n, 4)) when the change varies
    in spacetime and analytic output gradients are wanted; otherwise the
    derivative of A is taken by central differences at step 1e-6.
    """

    n: int
    matrix: Callable[[np.ndarray], np.ndarray]
    matrix_gradient: Callable[[np.ndarray], np.ndarray] | None = None

    @classmethod
    def constant(cls, matrix: np.ndarray) -> "FrameChange":
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("constant frame change needs a square matrix")
        n = m.shape[0]

        def mat(points):
            pts = np.asarray(points)
            return np.broadcast_to(m, pts.shape[:-1] + (n, n)).copy()

        def grad(points):
            pts = np.asarray(points)
            return np.zeros(pts.shape[:-1] + (n, n, 4), dtype=complex)

        return cls(n, mat, grad)

    def _gradient(self, points: np.ndarray) -> np.ndarray:
        if self.matrix_gradient is not None:
            return np.asarray(self.matrix_gradient(points), dtype=complex)
        pts = np.asarray(points, dtype=float)
        f = lambda r: np.asarray(self.matrix(r), dtype=complex)
        return np.stack([_central_diff(f, pts, k, 1e-6, 2) for k in range(4)], axis=-1)


def _inverse_frames(change: FrameChange, points: np.ndarray) -> np.ndarray:
    mats = np.asarray(change.matrix(points), dtype=complex)
    dets = np.linalg.det(mats)
    bad = np.abs(dets) <= 1e-12
    if np.any(bad):
        flat_pts = np.asarray(points, dtype=float).reshape(-1, 4)
        idx = int(np.argmax(bad.reshape(-1)))
        raise SingularFrameError(flat_pts[idx])
    return np.linalg.inv(mats)


def _spacetime_matrix(rep: FieldRep, g) -> tuple[np.ndarray, AffineMap, float]:
    """Representation matrix, forward point map, and Jacobian for ``g``.

    ``g`` may be a PoincareElement (Jacobian 1) or a plain AffineMap; the
    latter only supports scalar and vector representations.
    """
    if isinstance(g, PoincareElement):
        return rep_matrix_for_element(rep, g), g.point_map(), 1.0
    if isinstance(g, AffineMap):
        if rep.kind == "scalar":
            mat = np.eye(1, dtype=complex)
        elif rep.kind == "vector":
            mat = g.linear.astype(complex)
        else:
            raise ValueError(f"{rep.kind!r} representation is undefined for general affine point maps")
        return mat, g, float(np.linalg.det(g.linear))
    raise TypeError(f"expected PoincareElement or AffineMap, got {type(g).__name__}")


def _composed_field(field: FieldFunction, matrix: np.ndarray, mapping: AffineMap, scale: float) -> FieldFunction:
    """scale * matrix @ field(mapping(x)) with the chain-ruled gradient.

    float64 values under a real matrix stay real: each row is added into
    zeros in column order, as the complex contraction adds.  A negative
    scale keeps the complex path, whose imaginary zeros it turns to -0.
    """
    lin = mapping.linear
    real_matrix = matrix.real if scale > 0 and not np.any(matrix.imag) else None

    def evaluate(points: np.ndarray) -> np.ndarray:
        vals = field.evaluate(mapping(points))
        if real_matrix is None or getattr(vals, "dtype", None) != np.float64:
            return scale * np.einsum("ij,...j->...i", matrix, vals)
        out = np.zeros_like(vals)
        for i, row in enumerate(real_matrix):
            for j, m in enumerate(row):
                out[..., i] += m * vals[..., j]
        if scale != 1.0:
            out *= scale
        return out

    def gradient(points: np.ndarray) -> np.ndarray:
        grads = field.gradient(mapping(points))
        return scale * np.einsum("ij,...jm,mk->...ik", matrix, grads, lin)

    return FieldFunction(field.n, evaluate, gradient)


def passive_transform(field: FieldFunction, rep: FieldRep, g: PoincareElement) -> FieldFunction:
    """Component relabeling phi'(x) = D phi(L^-1 (x - a))."""
    return transform_test_function(field, rep, g)


def active_transform(field: FieldFunction, rep: FieldRep, g) -> FieldFunction:
    """Point-moving law phi'(x) = J D^T phi(L x + a).

    ``g`` may be a PoincareElement (J = 1) or a general AffineMap, in
    which case the Jacobian determinant of the map multiplies the result.
    """
    if rep.n != field.n:
        raise ValueError(f"representation dimension {rep.n} != field dimension {field.n}")
    mat, mapping, jac = _spacetime_matrix(rep, g)
    return _composed_field(field, mat.T, mapping, jac)


def transform_test_function(field: FieldFunction, rep: FieldRep, g: PoincareElement) -> FieldFunction:
    """Test-function law f'(x) = D f(L^-1 (x - a))."""
    if rep.n != field.n:
        raise ValueError(f"representation dimension {rep.n} != field dimension {field.n}")
    mat, _, _ = _spacetime_matrix(rep, g)
    return _composed_field(field, mat, g.inverse().point_map(), 1.0)


def frame_change_components(field: FieldFunction, change: FrameChange) -> FieldFunction:
    """Same-point component change x -> A^-1(x) phi(x).

    Strictly pointwise: no argument shift, no Jacobian.  The output
    gradient uses d(A^-1) = -A^-1 (dA) A^-1 plus the field's own gradient.
    """
    if change.n != field.n:
        raise ValueError(f"frame dimension {change.n} != field dimension {field.n}")

    def evaluate(points: np.ndarray) -> np.ndarray:
        inv = _inverse_frames(change, points)
        return np.einsum("...ij,...j->...i", inv, field.evaluate(points))

    def gradient(points: np.ndarray) -> np.ndarray:
        inv = _inverse_frames(change, points)
        vals = field.evaluate(points)
        grads = field.gradient(points)
        dA = change._gradient(points)
        dinv = -np.einsum("...ij,...jlk,...lm->...imk", inv, dA, inv)
        return np.einsum("...ijk,...j->...ik", dinv, vals) + np.einsum("...ij,...jk->...ik", inv, grads)

    return FieldFunction(field.n, evaluate, gradient)


def cocycle_check(
    first: FrameChange, second: FrameChange, composite: FrameChange, points: np.ndarray
) -> float:
    """Max residual of A(e,e')(x) A(e',e'')(x) - A(e,e'')(x) over points."""
    if not (first.n == second.n == composite.n):
        raise ValueError("frame changes must share one dimension")
    a = np.asarray(first.matrix(points), dtype=complex)
    b = np.asarray(second.matrix(points), dtype=complex)
    c = np.asarray(composite.matrix(points), dtype=complex)
    return float(np.abs(np.einsum("...ij,...jk->...ik", a, b) - c).max())


@dataclass(frozen=True)
class GridSpec:
    """Tensor-product grid: per-axis (lower, upper) bounds and point counts."""

    bounds: tuple = ((-8.0, 8.0),) * 4
    counts: tuple = (33,) * 4

    def __post_init__(self):
        b = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        n = tuple(int(k) for k in self.counts)
        if len(b) != 4 or len(n) != 4:
            raise ValueError("grid needs bounds and counts for all 4 axes")
        if any(k < 2 for k in n):
            raise ValueError("grid point counts must be at least 2")
        if any(lo >= hi for lo, hi in b):
            raise ValueError("grid bounds must be ordered lower < upper")
        object.__setattr__(self, "bounds", b)
        object.__setattr__(self, "counts", n)

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(lo, hi, k) for (lo, hi), k in zip(self.bounds, self.counts)]

    def weights(self) -> list[np.ndarray]:
        """Per-axis trapezoid weights."""
        out = []
        for (lo, hi), k in zip(self.bounds, self.counts):
            w = np.full(k, (hi - lo) / (k - 1))
            w[0] *= 0.5
            w[-1] *= 0.5
            out.append(w)
        return out

    def refine(self) -> "GridSpec":
        """Halve every step (counts k -> 2k - 1); bounds unchanged."""
        return GridSpec(self.bounds, tuple(2 * k - 1 for k in self.counts))

    @property
    def npoints(self) -> int:
        return int(np.prod(self.counts))


def _slice_points(grid: GridSpec) -> tuple[list[np.ndarray], np.ndarray]:
    """The grid's axes and one axis-0 slice of points; the caller sets ``pts[..., 0]``."""
    axes = grid.axes()
    pts = np.empty(grid.counts[1:] + (4,))
    pts[..., 1] = axes[1][:, None, None]
    pts[..., 2] = axes[2][None, :, None]
    pts[..., 3] = axes[3][None, None, :]
    return axes, pts


def pairing(phi: FieldFunction, f: FieldFunction, grid: GridSpec) -> complex:
    """Trapezoid quadrature of sum_i phi_i(r) f_i(r) over the grid.

    Bilinear (no conjugation).  Accuracy is the caller's business: compare
    against ``grid.refine()`` to validate convergence.  Evaluation streams
    one axis-0 slice at a time to bound memory.
    """
    if phi.n != f.n:
        raise ValueError(f"component counts differ: {phi.n} != {f.n}")
    if not isinstance(grid, GridSpec):
        raise ValueError("pairing requires a GridSpec")
    axes, pts = _slice_points(grid)
    w0, w1, w2, w3 = grid.weights()
    total = 0.0 + 0.0j
    for i0, x0 in enumerate(axes[0]):
        pts[..., 0] = x0
        integrand = _component_sum(phi.evaluate(pts) * f.evaluate(pts))
        total += w0[i0] * np.einsum("a,b,c,abc->", w1, w2, w3, integrand)
    return complex(total)


def _component_sum(products: np.ndarray) -> np.ndarray:
    """Sum over the last axis in the order numpy adds complex columns.

    numpy sums up to 3 complex columns left to right and 4 in pairs, so
    real products, (a+0j)(b+0j) == ab, are added the same way; wider
    real ones go through the complex sum.
    """
    n = products.shape[-1]
    if np.iscomplexobj(products) or n > 4:
        return np.sum(products.astype(complex, copy=False), axis=-1)
    cols = [products[..., i] for i in range(n)]
    if n == 4:
        return (cols[0] + cols[1]) + (cols[2] + cols[3])
    return sum(cols[1:], cols[0])


def dump_field_csv(field: FieldFunction, grid: GridSpec, path) -> None:
    """Write the sampled field to CSV.

    One row per grid point: 4 coordinate columns, then re/im columns per
    component.  All numbers are printed with 17 significant digits.
    """
    axes, pts = _slice_points(grid)
    header = ["x0", "x1", "x2", "x3"]
    for i in range(field.n):
        header += [f"re{i}", f"im{i}"]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for x0 in axes[0]:
            pts[..., 0] = x0
            vals = field.evaluate(pts).reshape(-1, field.n)
            coords = pts.reshape(-1, 4)
            for row_pt, row_val in zip(coords, vals):
                cells = [f"{v:.17g}" for v in row_pt]
                for v in row_val:
                    cells += [f"{v.real:.17g}", f"{v.imag:.17g}"]
                fh.write(",".join(cells) + "\n")


def gradient_fd_residual(field: FieldFunction, points: np.ndarray, step: float = 1e-4) -> float:
    """Relative sup deviation of the analytic gradient from central differences."""
    pts = np.asarray(points, dtype=float)
    grad = np.asarray(field.gradient(pts), dtype=complex)
    fd = np.stack([_central_diff(field.evaluate, pts, k, step, 2) for k in range(4)], axis=-1)
    scale = max(float(np.abs(grad).max()), 1e-30)
    return float(np.abs(fd - grad).max()) / scale
