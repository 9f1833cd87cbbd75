"""Sampled field functions and their transformation laws.

A field is a smooth map R^4 -> C^n carried together with its analytic
gradient, so every transformation below chain-rules the gradient instead
of re-differencing it.

Transformation conventions (fixed once, used everywhere), for ``g`` any
``AffineMap`` x -> L x + a, a ``PoincareElement`` among them:

* ``passive_transform``   phi'(x) = D  phi(L^-1 (x - a))     (component
  relabeling; matrix ``D`` is the plain representation matrix);
* ``active_transform``    phi'(x) = J  D^T phi(L x + a)      (point-moving
  law; the *transposed* matrix acts, the argument uses the forward map,
  and ``J`` is the Jacobian determinant of that map -- exactly 1 for a
  Poincare element);
* ``transform_test_function``  f'(x) = D f(L^-1 (x - a)).

Writing the active argument as the forward map L x + a is a choice; the
same law evaluated at the inverse group element produces the
L^-1 (x - a) variant seen elsewhere.  With these three laws the smearing
pairing satisfies  pairing(active phi, f) == pairing(phi, transformed f)
exactly (up to quadrature), which is the check ``pairing`` is built for.
The Jacobian factor is a scalar, so whether it is written inside or
outside the matrix action is immaterial.

Values follow their data: real coefficients under a real matrix give float64
values computed in real arithmetic; a complex one anywhere gives complex128.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .generators import _central_diff
from .geometry import AffineMap
from .representations import FieldRep, rep_matrix_for_element
from .schemas import NUMBER_FORMAT

__all__ = [
    "SingularFrameError",
    "FieldFunction",
    "GaussianBound",
    "wave_packet",
    "constant_field",
    "FrameChange",
    "GridSpec",
    "passive_transform",
    "active_transform",
    "transform_test_function",
    "active_transform_bound",
    "transform_test_function_bound",
    "frame_change_components",
    "cocycle_check",
    "pairing",
    "pairings",
    "skipped_bounds",
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
    coordinate derivative direction.  Both must be pure functions and
    must not write to ``points``, which may be a strided view: on the grid
    path (``pairings``, ``dump_field_csv``) and after an ``AffineMap`` it
    is laid out coordinate-major, each ``points[..., k]`` a contiguous
    column, and the grid path reuses its buffer for the next block.
    ``evaluate`` may return a real (float64) array, computed in real
    arithmetic, for a field whose values are real (a wave packet with real
    coefficients); it stands for the complex array with zero imaginary parts.

    On the grid path ``points`` is a ``_GridBlock`` whose ``axes`` are the
    block's coordinates as four 1-D views of the grid's axes that
    broadcast to (rows, n2, n3) (see ``_slice_blocks``).  A field may read
    its values off those, as a wave packet does, only if they are the bytes
    it returns on the materialized points: ``np.asarray(points)`` is a
    plain array without ``axes`` and must get the same pairings.
    """

    n: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.evaluate(points)


def _normalise_components(components) -> list[list[tuple[complex, tuple[int, int, int, int]]]]:
    """Turn the accepted component shorthands into ``(coeff, powers)`` term lists."""
    if isinstance(components, int):
        components = [1.0] * components
    terms = []
    for comp in components:
        if np.isscalar(comp):
            terms.append([(complex(comp), (0, 0, 0, 0))])
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
            comp_terms.append((complex(coeff), powers))
        terms.append(comp_terms)
    if not terms:
        raise ValueError("a wave packet needs at least one component")
    return terms


def _polynomial(ys: list, comp_terms):
    """One component polynomial at columns ``ys``, its terms added into 0; the unit monomial stays a scalar."""
    acc = 0.0
    for coeff, powers in comp_terms:
        mono = None
        for y, p in zip(ys, powers):
            if p:
                mono = y**p if mono is None else mono * y**p
        acc = acc + (coeff if mono is None else coeff * mono)
    return acc


def wave_packet(center: np.ndarray, width: float, components=1) -> FieldFunction:
    """Gaussian wave packet with optional polynomial prefactors.

    Component i evaluates to ``P_i(y) exp(-|y|^2 / width^2)`` with
    ``y = x - center`` (Euclidean norm, so the packet is effectively
    compactly supported).  ``components`` is either an int (that many
    unit-amplitude components), or one entry per component: a scalar
    amplitude or a list of monomial terms ``(coeff, (p0, p1, p2, p3))``.
    When every coefficient is real, ``evaluate`` computes in real
    arithmetic and returns float64 values; otherwise complex128.
    ``width`` must be positive with width^2 and 2 / width^2 finite and
    nonzero, about 1.055e-154 to 1.341e154; any other raises ValueError.
    """
    c = np.asarray(center, dtype=float)
    if c.shape != (4,) or not np.all(np.isfinite(c)):
        raise ValueError("wave packet center must be a finite 4-vector")
    s = float(width)
    if not (s > 0 and 0 < s * s < np.inf and 2.0 / (s * s) < np.inf):
        raise ValueError(f"wave packet width must be positive with width^2 and 2 / width^2 finite and nonzero, got {s!r}")
    terms = _normalise_components(components)
    n = len(terms)
    dtype = complex if any(coeff.imag for comp_terms in terms for coeff, _ in comp_terms) else float
    terms = [[(coeff if dtype is complex else coeff.real, powers) for coeff, powers in t] for t in terms]

    # dP_i/dy_k: each term with p_k > 0, coefficient p_k * coeff, p_k lowered by one.
    dterms = [[[(powers[k] * coeff, tuple(p - (j == k) for j, p in enumerate(powers)))
                for coeff, powers in comp_terms if powers[k]] for k in range(4)] for comp_terms in terms]

    def _split(points: np.ndarray) -> list:
        # A single point is a 1-row batch: numpy scalars would take y ** p through pow().
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return [pts[..., k] for k in range(4)]

    def _columns(xs):
        # The columns of y = x - center and exp(-|y|^2 / s^2); r2 / -s^2 is -r2 / s^2 exactly.
        # Columns that broadcast sum ((y0^2 + y1^2) + y2^2) + y3^2 as they grow, equal ones in place.
        ys = [x - ck for x, ck in zip(xs, c)]
        r2 = ys[0] * ys[0]
        for y in ys[1:]:
            sq = y * y
            r2 = np.add(r2, sq, out=r2 if r2.shape == sq.shape else None)
        return ys, np.exp(r2 / -s**2)

    def _values(ys, envelope):
        vals = np.empty(envelope.shape + (n,), dtype=dtype)
        for i, comp_terms in enumerate(terms):
            np.multiply(_polynomial(ys, comp_terms), envelope, out=vals[..., i])
        return vals

    def evaluate(points: np.ndarray) -> np.ndarray:
        # A grid block's axes give each element the operations of its materialized points.
        xs = getattr(points, "axes", None) or _split(points)
        return _values(*_columns(xs)).reshape(np.shape(points)[:-1] + (n,))

    def gradient(points: np.ndarray) -> np.ndarray:
        # d/dx_k (P e) = (dP/dy_k - (2 / s^2) P y_k) e.
        ys, envelope = _columns(_split(points))
        out = np.empty(envelope.shape + (n, 4), dtype=complex)
        for i, comp_terms in enumerate(terms):
            scaled = (2.0 / s**2) * _polynomial(ys, comp_terms)
            for k in range(4):
                np.multiply(_polynomial(ys, dterms[i][k]) - scaled * ys[k], envelope, out=out[..., i, k])
        return out.reshape(np.shape(points)[:-1] + (n, 4))

    return FieldFunction(n, evaluate, gradient)


#: Share of a monomial packet's Gaussian exponent that ``GaussianBound.of_packet``
#: spends on absorbing its monomials: the bound's exponent is -(1 - 1/16) |y|^2 / s^2.
_MONOMIAL_SHARE = 1 / 16


@dataclass(frozen=True, eq=False)
class GaussianBound:
    """A Gaussian majorant of a field: ``|phi(x)|_2 <= amp exp(-(x - center)^T form (x - center))``.

    ``form`` is a symmetric 4x4 matrix and ``center`` a 4-vector; the
    inequality holds up to the rounding of ``form``'s entries.  A packet's
    bound comes from its spec (``of_packet``), a law's from the law's
    counterpart (``active_transform_bound``, ``transform_test_function_bound``),
    and two bounds multiply into the bound of their pairing integrand.  A
    bound with entries that are not finite (an overflowing form or
    amplitude) bounds nothing, and ``pairings`` evaluates its pair on the
    whole grid.
    """

    amp: float
    form: np.ndarray
    center: np.ndarray

    @classmethod
    def of_packet(cls, center, width, components=1) -> "GaussianBound":
        """The bound of ``wave_packet(center, width, components)``, from the same arguments.

        A term ``coeff * prod y_k^p_k`` of degree ``d = sum p_k`` is at most
        ``|coeff| |y|^d``, and with ``e = _MONOMIAL_SHARE``
        ``|y|^d exp(-|y|^2/s^2) <= (d s^2 / (2 e e))^(d/2) exp(-(1 - e) |y|^2/s^2)``
        (the maximum of ``r^d exp(-e r^2/s^2)``).  So ``amp`` is the 2-norm of the
        components' sums of such term bounds, and ``form`` is ``(1 - e) / s^2``
        times the identity, or ``1 / s^2`` for a packet of constant components.
        """
        terms = _normalise_components(components)
        degrees = [[sum(powers) for _, powers in comp_terms] for comp_terms in terms]
        share = _MONOMIAL_SHARE if any(map(any, degrees)) else 0.0
        with np.errstate(all="ignore"):
            s2 = np.float64(width) ** 2
            gain = lambda d: (d * s2 / (2 * share * np.e)) ** (d / 2) if d else 1.0
            amps = [sum(abs(coeff) * gain(d) for (coeff, _), d in zip(t, ds)) for t, ds in zip(terms, degrees)]
            return cls(float(np.linalg.norm(amps)), (1 - share) / s2 * np.eye(4), np.asarray(center, dtype=float))

    def pull_back(self, mapping: AffineMap, gain: float) -> "GaussianBound":
        """The bound of ``x -> M phi(mapping(x))`` for any matrix ``M`` with ``||M||_2 <= gain``."""
        lin = mapping.linear
        with np.errstate(all="ignore"):
            form = lin.T @ self.form @ lin
            center = np.linalg.solve(lin, self.center - mapping.offset)
            return GaussianBound(float(gain * self.amp), (form + form.T) / 2, center)

    def __mul__(self, other: "GaussianBound") -> "GaussianBound":
        """The bound of the integrand ``sum_i phi_i f_i`` of two fields that ``self`` and ``other`` bound.

        By Cauchy-Schwarz it is the product of the two bounds: the forms add
        to ``A = A1 + A2``, the center is ``mu = A^-1 (A1 c1 + A2 c2)``, and the
        peak is ``amp1 amp2 exp(-q_min)`` with
        ``q_min = sum_j (mu - c_j)^T A_j (mu - c_j)``.  A singular or
        non-finite ``A`` gives a ``nan`` center.
        """
        form = self.form + other.form
        with np.errstate(all="ignore"):
            try:
                center = np.linalg.solve(form, self.form @ self.center + other.form @ other.center)
            except np.linalg.LinAlgError:
                center = np.full(4, np.nan)
            rest = sum((center - b.center) @ b.form @ (center - b.center) for b in (self, other))
            return GaussianBound(float(self.amp * other.amp * np.exp(-rest)), form, center)


def _constant(v: np.ndarray):
    """``evaluate`` and ``gradient`` closures of a value equal to ``v`` everywhere."""

    def evaluate(points: np.ndarray) -> np.ndarray:
        return np.broadcast_to(v, np.shape(points)[:-1] + v.shape).copy()

    def gradient(points: np.ndarray) -> np.ndarray:
        return np.zeros(np.shape(points)[:-1] + v.shape + (4,), dtype=complex)

    return evaluate, gradient


def constant_field(values: Sequence[complex]) -> FieldFunction:
    """Field equal to ``values`` everywhere; gradient identically zero."""
    v = np.atleast_1d(np.asarray(values, dtype=complex))
    return FieldFunction(v.shape[0], *_constant(v))


@dataclass(frozen=True)
class FrameChange:
    """Pointwise invertible matrix field A(x) relating two frames.

    ``matrix`` maps points (..., 4) to matrices (..., n, n).  The
    derivative of A is taken by central differences at step 1e-6; for a
    constant A it is exactly zero.
    """

    n: int
    matrix: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def constant(cls, matrix: np.ndarray) -> "FrameChange":
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("constant frame change needs a square matrix")
        return cls(m.shape[0], _constant(m)[0])

    def _gradient(self, points: np.ndarray) -> np.ndarray:
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


def _spacetime_matrix(rep: FieldRep, g: AffineMap, field: FieldFunction | None = None) -> np.ndarray:
    """Representation matrix of ``g`` for ``field`` (for a bound when None): an AffineMap, a PoincareElement among them."""
    if field is not None and rep.n != field.n:
        raise ValueError(f"representation dimension {rep.n} != field dimension {field.n}")
    if not isinstance(g, AffineMap):
        raise TypeError(f"expected an AffineMap, got {type(g).__name__}")
    return rep_matrix_for_element(rep, g)


def _composed_field(field: FieldFunction, matrix: np.ndarray, mapping: AffineMap, scale: float) -> FieldFunction:
    """scale * matrix @ field(mapping(x)) with the chain-ruled gradient.

    The scaled matrix is kept real when it has no imaginary part, so real
    values under a real law stay real.
    """
    lin = mapping.linear
    m = scale * matrix if np.any(matrix.imag) else scale * matrix.real

    def evaluate(points: np.ndarray) -> np.ndarray:
        vals = field.evaluate(mapping(points))
        return np.einsum("ij,...j->...i", m.astype(np.result_type(m, vals)), vals)

    def gradient(points: np.ndarray) -> np.ndarray:
        return np.einsum("ij,...jm,mk->...ik", m, field.gradient(mapping(points)), lin)

    return FieldFunction(field.n, evaluate, gradient)


def passive_transform(field: FieldFunction, rep: FieldRep, g: AffineMap) -> FieldFunction:
    """Component relabeling phi'(x) = D phi(L^-1 (x - a)), for ``g`` as in ``active_transform``."""
    return transform_test_function(field, rep, g)


def active_transform(field: FieldFunction, rep: FieldRep, g: AffineMap) -> FieldFunction:
    """Point-moving law phi'(x) = J D^T phi(L x + a), J = ``g.jacobian``.

    ``g`` is any AffineMap; only a PoincareElement (J = 1) takes every
    spacetime representation, a general map only scalar and vector.
    """
    return _composed_field(field, _spacetime_matrix(rep, g, field).T, g, g.jacobian)


def transform_test_function(field: FieldFunction, rep: FieldRep, g: AffineMap) -> FieldFunction:
    """Test-function law f'(x) = D f(L^-1 (x - a)), for ``g`` as in ``active_transform``."""
    return _composed_field(field, _spacetime_matrix(rep, g, field), g.inverse(), 1.0)


def _norm_bound(matrix: np.ndarray) -> float:
    """``sqrt(||matrix||_1 ||matrix||_inf)``, at least the 2-norm of ``matrix`` and of its transpose.

    It takes no SVD, whose first call maps about 1 MB more of LAPACK into
    the process; for a boost along an axis it is the 2-norm.
    """
    a = np.abs(matrix)
    return math.sqrt(a.sum(axis=0).max() * a.sum(axis=1).max())


def active_transform_bound(bound: GaussianBound, rep: FieldRep, g: AffineMap) -> GaussianBound:
    """The bound of ``active_transform(field, rep, g)`` for a field that ``bound`` bounds.

    ``bound`` is pulled back through ``g`` with gain ``|J|`` times a bound of
    ``||D^T||_2 = ||D||_2`` (``_norm_bound``).
    """
    return bound.pull_back(g, abs(g.jacobian) * _norm_bound(_spacetime_matrix(rep, g)))


def transform_test_function_bound(bound: GaussianBound, rep: FieldRep, g: AffineMap) -> GaussianBound:
    """The bound of ``transform_test_function(field, rep, g)``: ``bound`` pulled back through ``g^-1``, gain a bound of ``||D||_2``."""
    return bound.pull_back(g.inverse(), _norm_bound(_spacetime_matrix(rep, g)))


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
        if not all(isinstance(k, numbers.Integral) or isinstance(k, numbers.Real) and float(k).is_integer() for k in self.counts):
            raise ValueError(f"grid point counts must be integers, got {self.counts!r}")
        n = tuple(int(k) for k in self.counts)
        if len(b) != 4 or len(n) != 4:
            raise ValueError("grid needs bounds and counts for all 4 axes")
        if any(k < 2 for k in n):
            raise ValueError("grid point counts must be at least 2")
        if not np.all(np.isfinite(b)):
            raise ValueError(f"grid bounds must be finite, got {b}")
        if any(lo >= hi for lo, hi in b):
            raise ValueError("grid bounds must be ordered lower < upper")
        for axis, (lo, hi) in enumerate(b):
            if not np.isfinite(hi - lo):
                raise ValueError(f"grid axis {axis} spans {lo:g} to {hi:g}, wider than the largest double")
        object.__setattr__(self, "bounds", b)
        object.__setattr__(self, "counts", n)

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(lo, hi, k) for (lo, hi), k in zip(self.bounds, self.counts)]

    def weights(self) -> list[np.ndarray]:
        """Per-axis trapezoid weights: the one-level case of ``_level_weights``."""
        return [w[:, 0] for w in _level_weights(self, 1)]

    def refine(self) -> "GridSpec":
        """Halve every step (counts k -> 2k - 1); bounds unchanged."""
        return GridSpec(self.bounds, tuple(2 * k - 1 for k in self.counts))

    @property
    def npoints(self) -> int:
        return int(np.prod(self.counts))


#: Most points one field evaluation gets from ``pairings``,
#: ``dump_field_csv`` and a relation check's stencil
#: (``heisenberg._relation_residuals``): a block's transformed points,
#: values and temporaries stay in cache instead of spanning a whole
#: axis-0 slice or sample.  Chosen by timing 8k-64k point blocks on the
#: 65^4 pairing.
BLOCK_POINTS = 16384


class _GridBlock(np.ndarray):
    """Grid points with their 1-D ``axes``, set on the blocks ``_slice_blocks`` yields, not on views."""

    axes = None


def _whole_slices(grid: GridSpec) -> list:
    """Every axis-0 slice's box when nothing is skipped: the whole (x1, x2, x3) slice."""
    return [tuple(slice(0, k) for k in grid.counts[1:])] * grid.counts[0]


def _slice_blocks(grid: GridSpec, boxes=None):
    """One ``blocks`` iterator per axis-0 slice of the grid, in order.

    ``boxes`` holds each slice's (x1, x2, x3) index box as three ``slice``s,
    or None for a slice without points; without ``boxes`` every box is the
    whole slice.  ``blocks`` yields the box's points as ``_GridBlock``s of
    shape (rows, m2, m3, 4), in blocks of whole axis-1 rows: as many rows as
    fit in BLOCK_POINTS, and one row when a row alone is larger.  Every block
    is a view of one coordinate-major (4, rows, m2, m3) buffer, a prefix of
    one buffer per pass, that the next block overwrites, so each
    ``block[..., k]`` is a contiguous column.  Its ``axes`` are the same
    coordinates as four views of the grid's 1-D axes that broadcast to
    (rows, m2, m3): x0 of shape (1,), the block's x1 of shape (rows, 1, 1),
    x2 of (m2, 1) and x3 of (m3,).
    """
    axes = grid.axes()
    boxes = _whole_slices(grid) if boxes is None else boxes

    def layout(box):
        m1, m2, m3 = (s.stop - s.start for s in box)
        return min(m1, max(1, BLOCK_POINTS // (m2 * m3))), m2, m3

    flat = np.empty(4 * max((math.prod(layout(box)) for box in boxes if box is not None), default=0))

    def blocks(x0, box):
        (s1, s2, s3), (rows, m2, m3) = box, layout(box)
        buf = flat[: 4 * rows * m2 * m3].reshape(4, rows, m2, m3)
        buf[0] = x0
        buf[2] = x2 = axes[2][s2, None]
        buf[3] = x3 = axes[3][s3]
        for i1 in range(s1.start, s1.stop, rows):
            x1 = axes[1][i1 : min(i1 + rows, s1.stop), None, None]
            cols = buf[:, : len(x1)]
            cols[1] = x1
            block = np.moveaxis(cols, 0, -1).view(_GridBlock)
            block.axes = (x0, x1, x2, x3)
            yield block

    for x0, box in zip(axes[0][:, None], boxes):
        yield iter(()) if box is None else blocks(x0, box)


#: The tail cutoff tau of bounded ``pairings``: a grid point is skipped only
#: where every pair's Gaussian majorant is below tau times that pair's peak,
#: so a pair's value loses at most tau * peak * (the skipped points' weights)
#: (``skipped_bounds``).  At e^-50 = 1.9e-22 that is below 1e-15 of the
#: value for the shipped and benchmark pairings.
TAIL_CUTOFF = math.exp(-50.0)
#: A pair's form with a larger condition number covers the whole grid: its
#: box, computed from a solve with that matrix, could be off by more than the
#: one grid point it is widened by.
_MAX_CONDITION = 1e12


def _pair_box_ranges(bound: GaussianBound, grid: GridSpec):
    """Per axis-0 slice, the inclusive (x1, x2, x3) index ranges ``(lo, hi)`` of one pair's box, or None.

    Outside ``(x - mu)^T A (x - mu) <= c``, ``c = -ln TAIL_CUTOFF``, the pair's
    bound is below TAIL_CUTOFF times its peak.  At ``x0 = mu0 + u`` the
    section is ``(v - u s)^T G (v - u s) <= c - u^2 (A00 + A[0, 1:] s)`` in
    ``v = x[1:] - mu[1:]``, with ``G = A[1:, 1:]`` and ``s = -G^-1 A[1:, 0]``,
    and its bounding box has half-widths ``sqrt(rhs (G^-1)_kk)``.  Each box
    is widened by one grid point per side and clipped to the grid; a slice
    more than one grid point from the ellipsoid's x0 range gets ``lo > hi``.
    None when the bound's data are not finite, or its form is not positive
    definite with ``||A||_F ||A^-1||_F`` (at least its condition number) of at
    most _MAX_CONDITION.
    """
    A, mu = bound.form, bound.center
    if not (np.isfinite(bound.amp) and np.all(np.isfinite(A)) and np.all(np.isfinite(mu))):
        return None
    cut = -math.log(TAIL_CUTOFF)
    low = np.array([lo for lo, _ in grid.bounds])
    step = np.array([(hi - lo) / (k - 1) for (lo, hi), k in zip(grid.bounds, grid.counts)])
    last = np.array(grid.counts) - 1
    with np.errstate(all="ignore"):
        try:
            np.linalg.cholesky(A)  # raises unless A is positive definite
            # ||A||_F ||A^-1||_F is at least the condition number
            if not np.linalg.norm(A) * np.linalg.norm(np.linalg.inv(A)) <= _MAX_CONDITION:
                return None
            inv = np.linalg.inv(A[1:, 1:])
        except np.linalg.LinAlgError:
            return None
        slope = -(inv @ A[1:, 0])
        schur = A[0, 0] + A[0, 1:] @ slope
        reach = np.sqrt(cut / schur)
        u = grid.axes()[0] - mu[0]
        half = np.sqrt(np.maximum(cut - schur * u * u, 0.0)[:, None] * np.diag(inv))
        mid = mu[1:] + u[:, None] * slope
        lo = np.floor((mid - half - low[1:]) / step[1:]) - 1
        hi = np.ceil((mid + half - low[1:]) / step[1:]) + 1
        x0_lo = np.floor((mu[0] - reach - low[0]) / step[0]) - 1
        x0_hi = np.ceil((mu[0] + reach - low[0]) / step[0]) + 1
    if np.isnan(lo).any() or np.isnan(hi).any() or np.isnan(x0_lo) or np.isnan(x0_hi):
        return None
    lo, hi = np.maximum(lo, 0), np.minimum(hi, last[1:])
    far = (np.arange(grid.counts[0]) < x0_lo) | (np.arange(grid.counts[0]) > x0_hi)
    lo[far], hi[far] = np.inf, -np.inf
    return lo, hi


def _slice_boxes(bounds, grid: GridSpec) -> list:
    """Each axis-0 slice's box for ``pairings``: three index ``slice``s (x1, x2, x3), or None to skip the slice.

    A slice's box covers every pair's box (``_pair_box_ranges``), so each
    skipped point is outside every pair's ellipsoid.  Without ``bounds``, or
    when any pair has no bound (None) or one without a box, every box is
    the whole slice.
    """
    if bounds is None:
        return _whole_slices(grid)
    lo = np.full((grid.counts[0], 3), np.inf)
    hi = np.full((grid.counts[0], 3), -np.inf)
    for bound in bounds:
        ranges = None if bound is None else _pair_box_ranges(bound, grid)
        if ranges is None:
            return _whole_slices(grid)
        lo, hi = np.minimum(lo, ranges[0]), np.maximum(hi, ranges[1])
    return [
        tuple(slice(int(a), int(b) + 1) for a, b in zip(los, his)) if np.all(los <= his) else None
        for los, his in zip(lo, hi)
    ]


def _level_weights(grid: GridSpec, levels: int) -> list[np.ndarray]:
    """Per-axis trapezoid weights, shape (count, levels), of the nested sub-lattices.

    Column ``j`` holds the weights of the grid made of every
    ``step = 2**(levels-1-j)``-th point: ``(hi - lo) / ((count - 1) // step)``
    at each of them, halved at the two ends, and zeros at the points it
    skips.  The last column is ``grid.weights()``.
    """
    if levels < 1:
        raise ValueError(f"levels must be at least 1, got {levels}")
    top = 2 ** (levels - 1)
    if any((k - 1) % top for k in grid.counts):
        raise ValueError(f"{levels} nested levels need every grid count minus 1 to divide by {top}, got {grid.counts}")
    out = [np.zeros((k, levels)) for k in grid.counts]
    for w, (lo, hi), k in zip(out, grid.bounds, grid.counts):
        for j in range(levels):
            step = 2 ** (levels - 1 - j)
            w[::step, j] = (hi - lo) / ((k - 1) // step)
            w[[0, -1], j] *= 0.5
    return out


def pairings(pairs, grid: GridSpec, levels: int = 1, bounds=None) -> np.ndarray:
    """Pairings of several field pairs on nested levels of one grid, in one pass.

    Returns a complex (len(pairs), levels) array: entry ``[p, j]`` is
    ``pairing(*pairs[p], coarse)`` on the grid of every
    ``2**(levels-1-j)``-th point of ``grid`` (up to the rounding of its
    coordinates); the last column is on ``grid`` itself.  Raises
    ValueError when a count minus 1 does not divide by ``2**(levels-1)``.

    ``bounds`` holds one ``GaussianBound`` (or None) per pair, a bound of its
    integrand such as the product of its fields' bounds.  Each axis-0 slice
    is then evaluated and summed only inside one (x1, x2, x3) index box that
    covers every pair's ellipsoid where its bound is at least TAIL_CUTOFF
    times its peak, widened by one grid point per side, and a slice without
    such a box is skipped (``_slice_boxes``); ``skipped_bounds`` bounds what
    each value leaves out.  Without ``bounds``, or with a pair whose bound is
    None or not finite, every box is the whole slice, and the values are
    those of the unbounded sum, bit for bit.

    Each distinct field (by identity) is evaluated once per block of
    ``_slice_blocks``, so shared fields and coarser levels cost no further
    evaluation.  Each slice's box is summed over axes 2 and 3 by a real
    matrix product with the box's (m2 * m3, levels) weights, then over axis
    1, a complex integrand as its real and imaginary parts (no complex BLAS
    product); the slice sums are added in order.
    """
    pairs = list(pairs)
    for phi, f in pairs:
        if phi.n != f.n:
            raise ValueError(f"component counts differ: {phi.n} != {f.n}")
    if not isinstance(grid, GridSpec):
        raise ValueError("pairing requires a GridSpec")
    if bounds is not None and len(bounds) != len(pairs):
        raise ValueError(f"{len(bounds)} bounds for {len(pairs)} pairs")
    w0, w1, w2, w3 = _level_weights(grid, levels)
    boxes = _slice_boxes(bounds, grid)
    fields = list({id(f): f for pair in pairs for f in pair}.values())
    slot = {id(f): i for i, f in enumerate(fields)}
    index = [(slot[id(phi)], slot[id(f)]) for phi, f in pairs]

    def slice_sums(box, blocks):
        # Real parts of every pair's integrand in the slice's box, imaginary
        # parts of the pairs that meet a complex value.  Sized to the box and
        # freed on return, before the next slice's: kept across it they
        # doubled the peak memory, and one buffer per pass left malloc
        # mapping and unmapping the blocks' temporaries (ten times the page
        # faults).
        s1, s2, s3 = box
        shape = tuple(s.stop - s.start for s in box)
        w23 = (w2[s2, None, :] * w3[None, s3, :]).reshape(-1, levels)
        contract = lambda part: np.einsum("aj,aj->j", w1[s1], part.reshape(shape[0], -1) @ w23)
        real = np.empty((len(pairs),) + shape)
        imag = {}
        i1 = 0
        for pts in blocks:
            vals = [f.evaluate(pts) for f in fields]
            rows = slice(i1, i1 + len(pts))
            for p, (a, b) in enumerate(index):
                if np.iscomplexobj(vals[a]) or np.iscomplexobj(vals[b]):
                    integrand = np.einsum("...i,...i->...", vals[a], vals[b])
                    real[p, rows] = integrand.real
                    if p not in imag:
                        imag[p] = np.zeros_like(real[p])
                    imag[p][rows] = integrand.imag
                else:
                    np.einsum("...i,...i->...", vals[a], vals[b], out=real[p, rows])
            i1 += len(pts)
        sums = np.zeros((len(pairs), 2, levels))
        for p, part in enumerate(real):
            sums[p, 0] = contract(part)
        for p, part in imag.items():
            sums[p, 1] = contract(part)
        return sums

    # An unbounded pass frees a whole slice's integrand buffer after its first
    # slice, and glibc's malloc then raises its mmap threshold to that size and
    # its heap-trim threshold to twice it.  The same request, made and freed
    # here untouched, keeps those thresholds for smaller boxes, so their
    # buffers and the blocks' temporaries are reused from the heap instead of
    # trimmed and refaulted at each slice: a fresh process's bounded 65^4
    # four-component ladder took about 20,000 minor page faults without it
    # and 900 with it.
    np.empty((len(pairs),) + grid.counts[1:])
    total = np.zeros((len(pairs), 2, levels))
    for w, box, blocks in zip(w0, boxes, _slice_blocks(grid, boxes)):
        if box is not None:
            total += w * slice_sums(box, blocks)
    values = np.empty((len(pairs), levels), dtype=complex)
    values.real, values.imag = total[:, 0], total[:, 1]
    return values


def skipped_bounds(bounds, grid: GridSpec, levels: int = 1) -> np.ndarray:
    """What ``pairings(pairs, grid, levels, bounds)`` may leave out of each value, shape (len(bounds), levels).

    Entry ``[p, j]`` is ``TAIL_CUTOFF * peak * W_j``: ``peak`` is
    ``bounds[p].amp``, the largest value of the pair's bound, and ``W_j`` the
    sum of level ``j``'s trapezoid weights at the grid points that the pass
    skips, each of them outside the pair's ellipsoid.  It is exactly 0 when
    nothing is skipped.
    """
    w0, *w123 = _level_weights(grid, levels)
    whole = math.prod(w.sum(axis=0) for w in w123)
    skipped = np.zeros(levels)
    for w, box in zip(w0, _slice_boxes(bounds, grid)):
        kept = 0.0 if box is None else math.prod(wk[s].sum(axis=0) for wk, s in zip(w123, box))
        skipped += w * np.maximum(whole - kept, 0.0)
    peaks = np.array([[0.0 if b is None else b.amp] for b in bounds])
    with np.errstate(all="ignore"):
        return np.where(skipped > 0, TAIL_CUTOFF * peaks * skipped, 0.0)


def pairing(phi: FieldFunction, f: FieldFunction, grid: GridSpec) -> complex:
    """Trapezoid quadrature of sum_i phi_i(r) f_i(r) over the grid.

    Bilinear (no conjugation).  Accuracy is the caller's business: compare
    against ``grid.refine()`` to validate convergence.  This is the
    one-pair, one-level ``pairings``: each field is evaluated once per
    point, in blocks of at most BLOCK_POINTS points, so the working set
    does not grow with the grid.
    """
    return complex(pairings([(phi, f)], grid)[0, 0])


def dump_field_csv(field: FieldFunction, grid: GridSpec, path) -> None:
    """Write the sampled field to CSV.

    One row per grid point: 4 coordinate columns, then re/im columns per
    component.  All numbers are printed with 17 significant digits.
    """
    header = ["x0", "x1", "x2", "x3"] + [f"{part}{i}" for i in range(field.n) for part in ("re", "im")]
    # Each axis value is formatted once: these are the floats _slice_blocks
    # writes into its points.  The axis-1 row template holds the x2,x3 text
    # of its n2 * n3 points and a placeholder for x0,x1; a row puts its
    # x0,x1 text in, and then one % formats the row's values only.
    text = [[NUMBER_FORMAT % v for v in axis.tolist()] for axis in grid.axes()]
    values = ",".join([NUMBER_FORMAT] * 2 * field.n)
    template = "".join(f"\0,{x2},{x3},{values}\n" for x2 in text[2] for x3 in text[3])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for x0, blocks in zip(text[0], _slice_blocks(grid)):
            x1 = iter(text[1])
            for pts in blocks:
                vals = field.evaluate(pts).reshape(-1, field.n)
                parts = np.stack([vals.real, np.imag(vals)], axis=-1).reshape(len(pts), -1)
                for row in parts:
                    fh.write(template.replace("\0", f"{x0},{next(x1)}") % tuple(row.tolist()))


def gradient_fd_residual(field: FieldFunction, points: np.ndarray, step: float = 1e-4) -> float:
    """Relative sup deviation of the analytic gradient from central differences."""
    pts = np.asarray(points, dtype=float)
    grad = np.asarray(field.gradient(pts), dtype=complex)
    fd = np.stack([_central_diff(field.evaluate, pts, k, step, 2) for k in range(4)], axis=-1)
    scale = max(float(np.abs(grad).max()), 1e-30)
    return float(np.abs(fd - grad).max()) / scale
