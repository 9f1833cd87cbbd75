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
    "pairings",
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

    def _columns(points: np.ndarray):
        # The columns of y = x - center and exp(-|y|^2 / s^2); r2 / -s^2 is -r2 / s^2 exactly.
        # A single point is a 1-row batch: numpy scalars would take y ** p through pow().
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ys = [pts[..., k] - c[k] for k in range(4)]
        r2 = ys[0] * ys[0]
        for y in ys[1:]:
            r2 += y * y
        return ys, np.exp(r2 / -s**2)

    def evaluate(points: np.ndarray) -> np.ndarray:
        ys, envelope = _columns(points)
        vals = np.empty(envelope.shape + (n,), dtype=dtype)
        for i, comp_terms in enumerate(terms):
            np.multiply(_polynomial(ys, comp_terms), envelope, out=vals[..., i])
        return vals.reshape(np.shape(points)[:-1] + (n,))

    def gradient(points: np.ndarray) -> np.ndarray:
        # d/dx_k (P e) = (dP/dy_k - (2 / s^2) P y_k) e.
        ys, envelope = _columns(points)
        out = np.empty(envelope.shape + (n, 4), dtype=complex)
        for i, comp_terms in enumerate(terms):
            scaled = (2.0 / s**2) * _polynomial(ys, comp_terms)
            for k in range(4):
                np.multiply(_polynomial(ys, dterms[i][k]) - scaled * ys[k], envelope, out=out[..., i, k])
        return out.reshape(np.shape(points)[:-1] + (n, 4))

    return FieldFunction(n, evaluate, gradient)


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


def _spacetime_matrix(rep: FieldRep, g: AffineMap, field: FieldFunction) -> np.ndarray:
    """Representation matrix of ``g`` for ``field``: an AffineMap, a PoincareElement among them."""
    if rep.n != field.n:
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
        """Per-axis trapezoid weights: the one-level case of ``_level_weights``."""
        return [w[:, 0] for w in _level_weights(self, 1)]

    def refine(self) -> "GridSpec":
        """Halve every step (counts k -> 2k - 1); bounds unchanged."""
        return GridSpec(self.bounds, tuple(2 * k - 1 for k in self.counts))

    @property
    def npoints(self) -> int:
        return int(np.prod(self.counts))


#: Most points one field evaluation gets from ``pairings`` and
#: ``dump_field_csv``: a block's transformed points, values and
#: temporaries stay in cache instead of spanning a whole axis-0 slice.
#: Chosen by timing 8k-64k point blocks on the 65^4 pairing.
BLOCK_POINTS = 16384


def _slice_blocks(grid: GridSpec):
    """One ``blocks`` iterator per axis-0 slice of the grid, in order.

    ``blocks`` yields the slice's points, shape (rows, n2, n3, 4), in
    blocks of whole axis-1 rows: as many rows as fit in BLOCK_POINTS, and
    one row when a row alone is larger.  Every block is a view of one
    coordinate-major (4, rows, n2, n3) buffer that the next block
    overwrites, so each ``pts[..., k]`` is a contiguous column.
    """
    axes = grid.axes()
    n1, n2, n3 = grid.counts[1:]
    rows = min(n1, max(1, BLOCK_POINTS // (n2 * n3)))
    buf = np.empty((4, rows, n2, n3))
    buf[2] = axes[2][:, None]
    buf[3] = axes[3]

    def blocks(x0):
        buf[0] = x0
        for i1 in range(0, n1, rows):
            cols = buf[:, : min(rows, n1 - i1)]
            cols[1] = axes[1][i1 : i1 + rows, None, None]
            yield np.moveaxis(cols, 0, -1)

    for x0 in axes[0]:
        yield blocks(x0)


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


def pairings(pairs, grid: GridSpec, levels: int = 1) -> np.ndarray:
    """Pairings of several field pairs on nested levels of one grid, in one pass.

    Returns a complex (len(pairs), levels) array: entry ``[p, j]`` is
    ``pairing(*pairs[p], coarse)`` on the grid of every
    ``2**(levels-1-j)``-th point of ``grid`` (up to the rounding of its
    coordinates); the last column is on ``grid`` itself.  Raises
    ValueError when a count minus 1 does not divide by ``2**(levels-1)``.

    Each distinct field (by identity) is evaluated once per block of
    ``_slice_blocks``, so shared fields and coarser levels cost no further
    evaluation.  Each axis-0 slice is summed over axes 2 and 3 by a real
    matrix product with the (n2 * n3, levels) weights, then over axis 1,
    a complex integrand as its real and imaginary parts (no complex BLAS
    product); the slice sums are added in order.
    """
    pairs = list(pairs)
    for phi, f in pairs:
        if phi.n != f.n:
            raise ValueError(f"component counts differ: {phi.n} != {f.n}")
    if not isinstance(grid, GridSpec):
        raise ValueError("pairing requires a GridSpec")
    w0, w1, w2, w3 = _level_weights(grid, levels)
    w23 = (w2[:, None, :] * w3[None, :, :]).reshape(-1, levels)
    fields = list({id(f): f for pair in pairs for f in pair}.values())
    slot = {id(f): i for i, f in enumerate(fields)}
    index = [(slot[id(phi)], slot[id(f)]) for phi, f in pairs]
    n1 = grid.counts[1]
    contract = lambda part: np.einsum("aj,aj->j", w1, part.reshape(n1, -1) @ w23)

    def slice_sums(blocks):
        # Real parts of every pair's integrand on the slice, imaginary parts
        # of the pairs that meet a complex value.  Freed on return, before
        # the next slice's: kept across it they doubled the peak memory, and
        # one buffer per pass left malloc mapping and unmapping the blocks'
        # temporaries (ten times the page faults).
        real = np.empty((len(pairs), n1) + grid.counts[2:])
        imag = {}
        i1 = 0
        for pts in blocks:
            vals = [f.evaluate(pts) for f in fields]
            rows = slice(i1, i1 + len(pts))
            for p, (a, b) in enumerate(index):
                if np.iscomplexobj(vals[a]) or np.iscomplexobj(vals[b]):
                    integrand = np.einsum("...i,...i->...", vals[a], vals[b])
                    real[p, rows] = integrand.real
                    imag.setdefault(p, np.zeros_like(real[p]))[rows] = integrand.imag
                else:
                    np.einsum("...i,...i->...", vals[a], vals[b], out=real[p, rows])
            i1 += len(pts)
        sums = np.zeros((len(pairs), 2, levels))
        for p, part in enumerate(real):
            sums[p, 0] = contract(part)
        for p, part in imag.items():
            sums[p, 1] = contract(part)
        return sums

    total = np.zeros((len(pairs), 2, levels))
    for w, blocks in zip(w0, _slice_blocks(grid)):
        total += w * slice_sums(blocks)
    values = np.empty((len(pairs), levels), dtype=complex)
    values.real, values.imag = total[:, 0], total[:, 1]
    return values


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
