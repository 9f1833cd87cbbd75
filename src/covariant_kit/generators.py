"""Parametrised group families and generator extraction.

A :class:`ParamFamily` packages an s-parameter family of affine point maps
``H(b)`` on R^4 together with representation matrices ``I(b)`` acting on
field components, with the identity at the base parameters ``b0 = 0``.
A family declares only what it cannot derive: ``s`` is the number of its
parameter labels, ``n`` the size of ``I(b0)``, and the ``T_*`` labels mark
the pure translations.  Differentiating at ``b0`` yields the
infinitesimal data consumed by the relation checks in
:mod:`covariant_kit.heisenberg`:

* ``rep_generators``   dI/db per parameter, an (s, n, n) stack;
* ``flow_fields``      dH/db per parameter, sampled velocity fields;
* ``volume_rates``     d/db of det L(b) for H(b) r = L(b) r + a(b), the volume-change rate.

A family whose points never move (the frame-only and internal families,
the fibre-bundle case) says so with ``point_map=None``: its flows and
volume rates are exact zeros, and its relation has no transport term.

Derivatives are central differences (order 2 or 4) unless a family
carries analytic ones.  Every numerical derivative in the package goes
through one stencil, :func:`_central_diff`: along a group parameter at the
scheme's step, and along a point coordinate at the fixed inner step 1e-6
for the derivative of a :class:`~covariant_kit.fields.FrameChange`.
:func:`_param_diffs` is the one loop over group parameters.
Steps and tolerances are artifact choices, not anything canonical.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .geometry import ALGEBRAIC_TOL, PLANES, AffineMap, lorentz_exp
from .representations import FieldRep, rep_matrix

__all__ = [
    "FDScheme",
    "ParamFamily",
    "GeneratorCoefficients",
    "rep_generators",
    "flow_fields",
    "volume_rates",
    "extract_all",
    "det_trace_residual",
    "analytic_rep_derivatives",
    "poincare_family",
    "poincare_frame_family",
    "internal_family",
]

_MIN_STEP = 1e-12
#: Lorentz and representation matrices a Poincare family keeps.  An order-4
#: stencil over all ten parameters visits 25 distinct plane-parameter points.
_MEMO_SIZE = 64


@dataclass(frozen=True)
class FDScheme:
    """Central-difference scheme: one float step (at least 1e-12) for every parameter, order 2 or 4."""

    step: float = 1e-4
    order: int = 2

    def __post_init__(self):
        step = float(self.step)
        if not np.isfinite(step) or step <= 0:
            raise ValueError("finite-difference steps must be positive and finite")
        if self.order not in (2, 4):
            raise ValueError(f"unsupported difference order {self.order}; use 2 or 4")
        if step < _MIN_STEP:
            raise ValueError(f"finite-difference step underflow (< {_MIN_STEP:g})")
        object.__setattr__(self, "step", step)


@dataclass(frozen=True)
class ParamFamily:
    """s-parameter family b -> (point map H(b), component matrix I(b)).

    ``point_map(b)`` returns H(b) as an :class:`~covariant_kit.geometry.AffineMap`,
    whose ``jacobian`` is the volume factor det[dH(b)/dr]; it must be the
    identity at ``b0``, and ``None`` means the points stay put for every b.
    ``rep_map(b)`` returns the (n, n) matrix and must be the identity at
    ``b0``.  The parameter count ``s`` is the number of ``labels``, ``b0``
    is ``s`` read-only zeros, and the component count ``n`` is read off
    ``rep_map(b0)``.  Labels ``T_*`` name the pure translations.
    ``rep_derivative`` is an optional closed-form (s, n, n) derivative stack
    at b0, which ``rep_generators`` returns; the frame-only and internal
    families set it.
    """

    point_map: Callable[[np.ndarray], AffineMap] | None
    rep_map: Callable[[np.ndarray], np.ndarray]
    labels: tuple[str, ...]
    rep_derivative: np.ndarray | None = None
    b0: np.ndarray = field(init=False)
    n: int = field(init=False)

    @property
    def s(self) -> int:
        return len(self.labels)

    def __post_init__(self):
        b0 = np.zeros(self.s)
        b0.setflags(write=False)
        object.__setattr__(self, "b0", b0)
        ident = np.asarray(self.rep_map(b0), dtype=complex)
        n = ident.shape[0] if ident.ndim == 2 else -1
        if ident.shape != (n, n) or np.abs(ident - np.eye(n)).max() > ALGEBRAIC_TOL:
            raise ValueError("rep_map(b0) is not the identity matrix")
        object.__setattr__(self, "n", n)
        if self.point_map is None:
            return
        h = self.point_map(b0)
        if max(np.abs(h.linear - np.eye(4)).max(), np.abs(h.offset).max()) > ALGEBRAIC_TOL:
            raise ValueError("point_map(b0) is not the identity map")


def _central_diff(f: Callable[[np.ndarray], object], x0: np.ndarray, w: int, h: float, order: int):
    """Central difference of f along coordinate w of x0, a parameter vector (s,)
    or a point batch (..., 4); a tuple f(x) has each entry differenced."""
    e = np.zeros(x0.shape[-1])
    e[w] = 1.0
    if order == 2:
        vals = f(x0 + h * e), f(x0 - h * e)
        diff = lambda p1, m1: (p1 - m1) / (2 * h)
    else:
        vals = f(x0 + 2 * h * e), f(x0 + h * e), f(x0 - h * e), f(x0 - 2 * h * e)
        diff = lambda p2, p1, m1, m2: (-p2 + 8 * p1 - 8 * m1 + m2) / (12 * h)
    if isinstance(vals[0], tuple):
        return tuple(diff(*parts) for parts in zip(*vals))
    return diff(*vals)


def _param_diffs(f: Callable[[np.ndarray], object], b0: np.ndarray, scheme: FDScheme):
    """Central differences of f along each parameter of b0 at the scheme's step, lazily."""
    return (_central_diff(f, b0, w, scheme.step, scheme.order) for w in range(b0.shape[0]))


def rep_generators(family: ParamFamily, scheme: FDScheme) -> np.ndarray:
    """Derivative of the component matrix at b0, per parameter: (s, n, n)."""
    if family.rep_derivative is not None:
        return np.asarray(family.rep_derivative, dtype=complex).copy()
    f = lambda b: np.asarray(family.rep_map(b), dtype=complex)
    return np.stack(list(_param_diffs(f, family.b0, scheme)))


def flow_fields(family: ParamFamily, scheme: FDScheme, points: np.ndarray) -> np.ndarray:
    """Velocity fields dH/db at b0 sampled on ``points``: (s, ..., 4)."""
    pts = np.asarray(points, dtype=float)
    if not np.all(np.isfinite(pts)):
        raise ValueError("sample points must be finite")
    if family.point_map is None:
        return np.zeros((family.s, *pts.shape))
    f = lambda b: family.point_map(b)(pts)
    return np.stack(list(_param_diffs(f, family.b0, scheme)))


def volume_rates(family: ParamFamily, scheme: FDScheme, points: np.ndarray) -> np.ndarray:
    """d/db of the point-map Jacobian determinant at b0, the same at every point: (s, ...)."""
    pts = np.asarray(points, dtype=float)
    shape = (family.s, *pts.shape[:-1])
    if family.point_map is None:
        return np.zeros(shape)
    rates = np.array(list(_param_diffs(lambda b: family.point_map(b).jacobian, family.b0, scheme)))
    return np.broadcast_to(rates.reshape(-1, *[1] * (pts.ndim - 1)), shape).copy()


@dataclass(frozen=True)
class GeneratorCoefficients:
    """Bundle of extracted infinitesimal data for one family."""

    labels: tuple[str, ...]
    rep_derivs: np.ndarray  # (s, n, n)
    flow: np.ndarray  # (s, npts, 4)
    volume: np.ndarray  # (s, npts)


def extract_all(family: ParamFamily, scheme: FDScheme, points: np.ndarray) -> GeneratorCoefficients:
    """Extract every generator coefficient on the given sample points."""
    return GeneratorCoefficients(
        labels=family.labels,
        rep_derivs=rep_generators(family, scheme),
        flow=flow_fields(family, scheme, points),
        volume=volume_rates(family, scheme, points),
    )


def det_trace_residual(
    matrix_map: Callable[[np.ndarray], np.ndarray], b0: np.ndarray, scheme: FDScheme
) -> np.ndarray:
    """|d det/db - d trace/db| at b0 for a matrix family with H(b0) = 1.

    The two derivatives agree for any such family; the residual per
    parameter measures how well finite differences see that.
    """
    b0 = np.asarray(b0, dtype=float)
    base = np.asarray(matrix_map(b0), dtype=float)
    if base.shape[0] != base.shape[1] or np.abs(base - np.eye(base.shape[0])).max() > ALGEBRAIC_TOL:
        raise ValueError("matrix family is not the identity at the base parameters")

    def det_trace(b):
        m = np.asarray(matrix_map(b), dtype=float)
        return np.linalg.det(m), np.trace(m)

    return np.array([abs(d_det - d_tr) for d_det, d_tr in _param_diffs(det_trace, b0, scheme)])


_POINCARE_LABELS = ("S_01", "S_02", "S_03", "S_12", "S_13", "S_23", "T_0", "T_1", "T_2", "T_3")


def analytic_rep_derivatives(rep: FieldRep) -> np.ndarray:
    """Closed-form derivative stack for the shipped representations.

    ``rep.generators`` in the parameter layout of the corresponding family
    constructor: ten rows (six planes, then four translations, which never
    move the matrix) for scalar/vector/spinor, one row for phase.  The
    frame-only and internal families carry this table as their
    ``rep_derivative``.
    """
    if rep.generators is None:
        raise ValueError(f"no closed-form derivatives for {rep.kind} representations")
    translations = 4 if rep.nparams == len(PLANES) else 0
    return np.concatenate([rep.generators, np.zeros((translations, rep.n, rep.n))])


def poincare_family(rep: FieldRep) -> ParamFamily:
    """Ten-parameter family: 6 rotation/boost parameters drive both the
    point map and the matrix, 4 translation parameters drive the point map
    only (the matrix is independent of translations)."""
    if rep.kind not in ("scalar", "vector", "spinor"):
        raise ValueError("poincare_family needs a scalar, vector, or spinor representation")
    # The point map and the rep matrix at one b share one exponential, and
    # so do the difference stencils that revisit the same b (rep_generators,
    # flow_fields, volume_rates and the global map of a relation check).
    # Keys are the plane parameters' bytes; lru_cache is safe to call
    # concurrently.
    memo = functools.lru_cache(maxsize=_MEMO_SIZE)
    lorentz = memo(lambda key: lorentz_exp(np.frombuffer(key)))
    matrix = memo(lambda key: rep_matrix(rep, np.frombuffer(key)))
    key_of = lambda b: np.asarray(b[:6], dtype=float).tobytes()

    def rep_map(b):
        if rep.kind == "vector":
            return lorentz(key_of(b)).astype(complex)
        return matrix(key_of(b)).copy()

    return ParamFamily(
        point_map=lambda b: AffineMap(lorentz(key_of(b)), b[6:]),
        rep_map=rep_map,
        labels=_POINCARE_LABELS,
    )


def poincare_frame_family(rep: FieldRep) -> ParamFamily:
    """Frame-only twin of :func:`poincare_family`: the matrices change,
    the points never move, and the derivative is the closed form."""
    if rep.kind not in ("scalar", "vector", "spinor"):
        raise ValueError("poincare_frame_family needs a scalar, vector, or spinor representation")
    # rep_map stays the Poincare family's, with its own memoised Lorentz
    # and representation matrices; the points no longer move.
    return replace(poincare_family(rep), point_map=None, rep_derivative=analytic_rep_derivatives(rep))


def internal_family(rep: FieldRep) -> ParamFamily:
    """Family for internal transformations: spacetime points stay put (``point_map=None``).

    Phase representations give the one-parameter charge family ``Q``;
    custom representations supply their own parameter count and no closed form.
    """
    if rep.kind not in ("phase", "custom"):
        raise ValueError("internal_family needs a phase or custom representation")
    labels = ("Q",) if rep.kind == "phase" else tuple(f"Q_{i + 1}" for i in range(rep.nparams))
    return ParamFamily(
        point_map=None,
        rep_map=lambda b: rep_matrix(rep, b),
        labels=labels,
        rep_derivative=None if rep.generators is None else analytic_rep_derivatives(rep),
    )
