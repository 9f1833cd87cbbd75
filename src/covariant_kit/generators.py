"""Parametrised group families and their infinitesimal data.

A :class:`ParamFamily` packages an s-parameter family of affine point maps
``H(b)`` on R^4 together with representation matrices ``I(b)`` acting on
field components, with the identity at the base parameters ``b0 = 0``.
Both take parameter rows and return stacks, so a relation check builds
the maps of every stencil point of every step in one call each.
A family declares only what it cannot derive, its Lie-algebra data
included, and the relation checks in :mod:`covariant_kit.heisenberg`
read that data through:

* ``rep_generators``   dI/db per parameter, an (s, n, n) stack;
* ``flow_fields``      the declared flows h_a(r) = A_a r + c_a on sample points;
* ``volume_rates``     tr A_a, the derivative of det[dH/dr] at b0, one per parameter.

A family whose points never move (the frame-only and internal families,
the fibre-bundle case) has ``point_map=None`` and no ``flow``: its flows
and volume rates are exact zeros, and its relation has no transport term.

Central differences (order 2 or 4) serve the global side of a relation
check, :func:`det_trace_residual` and a ``rep_map`` without closed form.
Every numerical derivative in the package goes through one stencil,
:func:`_stencil`, which gives the difference points and the rule that
combines the values at them.  :func:`_central_diff` applies it to a
function: along a group parameter at the scheme's step, and along a point
coordinate at the fixed inner step 1e-6 for the derivative of a
:class:`~covariant_kit.fields.FrameChange`; :func:`_param_diffs` is its one
loop over group parameters.  :func:`_stencil_rows` stacks every
parameter's stencil points, for a family's one call at all of them.
Steps and tolerances are artifact choices, not anything canonical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import ALGEBRAIC_TOL, PLANES, _checked_affine, lorentz_exp, lorentz_generators
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
        object.__setattr__(self, "order", int(self.order))


@dataclass(frozen=True)
class ParamFamily:
    """s-parameter family b -> (point map H(b), component matrix I(b)), evaluated on parameter rows.

    ``point_map(B)`` takes rows ``B`` (k, s) and returns H at each row as
    its linear parts (k, 4, 4) and offsets (k, 4); the volume factor
    det[dH(b)/dr] is the determinant of a linear part.  H must be the
    identity at ``b0``, and ``None`` means the points stay put for every b.
    ``rep_map(B)`` returns the (k, n, n) matrices and must be the identity
    at ``b0``.  The parameter count ``s`` is the number of ``labels``, ``b0``
    is ``s`` read-only zeros, and the component count ``n`` is read off
    ``rep_map`` at ``b0``.  Labels ``T_*`` name the pure translations.
    The closed forms at b0 are stored read-only: ``rep_derivative``, an optional
    finite (s, n, n) stack that ``rep_generators`` returns, and ``flow``, the
    finite (s, 4, 5) stack ``[A_a | c_a]`` of dH/db, set exactly when ``point_map`` is.
    """

    point_map: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None
    rep_map: Callable[[np.ndarray], np.ndarray]
    labels: tuple[str, ...]
    rep_derivative: np.ndarray | None = None
    flow: np.ndarray | None = None
    b0: np.ndarray = field(init=False)
    n: int = field(init=False)

    @property
    def s(self) -> int:
        return len(self.labels)

    def __post_init__(self):
        b0 = np.zeros(self.s)
        b0.setflags(write=False)
        object.__setattr__(self, "b0", b0)
        ident = np.asarray(self.rep_map(b0[None]), dtype=complex)
        n = ident.shape[-1] if ident.ndim == 3 else -1
        if ident.shape != (1, n, n) or np.abs(ident[0] - np.eye(n)).max() > ALGEBRAIC_TOL:
            raise ValueError("rep_map(b0) is not the identity matrix")
        object.__setattr__(self, "n", n)
        if (self.flow is None) != (self.point_map is None):
            raise ValueError("a family declares a flow exactly when it has a point_map")
        for name, shape, dtype in (("rep_derivative", (self.s, n, n), complex), ("flow", (self.s, 4, 5), float)):
            if getattr(self, name) is None:
                continue
            data = np.array(getattr(self, name))
            if data.shape != shape or not np.can_cast(data.dtype, dtype) or not np.isfinite(data).all():
                raise ValueError(f"{name} must be a finite {shape} {np.dtype(dtype)} stack, got {data.dtype} {data.shape}")
            data = data.astype(dtype)
            data.setflags(write=False)
            object.__setattr__(self, name, data)
        if self.point_map is None:
            return
        linear, offset, _ = _checked_affine(*self.point_map(b0[None]), (1,))
        if max(np.abs(linear[0] - np.eye(4)).max(), np.abs(offset[0]).max()) > ALGEBRAIC_TOL:
            raise ValueError("point_map(b0) is not the identity map")


def _stencil(x0: np.ndarray, w: int, h: float, order: int):
    """The central-difference stencil along coordinate w of x0, a parameter
    vector (s,) or a point batch (..., 4): its points, and the rule that
    combines the values taken at them, in that order, into the derivative."""
    e = np.zeros(x0.shape[-1])
    e[w] = 1.0
    if order == 2:
        return (x0 + h * e, x0 - h * e), lambda p1, m1: (p1 - m1) / (2 * h)
    points = x0 + 2 * h * e, x0 + h * e, x0 - h * e, x0 - 2 * h * e
    return points, lambda p2, p1, m1, m2: (-p2 + 8 * p1 - 8 * m1 + m2) / (12 * h)


def _central_diff(f: Callable[[np.ndarray], object], x0: np.ndarray, w: int, h: float, order: int):
    """Central difference of f along coordinate w of x0 (see :func:`_stencil`)."""
    points, rule = _stencil(x0, w, h, order)
    return rule(*[f(x) for x in points])


def _param_diffs(f: Callable[[np.ndarray], object], b0: np.ndarray, scheme: FDScheme):
    """Central differences of f along each parameter of b0 at the scheme's step, lazily."""
    return (_central_diff(f, b0, w, scheme.step, scheme.order) for w in range(b0.shape[0]))


def _stencil_rows(b0: np.ndarray, scheme: FDScheme) -> tuple[np.ndarray, list]:
    """Every parameter's stencil at the scheme's step: its points stacked parameter by parameter,
    (s * order, s), and the rule of each parameter."""
    stencils = [_stencil(b0, w, scheme.step, scheme.order) for w in range(b0.shape[0])]
    return np.array([b for points, _ in stencils for b in points]), [rule for _, rule in stencils]


def rep_generators(family: ParamFamily, scheme: FDScheme) -> np.ndarray:
    """Derivative of the component matrix at b0, per parameter: (s, n, n)."""
    if family.rep_derivative is not None:
        return family.rep_derivative.copy()
    rows, rules = _stencil_rows(family.b0, scheme)
    mats = np.asarray(family.rep_map(rows), dtype=complex).reshape(family.s, scheme.order, family.n, family.n)
    return np.stack([rule(*m) for rule, m in zip(rules, mats)])


def _affine_flow(flow: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """One declared flow ``[A | c]`` (4, 5) on a point batch (..., 4): A r + c."""
    return pts @ flow[:, :4].T + flow[:, 4]


def flow_fields(family: ParamFamily, points: np.ndarray) -> np.ndarray:
    """The declared velocity fields h_a at b0 sampled on ``points``: (s, ..., 4)."""
    pts = np.asarray(points, dtype=float)
    if not np.all(np.isfinite(pts)):
        raise ValueError("sample points must be finite")
    if family.flow is None:
        return np.zeros((family.s, *pts.shape))
    return np.stack([_affine_flow(f, pts) for f in family.flow])


def volume_rates(family: ParamFamily) -> np.ndarray:
    """The volume rates tr A_a, d/db of the point-map Jacobian at b0, one per parameter: (s,)."""
    return np.zeros(family.s) if family.flow is None else np.trace(family.flow[:, :, :4], axis1=1, axis2=2)


@dataclass(frozen=True)
class GeneratorCoefficients:
    """Bundle of extracted infinitesimal data for one family."""

    labels: tuple[str, ...]
    rep_derivs: np.ndarray  # (s, n, n)
    flow: np.ndarray  # (s, npts, 4)
    volume: np.ndarray  # (s,): the same at every point


def extract_all(family: ParamFamily, scheme: FDScheme, points: np.ndarray) -> GeneratorCoefficients:
    """Extract every generator coefficient on the given sample points."""
    return GeneratorCoefficients(
        labels=family.labels,
        rep_derivs=rep_generators(family, scheme),
        flow=flow_fields(family, points),
        volume=volume_rates(family),
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

    matrix = lambda b: np.asarray(matrix_map(b), dtype=float)
    d_det = _param_diffs(lambda b: np.linalg.det(matrix(b)), b0, scheme)
    d_tr = _param_diffs(lambda b: np.trace(matrix(b)), b0, scheme)
    return np.array([abs(d - t) for d, t in zip(d_det, d_tr)])


_POINCARE_LABELS = ("S_01", "S_02", "S_03", "S_12", "S_13", "S_23", "T_0", "T_1", "T_2", "T_3")
#: ``[A_a | c_a]`` of the Poincare point maps: the plane generators, then the unit translations.
_POINCARE_FLOW = np.zeros((10, 4, 5))
_POINCARE_FLOW[:6, :, :4] = lorentz_generators()
_POINCARE_FLOW[6:, :, 4] = np.eye(4)


def analytic_rep_derivatives(rep: FieldRep) -> np.ndarray:
    """Closed-form derivative stack for the shipped representations.

    ``rep.generators`` in the parameter layout of the corresponding family
    constructor: ten rows (six planes, then four translations, which never
    move the matrix) for scalar/vector/spinor, one row for phase.  Every
    shipped family carries this table as its ``rep_derivative``.
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
    return ParamFamily(
        point_map=lambda rows: (lorentz_exp(rows[:, :6]), rows[:, 6:]),
        rep_map=lambda rows: rep_matrix(rep, rows[:, :6]),
        labels=_POINCARE_LABELS,
        rep_derivative=analytic_rep_derivatives(rep),
        flow=_POINCARE_FLOW,
    )


def poincare_frame_family(rep: FieldRep) -> ParamFamily:
    """Frame-only twin of :func:`poincare_family`: the matrices change, the points never move."""
    if rep.kind not in ("scalar", "vector", "spinor"):
        raise ValueError("poincare_frame_family needs a scalar, vector, or spinor representation")
    return ParamFamily(
        point_map=None,
        rep_map=lambda rows: rep_matrix(rep, rows[:, :6]),
        labels=_POINCARE_LABELS,
        rep_derivative=analytic_rep_derivatives(rep),
    )


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
        rep_map=lambda rows: rep_matrix(rep, rows),
        labels=labels,
        rep_derivative=None if rep.generators is None else analytic_rep_derivatives(rep),
    )
