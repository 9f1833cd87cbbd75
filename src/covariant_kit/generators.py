"""Parametrised group families and generator extraction.

A :class:`ParamFamily` packages an s-parameter family of point maps
``H(b)`` on R^4 together with representation matrices ``I(b)`` acting on
field components, with the identity at the base parameters ``b0``.
Differentiating at ``b0`` yields the infinitesimal data consumed by the
relation checks in :mod:`covariant_kit.heisenberg`:

* ``rep_generators``   dI/db per parameter, an (s, n, n) stack;
* ``flow_fields``      dH/db per parameter, sampled velocity fields;
* ``volume_rates``     d/db of det[dH(b)/dr], the volume-change rate.

Derivatives are central differences (order 2 or 4) unless a family
carries analytic ones.  Every numerical derivative in the package goes
through one stencil, :func:`_central_diff`: along a group parameter at the
scheme's steps, and along a point coordinate at fixed inner steps (1e-5
for the point-map Jacobian in ``volume_rates``, 1e-6 for a
:class:`~covariant_kit.fields.FrameChange` without an analytic gradient).
Steps and tolerances are artifact choices, not anything canonical.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import PLANES, lorentz_exp, lorentz_generators
from .representations import FieldRep, rep_matrix, sigma_tensor

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
#: Lorentz and spinor matrices a Poincare family keeps.  An order-4 stencil
#: over all ten parameters visits 25 distinct plane-parameter points.
_MEMO_SIZE = 64
_IDENTITY_TOL = 1e-12
#: Sample used to validate the identity-at-b0 family invariant.
_PROBE_POINTS = np.array(
    [
        [0.0, 0.0, 0.0, 0.0],
        [0.3, -0.7, 0.5, 0.2],
        [1.0, 2.0, -1.0, 0.5],
    ]
)


@dataclass(frozen=True)
class FDScheme:
    """Central-difference scheme: positive step(s) and order 2 or 4."""

    step: float | Sequence[float] = 1e-4
    order: int = 2

    def __post_init__(self):
        steps = np.atleast_1d(np.asarray(self.step, dtype=float))
        if not np.all(np.isfinite(steps)) or np.any(steps <= 0):
            raise ValueError("finite-difference steps must be positive and finite")
        if self.order not in (2, 4):
            raise ValueError(f"unsupported difference order {self.order}; use 2 or 4")

    def steps(self, s: int) -> np.ndarray:
        steps = np.broadcast_to(np.atleast_1d(np.asarray(self.step, dtype=float)), (s,)).copy()
        if np.any(steps < _MIN_STEP):
            raise ValueError(f"finite-difference step underflow (< {_MIN_STEP:g})")
        return steps

    def halved(self) -> "FDScheme":
        return FDScheme(np.atleast_1d(np.asarray(self.step, dtype=float)) / 2.0, self.order)


@dataclass(frozen=True)
class ParamFamily:
    """s-parameter family b -> (point map H(b), component matrix I(b)).

    ``point_map(b, points)`` maps points (..., 4) -> (..., 4) and must be
    the identity at ``b0``; ``rep_map(b)`` returns the (n, n) matrix and
    must be the identity at ``b0``.  Optional extras:

    * ``linear_part(b)``: 4x4 matrix when H(b) is affine, enabling the
      analytic inner Jacobian in ``volume_rates``;
    * ``rep_derivative``: analytic (s, n, n) derivative stack at b0;
    * ``point_derivative(points)``: analytic (s, ..., 4) velocity fields;
    * ``translation_params``: indices of parameters that only translate
      (their rep derivatives vanish for translation-invariant families);
    * ``identity_point_map``: True when H(b) is the identity for every b
      (internal / frame-only families).
    """

    s: int
    b0: np.ndarray
    n: int
    point_map: Callable[[np.ndarray, np.ndarray], np.ndarray]
    rep_map: Callable[[np.ndarray], np.ndarray]
    labels: tuple[str, ...]
    linear_part: Callable[[np.ndarray], np.ndarray] | None = None
    rep_derivative: np.ndarray | None = None
    point_derivative: Callable[[np.ndarray], np.ndarray] | None = None
    identity_point_map: bool = False
    translation_params: tuple[int, ...] = ()

    def __post_init__(self):
        b0 = np.asarray(self.b0, dtype=float).copy()
        if b0.shape != (self.s,):
            raise ValueError(f"b0 must have shape ({self.s},), got {b0.shape}")
        b0.setflags(write=False)
        object.__setattr__(self, "b0", b0)
        if len(self.labels) != self.s:
            raise ValueError("one label per parameter is required")
        ident = np.asarray(self.rep_map(b0), dtype=complex)
        if ident.shape != (self.n, self.n) or np.abs(ident - np.eye(self.n)).max() > _IDENTITY_TOL:
            raise ValueError("rep_map(b0) is not the identity matrix")
        moved = np.asarray(self.point_map(b0, _PROBE_POINTS), dtype=float)
        if np.abs(moved - _PROBE_POINTS).max() > _IDENTITY_TOL:
            raise ValueError("point_map(b0, .) is not the identity map")


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


def rep_generators(family: ParamFamily, scheme: FDScheme) -> np.ndarray:
    """Derivative of the component matrix at b0, per parameter: (s, n, n)."""
    if family.rep_derivative is not None:
        return np.asarray(family.rep_derivative, dtype=complex).copy()
    steps = scheme.steps(family.s)
    f = lambda b: np.asarray(family.rep_map(b), dtype=complex)
    return np.stack([_central_diff(f, family.b0, w, steps[w], scheme.order) for w in range(family.s)])


def flow_fields(family: ParamFamily, scheme: FDScheme, points: np.ndarray) -> np.ndarray:
    """Velocity fields dH/db at b0 sampled on ``points``: (s, ..., 4)."""
    pts = np.asarray(points, dtype=float)
    if not np.all(np.isfinite(pts)):
        raise ValueError("sample points must be finite")
    if family.point_derivative is not None:
        return np.asarray(family.point_derivative(pts), dtype=float).copy()
    steps = scheme.steps(family.s)
    f = lambda b: np.asarray(family.point_map(b, pts), dtype=float)
    return np.stack([_central_diff(f, family.b0, w, steps[w], scheme.order) for w in range(family.s)])


def _inner_jacobian_det(family: ParamFamily, b: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """det[dH(b)/dr] at each sample point."""
    if family.linear_part is not None:
        det = np.linalg.det(np.asarray(family.linear_part(b), dtype=float))
        return np.full(pts.shape[:-1], det)
    f = lambda r: np.asarray(family.point_map(b, r), dtype=float)
    return np.linalg.det(np.stack([_central_diff(f, pts, l, 1e-5, 2) for l in range(4)], axis=-1))


def volume_rates(family: ParamFamily, scheme: FDScheme, points: np.ndarray) -> np.ndarray:
    """d/db of the point-map Jacobian determinant at b0: (s, ...)."""
    pts = np.asarray(points, dtype=float)
    steps = scheme.steps(family.s)
    f = lambda b: _inner_jacobian_det(family, b, pts)
    return np.stack([_central_diff(f, family.b0, w, steps[w], scheme.order) for w in range(family.s)])


@dataclass(frozen=True)
class GeneratorCoefficients:
    """Bundle of extracted infinitesimal data for one family."""

    labels: tuple[str, ...]
    rep_derivs: np.ndarray  # (s, n, n)
    flow: np.ndarray  # (s, npts, 4)
    volume: np.ndarray  # (s, npts)
    translation_params: tuple[int, ...] = ()

    @property
    def translation_coeffs(self) -> np.ndarray:
        """Rep derivatives along pure-translation parameters (zero for
        translation-invariant families)."""
        return self.rep_derivs[list(self.translation_params)]


def extract_all(family: ParamFamily, scheme: FDScheme, points: np.ndarray) -> GeneratorCoefficients:
    """Extract every generator coefficient on the given sample points."""
    return GeneratorCoefficients(
        labels=family.labels,
        rep_derivs=rep_generators(family, scheme),
        flow=flow_fields(family, scheme, points),
        volume=volume_rates(family, scheme, points),
        translation_params=family.translation_params,
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
    if base.shape[0] != base.shape[1] or np.abs(base - np.eye(base.shape[0])).max() > _IDENTITY_TOL:
        raise ValueError("matrix family is not the identity at the base parameters")
    s = b0.shape[0]
    steps = scheme.steps(s)

    def det_trace(b):
        m = np.asarray(matrix_map(b), dtype=float)
        return np.linalg.det(m), np.trace(m)

    out = np.empty(s)
    for w in range(s):
        d_det, d_tr = _central_diff(det_trace, b0, w, steps[w], scheme.order)
        out[w] = abs(d_det - d_tr)
    return out


_POINCARE_LABELS = ("S_01", "S_02", "S_03", "S_12", "S_13", "S_23", "T_0", "T_1", "T_2", "T_3")


def analytic_rep_derivatives(rep: FieldRep) -> np.ndarray:
    """Closed-form derivative stack for the shipped representations.

    Matches the parameter layout of the corresponding family constructor:
    ten rows (six planes, then four translations) for scalar/vector/spinor,
    one row for phase.  Attach to a family (``dataclasses.replace``) to
    check extracted data against known values instead of re-differencing.
    """
    if rep.kind == "scalar":
        return np.zeros((10, 1, 1), dtype=complex)
    if rep.kind == "vector":
        out = np.zeros((10, 4, 4), dtype=complex)
        out[:6] = lorentz_generators()
        return out
    if rep.kind == "spinor":
        sig = sigma_tensor(rep.gamma)
        out = np.zeros((10, 4, 4), dtype=complex)
        for w, (a, b) in enumerate(PLANES):
            out[w] = -0.5j * sig[a, b]
        return out
    if rep.kind == "phase":
        return np.array([[[-rep.charge / (1j * rep.unit_charge)]]], dtype=complex)
    raise ValueError("no closed-form derivatives for custom representations")


def poincare_family(rep: FieldRep) -> ParamFamily:
    """Ten-parameter family: 6 rotation/boost parameters drive both the
    point map and the matrix, 4 translation parameters drive the point map
    only (the matrix is independent of translations)."""
    if rep.kind not in ("scalar", "vector", "spinor"):
        raise ValueError("poincare_family needs a scalar, vector, or spinor representation")
    # The linear part, the point map and the rep matrix at one b share one
    # exponential, and so do the difference stencils that revisit the same
    # b (rep_generators, flow_fields, volume_rates and the global map of a
    # relation check).  Keys are the plane parameters' bytes; lru_cache is
    # safe to call concurrently.
    memo = functools.lru_cache(maxsize=_MEMO_SIZE)
    lorentz = memo(lambda key: lorentz_exp(np.frombuffer(key)).matrix)
    spin = memo(lambda key: rep_matrix(rep, np.frombuffer(key)))
    key_of = lambda b: np.asarray(b[:6], dtype=float).tobytes()

    def linear_part(b):
        return lorentz(key_of(b))

    def point_map(b, pts):
        return np.asarray(pts, dtype=float) @ linear_part(b).T + b[6:]

    def rep_map(b):
        if rep.kind == "vector":
            return linear_part(b).astype(complex)
        if rep.kind == "spinor":
            return spin(key_of(b)).copy()
        return rep_matrix(rep, b[:6])

    return ParamFamily(
        s=10,
        b0=np.zeros(10),
        n=rep.n,
        point_map=point_map,
        rep_map=rep_map,
        labels=_POINCARE_LABELS,
        linear_part=linear_part,
        translation_params=(6, 7, 8, 9),
    )


def poincare_frame_family(rep: FieldRep) -> ParamFamily:
    """Frame-only twin of :func:`poincare_family`: the matrices change,
    the points never move."""
    if rep.kind not in ("scalar", "vector", "spinor"):
        raise ValueError("poincare_frame_family needs a scalar, vector, or spinor representation")
    return ParamFamily(
        s=10,
        b0=np.zeros(10),
        n=rep.n,
        point_map=lambda b, pts: np.array(pts, dtype=float),
        rep_map=lambda b: rep_matrix(rep, b[:6]),
        labels=_POINCARE_LABELS,
        linear_part=lambda b: np.eye(4),
        identity_point_map=True,
        translation_params=(6, 7, 8, 9),
    )


def internal_family(rep: FieldRep) -> ParamFamily:
    """Family for internal transformations: spacetime points stay put.

    Phase representations give the one-parameter charge family; custom
    representations supply their own parameter count.
    """
    if rep.kind == "phase":
        s = 1
        labels = ("Q",)
        rep_map = lambda b: rep_matrix(rep, b[0])
    elif rep.kind == "custom":
        s = rep.nparams
        labels = tuple(f"Q_{i + 1}" for i in range(s))
        rep_map = lambda b: rep_matrix(rep, b)
    else:
        raise ValueError("internal_family needs a phase or custom representation")
    return ParamFamily(
        s=s,
        b0=np.zeros(s),
        n=rep.n,
        point_map=lambda b, pts: np.array(pts, dtype=float),
        rep_map=rep_map,
        labels=labels,
        linear_part=lambda b: np.eye(4),
        identity_point_map=True,
    )
