"""Numerical verification of commutator-style relations.

The checks compare two routes to the same infinitesimal data:

* the *global* route differentiates the full transformed field
  ``b -> det[dH(b)/dr] I(b) phi(H(b) r)`` by central differences at the
  family's base parameters, at the check's step and each convergence step;
* the *local* route assembles ``Delta phi(r) + I' phi(r) + h(r) . grad phi(r)``
  from the family's declared flow ``h``, its rate ``Delta`` and ``I'``.  It
  depends on no step, so a check forms it once for all of them.

Only the global route takes differences, so a wrong point map, Jacobian
or generator table cannot cancel out.  Their agreement, parameter by
parameter, is the content of the relation; residuals shrink at the order
of the difference scheme.  The fibre-bundle relation is the same relation
for a family that moves no points (``point_map=None``): no transport term,
the global route differences ``I(b) phi(r)`` alone, the local side is the
closed-form ``I' phi(r)`` (a differenced ``I'`` would read 0 = 0, so a
family without one raises), and translation directions are exactly zero.

Finite-dimensional matrix models stand in for internal-symmetry operator
algebras: a number operator and its unitaries, stored as diagonals, and a
truncated lowering operator realise the charge commutation relation exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import BLOCK_POINTS, FieldFunction
from .generators import FDScheme, ParamFamily, _affine_flow, _stencil_rows, rep_generators, volume_rates
from .geometry import _checked_affine
from .schemas import TOLERANCES, number_text

__all__ = [
    "RelationReport",
    "verify_local_relation",
    "verify_bundle_relation",
    "ToyOperatorModel",
    "lowering_operator",
    "number_operator_model",
    "charge_unitary",
    "toy_commutator_check",
    "GroupoidReport",
    "observer_groupoid_check",
    "sample_points",
]


def sample_points(count: int = 200, seed: int = 0, box: float = 2.0) -> np.ndarray:
    """Deterministic uniform sample of spacetime points in [-box, box]^4; the box's width 2 box must be finite."""
    if not np.isfinite(2.0 * box):
        raise ValueError(f"sample box {box!r} is too large: 2 * box overflows")
    rng = np.random.default_rng(seed)
    return rng.uniform(-box, box, size=(count, 4))


@dataclass(frozen=True)
class RelationReport:
    """Residuals of one verified relation, per family parameter.

    ``tolerances`` broadcasts against the labels, so checks with mixed
    strictness (e.g. exact commutator vs finite-step conjugation) fit in
    one report.  ``passed`` is derived, never stored: a parameter passes
    iff its sup residual is within tolerance and the report has no
    ``failure``, the reason a check compared nothing.
    """

    labels: tuple[str, ...]
    sup_residuals: np.ndarray
    rms_residuals: np.ndarray
    tolerances: np.ndarray
    convergence_steps: tuple[float, ...] = ()
    convergence_sup: np.ndarray | None = None  # (len(steps), len(labels))
    metadata: dict = dc_field(default_factory=dict)
    failure: str | None = None

    def __post_init__(self):
        s = len(self.labels)
        sup = np.asarray(self.sup_residuals, dtype=float).reshape(s)
        rms = np.asarray(self.rms_residuals, dtype=float).reshape(s)
        tol = np.broadcast_to(np.asarray(self.tolerances, dtype=float), (s,)).copy()
        if np.any(tol <= 0):
            raise ValueError("tolerances must be positive")
        object.__setattr__(self, "sup_residuals", sup)
        object.__setattr__(self, "rms_residuals", rms)
        object.__setattr__(self, "tolerances", tol)
        if self.convergence_sup is not None:
            conv = np.asarray(self.convergence_sup, dtype=float).reshape(len(self.convergence_steps), s)
            object.__setattr__(self, "convergence_sup", conv)

    @property
    def passed(self) -> np.ndarray:
        return (self.sup_residuals <= self.tolerances) & (self.failure is None)

    @property
    def all_passed(self) -> bool:
        return bool(np.all(self.passed))

    @property
    def convergence_ratios(self) -> np.ndarray | None:
        """Sup-residual shrink factors between consecutive steps."""
        if self.convergence_sup is None or len(self.convergence_steps) < 2:
            return None
        sup = self.convergence_sup
        with np.errstate(divide="ignore", invalid="ignore"):
            return sup[:-1] / sup[1:]

    def to_dict(self) -> dict:
        """JSON-ready dict; all numbers as 17-significant-digit text."""
        out = {
            "labels": list(self.labels),
            "sup_residuals": [number_text(v) for v in self.sup_residuals],
            "rms_residuals": [number_text(v) for v in self.rms_residuals],
            "tolerances": [number_text(v) for v in self.tolerances],
            "passed": [bool(p) for p in self.passed],
            "all_passed": self.all_passed,
            "metadata": dict(self.metadata),
        }
        if self.failure is not None:
            out["failure"] = self.failure
        if self.convergence_sup is not None:
            out["convergence"] = {
                "steps": [number_text(h) for h in self.convergence_steps],
                "sup_residuals": [[number_text(v) for v in row] for row in self.convergence_sup],
            }
            ratios = self.convergence_ratios
            if ratios is not None:
                out["convergence"]["ratios"] = [[number_text(v) for v in row] for row in ratios]
        return out


def _correspondence(labels) -> dict:
    """Conserved-quantity relabeling of the generator labels (metadata only), at hbar = 1."""
    tags = {}
    for lab in labels:
        if lab.startswith("T_"):
            tags[lab] = f"i*hbar*{lab} -> P_{lab[2:]}"
        elif lab.startswith("S_"):
            tags[lab] = f"i*hbar*{lab} -> M_{lab[2:]}"
        elif lab.startswith("Q"):
            tags[lab] = f"{lab} -> conserved charge"
    return {"hbar_scale": 1.0, "correspondence": tags}


def _field_values(field: FieldFunction, pts: np.ndarray) -> np.ndarray:
    vals = np.asarray(field.evaluate(pts), dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise ValueError("field evaluation produced non-finite values at sample points")
    return vals


def _sampled(field: FieldFunction, family: ParamFamily, points) -> tuple[np.ndarray, np.ndarray]:
    """The sample as floats and the field's values on it, for a family of the field's dimension."""
    pts = np.asarray(points, dtype=float)
    if family.n != field.n:
        raise ValueError(f"family dimension {family.n} != field dimension {field.n}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("sample points must be finite")
    return pts, _field_values(field, pts)


def _residual_summary(residuals) -> tuple[np.ndarray, np.ndarray]:
    """Sup and rms of |r| for each residual array r, taken one at a time."""
    rows = [(float(d.max()), float(np.sqrt(np.mean(d**2)))) for d in map(np.abs, residuals)]
    return tuple(np.array(rows, dtype=float).reshape(-1, 2).T)


#: Rows per float product in :func:`_apply`.  BLAS rounds a row differently in
#: products of different heights, so products go in blocks of this many rows: a
#: chunk that starts at a multiple of it (as a relation check's chunks do) gives
#: each row the bits it has in one pass over the whole sample.
_PRODUCT_ROWS = 512


def _apply(mats: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Complex matrices (..., n, n) applied to the complex rows of ``vals`` (..., p, n): M v per row, (..., p, n).

    The real form [[Re M, -Im M], [Im M, Re M]] of each matrix acts on the
    interleaved real and imaginary parts of ``vals`` as one float product, so
    no complex product reaches BLAS (after one, a process formats floats
    about 1.3 times slower).
    """
    m = np.swapaxes(mats, -1, -2)
    re, im = m.real, m.imag
    # (input component, its part, output component, its part), flattened to (2n, 2n)
    real = np.stack([np.stack([re, im], -1), np.stack([-im, re], -1)], -3)
    real = real.reshape(m.shape[:-2] + (2 * m.shape[-1],) * 2)
    out = np.empty(vals.shape, dtype=complex)
    floats, into = np.ascontiguousarray(vals).view(float), out.view(float)
    for start in range(0, vals.shape[-2], _PRODUCT_ROWS):
        rows = slice(start, start + _PRODUCT_ROWS)
        np.matmul(floats[..., rows, :], real, out=into[..., rows, :])
    return out


def _relation_residuals(field: FieldFunction, family: ParamFamily, schemes: list[FDScheme], pts, phi, grads):
    """Each scheme's global-vs-local residuals, as (scheme index, parameter, (p, n) array) one at a time.

    The schemes share one order, and a family without ``rep_derivative`` has
    ``I'`` differenced once, at the first one's step.  ``phi`` and ``grads``
    are the field's values and gradient on the sample ``pts``.  One
    ``rep_map`` and one ``point_map`` call give the maps at every stencil
    point of every scheme, and every matrix product goes through
    :func:`_apply`.  A family that moves no points differences ``I(b)``
    alone and contracts ``(dI - I') phi``: it needs no gradient, but needs
    the closed-form ``I'``.

    A moving family takes its parameters in groups whose stencil points
    times the sample fit in ``BLOCK_POINTS``, or one at a time with the
    sample in chunks of ``BLOCK_POINTS // order`` points.  A group's local
    side is formed once from the declared flow and volume rates; each
    scheme's stencil then differences the global side alone against it.
    Each stencil point's map moves the whole sample in one product, as
    :class:`~covariant_kit.geometry.AffineMap` does, and the field is
    evaluated once per chunk of all the group's moved points.
    """
    if family.point_map is None and family.rep_derivative is None:
        raise ValueError("a family that moves no points needs its closed-form rep_derivative")
    gen = rep_generators(family, schemes[0])
    order, s = schemes[0].order, family.s
    stencils = [_stencil_rows(family.b0, scheme) for scheme in schemes]
    rows = np.concatenate([points for points, _ in stencils])  # scheme by scheme, parameter by parameter
    mats = np.asarray(family.rep_map(rows), dtype=complex)
    if family.point_map is None:
        for k, (_, rules) in enumerate(stencils):
            for w, rule in enumerate(rules):
                at = (k * s + w) * order
                yield k, w, _apply(rule(*mats[at : at + order]) - gen[w], phi)
        return

    linear, offset, jac = _checked_affine(*family.point_map(rows), (len(rows),))
    p, rates = len(pts), volume_rates(family)
    per_group = max(1, BLOCK_POINTS // max(1, order * p))
    chunk = max(1, min(p, BLOCK_POINTS // order))

    def group_residuals(group, rules, at, local):
        idx = slice(at + group.start * order, at + group.stop * order)
        # Coordinate-major (4, stencil points, p), so the field reads contiguous
        # columns.  Each map moves the whole sample in one product, as
        # AffineMap does: a product over a chunk can round differently.
        moved = np.empty((4, idx.stop - idx.start, p))
        np.matmul(linear[idx], pts.T, out=moved.transpose(1, 0, 2))
        moved += offset[idx].T[:, :, None]
        out = [np.empty_like(phi) for _ in group]
        for start in range(0, p, chunk):
            part = slice(start, start + chunk)
            lhs = _apply(mats[idx], _field_values(field, np.moveaxis(moved[:, :, part], 0, -1)))
            lhs *= jac[idx, None, None]
            for i, w in enumerate(group):
                out[i][part] = rules[w](*lhs[i * order : (i + 1) * order]) - local[i][part]
        return out

    for first in range(0, s, per_group):
        group = range(first, min(first + per_group, s))
        local = [rates[w] * phi + _apply(gen[w], phi) for w in group]
        for i, w in enumerate(group):
            # h . grad phi, summed over the four coordinates in order, as einsum("pk,pik->pi") sums them
            flow, transport = _affine_flow(family.flow[w], pts), np.zeros_like(phi)
            for c in range(4):
                transport += flow[:, c, None] * grads[..., c]
            local[i] += transport
        for k, (_, rules) in enumerate(stencils):
            yield from ((k, w, r) for w, r in zip(group, group_residuals(group, rules, k * s * order, local)))


def _relation_report(field, family, scheme, points, tolerance, convergence_steps=(), **metadata) -> RelationReport:
    """The relation's report at the scheme's step, with a sup table at each convergence step.

    The field is evaluated once on the sample, and its gradient once only
    for a family that moves points; one pass of :func:`_relation_residuals`
    gives every step's residuals, reduced here one array at a time.  A field
    that is exactly 0 on the whole sample fails the report: every residual
    would read 0 and compare nothing.
    """
    pts, phi = _sampled(field, family, points)
    grads = None if family.point_map is None else np.asarray(field.gradient(pts), dtype=complex)
    schemes = [scheme, *(FDScheme(h, scheme.order) for h in convergence_steps)]
    sup, rms = np.empty((len(schemes), family.s)), np.empty(family.s)
    for k, w, r in _relation_residuals(field, family, schemes, pts, phi, grads):
        d = np.abs(r)
        sup[k, w] = d.max()
        if k == 0:
            rms[w] = np.sqrt(np.mean(d**2))
    return RelationReport(
        labels=family.labels,
        sup_residuals=sup[0],
        rms_residuals=rms,
        tolerances=np.asarray(tolerance, dtype=float),
        convergence_steps=tuple(convergence_steps),
        convergence_sup=sup[1:] if convergence_steps else None,
        metadata={**_correspondence(family.labels), **metadata},
        failure=None if phi.any() else "the field is exactly 0 at every sample point, so the relation compares nothing",
    )


def verify_local_relation(
    field: FieldFunction,
    family: ParamFamily,
    scheme: FDScheme,
    points: np.ndarray,
    tolerance: float = TOLERANCES["local"],
    convergence_steps: tuple[float, ...] = (),
) -> RelationReport:
    """Check the differentiated transformation law on sampled points.

    For each parameter the finite-difference derivative of the globally
    transformed field is compared against
    ``Delta phi + I' phi + h . grad phi``, formed once.  ``convergence_steps``
    adds a sup-residual table at extra step sizes (largest first is customary).
    """
    return _relation_report(field, family, scheme, points, tolerance, convergence_steps)


def verify_bundle_relation(
    field: FieldFunction,
    family: ParamFamily,
    scheme: FDScheme,
    points: np.ndarray,
    tolerance: float = TOLERANCES["bundle"],
) -> RelationReport:
    """Pointwise relation for frame-only families: d/db [I(b) phi] = I' phi.

    This is the local relation of a family that moves no points
    (``point_map=None``), which raises without a closed-form
    ``rep_derivative``.  A translation-like parameter's whole derivative is
    its residual and vanishes identically, so it comes out exactly zero.
    """
    if family.point_map is not None:
        raise ValueError("bundle relations need an identity point map; use verify_local_relation instead")
    note = (
        "frame-only family: translation parameters act trivially, so their "
        "relation is 0 = 0 and the conserved-quantity relabeling is a label, "
        "not a dynamical statement"
    )
    return _relation_report(field, family, scheme, points, tolerance, note=note)


def lowering_operator(dim: int) -> np.ndarray:
    """Truncated lowering operator of shape (dim, dim): a[k, k+1] = sqrt(k+1)."""
    a = np.zeros((dim, dim), dtype=complex)
    a[np.arange(dim - 1), np.arange(1, dim)] = np.sqrt(np.arange(1.0, dim))
    return a


@dataclass(frozen=True)
class ToyOperatorModel:
    """Finite-dimensional charge model: the ``diagonal`` of a diagonal generator Q,
    of length ``dim``, and ``dim x dim`` field matrices."""

    charge: float
    unit_charge: float
    diagonal: np.ndarray
    field_ops: tuple
    dim: int = dc_field(init=False)

    def __post_init__(self):
        diag = np.asarray(self.diagonal, dtype=complex)
        if diag.ndim != 1:
            raise ValueError("the generator's diagonal must be a 1-D vector")
        dim = diag.shape[0]
        ops = tuple(np.asarray(op, dtype=complex) for op in self.field_ops)
        if any(op.shape != (dim, dim) for op in ops):
            raise ValueError("field operator dimension mismatch")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "diagonal", diag)
        object.__setattr__(self, "field_ops", ops)


def number_operator_model(dim: int = 16, q: float = 1.0, e: float = 1.0) -> ToyOperatorModel:
    """Number-operator model: Q = q diag(0..dim-1), one lowering operator.

    Q is diagonal, so the charge commutation relation is exact at every
    truncation size; a larger ``dim`` adds nothing but rows.
    """
    if dim < 2:
        raise ValueError("model dimension must be at least 2")
    if e == 0:
        raise ValueError("unit charge must be nonzero")
    return ToyOperatorModel(float(q), float(e), q * np.arange(dim, dtype=float), (lowering_operator(dim),))


def charge_unitary(model: ToyOperatorModel, t: float) -> np.ndarray:
    """The diagonal of U(t) = exp(t Q / (i e)) for the model's diagonal generator Q and unit charge e."""
    return np.exp(model.diagonal * (t / (1j * model.unit_charge)))


def toy_commutator_check(
    model: ToyOperatorModel,
    b: float = 0.3,
    commutator_tolerance: float = TOLERANCES["commutator"],
    conjugation_tolerance: float = TOLERANCES["conjugation"],
) -> RelationReport:
    """Charge relation [Q, op] = -q op plus its exponentiated form.

    The global form conjugates by U(b) = exp(b Q / (i e)), entry by entry as
    u_j op_jk / u_k, and compares against the phase factor exp(-q b / (i e)).
    """
    q, e, diag = model.charge, model.unit_charge, model.diagonal
    u = charge_unitary(model, b)
    phase = np.exp(-(q / (1j * e)) * b)

    def residuals():
        for op in model.field_ops:
            # [Q, op]_jk = (Q_jj - Q_kk) op_jk: exact for the number model, with no matmul roundoff
            yield (diag[:, None] - diag[None, :]) * op + q * op
            yield u[:, None] * op / u[None, :] - phase * op

    sup, rms = _residual_summary(residuals())
    ops = range(len(model.field_ops))
    return RelationReport(
        labels=tuple(f"{kind}_{k}" for k in ops for kind in ("commutator", "conjugation")),
        sup_residuals=sup,
        rms_residuals=rms,
        tolerances=np.tile([commutator_tolerance, conjugation_tolerance], len(ops)),
        metadata={"charge": q, "unit_charge": e, "conjugation_parameter": b},
    )


@dataclass(frozen=True)
class GroupoidReport:
    """Residuals of the observer-map consistency laws."""

    composition_residual: float
    identity_residual: float

    @property
    def max_residual(self) -> float:
        # np.max, unlike max, keeps a nan from either law
        return float(np.max([self.composition_residual, self.identity_residual]))


def observer_groupoid_check(
    u12: np.ndarray, u23: np.ndarray, u13: np.ndarray, self_maps: tuple = ()
) -> GroupoidReport:
    """Check U12 U23 = U13 and U_aa = 1 for observer maps given as diagonals of one length."""
    a, b, c, *own = (np.asarray(m, dtype=complex) for m in (u12, u23, u13, *self_maps))
    if a.ndim != 1 or any(m.shape != a.shape for m in (b, c, *own)):
        raise ValueError("observer maps must be 1-D diagonals of one length")
    comp = float(np.abs(a * b - c).max())
    ident = float(np.abs(np.array(own) - 1).max(initial=0.0))
    return GroupoidReport(comp, ident)
