"""Numerical verification of commutator-style relations.

The checks compare two routes to the same infinitesimal data:

* the *global* route differentiates the full transformed field
  ``b -> det[dH(b)/dr] I(b) phi(H(b) r)`` by central differences at the
  family's base parameters;
* the *local* route assembles ``Delta(r) phi(r) + I' phi(r)
  + h(r) . grad phi(r)`` from extracted (or analytic) coefficients.

Their agreement, parameter by parameter, is the content of the relation;
residuals shrink at the order of the difference scheme.  Frame-only
("bundle") families have no transport term: the local side is purely
``I' phi(r)`` and translation directions are exactly zero.

Finite-dimensional matrix models stand in for internal-symmetry operator
algebras: a number operator and truncated lowering operator realise the
charge commutation relation exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.linalg import expm

from .fields import FieldFunction
from .generators import (
    FDScheme,
    ParamFamily,
    _central_diff,
    _inner_jacobian_det,
    flow_fields,
    rep_generators,
)

__all__ = [
    "RelationReport",
    "verify_local_relation",
    "verify_bundle_relation",
    "frame_independence_check",
    "ToyOperatorModel",
    "lowering_operator",
    "number_operator_model",
    "toy_commutator_check",
    "GroupoidReport",
    "observer_groupoid_check",
    "sample_points",
]


def sample_points(count: int = 200, seed: int = 0, box: float = 2.0) -> np.ndarray:
    """Deterministic uniform sample of spacetime points in [-box, box]^4."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-box, box, size=(count, 4))


@dataclass(frozen=True)
class RelationReport:
    """Residuals of one verified relation, per family parameter.

    ``tolerances`` broadcasts against the labels, so checks with mixed
    strictness (e.g. exact commutator vs finite-step conjugation) fit in
    one report.  ``passed`` is derived, never stored: a parameter passes
    iff its sup residual is within tolerance.
    """

    labels: tuple[str, ...]
    sup_residuals: np.ndarray
    rms_residuals: np.ndarray
    tolerances: np.ndarray
    convergence_steps: tuple[float, ...] = ()
    convergence_sup: np.ndarray | None = None  # (len(steps), len(labels))
    metadata: dict = dc_field(default_factory=dict)

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
        return self.sup_residuals <= self.tolerances

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
        fmt = lambda v: f"{float(v):.17g}"
        out = {
            "labels": list(self.labels),
            "sup_residuals": [fmt(v) for v in self.sup_residuals],
            "rms_residuals": [fmt(v) for v in self.rms_residuals],
            "tolerances": [fmt(v) for v in self.tolerances],
            "passed": [bool(p) for p in self.passed],
            "all_passed": self.all_passed,
            "metadata": dict(self.metadata),
        }
        if self.convergence_sup is not None:
            out["convergence"] = {
                "steps": [fmt(h) for h in self.convergence_steps],
                "sup_residuals": [[fmt(v) for v in row] for row in self.convergence_sup],
            }
            ratios = self.convergence_ratios
            if ratios is not None:
                out["convergence"]["ratios"] = [[fmt(v) for v in row] for row in ratios]
        return out


def _correspondence(labels, hbar_scale: float) -> dict:
    """Conserved-quantity relabeling of the generator labels (metadata only)."""
    tags = {}
    for lab in labels:
        if lab.startswith("T_"):
            tags[lab] = f"i*hbar*{lab} -> P_{lab[2:]}"
        elif lab.startswith("S_"):
            tags[lab] = f"i*hbar*{lab} -> M_{lab[2:]}"
        elif lab.startswith("Q"):
            tags[lab] = f"{lab} -> conserved charge"
    return {"hbar_scale": hbar_scale, "correspondence": tags}


def _field_values(field: FieldFunction, pts: np.ndarray) -> np.ndarray:
    vals = np.asarray(field.evaluate(pts), dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise ValueError("field evaluation produced non-finite values at sample points")
    return vals


def _local_residuals(
    field: FieldFunction,
    family: ParamFamily,
    scheme: FDScheme,
    pts: np.ndarray,
    phi: np.ndarray,
    grads: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(sup, rms) residuals of global-vs-local derivative per parameter.

    ``phi`` and ``grads`` are the field's values and gradient on ``pts``.
    One stencil differences the moved points (flow), the inner Jacobian
    (volume rate) and the global value: one point map per stencil point.
    """
    gen = rep_generators(family, scheme)
    if not np.all(np.isfinite(pts)):
        raise ValueError("sample points must be finite")
    analytic_flows = None if family.point_derivative is None else flow_fields(family, scheme, pts)
    steps = scheme.steps(family.s)

    def global_map(b):
        jac = _inner_jacobian_det(family, b, pts)
        moved = np.asarray(family.point_map(b, pts), dtype=float)
        vals = _field_values(field, moved)
        rotated = np.einsum("ij,pj->pi", np.asarray(family.rep_map(b), dtype=complex), vals)
        return moved, jac, jac[..., None] * rotated

    sup = np.empty(family.s)
    rms = np.empty(family.s)
    for w in range(family.s):
        flow, rate, lhs = _central_diff(global_map, family.b0, w, steps[w], scheme.order)
        if analytic_flows is not None:
            flow = analytic_flows[w]
        rhs = (
            rate[..., None] * phi
            + np.einsum("ij,pj->pi", gen[w], phi)
            + np.einsum("pk,pik->pi", flow, grads)
        )
        diff = np.abs(lhs - rhs)
        sup[w] = float(diff.max())
        rms[w] = float(np.sqrt(np.mean(diff**2)))
    return sup, rms


def verify_local_relation(
    field: FieldFunction,
    family: ParamFamily,
    scheme: FDScheme,
    points: np.ndarray,
    tolerance: float = 1e-6,
    convergence_steps: tuple[float, ...] = (),
    hbar_scale: float = 1.0,
) -> RelationReport:
    """Check the differentiated transformation law on sampled points.

    For each parameter the finite-difference derivative of the globally
    transformed field is compared against
    ``Delta phi + I' phi + h . grad phi``.  ``convergence_steps`` adds a
    sup-residual table at extra step sizes (largest first is customary).
    """
    pts = np.asarray(points, dtype=float)
    if family.n != field.n:
        raise ValueError(f"family dimension {family.n} != field dimension {field.n}")
    phi = _field_values(field, pts)
    grads = np.asarray(field.gradient(pts), dtype=complex)
    sup, rms = _local_residuals(field, family, scheme, pts, phi, grads)
    conv = None
    if convergence_steps:
        conv = np.stack(
            [
                _local_residuals(field, family, FDScheme(h, scheme.order), pts, phi, grads)[0]
                for h in convergence_steps
            ]
        )
    return RelationReport(
        labels=family.labels,
        sup_residuals=sup,
        rms_residuals=rms,
        tolerances=np.asarray(tolerance, dtype=float),
        convergence_steps=tuple(convergence_steps),
        convergence_sup=conv,
        metadata=_correspondence(family.labels, hbar_scale),
    )


def verify_bundle_relation(
    field: FieldFunction,
    family: ParamFamily,
    scheme: FDScheme,
    points: np.ndarray,
    tolerance: float = 1e-8,
    hbar_scale: float = 1.0,
) -> RelationReport:
    """Pointwise relation for frame-only families: d/db [I(b) phi] = I' phi.

    There is no transport term; for translation-like parameters the whole
    derivative is the residual and it vanishes identically, so those
    entries come out exactly zero.
    """
    pts = np.asarray(points, dtype=float)
    if family.n != field.n:
        raise ValueError(f"family dimension {family.n} != field dimension {field.n}")
    if not family.identity_point_map:
        raise ValueError("bundle relations need an identity point map; use verify_local_relation instead")
    phi = _field_values(field, pts)
    gen = rep_generators(family, scheme)
    steps = scheme.steps(family.s)
    rep_f = lambda b: np.asarray(family.rep_map(b), dtype=complex)
    sup = np.empty(family.s)
    rms = np.empty(family.s)
    for w in range(family.s):
        dmat = _central_diff(rep_f, family.b0, w, steps[w], scheme.order)
        diff = np.abs(np.einsum("ij,pj->pi", dmat - gen[w], phi))
        sup[w] = float(diff.max())
        rms[w] = float(np.sqrt(np.mean(diff**2)))
    meta = _correspondence(family.labels, hbar_scale)
    meta["note"] = (
        "frame-only family: translation parameters act trivially, so their "
        "relation is 0 = 0 and the conserved-quantity relabeling is a label, "
        "not a dynamical statement"
    )
    return RelationReport(
        labels=family.labels,
        sup_residuals=sup,
        rms_residuals=rms,
        tolerances=np.asarray(tolerance, dtype=float),
        metadata=meta,
    )


def frame_independence_check(
    field: FieldFunction,
    frame: np.ndarray,
    family: ParamFamily,
    scheme: FDScheme,
    points: np.ndarray,
) -> float:
    """Covariance of the pointwise relation under a constant frame change.

    Computes ``A^-1 (I' phi)`` in the original frame and
    ``(A^-1 I' A)(A^-1 phi)`` in the changed frame; returns the sup
    deviation, which is pure roundoff for any invertible constant A.
    """
    A = np.asarray(frame, dtype=complex)
    if A.shape != (field.n, field.n):
        raise ValueError(f"frame matrix must be {field.n}x{field.n}, got {A.shape}")
    if abs(np.linalg.det(A)) <= 1e-12:
        raise ValueError("frame matrix is singular")
    inv = np.linalg.inv(A)
    pts = np.asarray(points, dtype=float)
    phi = _field_values(field, pts)
    gen = rep_generators(family, scheme)
    route1 = np.einsum("ij,wpj->wpi", inv, np.einsum("wij,pj->wpi", gen, phi))
    gen2 = np.einsum("ij,wjk,kl->wil", inv, gen, A)
    phi2 = np.einsum("ij,pj->pi", inv, phi)
    route2 = np.einsum("wij,pj->wpi", gen2, phi2)
    return float(np.abs(route1 - route2).max())


def lowering_operator(dim: int) -> np.ndarray:
    """Truncated lowering operator: a[k, k+1] = sqrt(k+1)."""
    a = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        a[k, k + 1] = np.sqrt(k + 1.0)
    return a


@dataclass(frozen=True)
class ToyOperatorModel:
    """Finite-dimensional charge model: generator Q and field matrices."""

    dim: int
    charge: float
    unit_charge: float
    generator: np.ndarray
    field_ops: tuple

    def __post_init__(self):
        Q = np.asarray(self.generator, dtype=complex)
        if Q.shape != (self.dim, self.dim):
            raise ValueError("generator dimension mismatch")
        ops = tuple(np.asarray(op, dtype=complex) for op in self.field_ops)
        for op in ops:
            if op.shape != (self.dim, self.dim):
                raise ValueError("field operator dimension mismatch")
        object.__setattr__(self, "generator", Q)
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
    Q = q * np.diag(np.arange(dim, dtype=float)).astype(complex)
    return ToyOperatorModel(dim, float(q), float(e), Q, (lowering_operator(dim),))


def toy_commutator_check(
    model: ToyOperatorModel,
    b: float = 0.3,
    commutator_tolerance: float = 1e-14,
    conjugation_tolerance: float = 1e-10,
) -> RelationReport:
    """Charge relation [Q, op] = -q op plus its exponentiated form.

    The global form conjugates by U(b) = exp(b Q / (i e)) and compares
    against the phase factor exp(-q b / (i e)).
    """
    q, e = model.charge, model.unit_charge
    Q = model.generator
    diag = np.diagonal(Q)
    is_diagonal = np.count_nonzero(Q - np.diag(diag)) == 0
    U = expm(Q * (b / (1j * e)))
    Uinv = np.linalg.inv(U)
    phase = np.exp(-(q / (1j * e)) * b)
    labels = []
    sup = []
    rms = []
    tols = []
    for k, op in enumerate(model.field_ops):
        if is_diagonal:
            # [Q, op]_jk = (Q_jj - Q_kk) op_jk; exact for the number model,
            # where matmul roundoff would otherwise leak in at ~1e-14
            comm = (diag[:, None] - diag[None, :]) * op
        else:
            comm = Q @ op - op @ Q
        diff = np.abs(comm + q * op)
        labels.append(f"commutator_{k}")
        sup.append(float(diff.max()))
        rms.append(float(np.sqrt(np.mean(diff**2))))
        tols.append(commutator_tolerance)
        conj = np.abs(U @ op @ Uinv - phase * op)
        labels.append(f"conjugation_{k}")
        sup.append(float(conj.max()))
        rms.append(float(np.sqrt(np.mean(conj**2))))
        tols.append(conjugation_tolerance)
    return RelationReport(
        labels=tuple(labels),
        sup_residuals=np.array(sup),
        rms_residuals=np.array(rms),
        tolerances=np.array(tols),
        metadata={"charge": q, "unit_charge": e, "conjugation_parameter": b},
    )


@dataclass(frozen=True)
class GroupoidReport:
    """Residuals of the observer-map consistency laws."""

    composition_residual: float
    identity_residual: float

    @property
    def max_residual(self) -> float:
        return max(self.composition_residual, self.identity_residual)


def observer_groupoid_check(
    u12: np.ndarray, u23: np.ndarray, u13: np.ndarray, self_maps: tuple = ()
) -> GroupoidReport:
    """Check U12 U23 = U13 and U_aa = 1 for supplied self-maps."""
    a, b, c = (np.asarray(m, dtype=complex) for m in (u12, u23, u13))
    comp = float(np.abs(a @ b - c).max())
    ident = 0.0
    for m in self_maps:
        m = np.asarray(m, dtype=complex)
        ident = max(ident, float(np.abs(m - np.eye(m.shape[0])).max()))
    return GroupoidReport(comp, ident)
