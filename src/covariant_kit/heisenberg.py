"""Numerical verification of commutator-style relations.

The checks compare two routes to the same infinitesimal data:

* the *global* route differentiates the full transformed field
  ``b -> det[dH(b)/dr] I(b) phi(H(b) r)`` by central differences at the
  family's base parameters;
* the *local* route assembles ``Delta(r) phi(r) + I' phi(r)
  + h(r) . grad phi(r)`` from extracted (or analytic) coefficients.

Their agreement, parameter by parameter, is the content of the relation;
residuals shrink at the order of the difference scheme.  The fibre-bundle
relation is the same relation for a family that moves no points
(``point_map=None``): there is no transport term, the global route
differences ``I(b) phi(r)`` alone, the local side is purely
``I' phi(r)``, and translation directions are exactly zero.

Finite-dimensional matrix models stand in for internal-symmetry operator
algebras: a number operator, stored as its diagonal, and a truncated
lowering operator realise the charge commutation relation exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import FieldFunction
from .generators import FDScheme, ParamFamily, _param_diffs, rep_generators
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
        out = {
            "labels": list(self.labels),
            "sup_residuals": [number_text(v) for v in self.sup_residuals],
            "rms_residuals": [number_text(v) for v in self.rms_residuals],
            "tolerances": [number_text(v) for v in self.tolerances],
            "passed": [bool(p) for p in self.passed],
            "all_passed": self.all_passed,
            "metadata": dict(self.metadata),
        }
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


def _relation_residuals(
    field: FieldFunction,
    family: ParamFamily,
    scheme: FDScheme,
    pts: np.ndarray,
    phi: np.ndarray,
    grads: np.ndarray | None,
):
    """The global-vs-local derivative residual of each parameter, one array at a time.

    ``phi`` and ``grads`` are the field's values and gradient on ``pts``.
    One stencil differences the moved points (flow), the point map's
    ``jacobian`` (volume rate) and the global value: one point map per
    stencil point.
    A family that moves no points differences ``I(b)`` alone and
    contracts ``(dI - I') phi``; it needs no gradient.
    """
    gen = rep_generators(family, scheme)
    if family.point_map is None:
        rep_f = lambda b: np.asarray(family.rep_map(b), dtype=complex)
        diffs = zip(_param_diffs(rep_f, family.b0, scheme), gen)
        return (np.einsum("ij,pj->pi", dmat - g, phi) for dmat, g in diffs)

    def global_map(b):
        h = family.point_map(b)
        moved = h(pts)
        vals = _field_values(field, moved)
        rotated = np.einsum("ij,pj->pi", np.asarray(family.rep_map(b), dtype=complex), vals)
        return moved, h.jacobian, h.jacobian * rotated

    def residuals():
        for w, (flow, rate, lhs) in enumerate(_param_diffs(global_map, family.b0, scheme)):
            yield lhs - (
                rate * phi
                + np.einsum("ij,pj->pi", gen[w], phi)
                + np.einsum("pk,pik->pi", flow, grads)
            )

    return residuals()


def _relation_report(field, family, scheme, points, tolerance, convergence_steps=(), **metadata) -> RelationReport:
    """The relation's report at the scheme's step, with a sup table at each convergence step.

    The field is evaluated once on the sample, and its gradient once only
    for a family that moves points.
    """
    pts, phi = _sampled(field, family, points)
    grads = None if family.point_map is None else np.asarray(field.gradient(pts), dtype=complex)
    residuals = lambda h: _relation_residuals(field, family, FDScheme(h, scheme.order), pts, phi, grads)
    sup, rms = _residual_summary(residuals(scheme.step))
    conv = [[float(np.abs(r).max()) for r in residuals(h)] for h in convergence_steps]
    return RelationReport(
        labels=family.labels,
        sup_residuals=sup,
        rms_residuals=rms,
        tolerances=np.asarray(tolerance, dtype=float),
        convergence_steps=tuple(convergence_steps),
        convergence_sup=np.stack(conv) if conv else None,
        metadata={**_correspondence(family.labels), **metadata},
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
    ``Delta phi + I' phi + h . grad phi``.  ``convergence_steps`` adds a
    sup-residual table at extra step sizes (largest first is customary).
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
    (``point_map=None``), with ``I'`` the family's closed-form
    ``rep_derivative``; differencing both sides would read 0 = 0, so a
    family without one raises.  For translation-like parameters the whole
    derivative is the residual and it vanishes identically, so those
    entries come out exactly zero.
    """
    if family.point_map is not None:
        raise ValueError("bundle relations need an identity point map; use verify_local_relation instead")
    if family.rep_derivative is None:
        raise ValueError("bundle relations need the family's closed-form rep_derivative")
    note = (
        "frame-only family: translation parameters act trivially, so their "
        "relation is 0 = 0 and the conserved-quantity relabeling is a label, "
        "not a dynamical statement"
    )
    return _relation_report(field, family, scheme, points, tolerance, note=note)


def lowering_operator(dim: int) -> np.ndarray:
    """Truncated lowering operator: a[k, k+1] = sqrt(k+1)."""
    a = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        a[k, k + 1] = np.sqrt(k + 1.0)
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
    """U(t) = exp(t Q / (i e)) for the model's diagonal generator Q and unit charge e, entry by entry."""
    return np.diag(np.exp(model.diagonal * (t / (1j * model.unit_charge))))


def toy_commutator_check(
    model: ToyOperatorModel,
    b: float = 0.3,
    commutator_tolerance: float = TOLERANCES["commutator"],
    conjugation_tolerance: float = TOLERANCES["conjugation"],
) -> RelationReport:
    """Charge relation [Q, op] = -q op plus its exponentiated form.

    The global form conjugates by U(b) = exp(b Q / (i e)) and compares
    against the phase factor exp(-q b / (i e)).
    """
    q, e, diag = model.charge, model.unit_charge, model.diagonal
    U = charge_unitary(model, b)
    Uinv = np.linalg.inv(U)
    phase = np.exp(-(q / (1j * e)) * b)

    def residuals():
        for op in model.field_ops:
            # [Q, op]_jk = (Q_jj - Q_kk) op_jk; exact for the number model,
            # where matmul roundoff would otherwise leak in at ~1e-14
            yield (diag[:, None] - diag[None, :]) * op + q * op
            yield U @ op @ Uinv - phase * op

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
