"""Finite-dimensional charge model: exact commutators on a truncated
number-state space, the exponentiated conjugation law, and the
observer-map consistency (partial monoid) laws.

Run:  python demos/06_toy_charge_model.py
"""

import numpy as np

from covariant_kit import charge_unitary, number_operator_model, observer_groupoid_check, toy_commutator_check

np.set_printoptions(precision=4, suppress=True)

print("=" * 70)
print("Number operator and truncated lowering operator")
print("=" * 70)
model = number_operator_model(dim=6, q=1.0, e=1.0)
Q = np.diag(model.diagonal)
print("Q =\n", Q.real)
print("a =\n", model.field_ops[0].real)
comm = Q @ model.field_ops[0] - model.field_ops[0] @ Q
print("[Q, a] =\n", comm.real)
print("(equal to -q a entry by entry; the truncation is exact because Q is diagonal)")

print()
print("=" * 70)
print("Report: commutator and exponentiated conjugation")
print("=" * 70)
for q in (1.0, 2.5):
    report = toy_commutator_check(number_operator_model(dim=16, q=q), b=0.3)
    for label, sup, tol in zip(report.labels, report.sup_residuals, report.tolerances):
        print(f"q={q}: {label:14s} residual {sup:.2e}  (tolerance {tol:.0e})")

print()
print("=" * 70)
print("Observer maps compose like a partial monoid")
print("=" * 70)
# U(t) = exp(t Q / (i e)) is diagonal, so each observer map is held as its diagonal
U = lambda t: charge_unitary(model, t)
clean = observer_groupoid_check(U(0.4), U(0.25), U(0.65), self_maps=(U(0.0),))
print(f"U(b1) U(b2) = U(b1+b2): composition residual {clean.composition_residual:.2e}")
print(f"U(0) = identity:        identity residual    {clean.identity_residual:.2e}")

broken = observer_groupoid_check(U(0.4), U(0.25), (1 + 1e-3) * U(0.65))
print(f"with an injected 1e-3 defect the check reads: {broken.composition_residual:.2e}")
