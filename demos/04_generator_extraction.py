"""Differentiating group families: coefficient tables by finite differences.

A parametrised family b -> (H(b), I(b)) is differenced at its base point
to produce the matrix coefficients dI/db, the velocity fields dH/db, and
the volume rates d(det dH/dr)/db.  For the shipped families these land on
closed-form tables; the error shrinks at the order of the scheme.

Run:  python demos/04_generator_extraction.py
"""

import dataclasses

import numpy as np

from covariant_kit import (
    FDScheme,
    FieldRep,
    analytic_rep_derivatives,
    det_trace_residual,
    flow_fields,
    internal_family,
    lorentz_exp,
    poincare_family,
    rep_generators,
    volume_rates,
)

np.set_printoptions(precision=6, suppress=True, linewidth=120)
scheme = FDScheme(1e-4, order=2)
points = np.random.default_rng(1).uniform(-2, 2, (20, 4))

print("=" * 70)
print("Vector representation: the index tensor emerges from differencing")
print("=" * 70)
fam = poincare_family(FieldRep.vector())
table = rep_generators(fam, scheme)
print("coefficient matrix for the (0,1) plane:\n", table[0].real)
exact = analytic_rep_derivatives(FieldRep.vector())
print(f"max deviation from the closed form over all 10 parameters: {np.abs(table - exact).max():.2e}")
print(f"translation rows are exactly zero: {np.abs(table[6:]).max():.1e}")

print()
print("=" * 70)
print("Spinor representation and the phase charge coefficient")
print("=" * 70)
spin = rep_generators(poincare_family(FieldRep.spinor()), scheme)
exact_spin = analytic_rep_derivatives(FieldRep.spinor())
print(f"spinor table deviation: {np.abs(spin - exact_spin).max():.2e}")
q, e = 2.0, 1.0
# The internal family carries the closed form; drop it to difference the phase rule.
phase_fam = dataclasses.replace(internal_family(FieldRep.phase(q, e)), rep_derivative=None)
charge = rep_generators(phase_fam, FDScheme(1e-4, order=4))
print(f"phase family derivative: {charge[0][0, 0]:.10f}  (expected {-q / (1j * e):.1f})")

print()
print("=" * 70)
print("Velocity fields and volume rates")
print("=" * 70)
flows = flow_fields(fam, scheme, points)
expected = points @ np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0.0]]).T
print(f"boost-plane flow matches J r: {np.abs(flows[0] - expected).max():.2e}")
print(f"translation flow is the unit vector: {np.abs(flows[6] - [1, 0, 0, 0]).max():.2e}")
rates = volume_rates(fam, scheme, points)
print(f"volume rates vanish for these maps: {np.abs(rates).max():.2e}")

print()
print("=" * 70)
print("det' = trace' at the identity, and second-order convergence")
print("=" * 70)
res = det_trace_residual(lambda b: np.exp(b[0]) * np.eye(4), np.zeros(1), FDScheme(1e-5))
print(f"dilation family det-trace residual: {res.max():.2e}")
res = det_trace_residual(lorentz_exp, np.zeros(6), FDScheme(1e-5))
print(f"boost/rotation family residual:     {res.max():.2e}")

errs = []
for h in (1e-2, 5e-3, 2.5e-3):
    t = rep_generators(poincare_family(FieldRep.spinor()), FDScheme(h, order=2))
    errs.append(np.abs(t - exact_spin).max())
print("\nspinor-table FD error while halving the step:")
for h, err in zip((1e-2, 5e-3, 2.5e-3), errs):
    print(f"  h = {h:.0e}: error {err:.3e}")
print(f"shrink factors: {errs[0] / errs[1]:.3f}, {errs[1] / errs[2]:.3f}  (order 2 means ~4)")
