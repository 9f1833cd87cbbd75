"""Differentiating group families: coefficient tables by finite differences.

A parametrised family b -> (H(b), I(b)) declares its infinitesimal data in
closed form: the matrix coefficients dI/db, the flows h_a(r) = A_a r + c_a
of the point maps, and the volume rates tr A_a.  Differencing the family
at its base point lands on the same tables; the error shrinks at the order
of the scheme.  Stripping a family of its closed form (``rep_derivative=None``)
makes ``rep_generators`` difference the family's matrices instead.

Run:  python demos/04_generator_extraction.py
"""

import dataclasses

import numpy as np

from covariant_kit import (
    AffineMap,
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


def stripped(family):
    """The family without its closed-form matrix derivative, so rep_generators differences its matrices."""
    return dataclasses.replace(family, rep_derivative=None)


def map_at(family, b):
    """The family's point map at one parameter vector: ``maps`` takes rows and returns stacks."""
    _, linear, offset = family.maps(b[None])
    return AffineMap(linear[0], offset[0])


def central(f, family, h=1e-4):
    """Order-2 central differences of f(b) at the family's base point, one per parameter."""
    steps = h * np.eye(family.s)
    return np.array([(f(family.b0 + e) - f(family.b0 - e)) / (2 * h) for e in steps])


print("=" * 70)
print("Vector representation: the index tensor emerges from differencing")
print("=" * 70)
fam = poincare_family(FieldRep.vector())
table = rep_generators(stripped(fam), scheme)
print("coefficient matrix for the (0,1) plane:\n", table[0].real)
exact = analytic_rep_derivatives(FieldRep.vector())
print(f"the family declares the closed form: {np.array_equal(rep_generators(fam, scheme), exact)}")
print(f"max deviation from the closed form over all 10 parameters: {np.abs(table - exact).max():.2e}")
print(f"translation rows are exactly zero: {np.abs(table[6:]).max():.1e}")

print()
print("=" * 70)
print("Spinor representation and the phase charge coefficient")
print("=" * 70)
spin = rep_generators(stripped(poincare_family(FieldRep.spinor())), scheme)
exact_spin = analytic_rep_derivatives(FieldRep.spinor())
print(f"spinor table deviation: {np.abs(spin - exact_spin).max():.2e}")
q, e = 2.0, 1.0
phase_fam = stripped(internal_family(FieldRep.phase(q, e)))
charge = rep_generators(phase_fam, FDScheme(1e-4, order=4))
print(f"phase family derivative: {charge[0][0, 0]:.10f}  (expected {-q / (1j * e):.1f})")

print()
print("=" * 70)
print("Declared velocity fields and volume rates against the point maps")
print("=" * 70)
flows = flow_fields(fam, points)
expected = points @ np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0.0]]).T
print(f"boost-plane flow matches J r: {np.abs(flows[0] - expected).max():.2e}")
print(f"translation flow is the unit vector: {np.abs(flows[6] - [1, 0, 0, 0]).max():.2e}")
moved = central(lambda b: map_at(fam, b)(points), fam)
print(f"differenced point maps against the declared flows: {np.abs(moved - flows).max():.2e}")
rates = volume_rates(fam)
jacobians = central(lambda b: map_at(fam, b).jacobian, fam)
print(f"declared volume rates tr A: {np.abs(rates).max():.1e}; differenced Jacobians: {np.abs(jacobians).max():.2e}")

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
    t = rep_generators(stripped(poincare_family(FieldRep.spinor())), FDScheme(h, order=2))
    errs.append(np.abs(t - exact_spin).max())
print("\nspinor-table FD error while halving the step:")
for h, err in zip((1e-2, 5e-3, 2.5e-3), errs):
    print(f"  h = {h:.1e}: error {err:.3e}")
print(f"shrink factors: {errs[0] / errs[1]:.3f}, {errs[1] / errs[2]:.3f}  (order 2 means ~4)")
