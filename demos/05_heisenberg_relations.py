"""Commutator identities as derivative identities on sampled fields.

Differentiating the global transformation law at the identity must land
on the local combination  Delta phi + I' phi + h . grad phi.  The checks
below report sup residuals per group parameter, show the textbook
special cases, and verify the frame-only (pointwise) variant where the
transport term is absent.

Run:  python demos/05_heisenberg_relations.py
"""

from covariant_kit import (
    FDScheme,
    FieldRep,
    internal_family,
    poincare_family,
    poincare_frame_family,
    sample_points,
    verify_bundle_relation,
    verify_local_relation,
    wave_packet,
)

scheme = FDScheme(1e-4, order=2)
points = sample_points(count=150, seed=3, box=1.5)

print("=" * 70)
print("Local relation for scalar, vector, and spinor wave packets")
print("=" * 70)
suite = [
    ("scalar", wave_packet([0.0, 0.2, -0.1, 0.0], 1.0, 1), FieldRep.scalar()),
    ("vector", wave_packet([0.1, 0.0, 0.3, -0.2], 1.2, 4), FieldRep.vector()),
    ("spinor", wave_packet([0.0, 0.1, 0.0, 0.2], 1.1, [1.0, 0.5j, -0.25, 0.75]), FieldRep.spinor()),
]
for name, field, rep in suite:
    report = verify_local_relation(field, poincare_family(rep), scheme, points, convergence_steps=(4e-3, 2e-3, 1e-3))
    ratios = report.convergence_ratios
    print(f"{name:7s} sup residual {report.sup_residuals.max():.2e}  "
          f"worst convergence ratio {ratios.min():.3f}..{ratios.max():.3f}  "
          f"pass={report.all_passed}")
print("(translation parameters realise [generator, field] = gradient;")
print(" rotation parameters add the orbital and matrix terms)")

print()
print("=" * 70)
print("Internal phase family: the charge coefficient appears")
print("=" * 70)
family = internal_family(FieldRep.phase(1.0, 1.0))  # carries the closed-form coefficient
report = verify_local_relation(wave_packet([0, 0, 0, 0], 1.0, 1), family, scheme, points, tolerance=1e-8)
print(f"differenced law vs -(q/(i e)) phi: sup residual {report.sup_residuals.max():.2e}")
print(f"correspondence metadata: {report.metadata['correspondence']}")

print()
print("=" * 70)
print("Frame-only (pointwise) relations: no transport term")
print("=" * 70)
rep = FieldRep.vector()
frame_fam = poincare_frame_family(rep)
field = wave_packet([0.1, 0.0, -0.2, 0.0], 1.0, 4)
report = verify_bundle_relation(field, frame_fam, scheme, points)
for label, sup in zip(report.labels, report.sup_residuals):
    marker = "exactly zero" if sup == 0.0 else f"{sup:.2e}"
    print(f"  {label:5s}: {marker}")
print("translations act trivially here, so those rows are identically zero")
