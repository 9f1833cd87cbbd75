"""Walk through the spacetime symmetry machinery: metric, generators,
the exponential map, group composition, and coordinate-chart changes.

Run:  python demos/01_lorentz_poincare_group.py
"""

import numpy as np

from covariant_kit import (
    AffineMap,
    PoincareElement,
    chart_transition,
    lorentz_exp,
    lorentz_generators,
    minkowski_metric,
)

np.set_printoptions(precision=6, suppress=True)

print("=" * 70)
print("The Minkowski metric and the six plane generators")
print("=" * 70)
eta = minkowski_metric()
print("eta =\n", eta)
for J, name in zip(lorentz_generators(), ["(0,1)", "(0,2)", "(0,3)", "(1,2)", "(1,3)", "(2,3)"]):
    resid = np.abs(J.T @ eta + eta @ J).max()
    print(f"plane {name}: algebra-membership residual |J^T eta + eta J| = {resid:.1e}")

print()
print("=" * 70)
print("Exponentiating: a boost and a rotation")
print("=" * 70)
boost = lorentz_exp([0.5, 0, 0, 0, 0, 0])
print("boost with rapidity 0.5 in the (0,1) plane:\n", boost.matrix)
print(f"cosh(0.5) = {np.cosh(0.5):.7f}, sinh(0.5) = {np.sinh(0.5):.7f}")
print(f"metric preservation residual: {boost.metric_residual():.2e}")

rotation = lorentz_exp([0, 0, 0, np.pi / 2, 0, 0])
print("\nquarter turn in the (1,2) plane:\n", rotation.matrix)

print()
print("=" * 70)
print("Poincare group structure")
print("=" * 70)
g1 = PoincareElement.from_params([0.4, 0, 0, 0, 0, 0], [1.0, 0.0, 0.0, 0.0])
g2 = PoincareElement.from_params([0, 0, 0, 0.3, 0, 0], [0.0, 2.0, 0.0, 0.0])
g = g2.compose(g1)
print("composition (L2 L1, L2 a1 + a2), translation part:", g.translation)
roundtrip = g.compose(g.inverse())
print(f"g o g^-1 deviation from identity: {np.abs(roundtrip.matrix - np.eye(4)).max():.2e}")

x = np.array([1.0, 2.0, -0.5, 0.3])
print("g applied to x:", g.apply(x))

print()
print("=" * 70)
print("Chart transitions: the four induced maps")
print("=" * 70)
u = AffineMap.identity()  # the identity chart
u_prime = g.point_map()  # the moved chart
trans = chart_transition(u, u_prime)
r = np.array([0.7, -1.2, 0.4, 2.0])
print("coordinates of the same point in the new chart:", trans.coord_map(r))
print("pulled back again:", trans.coord_map.inverse()(trans.coord_map(r)))
print(f"transition Jacobian (always 1 for these transitions): {trans.coord_map.jacobian:.12f}")
both = trans.point_map.compose(trans.point_map.inverse())
print(f"point-map pair composes to identity within {np.abs(both.linear - np.eye(4)).max():.2e}")
