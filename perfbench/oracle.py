"""Closed-form pairing of Gaussian wave packets over R^4.

For packets with constant component amplitudes the trapezoid pairing
checked by ``covariant-kit`` has an exact counterpart:

    int exp(-(x-m1)^T A1 (x-m1) - (x-m2)^T A2 (x-m2)) dx
        = pi^2 / sqrt(det(A1 + A2)) * exp(-d^T A1 (A1 + A2)^-1 A2 d),

with d = m1 - m2.  A packet ``a exp(-|y - c|^2 / s^2)`` has A = 1/s^2 and
m = c.  Under the active law phi'(x) = D^T phi(L x + a) it becomes
A = L^T L / s^2, m = L^-1 (c - a); under the test-function law
f'(x) = D f(L^-1 (x - a)) it becomes A = L^-T L^-1 / s^2, m = L c + a.
Either way the amplitudes contribute alpha^T D beta.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

# Generator of plane (a, b): J[s, r] = delta(s, a) eta[b, r] - delta(s, b) eta[a, r].
_ETA = np.diag([-1.0, 1.0, 1.0, 1.0])
_PLANES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_GENERATORS = np.zeros((6, 4, 4))
for _w, (_a, _b) in enumerate(_PLANES):
    _GENERATORS[_w, _a, :] += _ETA[_b]
    _GENERATORS[_w, _b, :] -= _ETA[_a]


def lorentz_matrix(omega) -> np.ndarray:
    return expm(np.einsum("w,wij->ij", np.asarray(omega, dtype=float), _GENERATORS))


def gaussian_overlap(A1, m1, A2, m2) -> float:
    """Integral over R^4 of the product of two Gaussians exp(-(x-m)^T A (x-m))."""
    S = A1 + A2
    d = np.asarray(m1, dtype=float) - np.asarray(m2, dtype=float)
    expo = d @ A1 @ np.linalg.solve(S, A2 @ d)
    return float(np.pi**2 / np.sqrt(np.linalg.det(S)) * np.exp(-expo))


def _amplitudes(packet: dict) -> np.ndarray:
    comps = packet.get("components", 1)
    if isinstance(comps, int):
        return np.ones(comps)
    if any(not isinstance(c, (int, float)) for c in comps):
        raise ValueError("the closed form covers constant component amplitudes only")
    return np.asarray(comps, dtype=float)


def pairing_values(scenario: dict, rep_matrix) -> dict:
    """Exact values of a pairing scenario's finest level and both invariance sides.

    ``rep_matrix(variant, omega)`` returns the representation matrix D; it
    is an input of the law, not of the quadrature this oracle checks.
    """
    phi, test = scenario["field"]["phi"], scenario["field"]["test"]
    alpha, beta = _amplitudes(phi), _amplitudes(test)
    c1, s1 = np.asarray(phi.get("center", [0.0] * 4), float), float(phi.get("width", 1.0))
    c2, s2 = np.asarray(test.get("center", [0.0] * 4), float), float(test.get("width", 1.0))
    eye = np.eye(4)
    out = {"finest": complex(alpha @ beta) * gaussian_overlap(eye / s1**2, c1, eye / s2**2, c2)}
    group = scenario.get("group", {})
    if "omega" in group or "a" in group:
        omega = np.asarray(group.get("omega", [0.0] * 6), float)
        a = np.asarray(group.get("a", [0.0] * 4), float)
        L = lorentz_matrix(omega)
        Linv = np.linalg.inv(L)
        amp = complex(alpha @ np.asarray(rep_matrix(scenario["rep"]["variant"], omega)) @ beta)
        out["active_side"] = amp * gaussian_overlap(L.T @ L / s1**2, Linv @ (c1 - a), eye / s2**2, c2)
        out["test_side"] = amp * gaussian_overlap(eye / s1**2, c1, Linv.T @ Linv / s2**2, L @ c2 + a)
    return out


def report_values(report: dict) -> dict:
    """The same quantities as read back from a pairing report."""
    as_complex = lambda pair: complex(float(pair[0]), float(pair[1]))
    out = {"finest": as_complex(report["tables"]["pairing_convergence"]["values"][-1])}
    for res in report["results"]:
        if res["name"] == "pairing_invariance":
            out["active_side"] = as_complex(res["detail"]["active_side"])
            out["test_side"] = as_complex(res["detail"]["test_side"])
    return out


def relative_errors(report: dict, scenario: dict, rep_matrix) -> dict:
    exact = pairing_values(scenario, rep_matrix)
    got = report_values(report)
    if set(exact) != set(got):
        raise ValueError(f"report has values {sorted(got)}, oracle has {sorted(exact)}")
    return {k: abs(got[k] - exact[k]) / abs(exact[k]) for k in exact}
