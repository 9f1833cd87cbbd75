"""Independent numerical oracles used to freeze expected test values.

Everything here is deliberately primitive (plain power series, closed
forms, 1-D quadrature) and shares no code path with the package under
test.
"""

from fractions import Fraction
from math import factorial

import numpy as np


def expm_series(X, terms=60):
    """Matrix exponential by straight power series (small matrices only)."""
    X = np.asarray(X)
    acc = np.eye(X.shape[0], dtype=X.dtype if np.iscomplexobj(X) else float)
    term = acc.copy()
    for k in range(1, terms):
        term = term @ X / k
        acc = acc + term
    return acc


def boost_block(rapidity):
    """Closed-form 2x2 boost block [[cosh, sinh], [sinh, cosh]]."""
    c, s = np.cosh(rapidity), np.sinh(rapidity)
    return np.array([[c, s], [s, c]])


def rotation_block(angle):
    """Closed-form 2x2 rotation block [[cos, sin], [-sin, cos]]."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, s], [-s, c]])


def trapezoid_1d(f, lo, hi, count):
    """Plain 1-D trapezoid rule."""
    x = np.linspace(lo, hi, count)
    y = f(x)
    h = (hi - lo) / (count - 1)
    return h * (y.sum() - 0.5 * (y[0] + y[-1]))


def gaussian_overlap(A1, m1, A2, m2):
    """Integral over R^4 of exp(-(x-m1)^T A1 (x-m1)) exp(-(x-m2)^T A2 (x-m2)).

    Closed form pi^2 / sqrt(det(A1 + A2)) exp(-d^T A1 (A1 + A2)^-1 A2 d)
    with d = m1 - m2, for symmetric positive-definite A1, A2.
    """
    A1, A2 = np.asarray(A1, dtype=float), np.asarray(A2, dtype=float)
    d = np.asarray(m1, dtype=float) - np.asarray(m2, dtype=float)
    A = A1 + A2
    return np.pi**2 / np.sqrt(np.linalg.det(A)) * np.exp(-d @ A1 @ np.linalg.solve(A, A2 @ d))


def exp_coefficients_series(p, q2, terms=80):
    """(c0, c1, c2, c3) with exp X = c0 + c1 X + c2 X^2 + c3 X^3 for X in so(1,3).

    X has eigenvalues +-a, +-ib with p = a^2 - b^2 and q2 = a^2 b^2.  The
    coefficients are power series in p and q2 (through the complete
    symmetric polynomials h_n of a^2 and -b^2), summed here in exact
    rational arithmetic and rounded once.
    """
    p, q2 = Fraction(p), Fraction(q2)
    h = [Fraction(1), p]
    while len(h) < terms:
        h.append(p * h[-1] + q2 * h[-2])
    even = [Fraction(1, factorial(2 * n)) for n in range(terms)]
    odd = [Fraction(1, factorial(2 * n + 1)) for n in range(terms)]
    return tuple(
        float(c)
        for c in (
            1 + q2 * sum(h[n - 2] * even[n] for n in range(2, terms)),
            1 + q2 * sum(h[n - 2] * odd[n] for n in range(2, terms)),
            sum(h[n - 1] * even[n] for n in range(1, terms)),
            sum(h[n - 1] * odd[n] for n in range(1, terms)),
        )
    )


def hermite_pairing(phi, f, nodes=8):
    """Integral over R^4 of sum_i phi_i(x) f_i(x) for two transformed monomial packets.

    Each side is ``(matrix, linear, offset, center, width, comps)``, the
    field x -> matrix @ P(u) exp(-|u|^2 / width^2) with
    u = linear @ x + offset - center and P_i(u) = sum of coeff * prod u_k^p_k
    over the terms ``(coeff, (p0, p1, p2, p3))`` of ``comps[i]``.  Side j's
    Gaussian is exp(-(x - m_j)^T A_j (x - m_j)) with A_j = linear^T linear /
    width^2 and m_j where u = 0; their product is exp(-(x - mu)^T A (x - mu) - q0)
    with A = A_1 + A_2.  In the eigenbasis of A a tensor Gauss-Hermite rule
    with ``nodes`` points per axis integrates the remaining polynomial
    exactly up to degree 2 * nodes - 1.
    """
    forms = []
    for matrix, linear, offset, center, width, _ in (phi, f):
        linear = np.asarray(linear, dtype=float)
        m = np.linalg.solve(linear, np.asarray(center, dtype=float) - offset)
        forms.append((linear.T @ linear / width**2, m))
    A = forms[0][0] + forms[1][0]
    mu = np.linalg.solve(A, sum(Aj @ m for Aj, m in forms))
    q0 = sum((mu - m) @ Aj @ (mu - m) for Aj, m in forms)
    lam, V = np.linalg.eigh(A)
    z, w = np.polynomial.hermite.hermgauss(nodes)
    Z = np.stack(np.meshgrid(z, z, z, z, indexing="ij"), axis=-1).reshape(-1, 4)
    W = np.einsum("a,b,c,d->abcd", w, w, w, w).reshape(-1)
    X = mu + np.einsum("kj,nj->nk", V, Z / np.sqrt(lam))
    sides = []
    for matrix, linear, offset, center, _, comps in (phi, f):
        u = np.einsum("kj,nj->nk", np.asarray(linear, dtype=float), X) + offset - center
        P = np.zeros((len(X), len(comps)), dtype=complex)
        for i, terms in enumerate(comps):
            for coeff, powers in terms:
                P[:, i] += coeff * np.prod(u ** np.array(powers), axis=-1)
        sides.append(np.einsum("ij,nj->ni", np.asarray(matrix, dtype=complex), P))
    return complex(np.exp(-q0) / np.sqrt(np.prod(lam)) * (W @ np.sum(sides[0] * sides[1], axis=-1)))
