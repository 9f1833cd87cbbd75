"""Representation matrices acting on field components.

Supported variants: scalar (trivial), vector (the 4x4 Lorentz matrix
itself), spinor (built from a gamma-matrix basis), phase (1x1 internal
charge rotation) and custom (user rule).

The spinor matrix for parameters ``omega`` is

    S(omega) = exp(-(i/2) * sum_{a<b} omega[ab] * sigma[ab]),

with the generator tensor normalised as ``sigma[a, b] = (i/2) [gamma_a,
gamma_b]``.  With that factor of i the spatial sigma blocks are Hermitian,
S is unitary for spatial rotations, and a 2*pi rotation returns -1 (the
double cover).  The derivative of S at zero is -(i/2) sigma[a, b] per
plane.

The phase matrix keeps charge q and unit charge e separate:
``I(b) = exp(-(q / (i e)) b)``, a 1x1 matrix.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import ALGEBRAIC_TOL, ETA, PLANES, AffineMap, PoincareElement, lorentz_exp, lorentz_generators, lorentz_log_params

__all__ = [
    "GammaBasis",
    "sigma_tensor",
    "FieldRep",
    "rep_matrix",
    "homomorphism_check",
    "rep_matrix_for_element",
]

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class GammaBasis:
    """Four 4x4 matrices with {gamma_mu, gamma_nu} = 2 eta_mu_nu."""

    matrices: np.ndarray  # shape (4, 4, 4), complex
    #: sigma[mu, nu] = (i/2) [gamma_mu, gamma_nu], built once, read-only.
    sigma: np.ndarray = field(init=False, repr=False, compare=False)
    #: sigma of each plane in ``PLANES`` order, flattened: shape (6, 16).
    plane_sigma: np.ndarray = field(init=False, repr=False, compare=False)
    #: Chirality projectors (1 + gamma5)/2 and (1 - gamma5)/2, gamma5 =
    #: i gamma_0 gamma_1 gamma_2 gamma_3: shape (2, 4, 4).
    chirality: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = np.asarray(self.matrices, dtype=complex)
        if g.shape != (4, 4, 4):
            raise ValueError(f"gamma basis must have shape (4, 4, 4), got {g.shape}")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "matrices", g)
        if self.anticommutator_residual() > ALGEBRAIC_TOL:
            raise ValueError("gamma matrices do not satisfy the (-+++) Clifford relations")
        sig = np.zeros((4, 4, 4, 4), dtype=complex)
        for mu in range(4):
            for nu in range(mu + 1, 4):
                s = 0.5j * (g[mu] @ g[nu] - g[nu] @ g[mu])
                sig[mu, nu] = s
                sig[nu, mu] = -s
        gamma5 = 1j * g[0] @ g[1] @ g[2] @ g[3]
        derived = {
            "sigma": sig,
            "plane_sigma": np.stack([sig[a, b].ravel() for a, b in PLANES]),
            "chirality": np.stack([(np.eye(4) + gamma5) / 2, (np.eye(4) - gamma5) / 2]),
        }
        for name, value in derived.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @classmethod
    def standard(cls) -> "GammaBasis":
        """Dirac-style basis adapted to (-+++).

        Multiplying the familiar diag/off-diag Pauli-block basis by i flips
        the squares so the anticommutator lands on 2 eta with eta =
        diag(-1, 1, 1, 1).
        """
        g0 = 1j * np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
        spatial = []
        for s in _PAULI:
            m = np.zeros((4, 4), dtype=complex)
            m[:2, 2:] = s
            m[2:, :2] = -s
            spatial.append(1j * m)
        return cls(np.stack([g0, *spatial]))

    def anticommutator_residual(self) -> float:
        """Max deviation of {gamma_mu, gamma_nu} from 2 eta_mu_nu over all pairs."""
        g = self.matrices
        worst = 0.0
        for mu in range(4):
            for nu in range(mu, 4):
                anti = g[mu] @ g[nu] + g[nu] @ g[mu]
                worst = max(worst, float(np.abs(anti - 2 * ETA[mu, nu] * np.eye(4)).max()))
        return worst


def sigma_tensor(gamma: GammaBasis) -> np.ndarray:
    """Spinor generator tensor sigma[mu, nu] = (i/2) [gamma_mu, gamma_nu].

    Antisymmetric in (mu, nu) by construction; shape (4, 4, 4, 4).
    Returns the basis's cached, read-only array (built once when the
    basis is constructed); copy it before writing.
    """
    return gamma.sigma


@dataclass(frozen=True)
class FieldRep:
    """A representation: ``rule(params)`` is the (n, n) complex component matrix.

    Fields: ``kind`` (scalar, vector, spinor, phase or custom); ``n``
    components; ``nparams``, the length of the parameter vector ``rule``
    takes (6 planes for the spacetime kinds, 1 for phase); ``rule``, the
    identity at zero; ``generators``, its closed-form derivative at zero as
    a read-only (nparams, n, n) stack, None for custom; ``gamma``, the
    spinor's gamma basis, else None.  Each constructor builds these once.
    """

    kind: str
    n: int
    nparams: int
    rule: Callable[[np.ndarray], np.ndarray]
    generators: np.ndarray | None = None
    gamma: GammaBasis | None = None

    def __post_init__(self):
        if self.generators is not None:
            gens = np.array(self.generators, dtype=complex)
            gens.setflags(write=False)
            object.__setattr__(self, "generators", gens)

    @classmethod
    def scalar(cls) -> "FieldRep":
        return cls("scalar", 1, 6, lambda p: np.eye(1, dtype=complex), np.zeros((6, 1, 1)))

    @classmethod
    def vector(cls) -> "FieldRep":
        return cls("vector", 4, 6, lambda p: lorentz_exp(p).astype(complex), lorentz_generators())

    @classmethod
    def spinor(cls, gamma: GammaBasis | None = None) -> "FieldRep":
        gamma = gamma if gamma is not None else GammaBasis.standard()
        gens = (-0.5j * gamma.plane_sigma).reshape(6, 4, 4)
        return cls("spinor", 4, 6, lambda p: _spinor_exp(gamma, p), gens, gamma)

    @classmethod
    def phase(cls, q: float, e: float) -> "FieldRep":
        if e == 0:
            raise ValueError("unit charge must be nonzero")
        q, e = float(q), float(e)
        rule = lambda p: np.array([[np.exp(-(q / (1j * e)) * float(p[0]))]], dtype=complex)
        return cls("phase", 1, 1, rule, np.array([[[-q / (1j * e)]]]))

    @classmethod
    def custom(cls, rule: Callable[[np.ndarray], np.ndarray], n: int, nparams: int) -> "FieldRep":
        """Wrap a user rule params -> n x n matrix; must be identity at zero."""
        ident = np.asarray(rule(np.zeros(nparams)), dtype=complex)
        if ident.shape != (n, n) or np.abs(ident - np.eye(n)).max() > ALGEBRAIC_TOL:
            raise ValueError("custom rule does not evaluate to the identity at zero parameters")
        return cls("custom", n, nparams, rule)


def _cosh_sinhc(z: complex) -> tuple[complex, complex]:
    """cosh sqrt(z) and sinh sqrt(z) / sqrt(z): entire in z, so either root serves."""
    root = cmath.sqrt(z)
    return cmath.cosh(root), (cmath.sinh(root) / root if root else 1.0)


def _spinor_exp(gamma: GammaBasis, omega: np.ndarray) -> np.ndarray:
    """exp S for S = -(i/2) sum_i omega[i] sigma[plane i], in closed form.

    S commutes with the chirality projectors P+-, and on each chirality it
    is a traceless 2x2 block, so S^2 P+- = z+- P+-.  Hence
    exp S = sum_+- P+- (cosh sqrt(z+-) + sinh sqrt(z+-) / sqrt(z+-) S).
    """
    S = (-0.5j * (omega @ gamma.plane_sigma)).reshape(4, 4)
    P_plus, P_minus = gamma.chirality
    z_plus, z_minus = (np.einsum("kij,ji->k", gamma.chirality, S @ S) / 2).tolist()
    try:
        (cosh_p, sinhc_p), (cosh_m, sinhc_m) = _cosh_sinhc(z_plus), _cosh_sinhc(z_minus)
    except OverflowError:
        raise ValueError("spinor matrix must be finite") from None
    return (cosh_p * P_plus + cosh_m * P_minus) + (sinhc_p * P_plus + sinhc_m * P_minus) @ S


def rep_matrix(rep: FieldRep, params: np.ndarray | float) -> np.ndarray:
    """Evaluate the representation matrix at the given group parameters.

    The parameters must be finite and number ``rep.nparams`` (a phase
    takes a bare float too).  Always the identity at zero parameters.
    """
    p = np.atleast_1d(np.asarray(params, dtype=float))
    if not np.isfinite(p).all():
        raise ValueError("representation parameters must be finite")
    if p.shape != (rep.nparams,):
        raise ValueError(f"{rep.kind} representation expects {rep.nparams} parameters, got shape {p.shape}")
    return np.asarray(rep.rule(p), dtype=complex)


def homomorphism_check(
    rep: FieldRep, params1: np.ndarray | float, params2: np.ndarray | float
) -> tuple[float, int]:
    """Residual of rep(g1) rep(g2) against rep(g1 g2), up to sign.

    The product element's parameters are recovered through the principal
    matrix log of the combined Lorentz matrix (parameters simply add for
    the abelian phase variant).  Returns ``(residual, sign)`` where
    ``residual`` is the max-entry deviation minimised over sign and
    ``sign`` is the minimiser; only the spinor variant can report -1.
    The scalar variant is the identity everywhere, so its residual is 0.
    """
    if rep.kind == "scalar":
        return 0.0, 1
    lhs = rep_matrix(rep, params1) @ rep_matrix(rep, params2)
    if rep.kind in ("phase", "custom"):
        combined = np.atleast_1d(np.asarray(params1, dtype=float)) + np.atleast_1d(
            np.asarray(params2, dtype=float)
        )
    else:
        combined = lorentz_log_params(lorentz_exp(params1) @ lorentz_exp(params2))
    rhs = rep_matrix(rep, combined)
    res_plus = float(np.abs(lhs - rhs).max())
    if rep.kind != "spinor":
        return res_plus, 1
    res_minus = float(np.abs(lhs + rhs).max())
    return (res_plus, 1) if res_plus <= res_minus else (res_minus, -1)


def rep_matrix_for_element(rep: FieldRep, g: AffineMap) -> np.ndarray:
    """Representation matrix attached to an affine map, a Poincare element among them.

    Scalar and vector read it off directly (the vector takes the linear
    part).  Spinor needs a PoincareElement and its exponential coordinates,
    from the matrix log when the element was not built from parameters.
    Translations never enter.
    """
    if rep.kind == "scalar":
        return np.eye(1, dtype=complex)
    if rep.kind == "vector":
        return g.linear.astype(complex)
    if not isinstance(g, PoincareElement):
        raise ValueError(f"{rep.kind!r} representation is undefined for general affine point maps")
    if rep.kind == "spinor":
        return rep_matrix(rep, g.params if g.params is not None else lorentz_log_params(g.linear))
    raise ValueError(f"representation kind {rep.kind!r} is not a spacetime representation")
