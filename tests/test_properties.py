"""Property tests of the group law and the representation records over random parameters.

Strategies are written by hand; ``derandomize=True`` makes every run draw
the same examples, so the suite stays deterministic.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covariant_kit.fields import active_transform, wave_packet
from covariant_kit.geometry import ALGEBRAIC_TOL, PoincareElement, lorentz_exp, lorentz_log_params, lorentz_residuals
from covariant_kit.representations import FieldRep, homomorphism_check, rep_matrix

REPS = {
    "scalar": FieldRep.scalar(),
    "vector": FieldRep.vector(),
    "spinor": FieldRep.spinor(),
    "phase": FieldRep.phase(1.5, 0.7),
}
PROPERTY = settings(derandomize=True, deadline=None, max_examples=30)
POINTS = np.random.default_rng(31).uniform(-2.0, 2.0, (16, 4))


def _vectors(size, bound):
    return st.lists(st.floats(-bound, bound), min_size=size, max_size=size).map(np.array)


@pytest.mark.parametrize("variant", REPS)
def test_generators_are_the_derivative_at_zero(variant):
    rep = REPS[variant]
    assert rep.generators.shape == (rep.nparams, rep.n, rep.n)
    assert not rep.generators.flags.writeable
    h = 1e-3
    for w in range(rep.nparams):
        f = lambda t: rep_matrix(rep, t * np.eye(rep.nparams)[w])
        fd = (-f(2 * h) + 8 * f(h) - 8 * f(-h) + f(-2 * h)) / (12 * h)
        assert np.abs(fd - rep.generators[w]).max() <= 1e-8


@pytest.mark.parametrize("variant", REPS)
@PROPERTY
@given(data=st.data())
def test_homomorphism_up_to_the_spinor_sign(variant, data):
    rep = REPS[variant]
    p1, p2 = (data.draw(_vectors(rep.nparams, 0.4)) for _ in range(2))
    res, sign = homomorphism_check(rep, p1, p2)
    assert res <= 1e-9
    assert sign == 1 or variant == "spinor"


@pytest.mark.parametrize("variant", ["scalar", "vector", "spinor"])
@PROPERTY
@given(omega=_vectors(6, 0.8), a=_vectors(4, 1.0), center=_vectors(4, 0.5), amps=_vectors(8, 2.0))
def test_active_round_trip(variant, omega, a, center, amps):
    rep = REPS[variant]
    phi = wave_packet(center, 1.3, list(amps[: rep.n] + 1j * amps[4 : 4 + rep.n]))
    g = PoincareElement.from_params(omega, a)
    back = active_transform(active_transform(phi, rep, g), rep, g.inverse())
    assert np.abs(back.evaluate(POINTS) - phi.evaluate(POINTS)).max() <= 1e-10


@PROPERTY
@given(b=_vectors(1, 3.0), amp=_vectors(2, 2.0))
def test_phase_round_trip(b, amp):
    # active_transform is a spacetime law; a phase acts as I(b) on the components.
    rep = REPS["phase"]
    phi = wave_packet(np.zeros(4), 1.3, [amp[0] + 1j * amp[1]])
    with pytest.raises(ValueError):
        active_transform(phi, rep, PoincareElement.identity())
    vals = phi.evaluate(POINTS)
    back = vals @ (rep_matrix(rep, -b) @ rep_matrix(rep, b)).T
    assert np.abs(back - vals).max() <= 1e-10


def _elements(bound=0.6):
    return st.builds(PoincareElement.from_params, _vectors(6, bound), _vectors(4, 2.0))


def _group_tol(*matrices):
    # Roundoff in a product of Lorentz matrices grows with their entries squared.
    return 1e-12 * max(1.0, *(np.abs(m).max() for m in matrices)) ** 2


@PROPERTY
@given(w=_vectors(6, 0.8), s=st.floats(-1.0, 1.0), t=st.floats(-1.0, 1.0))
def test_one_parameter_subgroup(w, s, t):
    prod = lorentz_exp(s * w).matrix @ lorentz_exp(t * w).matrix
    whole = lorentz_exp((s + t) * w).matrix
    assert np.abs(prod - whole).max() <= _group_tol(prod, whole)


@PROPERTY
@given(g1=_elements(), g2=_elements(), g3=_elements())
def test_compose_is_associative(g1, g2, g3):
    left = g1.compose(g2).compose(g3)
    right = g1.compose(g2.compose(g3))
    tol = _group_tol(left.matrix, right.matrix)
    assert np.abs(left.matrix - right.matrix).max() <= tol
    scale = max(1.0, *(np.abs(g.translation).max() for g in (g1, g2, g3)))
    assert np.abs(left.translation - right.translation).max() <= tol * scale


@PROPERTY
@given(g=_elements(0.8))
def test_compose_with_inverse_is_identity(g):
    for unit in (g.compose(g.inverse()), g.inverse().compose(g)):
        tol = _group_tol(g.matrix)
        assert np.abs(unit.matrix - np.eye(4)).max() <= tol
        assert np.abs(unit.translation).max() <= tol * max(1.0, np.abs(g.translation).max())


def _boosted_elements(max_rapidity=8.0):
    """Elements whose boost has rapidity up to ``max_rapidity`` along any axis, with small rotations."""

    def build(axis, rapidity, rotation, a):
        boost = rapidity * axis / np.linalg.norm(axis)
        return PoincareElement.from_params(np.concatenate([boost, rotation]), a)

    axes = _vectors(3, 1.0).filter(lambda v: np.linalg.norm(v) > 0.1)
    return st.builds(build, axes, st.floats(0.0, max_rapidity), _vectors(3, 0.6), _vectors(4, 2.0))


@PROPERTY
@given(g1=_boosted_elements(), g2=_boosted_elements(), g3=_boosted_elements())
@example(
    g1=PoincareElement.from_params([8.0, 0, 0, 0, 0, 0]),
    g2=PoincareElement.from_params([-8.0, 0, 0, 0.3, 0, 0]),
    g3=PoincareElement.from_params([0, 8.0, 0, 0, 0, 0]),
)
def test_large_boost_products_and_inverses_construct(g1, g2, g3):
    # A product's roundoff grows with its factors' entries, not its own: g g^-1 is near 1
    # while its error is about eps cosh(8)^2.  So each product, square and inverse
    # constructs, and is Lorentz within ALGEBRAIC_TOL times the factors' scales squared.
    def bound(*factors):
        return ALGEBRAIC_TOL * np.prod([max(1.0, np.abs(g.matrix).max()) for g in factors]) ** 2

    for g, factors in (
        (g1.compose(g2).compose(g3), (g1, g2, g3)),
        (g1.compose(g2.compose(g3)), (g1, g2, g3)),
        (g1.compose(g1), (g1, g1)),
        (g1.compose(g1.inverse()), (g1, g1)),
        (g1.inverse().compose(g1), (g1, g1)),
        (g3.inverse().compose(g2.inverse()).compose(g1.inverse()), (g1, g2, g3)),
    ):
        assert max(lorentz_residuals(g.matrix)) <= bound(*factors)
        assert not g.matrix.flags.writeable


@PROPERTY
@given(w=_vectors(6, 0.8))
def test_log_inverts_exp_away_from_the_branch_point(w):
    # The rotation angle of exp(w) is at most |(w_12, w_13, w_23)| <= 0.8 sqrt(3) < pi.
    assert np.abs(lorentz_log_params(lorentz_exp(w).matrix) - w).max() <= 1e-10
