import dataclasses
import inspect
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import covariant_kit.generators as generators_module
import covariant_kit.heisenberg as heisenberg_module
import covariant_kit.representations as representations_module
from covariant_kit.fields import BLOCK_POINTS, FieldFunction, constant_field, wave_packet
from covariant_kit.generators import (
    FDScheme,
    ParamFamily,
    _param_diffs,
    flow_fields,
    internal_family,
    poincare_family,
    poincare_frame_family,
    rep_generators,
    volume_rates,
)
from covariant_kit.geometry import _checked_affine, lorentz_exp
from covariant_kit.heisenberg import (
    RelationReport,
    ToyOperatorModel,
    charge_unitary,
    lowering_operator,
    number_operator_model,
    observer_groupoid_check,
    sample_points,
    toy_commutator_check,
    verify_bundle_relation,
    verify_local_relation,
)
from covariant_kit.representations import FieldRep
from covariant_kit.schemas import SCENARIO_SCHEMA, TOLERANCES

from families import dilation_family, point_map_at

SCHEME = FDScheme(1e-4, order=2)
POINTS = sample_points(count=60, seed=2, box=1.5)


class TestRelationReport:
    def test_pass_flag_consistency(self):
        rep = RelationReport(("a", "b"), np.array([1e-9, 2e-3]), np.array([1e-9, 1e-3]), 1e-6)
        assert rep.passed.tolist() == [True, False]
        assert not rep.all_passed

    def test_tolerance_broadcast_and_positive(self):
        rep = RelationReport(("a", "b"), np.zeros(2), np.zeros(2), np.array([1e-6, 1e-12]))
        assert rep.all_passed
        with pytest.raises(ValueError):
            RelationReport(("a",), np.zeros(1), np.zeros(1), 0.0)

    def test_failure_fails_every_row_and_is_the_only_new_key(self):
        failed = RelationReport(("a", "b"), np.zeros(2), np.zeros(2), 1e-6, failure="compared nothing")
        assert failed.passed.tolist() == [False, False] and not failed.all_passed
        plain = RelationReport(("a", "b"), np.zeros(2), np.zeros(2), 1e-6)
        assert plain.all_passed and "failure" not in plain.to_dict()
        flags = {"passed": [False, False], "all_passed": False}
        assert failed.to_dict() == {**plain.to_dict(), **flags, "failure": "compared nothing"}

    def test_to_dict_serialises_numbers_as_text(self):
        rep = RelationReport(
            ("a",),
            np.array([1.5e-9]),
            np.array([1e-9]),
            1e-6,
            convergence_steps=(4e-3, 2e-3),
            convergence_sup=np.array([[4e-4], [1e-4]]),
        )
        d = rep.to_dict()
        assert d["sup_residuals"] == ["1.5e-09"]
        assert float(d["sup_residuals"][0]) == 1.5e-9  # parse-stable
        assert d["passed"] == [True]
        assert d["convergence"]["ratios"] == [["4"]]


@pytest.mark.parametrize(
    "check, parameter, name",
    [
        (verify_local_relation, "tolerance", "local"),
        (verify_bundle_relation, "tolerance", "bundle"),
        (toy_commutator_check, "commutator_tolerance", "commutator"),
        (toy_commutator_check, "conjugation_tolerance", "conjugation"),
    ],
)
def test_tolerance_defaults_are_the_schema_defaults(check, parameter, name):
    assert inspect.signature(check).parameters[parameter].default == TOLERANCES[name]


@pytest.mark.parametrize(
    "function, parameter, section, key",
    [
        (sample_points, "count", "grid", "sample_count"),
        (sample_points, "seed", "grid", "sample_seed"),
        (sample_points, "box", "grid", "sample_box"),
        (number_operator_model, "dim", "group", "dim"),
        (number_operator_model, "q", "group", "q"),
        (number_operator_model, "e", "group", "e"),
        (FDScheme, "step", "fd", "step"),
        (FDScheme, "order", "fd", "order"),
    ],
)
def test_signature_defaults_are_the_schema_defaults(function, parameter, section, key):
    default = SCENARIO_SCHEMA["properties"][section]["properties"][key]["default"]
    assert inspect.signature(function).parameters[parameter].default == default


class TestLocalRelation:
    def test_translation_reduces_to_gradient(self):
        field = wave_packet([0.0, 0.2, -0.1, 0.0], 1.0, 1)
        report = verify_local_relation(field, poincare_family(FieldRep.scalar()), SCHEME, POINTS)
        assert report.all_passed
        trans = [i for i, lab in enumerate(report.labels) if lab.startswith("T_")]
        assert report.sup_residuals[trans].max() <= 1e-6

    def test_rotation_and_boost_parameters_pass(self):
        field = wave_packet([0.1, 0.0, 0.3, -0.2], 1.2, 4)
        report = verify_local_relation(field, poincare_family(FieldRep.vector()), SCHEME, POINTS)
        assert report.all_passed

    def test_spinor_family_passes(self):
        field = wave_packet([0.0, 0.1, 0.0, 0.2], 1.1, [1.0, 0.5j, -0.25, 0.75])
        report = verify_local_relation(field, poincare_family(FieldRep.spinor()), SCHEME, POINTS)
        assert report.all_passed

    def test_phase_family_against_analytic_coefficient(self):
        q, e = 1.0, 1.0
        rep = FieldRep.phase(q, e)
        field = wave_packet([0.0, 0.0, 0.0, 0.0], 1.0, 1)
        report = verify_local_relation(field, internal_family(rep), SCHEME, POINTS, tolerance=1e-8)
        assert report.all_passed
        assert report.sup_residuals[0] <= 1e-8

    def test_phase_family_without_closed_form_rejected(self):
        # differencing I(b) for both routes would read exactly 0 at any tolerance
        family = dataclasses.replace(internal_family(FieldRep.phase(2.0, 0.7)), rep_derivative=None)
        field = wave_packet([0.0, 0.0, 0.0, 0.0], 1.0, 1)
        with pytest.raises(ValueError, match="closed-form rep_derivative"):
            verify_local_relation(field, family, SCHEME, POINTS, tolerance=1e-30)

    def test_dilation_value_at_center(self):
        # d/db [e^{4b} phi(e^b r)] at r = 0 is 4 phi(0)
        field = wave_packet([0.0, 0.0, 0.0, 0.0], 1.0, 1)
        fam = dilation_family()
        h = 1e-4
        phi0 = field(np.zeros(4))[0]
        lhs = (
            math.exp(4 * h) * field(math.exp(h) * np.zeros(4))[0]
            - math.exp(-4 * h) * field(math.exp(-h) * np.zeros(4))[0]
        ) / (2 * h)
        assert abs(lhs - 4.0 * phi0) <= 1e-6

    @pytest.mark.parametrize("order", [2, 4])
    def test_dilation_family_off_center(self, order):
        field = wave_packet([0.0, 0.0, 0.0, 0.0], 1.3, 1)
        report = verify_local_relation(field, dilation_family(), FDScheme(1e-4, order=order), POINTS)
        assert report.all_passed

    @pytest.mark.parametrize("flow", [2.0 * np.eye(4, 5), np.eye(4, 5) + np.eye(4, 5, 4), np.zeros((4, 5))])
    def test_flow_that_disagrees_with_the_point_map_fails(self, flow):
        # twice the flow, a stray offset, and no flow at all (which also drops the volume rate)
        field = wave_packet([0.0, 0.0, 0.0, 0.0], 1.3, 1)
        family = dataclasses.replace(dilation_family(), flow=flow[None])
        report = verify_local_relation(field, family, SCHEME, POINTS)
        assert not report.all_passed and report.sup_residuals[0] > 0.1

    def test_jacobian_that_reads_one_fails_the_dilation_relation(self, monkeypatch):
        # differencing the Jacobian for the volume rate would cancel this defect out
        def unit_jacobians(linear, offset, lead):
            checked_linear, checked_offset, _ = _checked_affine(linear, offset, lead)
            return checked_linear, checked_offset, np.ones(lead)

        field = wave_packet([0.0, 0.0, 0.0, 0.0], 1.3, 1)
        honest = verify_local_relation(field, dilation_family(), SCHEME, POINTS)
        monkeypatch.setattr(heisenberg_module, "_checked_affine", unit_jacobians)
        report = verify_local_relation(field, dilation_family(), SCHEME, POINTS)
        # the global side loses d/db e^{4b} = 4 phi, the local side keeps tr A = 4
        assert honest.all_passed
        assert not report.all_passed and 2.9 < report.sup_residuals[0] < 3.0

    @pytest.mark.parametrize("order", [2, 4])
    def test_negated_closed_form_generators_fail(self, order):
        vector = FieldRep.vector()
        negated = dataclasses.replace(vector, generators=-vector.generators)
        field = wave_packet([0.1, 0.0, 0.3, -0.2], 1.2, 4)
        report = verify_local_relation(field, poincare_family(negated), FDScheme(1e-4, order=order), POINTS)
        assert not report.passed[:6].any() and report.passed[6:].all()
        assert verify_local_relation(field, poincare_family(vector), FDScheme(1e-4, order=order), POINTS).all_passed

    def test_constant_field_rotation_has_no_transport_term(self):
        # the finite-difference route: rep_generators differences the matrices as the global side does
        field = constant_field([1.0, -0.5, 0.25, 2.0])
        family = dataclasses.replace(poincare_family(FieldRep.vector()), rep_derivative=None)
        report = verify_local_relation(field, family, SCHEME, POINTS)
        assert report.sup_residuals.max() <= 1e-10

    def test_constant_field_rotation_against_the_closed_form_at_order_four(self):
        field = constant_field([1.0, -0.5, 0.25, 2.0])
        report = verify_local_relation(field, poincare_family(FieldRep.vector()), FDScheme(1e-4, order=4), POINTS)
        assert report.sup_residuals.max() <= 1e-10

    def test_convergence_ratio_order_two(self):
        field = wave_packet([0.1, -0.2, 0.0, 0.3], 1.0, 1)
        report = verify_local_relation(
            field,
            poincare_family(FieldRep.scalar()),
            SCHEME,
            POINTS,
            convergence_steps=(4e-3, 2e-3, 1e-3),
        )
        ratios = report.convergence_ratios
        worst = report.convergence_sup.max(axis=1)
        assert 3.5 <= worst[0] / worst[1] <= 4.5
        assert 3.5 <= worst[1] / worst[2] <= 4.5
        assert ratios.shape == (2, 10)

    def test_field_and_gradient_evaluated_once_on_the_sample(self):
        packet = wave_packet([0.1, -0.2, 0.0, 0.3], 1.0, 4)
        calls = {"gradient": 0}

        def gradient(pts):
            calls["gradient"] += 1
            return packet.gradient(pts)

        counted = FieldFunction(packet.n, packet.evaluate, gradient)
        family = poincare_family(FieldRep.vector())
        steps = (4e-3, 2e-3, 1e-3)
        report = verify_local_relation(counted, family, SCHEME, POINTS, convergence_steps=steps)
        assert calls["gradient"] == 1
        plain = verify_local_relation(packet, family, SCHEME, POINTS, convergence_steps=steps)
        assert report.to_dict() == plain.to_dict()

    def test_family_that_moves_no_points_evaluates_once_without_gradient(self):
        packet = wave_packet([0.1, -0.2, 0.0, 0.3], 1.0, 1)
        calls = {"evaluate": 0, "gradient": 0}

        def counted(name, fn):
            def call(pts):
                calls[name] += 1
                return fn(pts)

            return call

        field = FieldFunction(packet.n, counted("evaluate", packet.evaluate), counted("gradient", packet.gradient))
        family = internal_family(FieldRep.phase(1.5, 0.5))
        steps = (4e-3, 2e-3, 1e-3)
        report = verify_local_relation(field, family, FDScheme(1e-4, order=4), POINTS, convergence_steps=steps)
        assert calls == {"evaluate": 1, "gradient": 0}
        plain = verify_local_relation(packet, family, FDScheme(1e-4, order=4), POINTS, convergence_steps=steps)
        assert report.to_dict() == plain.to_dict()

    @pytest.mark.parametrize("family", [poincare_family(FieldRep.vector()), poincare_frame_family(FieldRep.spinor())])
    @pytest.mark.parametrize("order, steps", [(2, ()), (4, (2e-3, 1e-3))])
    def test_one_maps_call_per_check(self, family, order, steps):
        calls = []

        def counted(rows):
            calls.append(rows.shape)
            return family.maps(rows)

        with_counts = dataclasses.replace(family, maps=counted)
        assert calls == [(1, family.s)]  # the family's own identity probe at b0
        field = wave_packet([0.1, -0.2, 0.0, 0.3], 1.0, 4)
        scheme = FDScheme(1e-4, order=order)
        report = verify_local_relation(field, with_counts, scheme, POINTS, convergence_steps=steps)
        assert calls == [(1, family.s), (order * family.s * (1 + len(steps)), family.s)]
        plain = verify_local_relation(field, family, scheme, POINTS, convergence_steps=steps)
        assert report.to_dict() == plain.to_dict()

    @pytest.mark.parametrize("variant", ["scalar", "vector", "spinor"])
    def test_one_exponential_per_check_after_the_identity_probe(self, monkeypatch, variant):
        # a vector check used to exponentiate its rows once for the point maps and again for the matrices
        calls = []

        def counted(rows):
            calls.append(np.shape(rows))
            return lorentz_exp(rows)

        for module in (generators_module, representations_module):
            monkeypatch.setattr(module, "lorentz_exp", counted)
        rep = getattr(FieldRep, variant)()
        field = wave_packet([0.1, -0.2, 0.0, 0.3], 1.0, rep.n)
        verify_local_relation(field, poincare_family(rep), SCHEME, POINTS, convergence_steps=(2e-3,))
        assert calls == [(1, 6), (40, 6)]
        calls.clear()
        verify_bundle_relation(field, poincare_frame_family(rep), SCHEME, POINTS)
        # only a vector's matrices are Lorentz matrices
        assert calls == ([(1, 6), (20, 6)] if variant == "vector" else [])

    def test_metadata_correspondence_labels(self):
        field = wave_packet([0, 0, 0, 0], 1.0, 1)
        report = verify_local_relation(field, poincare_family(FieldRep.scalar()), SCHEME, POINTS[:5])
        assert report.metadata["correspondence"]["T_0"] == "i*hbar*T_0 -> P_0"
        assert report.metadata["correspondence"]["S_01"] == "i*hbar*S_01 -> M_01"
        assert report.metadata["hbar_scale"] == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            verify_local_relation(
                wave_packet([0, 0, 0, 0], 1.0, 2), poincare_family(FieldRep.vector()), SCHEME, POINTS
            )

    @pytest.mark.parametrize("kind", ["vector", "phase", "frame"])
    def test_field_that_is_zero_on_the_whole_sample_fails(self, kind):
        family = {
            "vector": poincare_family(FieldRep.vector()),
            "phase": internal_family(FieldRep.phase(1.5, 0.5)),
            "frame": poincare_frame_family(FieldRep.vector()),
        }[kind]
        zero = constant_field([0.0] * family.n)
        report = verify_local_relation(zero, family, SCHEME, POINTS)
        assert np.array_equal(report.sup_residuals, np.zeros(family.s)) and not report.passed.any()
        assert report.failure == "the field is exactly 0 at every sample point, so the relation compares nothing"
        # one nonzero value anywhere on the sample is something to compare
        spike = lambda pts: np.where(pts[..., :1] == POINTS[7, 0], 1e-300, 0.0) * np.ones(family.n)
        one = FieldFunction(family.n, spike, zero.gradient)
        assert verify_local_relation(one, family, SCHEME, POINTS).failure is None

    @pytest.mark.parametrize(
        "linear, message",
        [(np.zeros((4, 4)), "singular linear part"), (np.full((4, 4), np.nan), "linear part must be finite")],
    )
    def test_point_map_stack_is_checked_as_affine_maps_are(self, linear, message):
        # every stencil row off b0 gets the bad linear part; b0 itself is the identity, so the family builds
        def maps(rows):
            at_b0 = (rows == 0).all(axis=1)[:, None, None]
            mats = np.ones((len(rows), 1, 1), dtype=complex)
            return mats, np.where(at_b0, np.eye(4), linear), np.zeros((len(rows), 4))

        family = dataclasses.replace(dilation_family(), maps=maps)
        with pytest.raises(ValueError, match=message):
            verify_local_relation(wave_packet([0.0, 0.0, 0.0, 0.0], 1.3, 1), family, SCHEME, POINTS)

    def test_nonfinite_field_rejected(self):
        bad = constant_field([np.inf])
        with pytest.raises(ValueError):
            verify_local_relation(bad, poincare_family(FieldRep.scalar()), SCHEME, POINTS)


def complex_einsum(mat, vals):
    """The complex product the relation check used before its real form: (n, n) by rows (p, n)."""
    return np.einsum("ij,pj->pi", mat, vals)


def per_stencil_point_residuals(field, family, scheme, pts, phi, grads, product=heisenberg_module._apply):
    """The relation's residuals by one field evaluation per stencil point.

    This is the reference route the blocked stencil must reproduce bit for
    bit: each stencil point's map, as an ``AffineMap``, moves the sample,
    the field is evaluated on the moved points, ``_param_diffs`` differences
    the rotated, scaled values, and the local side reads the declared flows
    and volume rates, with ``h . grad phi`` as an einsum.  Every matrix
    product goes through ``product``.
    """
    gen = rep_generators(family, scheme)
    flows, rates = flow_fields(family, pts), volume_rates(family)

    def global_map(b):
        h = point_map_at(family, b)
        vals = np.asarray(field.evaluate(h(pts)), dtype=complex)
        return h.jacobian * product(np.asarray(family.maps(b[None])[0][0], dtype=complex), vals)

    for w, lhs in enumerate(_param_diffs(global_map, family.b0, scheme)):
        yield lhs - (rates[w] * phi + product(gen[w], phi) + np.einsum("pk,pik->pi", flows[w], grads))


def per_stencil_point_passes(field, family, schemes, pts, phi, grads):
    """The reference route in the one-pass shape: (scheme index, parameter, residual), a run per scheme."""
    for k, scheme in enumerate(schemes):
        for w, residual in enumerate(per_stencil_point_residuals(field, family, scheme, pts, phi, grads)):
            yield k, w, residual


def counting_field(packet, sizes):
    """``packet`` with an ``evaluate`` that appends the number of points of each call to ``sizes``."""

    def evaluate(pts):
        sizes.append(int(np.prod(np.shape(pts)[:-1])))
        return packet.evaluate(pts)

    return FieldFunction(packet.n, evaluate, packet.gradient)


def counting(fn, calls):
    """``fn`` that appends its name to ``calls`` on every call."""

    def counted(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    return counted


class TestBlockedStencil:
    """The moving-family relation evaluates the field once per block of stencil points."""

    CASES = {
        "scalar": (lambda: poincare_family(FieldRep.scalar()), [[(1.0, (0, 0, 0, 0)), (0.5, (1, 0, 2, 0))]]),
        "vector": (lambda: poincare_family(FieldRep.vector()), [1.0, -0.5, [(0.3, (0, 1, 0, 1))], 2.0]),
        "spinor": (lambda: poincare_family(FieldRep.spinor()), [1.0, 0.5j, [((0.2, -0.4), (1, 0, 0, 0))], 0.75]),
        "dilation": (dilation_family, [[(1.0, (0, 0, 0, 0)), (-0.7, (0, 0, 1, 1))]]),
    }

    def case(self, kind, count):
        make_family, components = self.CASES[kind]
        field = wave_packet([0.1, -0.2, 0.0, 0.3], 1.1, components)
        return make_family(), field, sample_points(count=count, seed=3, box=1.5)

    # 8191 and 12289 points span several chunks of one parameter at order 4,
    # 12289 = 3 * 4096 + 1 with a one-point ragged tail.
    @pytest.mark.parametrize("count", [1, 50, 8191, 12289])
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_residual_bytes_equal_the_per_stencil_point_route(self, kind, order, count):
        family, field, pts = self.case(kind, count)
        phi = np.asarray(field.evaluate(pts), dtype=complex)
        grads = np.asarray(field.gradient(pts), dtype=complex)
        schemes = [FDScheme(1e-3, order=order), FDScheme(4e-3, order=order)]
        blocked = {}
        for k, w, residual in heisenberg_module._relation_residuals(field, family, schemes, pts, phi, grads):
            assert (k, w) not in blocked
            blocked[k, w] = residual
        assert sorted(blocked) == [(k, w) for k in range(len(schemes)) for w in range(family.s)]
        for k, scheme in enumerate(schemes):
            reference = list(per_stencil_point_residuals(field, family, scheme, pts, phi, grads))
            for w, want in enumerate(reference):
                assert blocked[k, w].shape == want.shape == (count, family.n)
                assert blocked[k, w].tobytes() == want.tobytes()

    # The real-form product rounds differently from a complex einsum, by a few
    # ulps of the values, which the difference rule divides by the step: at
    # step 1e-3, residuals up to 2e-6 moved by at most 3e-13.
    EINSUM_BOUND = 1e-12

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_residuals_within_a_bound_of_the_complex_einsum_route(self, kind, order):
        family, field, pts = self.case(kind, 200)
        phi = np.asarray(field.evaluate(pts), dtype=complex)
        grads = np.asarray(field.gradient(pts), dtype=complex)
        scheme = FDScheme(1e-3, order=order)
        real = per_stencil_point_residuals(field, family, scheme, pts, phi, grads)
        old = per_stencil_point_residuals(field, family, scheme, pts, phi, grads, product=complex_einsum)
        for got, want in zip(real, old):
            assert np.abs(got - want).max() <= self.EINSUM_BOUND

    @pytest.mark.parametrize("count", [1, 50])
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_report_equals_the_per_stencil_point_route(self, monkeypatch, kind, order, count):
        family, field, pts = self.case(kind, count)
        scheme, steps = FDScheme(1e-3, order=order), (4e-3, 2e-3)
        report = verify_local_relation(field, family, scheme, pts, convergence_steps=steps)
        monkeypatch.setattr(heisenberg_module, "_relation_residuals", per_stencil_point_passes)
        assert report.to_dict() == verify_local_relation(field, family, scheme, pts, convergence_steps=steps).to_dict()

    def test_one_evaluation_per_pass_at_fifty_points(self):
        sizes = []
        field = counting_field(wave_packet([0.1, -0.2, 0.0, 0.3], 1.0, 4), sizes)
        family = poincare_family(FieldRep.vector())
        pts = sample_points(count=50, seed=4)
        verify_local_relation(field, family, SCHEME, pts, convergence_steps=(4e-3, 2e-3, 1e-3))
        # the sample itself, then all 10 parameters' 20 stencil points in one call per pass
        assert sizes == [50] + [2 * 10 * 50] * 4

    @pytest.mark.parametrize("order", [2, 4])
    def test_no_call_exceeds_the_block_at_twenty_thousand_points(self, order):
        sizes = []
        field = counting_field(wave_packet([0.1, -0.2, 0.0, 0.3], 1.0, 1), sizes)
        family = poincare_family(FieldRep.scalar())
        verify_local_relation(field, family, FDScheme(1e-4, order=order), sample_points(count=20000, seed=4))
        assert sizes[0] == 20000
        assert max(sizes[1:]) <= BLOCK_POINTS
        # every stencil point still sees every sample point exactly once
        assert sum(sizes[1:]) == order * family.s * 20000

    @pytest.mark.parametrize("count", [50, 20000])
    def test_generators_and_rates_built_once_per_check(self, monkeypatch, count):
        # one pass serves the check's step and all three convergence steps
        calls = []
        monkeypatch.setattr(heisenberg_module, "rep_generators", counting(rep_generators, calls))
        monkeypatch.setattr(heisenberg_module, "volume_rates", counting(volume_rates, calls))
        field = wave_packet([0.1, -0.2, 0.0, 0.3], 1.0, 4)
        pts = sample_points(count=count, seed=4)
        family = poincare_family(FieldRep.vector())
        verify_local_relation(field, family, SCHEME, pts, convergence_steps=(4e-3, 2e-3, 1e-3))
        assert sorted(calls) == ["rep_generators", "volume_rates"]

    def test_underflowing_convergence_step_raises_before_any_stencil(self):
        sizes = []
        field = counting_field(wave_packet([0.1, -0.2, 0.0, 0.3], 1.0, 4), sizes)
        family = poincare_family(FieldRep.vector())
        with pytest.raises(ValueError, match="underflow"):
            verify_local_relation(field, family, SCHEME, POINTS, convergence_steps=(1e-3, 1e-13))
        assert sizes == [len(POINTS)]


class TestBundleRelation:
    def test_translation_residual_exactly_zero(self):
        family = poincare_frame_family(FieldRep.vector())
        field = wave_packet([0.1, 0.0, -0.2, 0.0], 1.0, 4)
        report = verify_bundle_relation(field, family, SCHEME, POINTS)
        trans = [i for i, lab in enumerate(report.labels) if lab.startswith("T_")]
        assert np.array_equal(report.sup_residuals[trans], np.zeros(4))

    def test_rotation_residual_against_coefficient_table(self):
        family = poincare_frame_family(FieldRep.vector())
        field = wave_packet([0.1, 0.0, -0.2, 0.0], 1.0, 4)
        report = verify_bundle_relation(field, family, SCHEME, POINTS, tolerance=1e-8)
        assert report.all_passed

    @pytest.mark.parametrize("kind", ["phase", "vector"])
    def test_phase_matches_local_relation(self, kind):
        # the bundle relation is the local relation of a family that moves no points
        if kind == "phase":
            family, field = internal_family(FieldRep.phase(1.5, 0.5)), wave_packet([0.0, 0.0, 0.0, 0.0], 1.0, 1)
        else:
            family, field = poincare_frame_family(FieldRep.vector()), wave_packet([0.1, 0.0, -0.2, 0.0], 1.0, 4)
        bundle = verify_bundle_relation(field, family, SCHEME, POINTS)
        local = verify_local_relation(field, family, SCHEME, POINTS)
        assert np.array_equal(bundle.sup_residuals, local.sup_residuals)
        assert np.array_equal(bundle.rms_residuals, local.rms_residuals)

    def test_family_without_closed_form_rejected(self):
        # differencing both sides would compare a difference with itself: 0 = 0
        rep = FieldRep.custom(lambda b: np.eye(1, dtype=complex) * np.exp(1j * b[0]), 1, 1)
        with pytest.raises(ValueError, match="closed-form rep_derivative"):
            verify_bundle_relation(wave_packet([0, 0, 0, 0], 1.0, 1), internal_family(rep), SCHEME, POINTS)
        stripped = dataclasses.replace(poincare_frame_family(FieldRep.vector()), rep_derivative=None)
        with pytest.raises(ValueError, match="closed-form rep_derivative"):
            verify_bundle_relation(wave_packet([0, 0, 0, 0], 1.0, 4), stripped, SCHEME, POINTS)

    def test_moving_family_rejected(self):
        with pytest.raises(ValueError):
            verify_bundle_relation(
                wave_packet([0, 0, 0, 0], 1.0, 1), poincare_family(FieldRep.scalar()), SCHEME, POINTS
            )

    def test_metadata_note_present(self):
        family = internal_family(FieldRep.phase(1.0, 1.0))
        field = wave_packet([0, 0, 0, 0], 1.0, 1)
        report = verify_bundle_relation(field, family, SCHEME, POINTS[:5])
        assert "frame-only" in report.metadata["note"]


class TestToyModel:
    def test_number_model_structure(self):
        model = number_operator_model(dim=5, q=2.0)
        assert np.array_equal(np.diag(model.diagonal), 2.0 * np.diag(np.arange(5.0)).astype(complex))

    def test_exact_commutator_entries(self):
        model = number_operator_model(dim=3, q=1.0)
        a = model.field_ops[0]
        Q = np.diag(model.diagonal)
        comm = Q @ a - a @ Q
        assert np.array_equal(comm, -a)
        assert comm[0, 1] == -1.0
        assert comm[1, 2] == -math.sqrt(2.0)

    def test_zero_charge_commutes(self):
        report = toy_commutator_check(number_operator_model(dim=8, q=0.0))
        assert report.sup_residuals[report.labels.index("commutator_0")] == 0.0

    def test_commutator_residual_exact(self):
        for q in (1.0, 2.5):
            report = toy_commutator_check(number_operator_model(dim=16, q=q))
            assert report.sup_residuals[report.labels.index("commutator_0")] <= 1e-14

    def test_global_conjugation_form(self):
        model = number_operator_model(dim=16, q=1.0, e=1.0)
        report = toy_commutator_check(model, b=0.3)
        assert report.sup_residuals[report.labels.index("conjugation_0")] <= 1e-10
        # oracle: Q is diagonal, so the conjugated lowering operator just
        # picks up one phase per entry
        a = model.field_ops[0]
        phases = np.exp(np.arange(16) * (0.3 / 1j))
        conj = np.diag(phases) @ a @ np.diag(1.0 / phases)
        expected = np.exp(-(1.0 / 1j) * 0.3) * a
        assert np.abs(conj - expected).max() <= 1e-12

    def test_report_passes_by_default(self):
        report = toy_commutator_check(number_operator_model())
        assert report.all_passed

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            number_operator_model(dim=1)

    def test_dimension_is_read_off_the_generator(self):
        model = number_operator_model(dim=5)
        assert model.dim == 5
        listed = ToyOperatorModel(1.0, 1.0, [0, 1, 2], (lowering_operator(3),))
        assert listed.dim == 3 and listed.diagonal.dtype == complex
        assert np.array_equal(listed.diagonal, np.arange(3.0))
        with pytest.raises(TypeError):
            ToyOperatorModel(1.0, 1.0, model.diagonal, model.field_ops, dim=5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.dim = 6

    def test_shape_mismatches_rejected(self):
        for diagonal in (np.zeros((3, 3)), np.zeros((3, 4)), np.float64(1.0)):
            with pytest.raises(ValueError, match="1-D"):
                ToyOperatorModel(1.0, 1.0, diagonal, ())
        for op in (lowering_operator(4), np.zeros((3, 4)), np.zeros(3)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                ToyOperatorModel(1.0, 1.0, np.arange(3.0), (op,))

    @pytest.mark.parametrize("dim", [0, 1, 2, 5])
    def test_lowering_operator_entries(self, dim):
        a = lowering_operator(dim)
        assert a.shape == (dim, dim) and a.dtype == complex
        expected = np.zeros((dim, dim))
        for k in range(dim - 1):
            expected[k, k + 1] = math.sqrt(k + 1)
        assert np.array_equal(a, expected)

    def test_conjugation_assumes_no_unitarity(self):
        # an imaginary offset of Q leaves [Q, a] = -a but gives U(b) entries of modulus e^b
        model = ToyOperatorModel(1.0, 1.0, 1j + np.arange(8.0), (lowering_operator(8),))
        assert np.abs(charge_unitary(model, 0.3)).min() > 1.3
        report = toy_commutator_check(model, b=0.3)
        assert report.all_passed
        assert report.sup_residuals[report.labels.index("conjugation_0")] <= 1e-14

    def test_charge_unitary_against_expm(self):
        from scipy.linalg import expm

        base = number_operator_model(dim=6, q=1.5, e=0.5)
        u = charge_unitary(base, 0.3)
        assert u.shape == (6,)
        assert np.abs(u - np.diagonal(expm(np.diag(base.diagonal) * (0.3 / 0.5j)))).max() <= 1e-14


class TestGroupoid:
    @staticmethod
    def _expm_diagonals(model):
        # scipy's dense exponential as an oracle independent of charge_unitary
        from scipy.linalg import expm

        return lambda t: np.diagonal(expm(np.diag(model.diagonal) * (t / 1j)))

    def test_identity_maps(self):
        ones = np.ones(3)
        rep = observer_groupoid_check(ones, ones, ones, self_maps=(ones,))
        assert rep.max_residual == 0.0

    def test_abelian_phase_triple(self):
        U = self._expm_diagonals(number_operator_model(dim=6, q=1.0, e=1.0))
        rep = observer_groupoid_check(U(0.4), U(0.25), U(0.65), self_maps=(U(0.0),))
        assert rep.max_residual <= 1e-10

    def test_injected_defect_detected(self):
        U = self._expm_diagonals(number_operator_model(dim=6, q=1.0, e=1.0))
        rep = observer_groupoid_check(U(0.4), U(0.25), (1.0 + 1e-3) * U(0.65))
        assert 5e-4 <= rep.composition_residual <= 2e-3

    def test_a_nan_in_either_law_is_the_max_residual(self):
        ones, holed = np.ones(3), np.array([1.0, np.nan, 1.0])
        assert np.isnan(observer_groupoid_check(ones, ones, ones, self_maps=(ones, holed)).max_residual)
        assert np.isnan(observer_groupoid_check(ones, ones, holed, self_maps=(ones,)).max_residual)

    def test_dense_map_rejected(self):
        eye = np.eye(3)
        with pytest.raises(ValueError, match="1-D diagonals of one length"):
            observer_groupoid_check(eye, eye, eye)
        with pytest.raises(ValueError, match="1-D diagonals of one length"):
            observer_groupoid_check(np.ones(3), np.ones(3), np.ones(3), self_maps=(eye,))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="1-D diagonals of one length"):
            observer_groupoid_check(np.ones(3), np.ones(4), np.ones(3))
        with pytest.raises(ValueError, match="1-D diagonals of one length"):
            observer_groupoid_check(np.ones(3), np.ones(3), np.ones(3), self_maps=(np.ones(2),))
