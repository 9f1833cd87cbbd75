import dataclasses
import inspect
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from covariant_kit.fields import FieldFunction, constant_field, wave_packet
from covariant_kit.generators import (
    FDScheme,
    ParamFamily,
    internal_family,
    poincare_family,
    poincare_frame_family,
)
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
from covariant_kit.schemas import TOLERANCES

from families import dilation_family

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

    def test_phase_family_self_consistent_extraction(self):
        # with extracted coefficients both routes are the same difference
        family = dataclasses.replace(internal_family(FieldRep.phase(2.0, 0.7)), rep_derivative=None)
        field = wave_packet([0.0, 0.0, 0.0, 0.0], 1.0, 1)
        report = verify_local_relation(field, family, SCHEME, POINTS)
        assert report.sup_residuals.max() <= 1e-15

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

    def test_dilation_family_off_center(self):
        field = wave_packet([0.0, 0.0, 0.0, 0.0], 1.3, 1)
        report = verify_local_relation(field, dilation_family(), SCHEME, POINTS)
        assert report.all_passed

    def test_constant_field_rotation_has_no_transport_term(self):
        field = constant_field([1.0, -0.5, 0.25, 2.0])
        report = verify_local_relation(field, poincare_family(FieldRep.vector()), SCHEME, POINTS)
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

    @pytest.mark.parametrize("order, steps", [(2, ()), (4, (2e-3, 1e-3))])
    def test_one_point_map_per_stencil_point(self, order, steps):
        family = poincare_family(FieldRep.vector())
        calls = []

        def point_map(b):
            calls.append(b)
            return family.point_map(b)

        counted = dataclasses.replace(family, point_map=point_map)
        calls.clear()
        field = wave_packet([0.1, -0.2, 0.0, 0.3], 1.0, 4)
        scheme = FDScheme(1e-4, order=order)
        report = verify_local_relation(field, counted, scheme, POINTS, convergence_steps=steps)
        assert len(calls) == order * family.s * (1 + len(steps))
        plain = verify_local_relation(field, family, scheme, POINTS, convergence_steps=steps)
        assert report.to_dict() == plain.to_dict()

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

    def test_nonfinite_field_rejected(self):
        bad = constant_field([np.inf])
        with pytest.raises(ValueError):
            verify_local_relation(bad, poincare_family(FieldRep.scalar()), SCHEME, POINTS)


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

    def test_charge_unitary_against_expm(self):
        from scipy.linalg import expm

        base = number_operator_model(dim=6, q=1.5, e=0.5)
        U = charge_unitary(base, 0.3)
        assert np.array_equal(U, np.diag(np.diagonal(U)))
        assert np.abs(U - expm(np.diag(base.diagonal) * (0.3 / 0.5j))).max() <= 1e-14


class TestGroupoid:
    def test_identity_maps(self):
        eye = np.eye(3)
        rep = observer_groupoid_check(eye, eye, eye, self_maps=(eye,))
        assert rep.max_residual == 0.0

    def test_abelian_phase_triple(self):
        model = number_operator_model(dim=6, q=1.0, e=1.0)
        from scipy.linalg import expm

        U = lambda t: expm(np.diag(model.diagonal) * (t / 1j))
        rep = observer_groupoid_check(U(0.4), U(0.25), U(0.65), self_maps=(U(0.0),))
        assert rep.max_residual <= 1e-10

    def test_injected_defect_detected(self):
        model = number_operator_model(dim=6, q=1.0, e=1.0)
        from scipy.linalg import expm

        U = lambda t: expm(np.diag(model.diagonal) * (t / 1j))
        rep = observer_groupoid_check(U(0.4), U(0.25), (1.0 + 1e-3) * U(0.65))
        assert 5e-4 <= rep.composition_residual <= 2e-3
