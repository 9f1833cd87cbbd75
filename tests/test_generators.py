import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from covariant_kit.fields import wave_packet
from covariant_kit.generators import (
    FDScheme,
    ParamFamily,
    _central_diff,
    _param_diffs,
    analytic_rep_derivatives,
    det_trace_residual,
    extract_all,
    flow_fields,
    internal_family,
    poincare_family,
    poincare_frame_family,
    rep_generators,
    volume_rates,
)
from covariant_kit.geometry import ETA, PLANES, AffineMap, lorentz_exp, plane_generator
from covariant_kit.heisenberg import verify_local_relation
from covariant_kit.representations import FieldRep, rep_matrix, sigma_tensor

from families import constant, dilation_family, point_map_at, still

POINTS = np.random.default_rng(14).uniform(-2.0, 2.0, (25, 4))
SCHEME = FDScheme(1e-4, order=2)
STILL = np.zeros((1, 4, 5))  # the flow of a point map that is the identity for every b


def differenced_flows(fam, pts, scheme=SCHEME):
    """Central differences of the family's point maps along each parameter: (s, ..., 4)."""
    return np.stack(list(_param_diffs(lambda b: point_map_at(fam, b)(pts), fam.b0, scheme)))


def differenced_rates(fam, scheme=SCHEME):
    """Central differences of the family's point-map Jacobians along each parameter: (s,)."""
    return np.array(list(_param_diffs(lambda b: point_map_at(fam, b).jacobian, fam.b0, scheme)))


class TestSchemeValidation:
    def test_bad_order(self):
        with pytest.raises(ValueError):
            FDScheme(1e-4, order=3)

    def test_nonpositive_step(self):
        with pytest.raises(ValueError):
            FDScheme(0.0)
        with pytest.raises(ValueError):
            FDScheme(-1e-3)

    def test_step_underflow_at_use(self):
        fam = poincare_family(FieldRep.scalar())
        with pytest.raises(ValueError):
            rep_generators(fam, FDScheme(1e-13))
        with pytest.raises(ValueError, match=r"underflow \(< 1e-12\)"):
            FDScheme(1e-13, order=4)

    @pytest.mark.parametrize("order", [4.0, np.float64(2.0), np.int64(4)])
    def test_integral_order_is_stored_as_int(self, order):
        scheme = FDScheme(1e-3, order)
        assert type(scheme.order) is int and scheme.order == order
        fam = poincare_family(FieldRep.scalar())
        field = wave_packet([0.1, 0.0, -0.2, 0.3], 1.2, 1)
        report = verify_local_relation(field, fam, scheme, POINTS[:5])
        reference = verify_local_relation(field, fam, FDScheme(1e-3, int(order)), POINTS[:5])
        assert report.sup_residuals.tobytes() == reference.sup_residuals.tobytes()

    def test_step_is_one_float(self):
        scheme = FDScheme(np.float32(0.5), order=4)
        assert type(scheme.step) is float and scheme.step == 0.5
        with pytest.raises(TypeError):
            FDScheme([1e-4] * 10)


class TestFamilyValidation:
    def test_rep_identity_enforced(self):
        with pytest.raises(ValueError):
            ParamFamily(
                point_map=still,
                rep_map=constant(2.0 * np.eye(1)),
                labels=("X",),
                flow=STILL,
            )

    def test_point_identity_enforced(self):
        # an offset of 1, and a linear part off by 1e-11
        for h in (AffineMap(np.eye(4), np.ones(4)), AffineMap(np.eye(4) + np.diag([1e-11, 0, 0, 0]))):
            with pytest.raises(ValueError, match="not the identity map"):
                ParamFamily(
                    point_map=lambda rows: (h.linear[None], h.offset[None]),
                    rep_map=constant(np.eye(1)),
                    labels=("X",),
                    flow=STILL,
                )

    def test_s_and_n_are_derived(self):
        fam = ParamFamily(
            point_map=still,
            rep_map=constant(np.eye(3)),
            labels=("X", "Y"),
            flow=np.zeros((2, 4, 5)),
        )
        assert (fam.s, fam.n) == (2, 3)
        assert np.array_equal(fam.b0, np.zeros(2)) and not fam.b0.flags.writeable
        assert dataclasses.replace(fam, rep_map=constant(np.eye(2))).n == 2
        fields = {f: getattr(fam, f) for f in ("point_map", "rep_map", "labels", "flow")}
        for derived in ({"s": 2}, {"b0": np.zeros(2)}):
            with pytest.raises(TypeError):
                ParamFamily(**derived, **fields)

    def test_non_square_rep_map_rejected(self):
        with pytest.raises(ValueError, match="not the identity"):
            ParamFamily(
                point_map=still,
                rep_map=lambda rows: np.ones((len(rows), 3), dtype=complex),
                labels=("X",),
                flow=STILL,
            )

    @pytest.mark.parametrize("shape", [(11, 4, 4), (3, 4, 4), (10, 4, 3), (10, 16)])
    def test_rep_derivative_of_the_wrong_shape_rejected(self, shape):
        # an (11, 4, 4) stack used to pass with its extra row dropped, and a
        # (3, 4, 4) one ended in a reshape error inside the relation check
        with pytest.raises(ValueError, match=r"rep_derivative must be a finite \(10, 4, 4\) complex128 stack"):
            dataclasses.replace(poincare_frame_family(FieldRep.vector()), rep_derivative=np.zeros(shape))

    @pytest.mark.parametrize("shape", [(10, 4, 4), (9, 4, 5), (10, 5, 4), (10, 20)])
    def test_flow_of_the_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"flow must be a finite \(10, 4, 5\) float64 stack"):
            dataclasses.replace(poincare_family(FieldRep.vector()), flow=np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_declared_data_rejected(self, bad):
        table = analytic_rep_derivatives(FieldRep.spinor())
        table[2, 1, 3] = bad
        with pytest.raises(ValueError, match="rep_derivative must be a finite"):
            dataclasses.replace(poincare_frame_family(FieldRep.spinor()), rep_derivative=table)
        flow = np.array(poincare_family(FieldRep.scalar()).flow)
        flow[7, 0, 4] = bad
        with pytest.raises(ValueError, match="flow must be a finite"):
            dataclasses.replace(poincare_family(FieldRep.scalar()), flow=flow)

    def test_complex_flow_rejected(self):
        # casting would drop the imaginary part with only a warning
        flow = poincare_family(FieldRep.scalar()).flow + 0.5j
        with pytest.raises(ValueError, match=r"flow must be a finite \(10, 4, 5\) float64 stack, got complex128"):
            dataclasses.replace(poincare_family(FieldRep.scalar()), flow=flow)
        integral = dataclasses.replace(dilation_family(), flow=np.eye(4, 5, dtype=int)[None])
        assert integral.flow.dtype == float and np.array_equal(integral.flow, dilation_family().flow)

    def test_flow_exactly_when_points_move(self):
        with pytest.raises(ValueError, match="flow exactly when it has a point_map"):
            dataclasses.replace(poincare_frame_family(FieldRep.vector()), flow=poincare_family(FieldRep.vector()).flow)
        with pytest.raises(ValueError, match="flow exactly when it has a point_map"):
            dataclasses.replace(poincare_family(FieldRep.vector()), flow=None)
        with pytest.raises(ValueError, match="flow exactly when it has a point_map"):
            ParamFamily(point_map=still, rep_map=constant(np.eye(1)), labels=("X",))
        assert internal_family(FieldRep.phase(1.0, 1.0)).flow is None

    def test_declared_data_are_read_only_copies(self):
        table, flow = analytic_rep_derivatives(FieldRep.vector()), np.array(poincare_family(FieldRep.vector()).flow)
        fam = dataclasses.replace(poincare_family(FieldRep.vector()), rep_derivative=table, flow=flow)
        table[0] = flow[0] = 7.0
        assert np.array_equal(fam.rep_derivative, analytic_rep_derivatives(FieldRep.vector()))
        assert np.array_equal(fam.flow, poincare_family(FieldRep.vector()).flow)
        assert fam.rep_derivative.dtype == complex and fam.flow.dtype == float
        assert not fam.rep_derivative.flags.writeable and not fam.flow.flags.writeable
        assert rep_generators(fam, SCHEME).flags.writeable

    def test_poincare_rejects_phase(self):
        with pytest.raises(ValueError):
            poincare_family(FieldRep.phase(1.0, 1.0))

    def test_internal_rejects_vector(self):
        with pytest.raises(ValueError):
            internal_family(FieldRep.vector())


class TestFlowFields:
    """The declared flows, and the central differences of the point maps they agree with."""

    def test_translation_directions_are_unit_vectors(self):
        fam = poincare_family(FieldRep.scalar())
        flows, differenced = flow_fields(fam, POINTS), differenced_flows(fam, POINTS)
        for mu in range(4):
            expected = np.zeros(4)
            expected[mu] = 1.0
            assert np.array_equal(flows[6 + mu], np.broadcast_to(expected, POINTS.shape))
            assert np.abs(differenced[6 + mu] - flows[6 + mu]).max() <= 1e-10

    def test_translation_exact_at_origin(self):
        fam = poincare_family(FieldRep.scalar())
        origin = np.zeros((1, 4))
        expected = np.stack([e.reshape(1, 4) for e in np.eye(4)])
        assert np.array_equal(flow_fields(fam, origin)[6:], expected)
        assert np.array_equal(differenced_flows(fam, origin)[6:], expected)

    def test_rotation_boost_directions_match_generator_oracle(self):
        fam = poincare_family(FieldRep.scalar())
        flows, differenced = flow_fields(fam, POINTS), differenced_flows(fam, POINTS)
        for w, (a, b) in enumerate(PLANES):
            expected = POINTS @ plane_generator(a, b).T
            assert np.array_equal(flows[w], expected)
            assert np.abs(differenced[w] - flows[w]).max() <= 1e-8

    def test_dilation_flow_is_position(self):
        flows = flow_fields(dilation_family(), POINTS)
        assert np.array_equal(flows[0], POINTS)
        assert np.abs(differenced_flows(dilation_family(), POINTS)[0] - flows[0]).max() <= 1e-8

    def test_nonfinite_points_rejected(self):
        with pytest.raises(ValueError):
            flow_fields(dilation_family(), np.array([[np.nan, 0, 0, 0]]))


class TestVolumeRates:
    """The declared volume rates tr A_a, and the central differences of the Jacobians they agree with."""

    def test_poincare_rates_vanish(self):
        fam = poincare_family(FieldRep.vector())
        rates = volume_rates(fam)
        assert rates.shape == (10,) and np.array_equal(rates, np.zeros(10))
        assert np.abs(differenced_rates(fam)).max() <= 1e-8

    def test_dilation_rate_is_dimension(self):
        assert np.array_equal(volume_rates(dilation_family()), [4.0])
        rates = differenced_rates(dilation_family(), FDScheme(1e-5))
        assert rates.shape == (1,)
        assert np.abs(rates - 4.0).max() <= 1e-8

    def test_dilation_rate_order4(self):
        rates = differenced_rates(dilation_family(), FDScheme(1e-4, order=4))
        assert rates.shape == (1,)
        assert np.abs(rates - volume_rates(dilation_family())).max() <= 1e-8

    def test_anisotropic_scaling_rate(self):
        fam = ParamFamily(
            point_map=lambda rows: (
                np.stack([np.diag([math.exp(b[0]), 1.0, 1.0, 1.0]) for b in rows]),
                np.zeros((len(rows), 4)),
            ),
            rep_map=constant(np.eye(1)),
            labels=("A",),
            flow=np.diag([1.0, 0.0, 0.0, 0.0, 0.0])[None, :4],
        )
        assert np.array_equal(volume_rates(fam), [1.0])
        rates = differenced_rates(fam, FDScheme(1e-5))
        assert rates.shape == (1,)
        assert np.abs(rates - 1.0).max() <= 1e-8

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("kind", ["dilation", "poincare"])
    def test_flows_and_rates_keep_the_point_batch_shape(self, kind, order):
        fam = dilation_family() if kind == "dilation" else poincare_family(FieldRep.vector())
        scheme = FDScheme(1e-5, order=order)
        for pts in (POINTS[:6].reshape(2, 3, 4), POINTS[0]):
            flows, rates = flow_fields(fam, pts), volume_rates(fam)
            assert flows.shape == (fam.s, *pts.shape) and rates.shape == (fam.s,)
            assert np.abs(differenced_flows(fam, pts, scheme) - flows).max() <= 1e-8
            assert np.abs(differenced_rates(fam, scheme) - rates).max() <= 1e-8
            if kind == "dilation":
                assert np.array_equal(flows[0], pts) and np.array_equal(rates, [4.0])
            else:
                assert np.array_equal(rates, np.zeros(10))


class TestRepGenerators:
    def test_scalar_all_zero(self):
        gen = rep_generators(poincare_family(FieldRep.scalar()), SCHEME)
        assert np.abs(gen).max() <= 1e-8

    def test_vector_reproduces_index_tensor(self):
        gen = rep_generators(poincare_family(FieldRep.vector()), SCHEME)
        # independent construction: delta(s,mu) eta(nu,r) - delta(s,nu) eta(mu,r)
        for w, (mu, nu) in enumerate(PLANES):
            expected = np.zeros((4, 4))
            for s in range(4):
                for r in range(4):
                    expected[s, r] = (s == mu) * ETA[nu, r] - (s == nu) * ETA[mu, r]
            assert np.abs(gen[w] - expected).max() <= 1e-8
        assert abs(gen[0][0, 1] - 1.0) <= 1e-8  # boost plane (0,1) entry
        assert np.abs(gen[6:]).max() == 0.0  # translations never move the matrix

    def test_spinor_reproduces_sigma_table(self):
        rep = FieldRep.spinor()
        gen = rep_generators(poincare_family(rep), SCHEME)
        sig = sigma_tensor(rep.gamma)
        for w, (mu, nu) in enumerate(PLANES):
            assert np.abs(gen[w] - (-0.5j) * sig[mu, nu]).max() <= 1e-8

    def test_phase_charge_coefficient(self):
        # order-4 differences push the truncation error well below 1e-10
        q, e = 2.5, 0.8
        fam = dataclasses.replace(internal_family(FieldRep.phase(q, e)), rep_derivative=None)
        gen = rep_generators(fam, FDScheme(1e-4, order=4))
        assert abs(gen[0][0, 0] - (-q / (1j * e))) <= 1e-10

    def test_phase_charge_coefficient_default_scheme(self):
        fam = dataclasses.replace(internal_family(FieldRep.phase(1.0, 1.0)), rep_derivative=None)
        gen = rep_generators(fam, SCHEME)
        assert abs(gen[0][0, 0] - 1j) <= 1e-8

    def test_stationary_exponent_gives_zero(self):
        rep = FieldRep.custom(lambda b: np.eye(1, dtype=complex) * np.exp(b[0] ** 2), 1, 1)
        gen = rep_generators(internal_family(rep), SCHEME)
        assert np.abs(gen).max() <= 1e-8

    def test_analytic_derivatives_used_verbatim(self):
        table = analytic_rep_derivatives(FieldRep.vector())
        fam = dataclasses.replace(poincare_family(FieldRep.vector()), rep_derivative=table)
        assert np.array_equal(rep_generators(fam, SCHEME), table)

    @pytest.mark.parametrize("variant", ["scalar", "vector", "spinor", "phase"])
    def test_frame_and_internal_families_carry_the_closed_form(self, variant):
        rep = FieldRep.phase(1.5, 0.5) if variant == "phase" else getattr(FieldRep, variant)()
        families = [internal_family(rep)] if variant == "phase" else [poincare_family(rep), poincare_frame_family(rep)]
        for fam in families:
            assert np.array_equal(fam.rep_derivative, analytic_rep_derivatives(rep))
            assert np.array_equal(rep_generators(fam, SCHEME), analytic_rep_derivatives(rep))

    def test_custom_internal_family_has_no_closed_form(self):
        rep = FieldRep.custom(lambda b: np.eye(1, dtype=complex) * np.exp(1j * b[0]), 1, 1)
        assert internal_family(rep).rep_derivative is None

    def test_analytic_tables_match_fd(self):
        for rep in (FieldRep.scalar(), FieldRep.vector(), FieldRep.spinor()):
            fd = rep_generators(dataclasses.replace(poincare_family(rep), rep_derivative=None), SCHEME)
            assert np.abs(fd - analytic_rep_derivatives(rep)).max() <= 1e-8

    @pytest.mark.parametrize("kind", ["internal", "frame"])
    def test_internal_family_flow_and_rates_exactly_zero(self, kind):
        rep = FieldRep.phase(1.0, 1.0) if kind == "internal" else FieldRep.vector()
        fam = (internal_family if kind == "internal" else poincare_frame_family)(rep)
        flows, rates = flow_fields(fam, POINTS), volume_rates(fam)
        assert flows.shape == (fam.s, *POINTS.shape) and rates.shape == (fam.s,)
        assert np.abs(flows).max() == 0.0
        assert np.abs(rates).max() == 0.0


class TestExtractAll:
    def test_bundle_shape_and_translation_block(self):
        fam = poincare_family(FieldRep.vector())
        coeffs = extract_all(fam, SCHEME, POINTS)
        assert coeffs.rep_derivs.shape == (10, 4, 4)
        assert coeffs.flow.shape == (10,) + POINTS.shape
        assert coeffs.volume.shape == (10,)
        assert np.array_equal(coeffs.volume, volume_rates(fam))
        assert np.array_equal(coeffs.flow, flow_fields(fam, POINTS))
        translations = [w for w, label in enumerate(coeffs.labels) if label.startswith("T_")]
        assert translations == [6, 7, 8, 9]
        assert np.abs(coeffs.rep_derivs[translations]).max() == 0.0
        assert coeffs.labels[0] == "S_01" and coeffs.labels[6] == "T_0"


class TestFDConvergence:
    """rep_generators' differences of a family stripped of its closed form."""

    def test_order2_error_shrinks_by_four(self):
        rep = FieldRep.spinor()
        fam = dataclasses.replace(poincare_family(rep), rep_derivative=None)
        exact = analytic_rep_derivatives(rep)
        err = []
        for h in (1e-2, 5e-3):
            gen = rep_generators(fam, FDScheme(h, order=2))
            err.append(np.abs(gen[:6] - exact[:6]).max())
        ratio = err[0] / err[1]
        assert 3.5 <= ratio <= 4.5

    def test_order4_beats_order2(self):
        rep = FieldRep.spinor()
        fam = dataclasses.replace(poincare_family(rep), rep_derivative=None)
        exact = analytic_rep_derivatives(rep)
        e2 = np.abs(rep_generators(fam, FDScheme(1e-2, order=2))[:6] - exact[:6]).max()
        e4 = np.abs(rep_generators(fam, FDScheme(1e-2, order=4))[:6] - exact[:6]).max()
        assert e4 < e2 / 100


class TestCentralDiff:
    def test_point_batch_coordinate(self):
        f = lambda r: np.stack([np.sin(r[..., 0]) * r[..., 3], r[..., 1] ** 3], axis=-1)
        for k in range(4):
            step = np.zeros(4)
            step[k] = 1e-5
            expected = (f(POINTS + step) - f(POINTS - step)) / (2 * 1e-5)
            assert _central_diff(f, POINTS, k, 1e-5, 2).tobytes() == expected.tobytes()


class TestDetTraceIdentity:
    SCHEME = FDScheme(1e-5, order=2)

    def test_dilation_family(self):
        res = det_trace_residual(lambda b: math.exp(b[0]) * np.eye(4), np.zeros(1), self.SCHEME)
        assert res.max() <= 1e-8

    def test_lorentz_family(self):
        res = det_trace_residual(lorentz_exp, np.zeros(6), self.SCHEME)
        assert res.max() <= 1e-8

    def test_nilpotent_family(self):
        N = np.zeros((4, 4))
        N[0, 1] = N[1, 2] = N[2, 3] = 1.0
        res = det_trace_residual(lambda b: np.eye(4) + b[0] * N, np.zeros(1), self.SCHEME)
        assert res.max() <= 1e-10

    def test_identity_precondition(self):
        with pytest.raises(ValueError):
            det_trace_residual(lambda b: 2.0 * np.eye(4), np.zeros(1), self.SCHEME)


class TestPoincareFamilyGeometry:
    def test_point_map_example(self):
        fam = poincare_family(FieldRep.scalar())
        b = np.zeros(10)
        b[0] = 0.5  # boost in plane (0, 1)
        b[6] = 1.0  # time translation
        out = point_map_at(fam, b)(np.zeros((1, 4)))
        assert_allclose(out[0], [1.0, 0.0, 0.0, 0.0], atol=1e-14)

    def test_rep_map_at_base_is_identity(self):
        fam = poincare_family(FieldRep.spinor())
        assert np.abs(fam.rep_map(fam.b0[None])[0] - np.eye(4)).max() <= 1e-12

    def test_frame_family_never_moves_points(self):
        fam = poincare_frame_family(FieldRep.vector())
        assert fam.point_map is None

    @pytest.mark.parametrize("variant", ["scalar", "vector", "spinor"])
    def test_frame_family_rep_map_equals_rep_matrix_bit_for_bit(self, variant):
        rep = getattr(FieldRep, variant)()
        fam = poincare_frame_family(rep)
        rows = np.array([*np.random.default_rng(17).uniform(-0.8, 0.8, (12, 10)), *_param_sequence()])
        got = fam.rep_map(rows)
        assert got.dtype == np.complex128 and got.shape == (len(rows), rep.n, rep.n)
        for b, mat in zip(rows, got):
            assert mat.tobytes() == rep_matrix(rep, b[:6]).tobytes()
        assert fam.point_map is None
        assert fam.labels == poincare_family(rep).labels
        assert (fam.s, fam.n) == (10, rep.n)


def _param_sequence():
    """Parameter points with repeats, interleavings and translation-only changes."""
    rng = np.random.default_rng(21)
    b1, b2, b3 = (rng.uniform(-0.6, 0.6, 10) for _ in range(3))
    b1_shifted = b1.copy()
    b1_shifted[6:] += 0.5  # same Lorentz part, new translation
    b1_turned = b1.copy()
    b1_turned[5] += 1e-9  # only the last plane parameter differs
    neg_zero = np.zeros(10)
    neg_zero[0] = -0.0
    return [b1, b1, b2, b1, b3, b2, b2, b1_shifted, b1, b1_turned, b1, np.zeros(10), neg_zero, b3]


class TestStackedRows:
    """A Poincare family maps parameter rows to stacks whose rows are lorentz_exp's and rep_matrix's bits."""

    @pytest.mark.parametrize("variant", ["scalar", "vector", "spinor"])
    def test_stacked_rows_equal_lorentz_exp_and_rep_matrix_bit_for_bit(self, variant):
        rep = getattr(FieldRep, variant)()
        fam = poincare_family(rep)
        rows = np.array([*_param_sequence(), *np.random.default_rng(8).uniform(-0.5, 0.5, (30, 10))])
        linear, offset = fam.point_map(rows)
        mats = fam.rep_map(rows)
        k = len(rows)
        assert (linear.shape, offset.shape, mats.shape) == ((k, 4, 4), (k, 4), (k, rep.n, rep.n))
        assert mats.dtype == np.complex128
        for b, lam, a, mat in zip(rows, linear, offset, mats):
            assert lam.tobytes() == lorentz_exp(b[:6]).tobytes()
            assert a.tobytes() == b[6:].tobytes()
            assert mat.tobytes() == rep_matrix(rep, b[:6]).tobytes()
            assert np.array_equal(AffineMap(lam, a)(POINTS), POINTS @ lorentz_exp(b[:6]).T + b[6:])

    @pytest.mark.parametrize("variant", ["scalar", "vector", "spinor"])
    def test_a_row_does_not_depend_on_its_stack(self, variant):
        fam = poincare_family(getattr(FieldRep, variant)())
        rows = np.random.default_rng(9).uniform(-0.5, 0.5, (25, 10))
        whole = fam.point_map(rows)[0], fam.rep_map(rows)
        for start, stop in ((0, 1), (3, 4), (5, 17)):
            got = fam.point_map(rows[start:stop])[0], fam.rep_map(rows[start:stop])
            for stack, part in zip(whole, got):
                assert part.tobytes() == stack[start:stop].tobytes()

    def test_internal_family_rows_equal_rep_matrix(self):
        rows = np.array([[0.3], [-1e-4], [-0.0], [2.0]])
        for rep in (FieldRep.phase(1.5, 0.7), FieldRep.custom(lambda b: np.diag([np.exp(1j * b[0]), 1.0]), 2, 1)):
            mats = internal_family(rep).rep_map(rows)
            assert mats.shape == (4, rep.n, rep.n)
            for b, mat in zip(rows, mats):
                assert mat.tobytes() == rep_matrix(rep, b).tobytes()
