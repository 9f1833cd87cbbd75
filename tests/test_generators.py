import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose

from covariant_kit.generators import (
    FDScheme,
    ParamFamily,
    _central_diff,
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
from covariant_kit.representations import FieldRep, rep_matrix, sigma_tensor

from families import dilation_family

POINTS = np.random.default_rng(14).uniform(-2.0, 2.0, (25, 4))
SCHEME = FDScheme(1e-4, order=2)


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

    def test_step_is_one_float(self):
        scheme = FDScheme(np.float32(0.5), order=4)
        assert type(scheme.step) is float and scheme.step == 0.5
        with pytest.raises(TypeError):
            FDScheme([1e-4] * 10)


class TestFamilyValidation:
    def test_rep_identity_enforced(self):
        with pytest.raises(ValueError):
            ParamFamily(
                point_map=lambda b: AffineMap.identity(),
                rep_map=lambda b: 2.0 * np.eye(1, dtype=complex),
                labels=("X",),
            )

    def test_point_identity_enforced(self):
        # an offset of 1, and a linear part off by 1e-11
        for h in (AffineMap(np.eye(4), np.ones(4)), AffineMap(np.eye(4) + np.diag([1e-11, 0, 0, 0]))):
            with pytest.raises(ValueError, match="not the identity map"):
                ParamFamily(
                    point_map=lambda b: h,
                    rep_map=lambda b: np.eye(1, dtype=complex),
                    labels=("X",),
                )

    def test_s_and_n_are_derived(self):
        fam = ParamFamily(
            point_map=lambda b: AffineMap.identity(),
            rep_map=lambda b: np.eye(3, dtype=complex),
            labels=("X", "Y"),
        )
        assert (fam.s, fam.n) == (2, 3)
        assert np.array_equal(fam.b0, np.zeros(2)) and not fam.b0.flags.writeable
        assert dataclasses.replace(fam, rep_map=lambda b: np.eye(2, dtype=complex)).n == 2
        fields = {f: getattr(fam, f) for f in ("point_map", "rep_map", "labels")}
        for derived in ({"s": 2}, {"b0": np.zeros(2)}):
            with pytest.raises(TypeError):
                ParamFamily(**derived, **fields)

    def test_non_square_rep_map_rejected(self):
        with pytest.raises(ValueError, match="not the identity"):
            ParamFamily(
                point_map=lambda b: AffineMap.identity(),
                rep_map=lambda b: np.ones(3, dtype=complex),
                labels=("X",),
            )

    def test_poincare_rejects_phase(self):
        with pytest.raises(ValueError):
            poincare_family(FieldRep.phase(1.0, 1.0))

    def test_internal_rejects_vector(self):
        with pytest.raises(ValueError):
            internal_family(FieldRep.vector())


class TestFlowFields:
    def test_translation_directions_are_unit_vectors(self):
        fam = poincare_family(FieldRep.scalar())
        flows = flow_fields(fam, SCHEME, POINTS)
        for mu in range(4):
            expected = np.zeros(4)
            expected[mu] = 1.0
            assert np.abs(flows[6 + mu] - expected).max() <= 1e-10

    def test_translation_exact_at_origin(self):
        fam = poincare_family(FieldRep.scalar())
        origin = np.zeros((1, 4))
        flows = flow_fields(fam, SCHEME, origin)
        assert np.array_equal(flows[6:], np.stack([e.reshape(1, 4) for e in np.eye(4)]))

    def test_rotation_boost_directions_match_generator_oracle(self):
        fam = poincare_family(FieldRep.scalar())
        flows = flow_fields(fam, SCHEME, POINTS)
        for w, (a, b) in enumerate(PLANES):
            expected = POINTS @ plane_generator(a, b).T
            assert np.abs(flows[w] - expected).max() <= 1e-8

    def test_dilation_flow_is_position(self):
        flows = flow_fields(dilation_family(), SCHEME, POINTS)
        assert np.abs(flows[0] - POINTS).max() <= 1e-8

    def test_nonfinite_points_rejected(self):
        with pytest.raises(ValueError):
            flow_fields(dilation_family(), SCHEME, np.array([[np.nan, 0, 0, 0]]))


class TestVolumeRates:
    def test_poincare_rates_vanish(self):
        fam = poincare_family(FieldRep.vector())
        rates = volume_rates(fam, SCHEME, POINTS)
        assert np.abs(rates).max() <= 1e-8

    def test_dilation_rate_is_dimension(self):
        rates = volume_rates(dilation_family(), FDScheme(1e-5), POINTS)
        assert np.abs(rates - 4.0).max() <= 1e-8

    def test_dilation_rate_order4(self):
        rates = volume_rates(dilation_family(), FDScheme(1e-4, order=4), POINTS)
        assert np.abs(rates - 4.0).max() <= 1e-8

    def test_anisotropic_scaling_rate(self):
        fam = ParamFamily(
            point_map=lambda b: AffineMap(np.diag([math.exp(b[0]), 1.0, 1.0, 1.0])),
            rep_map=lambda b: np.eye(1, dtype=complex),
            labels=("A",),
        )
        rates = volume_rates(fam, FDScheme(1e-5), POINTS)
        assert np.abs(rates - 1.0).max() <= 1e-8

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("kind", ["dilation", "poincare"])
    def test_flows_and_rates_keep_the_point_batch_shape(self, kind, order):
        fam = dilation_family() if kind == "dilation" else poincare_family(FieldRep.vector())
        scheme = FDScheme(1e-5, order=order)
        for pts in (POINTS[:6].reshape(2, 3, 4), POINTS[0]):
            flows, rates = flow_fields(fam, scheme, pts), volume_rates(fam, scheme, pts)
            assert flows.shape == (fam.s, *pts.shape) and rates.shape == (fam.s, *pts.shape[:-1])
            if kind == "dilation":
                assert np.abs(flows[0] - pts).max() <= 1e-8
                assert np.abs(rates - 4.0).max() <= 1e-8
            else:
                assert np.abs(rates).max() <= 1e-8


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
        fam = (internal_family if variant == "phase" else poincare_frame_family)(rep)
        assert np.array_equal(fam.rep_derivative, analytic_rep_derivatives(rep))
        assert np.array_equal(rep_generators(fam, SCHEME), analytic_rep_derivatives(rep))
        if variant != "phase":
            assert poincare_family(rep).rep_derivative is None

    def test_custom_internal_family_has_no_closed_form(self):
        rep = FieldRep.custom(lambda b: np.eye(1, dtype=complex) * np.exp(1j * b[0]), 1, 1)
        assert internal_family(rep).rep_derivative is None

    def test_analytic_tables_match_fd(self):
        for rep in (FieldRep.scalar(), FieldRep.vector(), FieldRep.spinor()):
            fd = rep_generators(poincare_family(rep), SCHEME)
            assert np.abs(fd - analytic_rep_derivatives(rep)).max() <= 1e-8

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("kind", ["internal", "frame"])
    def test_internal_family_flow_and_rates_exactly_zero(self, kind, order):
        rep = FieldRep.phase(1.0, 1.0) if kind == "internal" else FieldRep.vector()
        fam = (internal_family if kind == "internal" else poincare_frame_family)(rep)
        scheme = FDScheme(1e-4, order=order)
        flows, rates = flow_fields(fam, scheme, POINTS), volume_rates(fam, scheme, POINTS)
        assert flows.shape == (fam.s, *POINTS.shape) and rates.shape == (fam.s, len(POINTS))
        assert np.abs(flows).max() == 0.0
        assert np.abs(rates).max() == 0.0


class TestExtractAll:
    def test_bundle_shape_and_translation_block(self):
        fam = poincare_family(FieldRep.vector())
        coeffs = extract_all(fam, SCHEME, POINTS)
        assert coeffs.rep_derivs.shape == (10, 4, 4)
        assert coeffs.flow.shape == (10,) + POINTS.shape
        assert coeffs.volume.shape == (10,) + POINTS.shape[:-1]
        translations = [w for w, label in enumerate(coeffs.labels) if label.startswith("T_")]
        assert translations == [6, 7, 8, 9]
        assert np.abs(coeffs.rep_derivs[translations]).max() == 0.0
        assert coeffs.labels[0] == "S_01" and coeffs.labels[6] == "T_0"


class TestFDConvergence:
    def test_order2_error_shrinks_by_four(self):
        rep = FieldRep.spinor()
        fam = poincare_family(rep)
        exact = analytic_rep_derivatives(rep)
        err = []
        for h in (1e-2, 5e-3):
            gen = rep_generators(fam, FDScheme(h, order=2))
            err.append(np.abs(gen[:6] - exact[:6]).max())
        ratio = err[0] / err[1]
        assert 3.5 <= ratio <= 4.5

    def test_order4_beats_order2(self):
        rep = FieldRep.spinor()
        fam = poincare_family(rep)
        exact = analytic_rep_derivatives(rep)
        e2 = np.abs(rep_generators(fam, FDScheme(1e-2, order=2))[:6] - exact[:6]).max()
        e4 = np.abs(rep_generators(fam, FDScheme(1e-2, order=4))[:6] - exact[:6]).max()
        assert e4 < e2 / 100


class TestCentralDiff:
    @pytest.mark.parametrize("order", [2, 4])
    def test_tuple_entries_equal_separate_calls_bit_for_bit(self, order):
        mat = lambda b: lorentz_exp(np.tanh(b[:6]) * b[6:])
        pair = lambda b: (np.linalg.det(mat(b)), mat(b) @ POINTS.T)
        b0 = np.random.default_rng(3).uniform(-0.5, 0.5, 12)
        for w in (0, 5, 11):
            det, moved = _central_diff(pair, b0, w, 1e-3, order)
            assert det.tobytes() == _central_diff(lambda b: pair(b)[0], b0, w, 1e-3, order).tobytes()
            assert moved.tobytes() == _central_diff(lambda b: pair(b)[1], b0, w, 1e-3, order).tobytes()

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
        out = fam.point_map(b)(np.zeros((1, 4)))
        assert_allclose(out[0], [1.0, 0.0, 0.0, 0.0], atol=1e-14)

    def test_rep_map_at_base_is_identity(self):
        fam = poincare_family(FieldRep.spinor())
        assert np.abs(fam.rep_map(fam.b0) - np.eye(4)).max() <= 1e-12

    def test_frame_family_never_moves_points(self):
        fam = poincare_frame_family(FieldRep.vector())
        assert fam.point_map is None

    @pytest.mark.parametrize("variant", ["scalar", "vector", "spinor"])
    def test_frame_family_rep_map_equals_rep_matrix_bit_for_bit(self, variant):
        rep = getattr(FieldRep, variant)()
        fam = poincare_frame_family(rep)
        for b in [*np.random.default_rng(17).uniform(-0.8, 0.8, (12, 10)), *_param_sequence()]:
            got = fam.rep_map(b)
            assert got.dtype == np.complex128
            assert np.array_equal(got, rep_matrix(rep, b[:6]))
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


class TestPoincareFamilyMemo:
    @pytest.mark.parametrize("variant", ["scalar", "vector", "spinor"])
    def test_memoised_maps_equal_uncached_bit_for_bit(self, variant):
        rep = getattr(FieldRep, variant)()
        fam = poincare_family(rep)
        for i, b in enumerate(_param_sequence()):
            lam = lorentz_exp(b[:6])
            calls = [
                ("linear", lambda: fam.point_map(b).linear, lam),
                ("point", lambda: fam.point_map(b)(POINTS), POINTS @ lam.T + b[6:]),
                ("rep", lambda: fam.rep_map(b), rep_matrix(rep, b[:6])),
            ]
            # vary the call order so every map sees both a cold and a warm memo
            for name, call, expected in calls[i % 3 :] + calls[: i % 3]:
                got = call()
                assert got.dtype == expected.dtype, name
                assert np.array_equal(got, expected), name

    def test_evicted_entries_are_rebuilt_exactly(self):
        rep = FieldRep.spinor()
        fam = poincare_family(rep)
        seq = np.random.default_rng(8).uniform(-0.5, 0.5, (100, 10))  # more than the memo holds
        for b in [*seq, *seq[:5]]:
            assert np.array_equal(fam.point_map(b).linear, lorentz_exp(b[:6]))
            assert np.array_equal(fam.rep_map(b), rep_matrix(rep, b[:6]))

    def test_returned_rep_matrix_is_the_callers_own(self):
        fam = poincare_family(FieldRep.spinor())
        b = _param_sequence()[0]
        first = fam.rep_map(b)
        first[:] = 0.0
        assert np.array_equal(fam.rep_map(b), rep_matrix(FieldRep.spinor(), b[:6]))

    def test_memo_is_private_to_each_family(self):
        rep = FieldRep.vector()
        fam1, fam2 = poincare_family(rep), poincare_family(rep)
        b1, b2 = _param_sequence()[:3:2]
        fam1.rep_map(b1)
        assert np.array_equal(fam2.rep_map(b2), rep_matrix(rep, b2[:6]))
        assert np.array_equal(fam1.rep_map(b1), rep_matrix(rep, b1[:6]))

    @pytest.mark.parametrize("variant", ["vector", "spinor"])
    def test_concurrent_callers_get_their_own_parameters(self, variant):
        rep = getattr(FieldRep, variant)()
        fam = poincare_family(rep)
        seq = _param_sequence()
        expected = [(lorentz_exp(b[:6]), rep_matrix(rep, b[:6])) for b in seq]

        def worker(offset):
            for k in range(200):
                j = (offset + k) % len(seq)
                lam, mat = expected[j]
                if not (np.array_equal(fam.point_map(seq[j]).linear, lam) and np.array_equal(fam.rep_map(seq[j]), mat)):
                    return False
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:  # more workers than cores
                assert all(pool.map(worker, range(6), timeout=60))
        finally:
            sys.setswitchinterval(interval)
