import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from covariant_kit import geometry
from covariant_kit.geometry import (
    ETA,
    PLANES,
    AffineMap,
    ChartTransition,
    LorentzTransform,
    PoincareElement,
    chart_transition,
    lorentz_exp,
    lorentz_exp_stack,
    lorentz_generators,
    lorentz_log_params,
    lorentz_residuals,
    minkowski_metric,
    plane_generator,
)

from oracles import boost_block, exp_coefficients_series, expm_series, rotation_block


class TestMetric:
    def test_values(self):
        eta = minkowski_metric()
        assert np.array_equal(eta, np.diag([-1.0, 1.0, 1.0, 1.0]))

    def test_symmetric_and_self_inverse(self):
        assert np.array_equal(ETA, ETA.T)
        assert np.array_equal(ETA @ ETA, np.eye(4))


class TestGenerators:
    def test_algebra_membership_exact(self):
        # J^T eta + eta J = 0, entrywise exact for these integer matrices.
        for J in lorentz_generators():
            assert np.abs(J.T @ ETA + ETA @ J).max() == 0.0

    def test_boost_generator_entries(self):
        J = plane_generator(0, 1)
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = 1.0
        assert np.array_equal(J, expected)

    def test_rotation_generator_entries(self):
        J = plane_generator(1, 2)
        expected = np.zeros((4, 4))
        expected[1, 2] = 1.0
        expected[2, 1] = -1.0
        assert np.array_equal(J, expected)

    def test_bad_plane_rejected(self):
        with pytest.raises(ValueError):
            plane_generator(2, 1)

    def test_returned_stack_is_a_fresh_copy(self):
        omega = np.array([0.3, -0.2, 0.1, 0.5, -0.4, 0.25])
        before = lorentz_exp(omega).matrix.copy()
        stack = lorentz_generators()
        stack[:] = 7.0
        assert not np.array_equal(lorentz_generators(), stack)
        assert np.array_equal(lorentz_exp(omega).matrix, before)


class TestLorentzExp:
    def test_zero_gives_identity(self):
        assert np.abs(lorentz_exp(np.zeros(6)).matrix - np.eye(4)).max() <= 1e-15

    def test_boost_block_oracle(self):
        lam = lorentz_exp([0.5, 0, 0, 0, 0, 0]).matrix
        assert_allclose(lam[:2, :2], boost_block(0.5), atol=1e-13)
        assert math.isclose(lam[0, 0], math.cosh(0.5), abs_tol=1e-13)
        assert math.isclose(lam[0, 1], math.sinh(0.5), abs_tol=1e-13)
        assert np.abs(lam[2:, 2:] - np.eye(2)).max() <= 1e-13
        assert np.abs(lam[:2, 2:]).max() <= 1e-13

    def test_quarter_turn_rotation_oracle(self):
        lam = lorentz_exp([0, 0, 0, math.pi / 2, 0, 0]).matrix
        assert_allclose(lam[1:3, 1:3], rotation_block(math.pi / 2), atol=1e-12)
        # every entry is 0 or +-1 at this angle
        rounded = np.round(lam)
        assert np.abs(lam - rounded).max() <= 1e-12
        assert set(np.unique(rounded)) <= {-1.0, 0.0, 1.0}

    def test_matches_series_oracle_generic(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            omega = rng.uniform(-1.0, 1.0, 6)
            X = np.einsum("i,ijk->jk", omega, lorentz_generators())
            assert np.abs(lorentz_exp(omega).matrix - expm_series(X)).max() <= 1e-12

    def test_metric_preservation_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            lam = lorentz_exp(rng.uniform(-1.0, 1.0, 6))
            assert lam.metric_residual() <= 1e-12
            assert abs(np.linalg.det(lam.matrix) - 1.0) <= 1e-12
            assert lam.matrix[0, 0] >= 1.0 - 1e-12

    def test_one_parameter_subgroup_law(self):
        rng = np.random.default_rng(3)
        for i in range(6):
            s, t = rng.uniform(-0.9, 0.9, 2)
            e = np.zeros(6)
            e[i] = 1.0
            prod = lorentz_exp(s * e).matrix @ lorentz_exp(t * e).matrix
            assert np.abs(prod - lorentz_exp((s + t) * e).matrix).max() <= 1e-10

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            lorentz_exp([np.nan, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError):
            lorentz_exp([0.1, 0.2])

    def test_inverse_is_metric_conjugate(self):
        lam = lorentz_exp([0.3, -0.2, 0.1, 0.4, -0.5, 0.2])
        assert np.abs(lam.inverse().matrix @ lam.matrix - np.eye(4)).max() <= 1e-12

    def test_log_roundtrip(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            omega = rng.uniform(-0.8, 0.8, 6)
            recovered = lorentz_log_params(lorentz_exp(omega).matrix)
            assert np.abs(recovered - omega).max() <= 1e-9

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ValueError):
            LorentzTransform(np.eye(4) * 1.5)


#: The null generator: a unit boost along x plus a unit rotation about z.
NULL_OMEGA = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])


def _generator(omega):
    return np.einsum("i,ijk->jk", omega, lorentz_generators())


class TestLorentzClosedForms:
    """The closed-form exponential and logarithm against independent oracles."""

    @pytest.mark.parametrize("scale", [3.0, 1e-3, 1e-6])
    def test_exp_matches_series_oracle(self, scale):
        rng = np.random.default_rng(17)
        for _ in range(50):
            omega = rng.uniform(-scale, scale, 6)
            oracle = expm_series(_generator(omega))
            assert np.abs(lorentz_exp(omega).matrix - oracle).max() <= 1e-14 * np.abs(oracle).max()

    @pytest.mark.parametrize("size", [1e-8, 1e-5, 1e-3, 0.24, 0.26, 4.0])
    def test_exp_coefficients_on_both_sides_of_the_series_switch(self, size):
        # a^2 + b^2 = size exactly for a pure boost; mixed rows land nearby
        rng = np.random.default_rng(int(size * 1e9) % 2**32)
        for omega in (np.array([math.sqrt(size), 0, 0, 0, 0, 0]), rng.uniform(-1.0, 1.0, 6) * math.sqrt(size / 3)):
            X = _generator(omega)
            p, q2 = np.trace(X @ X) / 2, -np.linalg.det(X)
            got = geometry._exp_coefficients(omega.tolist())
            assert_allclose(got, exp_coefficients_series(p, max(q2, 0.0)), rtol=1e-14, atol=0)

    def test_null_generator_is_exact(self):
        X = _generator(NULL_OMEGA)
        assert np.array_equal(X @ X @ X, np.zeros((4, 4)))
        for omega in (NULL_OMEGA, 2.5 * NULL_OMEGA):
            X = _generator(omega)
            assert np.array_equal(lorentz_exp(omega).matrix, np.eye(4) + X + X @ X / 2)
            assert np.array_equal(lorentz_exp(omega).matrix, expm_series(X))

    def test_near_null_generator(self):
        rng = np.random.default_rng(23)
        for eps in (1e-12, 1e-6, 1e-3, 3e-2):
            omega = 2.0 * NULL_OMEGA + eps * rng.uniform(-1.0, 1.0, 6)
            oracle = expm_series(_generator(omega))
            assert np.abs(lorentz_exp(omega).matrix - oracle).max() <= 1e-14 * np.abs(oracle).max()

    def test_stack_equals_rows_bit_for_bit(self):
        rng = np.random.default_rng(29)
        rows = rng.uniform(-1.0, 1.0, (40, 6))
        rows[:10] *= 1e-4  # deep in the Taylor branch; most others in the closed form
        rows[10] = NULL_OMEGA
        rows[11] = 0.0
        stack = lorentz_exp_stack(rows)
        assert stack.shape == (40, 4, 4)
        for row, matrix in zip(rows, stack):
            assert np.array_equal(matrix, lorentz_exp(row).matrix)
        assert np.array_equal(lorentz_exp_stack(rows.reshape(4, 10, 6)), stack.reshape(4, 10, 4, 4))

    def test_stack_is_checked_like_one_matrix(self):
        rows = np.zeros((3, 6))
        rows[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            lorentz_exp_stack(rows)
        with pytest.raises(ValueError, match="rows of 6"):
            lorentz_exp_stack(np.zeros((3, 5)))
        with pytest.raises(ValueError, match="finite"):
            lorentz_exp_stack([[800.0, 0, 0, 0, 0, 0]])  # cosh overflows

    def test_residuals_are_the_worst_over_the_stack(self):
        stack = lorentz_exp_stack(np.random.default_rng(31).uniform(-1.0, 1.0, (20, 6)))
        metric, det = lorentz_residuals(stack)
        assert metric == max(LorentzTransform(m).metric_residual() for m in stack)
        assert det == max(abs(np.linalg.det(m) - 1.0) for m in stack)
        with pytest.raises(ValueError, match="proper orthochronous"):
            LorentzTransform(np.diag([1.0, -1.0, 1.0, 1.0]))

    def test_log_roundtrip_pure_boosts(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            omega = np.concatenate([rng.uniform(-3.0, 3.0, 3), np.zeros(3)])
            assert np.abs(lorentz_log_params(lorentz_exp(omega).matrix) - omega).max() <= 1e-12

    def test_log_roundtrip_rotations_past_a_right_angle(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            axis = rng.normal(size=3)
            angle = rng.uniform(math.pi / 2, math.pi - 1e-2)
            x, y, z = angle * axis / np.linalg.norm(axis)
            omega = np.array([*rng.uniform(-0.5, 0.5, 3), z, -y, x])  # planes (1,2), (1,3), (2,3)
            assert np.abs(lorentz_log_params(lorentz_exp(omega).matrix) - omega).max() <= 1e-12

    def test_log_roundtrip_near_identity(self):
        rng = np.random.default_rng(43)
        for scale in (1e-9, 1e-6, 1e-3):
            omega = rng.uniform(-scale, scale, 6)
            assert_allclose(lorentz_log_params(lorentz_exp(omega).matrix), omega, rtol=1e-12, atol=1e-24)
        assert np.array_equal(lorentz_log_params(np.eye(4)), np.zeros(6))

    @pytest.mark.parametrize(
        "omega",
        [[0, 0, 0, math.pi, 0, 0], [0, 0, 0.5, math.pi, 0, 0], [0, 0, 0, 0, 0, math.pi - 1e-9]],
        ids=["rotation", "with_commuting_boost", "within_1e-9"],
    )
    def test_log_rejects_a_rotation_by_pi(self, omega):
        with pytest.raises(ValueError):
            lorentz_log_params(lorentz_exp(omega).matrix)

    def test_log_rejects_exact_half_turn_and_non_lorentz(self):
        for matrix in (np.diag([1.0, -1.0, -1.0, 1.0]), 1.5 * np.eye(4), -np.eye(4)):
            with pytest.raises(ValueError):
                lorentz_log_params(matrix)


class TestLargeBoosts:
    """The metric and determinant bounds scale with max|L|^2, so exact large boosts pass."""

    @pytest.mark.parametrize("rapidity", [5.0, 8.0])
    def test_exact_boosts_construct_and_round_trip(self, rapidity):
        rows = np.array([rapidity * np.eye(6)[k] for k in range(3)] + [[rapidity, 0.3, -0.2, 0.4, 0.1, -0.7]])
        stack = lorentz_exp_stack(rows)
        assert_allclose(stack[0][:2, :2], boost_block(rapidity), rtol=1e-14)
        for omega, matrix in zip(rows, stack):
            assert np.array_equal(lorentz_exp(omega).matrix, matrix)
            assert np.abs(lorentz_log_params(matrix) - omega).max() <= 1e-11

    def test_a_unit_scale_matrix_off_the_metric_still_raises(self):
        off = np.eye(4)
        off[1, 2] = 1e-9
        with pytest.raises(ValueError, match="does not preserve the metric"):
            LorentzTransform(off)
        with pytest.raises(ValueError, match="does not preserve the metric"):
            geometry._check_lorentz(np.stack([np.eye(4), off]), geometry.ALGEBRAIC_TOL)

    def test_a_large_boost_off_the_metric_still_raises(self):
        # rapidity 8: the bound is 1e-12 * 1490^2 = 2.2e-6, the error below about 1.5e-2
        off = lorentz_exp([8.0, 0, 0, 0, 0, 0]).matrix.copy()
        off[0, 1] += 1e-5
        with pytest.raises(ValueError, match="does not preserve the metric"):
            LorentzTransform(off)


    def test_tolerance_is_not_an_option(self):
        with pytest.raises(TypeError):
            LorentzTransform(np.eye(4), None, 1e-3)

    @pytest.mark.parametrize("rapidity", [5.0, 8.0])
    def test_a_cancelling_product_is_not_rejected(self, rapidity):
        # g g^-1 is 1, with roundoff about eps cosh(rapidity)^2: past what a bound
        # scaled by the product's own entries allows, within what its factors allow
        g = PoincareElement.from_params([rapidity, 0, 0, 0.3, 0, 0], [0.5, 0, 0, 0])
        scale = np.abs(g.matrix).max() ** 2
        for unit in (g.compose(g.inverse()), g.inverse().compose(g)):
            assert np.abs(unit.matrix - np.eye(4)).max() <= geometry.ALGEBRAIC_TOL * scale
            assert unit.params is None and not unit.matrix.flags.writeable
        inv = g.transform.inverse()
        assert np.array_equal(inv.params, -g.params) and not inv.params.flags.writeable

    def test_an_overflowing_product_still_raises(self):
        # rapidity 300 and its square construct; the cube's entries, near e^900, overflow
        g = PoincareElement.from_params([300.0, 0, 0, 0, 0, 0])
        square = g.compose(g)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="must be finite"):
            square.compose(g)

    def test_a_matrix_whose_check_overflows_raises(self):
        # max|L| past about 1e154: the residual of L^T eta L and the bound tol max|L|^2
        # overflow to inf or nan, and a comparison with either must fail, not pass
        with pytest.raises(ValueError, match="does not preserve the metric"):
            LorentzTransform(np.full((4, 4), 1e200))
        with pytest.raises(ValueError, match="does not preserve the metric"):
            geometry._check_lorentz(np.stack([np.eye(4), np.full((4, 4), 1e200)]), geometry.ALGEBRAIC_TOL)

    @pytest.mark.parametrize("build", [lorentz_exp, lambda omega: lorentz_exp_stack(np.array([omega]))])
    def test_a_boost_past_the_double_range_raises(self, build):
        # rapidity 360: entries near 1e156, finite, but their squares in L^T eta L are not
        with pytest.raises(ValueError, match="does not preserve the metric"):
            build(np.array([360.0, 0, 0, 0, 0, 0]))


class TestPoincare:
    def _random_element(self, rng):
        return PoincareElement.from_params(rng.uniform(-0.6, 0.6, 6), rng.uniform(-1, 1, 4))

    def test_identity_compose(self):
        rng = np.random.default_rng(5)
        g = self._random_element(rng)
        gi = PoincareElement.identity().compose(g)
        assert np.abs(gi.matrix - g.matrix).max() == 0.0
        assert np.abs(gi.translation - g.translation).max() == 0.0

    def test_inverse_law(self):
        rng = np.random.default_rng(6)
        g = self._random_element(rng)
        ident = g.compose(g.inverse())
        assert np.abs(ident.matrix - np.eye(4)).max() <= 1e-12
        assert np.abs(ident.translation).max() <= 1e-12

    def test_composition_formula_against_matrix_product(self):
        # two boosts along different axes
        g1 = PoincareElement.from_params([0.4, 0, 0, 0, 0, 0], [1.0, 0.5, -0.2, 0.0])
        g2 = PoincareElement.from_params([0, 0.7, 0, 0, 0, 0], [-0.3, 0.1, 0.0, 2.0])
        g = g2.compose(g1)
        assert np.abs(g.matrix - g2.matrix @ g1.matrix).max() <= 1e-14
        assert np.abs(g.translation - (g2.matrix @ g1.translation + g2.translation)).max() <= 1e-14
        assert np.abs(g.matrix.T @ ETA @ g.matrix - ETA).max() <= 1e-12

    def test_associativity_random_triples(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            a, b, c = (self._random_element(rng) for _ in range(3))
            left = c.compose(b).compose(a)
            right = c.compose(b.compose(a))
            assert np.abs(left.matrix - right.matrix).max() <= 1e-12
            assert np.abs(left.translation - right.translation).max() <= 1e-12

    def test_apply_matches_point_map(self):
        rng = np.random.default_rng(9)
        g = self._random_element(rng)
        pts = rng.uniform(-2, 2, (10, 4))
        assert np.array_equal(g.apply(pts), g.point_map()(pts))
        assert_allclose(g.apply(pts), pts @ g.matrix.T + g.translation, rtol=1e-15, atol=1e-15)

    def test_inverse_params_negated(self):
        g = PoincareElement.from_params([0.2, 0, 0, 0.3, 0, 0], [1, 2, 3, 4])
        assert_allclose(g.inverse().params, [-0.2, 0, 0, -0.3, 0, 0], atol=0)


class TestCharts:
    """A chart is an ``AffineMap`` from points to coordinates; its inverse maps coordinates back."""

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(12)
        L = np.eye(4) + 0.2 * rng.uniform(-1, 1, (4, 4))
        chart = AffineMap(L, rng.uniform(-1, 1, 4))
        pts = rng.uniform(-3, 3, (20, 4))
        assert np.abs(chart.inverse()(chart(pts)) - pts).max() <= 1e-12

    def test_transition_identity_charts(self):
        u = AffineMap.identity()
        trans = chart_transition(u, u)
        pts = np.random.default_rng(1).uniform(-2, 2, (5, 4))
        for m in (trans.coord_map, trans.coord_map.inverse(), trans.point_map, trans.point_map.inverse()):
            assert np.abs(m(pts) - pts).max() <= 1e-12

    def test_transition_from_poincare_change(self):
        # u' = (Lambda, a) o u with u the identity chart
        g = PoincareElement.from_params([0.5, 0, 0, 0, 0, 0], np.zeros(4))
        trans = chart_transition(AffineMap.identity(), g.point_map())
        r = np.array([0.7, -1.2, 0.4, 2.0])
        assert_allclose(trans.coord_map(r), g.matrix @ r, atol=1e-13)
        lam_inv = np.linalg.inv(g.matrix)
        assert_allclose(trans.coord_map.inverse()(r), lam_inv @ r, atol=1e-13)

    def test_transition_general_charts_definitions(self):
        rng = np.random.default_rng(13)
        L = np.eye(4) + 0.25 * rng.uniform(-1, 1, (4, 4))
        u = AffineMap(L, rng.uniform(-1, 1, 4))
        g = PoincareElement.from_params(rng.uniform(-0.4, 0.4, 6), rng.uniform(-1, 1, 4))
        u_prime = g.point_map().compose(u)
        trans = chart_transition(u, u_prime)
        pts = rng.uniform(-2, 2, (8, 4))
        # coordinate maps: u' o u^-1 and its inverse
        assert_allclose(trans.coord_map(u(pts)), u_prime(pts), atol=1e-12)
        assert_allclose(trans.coord_map.inverse()(u_prime(pts)), u(pts), atol=1e-12)
        # point maps: u^-1 o u' and u'^-1 o u
        assert_allclose(trans.point_map(pts), u.inverse()(u_prime(pts)), atol=1e-12)
        assert_allclose(trans.point_map.inverse()(pts), u_prime.inverse()(u(pts)), atol=1e-12)

    def test_transition_has_two_maps(self):
        assert [f.name for f in dataclasses.fields(ChartTransition)] == ["coord_map", "point_map"]

    def test_transition_pair_composition(self):
        g = PoincareElement.from_params([0.3, 0, 0.1, 0.2, 0, 0], [0.5, 0, -1, 0])
        trans = chart_transition(AffineMap.identity(), g.point_map())
        both = trans.coord_map.compose(trans.coord_map.inverse())
        assert np.abs(both.linear - np.eye(4)).max() <= 1e-12
        assert np.abs(both.offset).max() <= 1e-12

    def test_singular_chart_rejected(self):
        L = np.eye(4)
        L[2, 2] = 0.0
        with pytest.raises(ValueError):
            AffineMap(L, np.zeros(4))


class TestAffineMapLayout:
    """``AffineMap.__call__`` is ``points @ L.T + offset`` whatever the input's layout and shape."""

    MAP = AffineMap(np.diag([1.5, 0.5, 2.0, 1.0]) + np.triu(np.full((4, 4), 0.3), 1), [0.3, -1.0, 0.0, 2.0])

    def _check(self, points):
        expected = np.asarray(points) @ self.MAP.linear.T + self.MAP.offset
        out = self.MAP(points)
        assert out.shape == np.shape(points)
        assert np.abs(out - expected).max() <= 1e-15 * np.abs(expected).max()
        assert not np.shares_memory(out, points)
        return out

    def test_row_major_batch(self):
        pts = np.random.default_rng(1).uniform(-3, 3, (50, 4))
        before = pts.copy()
        out = self._check(pts)
        assert np.array_equal(pts, before)
        assert all(out[:, k].flags.c_contiguous for k in range(4))

    def test_coordinate_major_view(self):
        cols = np.random.default_rng(2).uniform(-3, 3, (4, 3, 5, 7))
        self._check(np.moveaxis(cols, 0, -1))
        # a coordinate-major view of part of a buffer, as a short last block is
        self._check(np.moveaxis(cols[:, :2], 0, -1))

    def test_single_point(self):
        out = self._check(np.array([0.5, -1.0, 2.0, 0.25]))
        assert out.shape == (4,)

    def test_nested_batch(self):
        out = self._check(np.random.default_rng(3).uniform(-3, 3, (2, 3, 5, 4)))
        assert all(out[..., k].flags.c_contiguous for k in range(4))


class TestTransitionJacobian:
    def test_poincare_is_unit(self):
        g = PoincareElement.from_params([0.3, -0.1, 0.2, 0.5, 0.1, -0.4], [1, 0, 0, 2])
        assert abs(g.point_map().jacobian - 1.0) <= 1e-12

    def test_dilation(self):
        m = AffineMap(math.exp(0.1) * np.eye(4), np.zeros(4))
        assert abs(m.jacobian - math.exp(0.4)) <= 1e-12

    def test_identity(self):
        assert AffineMap.identity().jacobian == 1.0

    def test_is_the_determinant_and_not_a_constructor_argument(self):
        L = np.diag([1.5, 0.5, 2.0, 1.0]) + np.triu(np.full((4, 4), 0.3), 1)
        m = AffineMap(L, np.zeros(4))
        assert m.jacobian == float(np.linalg.det(L))
        assert "jacobian" not in repr(m)
        with pytest.raises(TypeError):
            AffineMap(L, np.zeros(4), 1.0)
