import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import covariant_kit.fields as fields_module
from covariant_kit.fields import (
    FieldFunction,
    FrameChange,
    GaussianBound,
    GridSpec,
    SingularFrameError,
    active_transform,
    active_transform_bound,
    cocycle_check,
    constant_field,
    dump_field_csv,
    frame_change_components,
    gradient_fd_residual,
    pairing,
    pairings,
    passive_transform,
    transform_test_function,
    transform_test_function_bound,
    wave_packet,
)
from covariant_kit.geometry import AffineMap, PoincareElement
from covariant_kit.representations import FieldRep, rep_matrix, rep_matrix_for_element

from oracles import gaussian_overlap, hermite_pairing, trapezoid_1d

RNG = np.random.default_rng(42)
POINTS = RNG.uniform(-2.0, 2.0, (40, 4))


def _poly_packet():
    # two components with distinct polynomial prefactors
    comps = [
        [(1.0, (0, 0, 0, 0)), (0.5 + 0.25j, (1, 0, 0, 0))],
        [(0.7j, (0, 2, 0, 0)), (-0.3, (0, 0, 1, 1))],
    ]
    return wave_packet([0.2, -0.1, 0.3, 0.0], 1.1, comps)


class TestWavePacket:
    def test_gradient_matches_central_differences(self):
        assert gradient_fd_residual(wave_packet([0, 0, 0, 0], 1.0, 1), POINTS) <= 1e-6
        assert gradient_fd_residual(_poly_packet(), POINTS) <= 1e-6

    def test_peak_value(self):
        f = wave_packet([1.0, 2.0, 0.0, -1.0], 0.7, 1)
        assert abs(f(np.array([1.0, 2.0, 0.0, -1.0]))[0] - 1.0) <= 1e-15

    def test_effective_compact_support(self):
        s = 0.5
        f = wave_packet([0, 0, 0, 0], s, [[(3.0, (2, 1, 0, 0))]])
        far = np.array([40.5 * s, 0.0, 0.0, 0.0])
        assert abs(f(far)[0]) < 1e-300

    def test_single_point_and_batch_shapes(self):
        f = _poly_packet()
        single = f(np.zeros(4))
        batch = f(np.zeros((3, 5, 4)))
        assert single.shape == (2,)
        assert batch.shape == (3, 5, 2)
        assert f.gradient(np.zeros(4)).shape == (2, 4)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            wave_packet([0, 0, 0], 1.0, 1)
        with pytest.raises(ValueError):
            wave_packet([0, 0, 0, 0], -1.0, 1)
        with pytest.raises(ValueError):
            wave_packet([0, 0, 0, 0], 1.0, [[(1.0, (0, 0, 0))]])

    @pytest.mark.parametrize("width", [1e-300, 1e-162, 1e-155, 1.35e154, 1e200, 1e300])
    def test_width_whose_square_leaves_the_double_range_is_rejected(self, width):
        # s**2 overflowed (OverflowError) above about 1.34e154; below about
        # 1.05e-154, 2 / s**2 was inf, and a ZeroDivisionError below 1e-162.
        with pytest.raises(ValueError, match="width"):
            wave_packet([0, 0, 0, 0], width, 1)

    @pytest.mark.parametrize("width", [1.1e-154, 1e-150, 1e150, 1.3e154])
    def test_widths_just_inside_the_range_evaluate(self, width):
        f = wave_packet([0, 0, 0, 0], width, [[(1.0, (1, 0, 0, 0))]])
        x = np.array([[0.5 * width, 0.0, 0.0, 0.0]])
        assert np.isfinite(f(x)).all() and np.isfinite(f.gradient(x)).all()
        assert f(x)[0, 0] == pytest.approx(0.5 * width * math.exp(-0.25))


class TestPassiveTransform:
    def test_identity_element(self):
        f = _poly_packet()
        rep = FieldRep.vector()
        g = PoincareElement.identity()
        vec = wave_packet([0, 0, 0, 0], 1.0, 4)
        out = passive_transform(vec, rep, g)
        assert np.abs(out(POINTS) - vec(POINTS)).max() <= 1e-14

    def test_translation_shifts_gaussian(self):
        c = np.array([0.5, -0.3, 0.2, 0.1])
        a = np.array([1.0, 0.5, -0.7, 0.3])
        f = wave_packet(c, 0.9, 1)
        moved = passive_transform(f, FieldRep.scalar(), PoincareElement.from_params(np.zeros(6), a))
        # peak sits at c + a with the original peak value
        assert abs(moved(c + a)[0] - f(c)[0]) <= 1e-14
        assert np.abs(moved(POINTS) - f(POINTS - a)).max() <= 1e-14

    def test_vector_boost_at_origin(self):
        omega = np.array([0.5, 0, 0, 0, 0, 0])
        g = PoincareElement.from_params(omega, np.zeros(4))
        vec = wave_packet([0, 0, 0, 0], 1.0, [1.0, 0.5, -0.25, 2.0])
        out = passive_transform(vec, FieldRep.vector(), g)
        # argument fixed at the origin, components mixed by the matrix
        expected = g.linear.astype(complex) @ vec(np.zeros(4))
        assert_allclose(out(np.zeros(4)), expected, atol=1e-13)

    def test_composition_covariance(self):
        rng = np.random.default_rng(3)
        g1 = PoincareElement.from_params(rng.uniform(-0.4, 0.4, 6), rng.uniform(-1, 1, 4))
        g2 = PoincareElement.from_params(rng.uniform(-0.4, 0.4, 6), rng.uniform(-1, 1, 4))
        vec = wave_packet([0.1, 0, -0.2, 0], 1.3, 4)
        rep = FieldRep.vector()
        stepwise = passive_transform(passive_transform(vec, rep, g1), rep, g2)
        direct = passive_transform(vec, rep, g2.compose(g1))
        assert np.abs(stepwise(POINTS) - direct(POINTS)).max() <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            passive_transform(wave_packet([0, 0, 0, 0], 1.0, 2), FieldRep.vector(), PoincareElement.identity())

    def test_transformed_gradient_chain_rule(self):
        g = PoincareElement.from_params([0.3, 0, 0, 0.5, 0, 0], [0.5, 0, 1, 0])
        out = passive_transform(wave_packet([0, 0, 0, 0], 1.0, 4), FieldRep.vector(), g)
        assert gradient_fd_residual(out, POINTS) <= 1e-6


class TestActiveTransform:
    def test_identity_element(self):
        f = wave_packet([0.3, 0, 0, 0], 1.0, 1)
        out = active_transform(f, FieldRep.scalar(), PoincareElement.identity())
        assert np.abs(out(POINTS) - f(POINTS)).max() <= 1e-14

    def test_translation_shifts_opposite_to_passive(self):
        c = np.array([0.5, -0.3, 0.2, 0.1])
        a = np.array([1.0, 0.5, -0.7, 0.3])
        f = wave_packet(c, 0.9, 1)
        moved = active_transform(f, FieldRep.scalar(), PoincareElement.from_params(np.zeros(6), a))
        # now the packet is centered at c - a
        assert abs(moved(c - a)[0] - f(c)[0]) <= 1e-14
        assert np.abs(moved(POINTS) - f(POINTS + a)).max() <= 1e-14

    def test_dilation_point_map_includes_jacobian(self):
        b = 0.1
        f = wave_packet([0, 0, 0, 0], 1.2, 1)
        out = active_transform(f, FieldRep.scalar(), AffineMap(math.exp(b) * np.eye(4), np.zeros(4)))
        expected = math.exp(4 * b) * f(math.exp(b) * POINTS)
        assert np.abs(out(POINTS) - expected).max() <= 1e-12

    def test_uses_transposed_matrix(self):
        omega = np.array([0, 0, 0, 0.7, 0, 0])
        g = PoincareElement.from_params(omega, np.zeros(4))
        vec = wave_packet([0, 0, 0, 0], 1.0, [1.0, -0.5, 0.25, 0.75])
        out = active_transform(vec, FieldRep.vector(), g)
        expected = rep_matrix(FieldRep.vector(), omega).T @ vec(g(np.zeros(4)))
        assert_allclose(out(np.zeros(4)), expected, atol=1e-13)

    def test_roundtrip_with_inverse(self):
        g = PoincareElement.from_params([0.4, 0, -0.2, 0.3, 0, 0.1], [0.5, -1, 0, 2])
        for rep, n in ((FieldRep.vector(), 4), (FieldRep.spinor(), 4), (FieldRep.scalar(), 1)):
            f = wave_packet([0.1, 0.2, 0, 0], 1.0, n)
            back = active_transform(active_transform(f, rep, g), rep, g.inverse())
            assert np.abs(back(POINTS) - f(POINTS)).max() <= 1e-10

    def test_spinor_for_affine_map_rejected(self):
        with pytest.raises(ValueError):
            active_transform(wave_packet([0, 0, 0, 0], 1, 4), FieldRep.spinor(), AffineMap.identity())

    def test_non_affine_map_rejected(self):
        g = PoincareElement.from_params([0.2, 0, 0, 0, 0, 0])
        with pytest.raises(TypeError, match="expected an AffineMap"):
            active_transform(wave_packet([0, 0, 0, 0], 1, 4), FieldRep.vector(), (g.linear, g.offset))

    def test_gradient_chain_rule(self):
        g = PoincareElement.from_params([0.2, 0, 0, 0.4, 0, 0], [1, 0, 0, -0.5])
        packet = wave_packet([0.2, -0.1, 0.3, 0.0], 1.1, [1.0, [(0.5j, (1, 1, 0, 0))], -0.4, 0.8])
        out = active_transform(packet, FieldRep.vector(), g)
        assert gradient_fd_residual(out, POINTS) <= 1e-6


class TestTestFunctionTransform:
    def test_identity(self):
        f = wave_packet([0.2, -0.1, 0.3, 0.0], 1.1, 1)
        out = transform_test_function(f, FieldRep.scalar(), PoincareElement.identity())
        assert np.abs(out(POINTS) - f(POINTS)).max() <= 1e-14

    def test_rotation_moves_bump_center(self):
        # bump centered on the +x1 axis; quarter turn in the (1,2) plane
        f = wave_packet([0.0, 1.0, 0.0, 0.0], 0.5, 1)
        omega = np.array([0, 0, 0, math.pi / 2, 0, 0])
        g = PoincareElement.from_params(omega, np.zeros(4))
        out = transform_test_function(f, FieldRep.scalar(), g)
        new_center = g.linear @ np.array([0.0, 1.0, 0.0, 0.0])
        assert abs(out(new_center)[0] - 1.0) <= 1e-12
        assert np.abs(out(POINTS) - f(g.inverse()(POINTS))).max() <= 1e-13

    def test_vector_components_multiplied_by_matrix(self):
        omega = np.array([0.5, 0, 0, 0, 0, 0])
        g = PoincareElement.from_params(omega, np.zeros(4))
        vec = wave_packet([0, 0, 0, 0], 1.0, [1.0, 2.0, -1.0, 0.5])
        out = transform_test_function(vec, FieldRep.vector(), g)
        x = np.array([0.3, -0.2, 0.1, 0.4])
        expected = rep_matrix(FieldRep.vector(), omega) @ vec(g.inverse()(x))
        assert_allclose(out(x), expected, atol=1e-13)


class TestAffineMapLaws:
    """The passive and test-function laws take the AffineMap that active_transform takes."""

    # Orientation-preserving, det L = 1.2 * 0.9 * 1.1 = 1.188, and not a Lorentz matrix.
    MAP = AffineMap(
        PoincareElement.from_params([0.3, 0, 0, 0.2, 0, 0]).linear @ np.diag([1.2, 0.9, 1.1, 1.0]),
        np.array([0.2, -0.1, 0.0, 0.3]),
    )
    GRID = GridSpec(((-7.0, 7.0),) * 4, (33,) * 4)

    @pytest.mark.parametrize("law", [transform_test_function, passive_transform])
    def test_pulls_back_through_the_inverse(self, law):
        lin, off = self.MAP.linear, self.MAP.offset
        pulled = np.linalg.solve(lin, (POINTS - off).T).T
        f = wave_packet([0.2, -0.1, 0.3, 0.0], 1.1, 1)
        assert np.abs(law(f, FieldRep.scalar(), self.MAP)(POINTS) - f(pulled)).max() <= 1e-13
        vec = wave_packet([0.1, 0.0, -0.2, 0.1], 1.2, [1.0, -0.5, 0.25, 0.75])
        expected = vec(pulled) @ lin.T
        assert np.abs(law(vec, FieldRep.vector(), self.MAP)(POINTS) - expected).max() <= 1e-13

    @pytest.mark.parametrize("kind", ["scalar", "vector"])
    def test_pairing_invariance_needs_the_jacobian(self, kind):
        rep = getattr(FieldRep, kind)()
        comps = [1.0, -0.5, 0.25, 0.75][: rep.n]
        phi = wave_packet([0.3, -0.2, 0.1, 0.0], 1.1, comps)
        f = wave_packet([-0.25, 0.4, 0.0, 0.2], 1.3, comps[::-1])
        jac = np.linalg.det(self.MAP.linear)
        moved = pairing(active_transform(phi, rep, self.MAP), f, self.GRID)
        pulled = pairing(phi, transform_test_function(f, rep, self.MAP), self.GRID)
        assert abs(moved - pulled) <= 1e-10 * abs(pulled)
        # The same law without the factor J is off by 1 - 1/J, about |det L - 1|.
        mat = rep_matrix_for_element(rep, self.MAP)
        bare = pairing(fields_module._composed_field(phi, mat.T, self.MAP, 1.0), f, self.GRID)
        off = abs(bare - pulled) / abs(pulled)
        assert abs(off - (1 - 1 / jac)) <= 1e-9
        assert off >= 0.5 * abs(jac - 1)


class TestFrameChange:
    def test_identity_change(self):
        f = _poly_packet()
        out = frame_change_components(f, FrameChange.constant(np.eye(2)))
        assert np.abs(out(POINTS) - f(POINTS)).max() == 0.0

    def test_constant_doubling_halves_components(self):
        f = _poly_packet()
        out = frame_change_components(f, FrameChange.constant(2.0 * np.eye(2)))
        assert np.abs(out(POINTS) - 0.5 * f(POINTS)).max() <= 1e-15

    def test_phase_matrix_multiplies_by_inverse_phase(self):
        q, e, b = 1.5, 0.5, 0.8
        rep = FieldRep.phase(q, e)
        f = wave_packet([0, 0, 0, 0], 1.0, 1)
        out = frame_change_components(f, FrameChange.constant(rep_matrix(rep, b)))
        expected = np.exp(+(q / (1j * e)) * b) * f(POINTS)
        assert np.abs(out(POINTS) - expected).max() <= 1e-14

    def test_strictly_pointwise(self):
        # adding a far-away bump must not change the output near the origin
        near = wave_packet([0, 0, 0, 0], 1.0, 1)
        far = wave_packet([50.0, 0, 0, 0], 1.0, 1)
        combined = FieldFunction(
            1,
            lambda p: near.evaluate(p) + far.evaluate(p),
            lambda p: near.gradient(p) + far.gradient(p),
        )
        change = FrameChange(
            1, lambda p: (1.0 + 0.1 * np.sin(np.asarray(p)[..., 0]))[..., None, None] * np.eye(1)
        )
        a = frame_change_components(near, change)(POINTS)
        b = frame_change_components(combined, change)(POINTS)
        assert np.array_equal(a, b)  # far bump underflows to exactly zero here

    def test_varying_change_gradient(self):
        def mat(p):
            p = np.asarray(p)
            out = np.zeros(p.shape[:-1] + (2, 2), dtype=complex)
            out[..., 0, 0] = 1.0 + 0.2 * np.sin(p[..., 0])
            out[..., 1, 1] = 1.0 + 0.1 * np.cos(p[..., 1])
            out[..., 0, 1] = 0.05 * p[..., 2]
            return out

        out = frame_change_components(_poly_packet(), FrameChange(2, mat))
        assert gradient_fd_residual(out, POINTS[:12]) <= 1e-6

    def test_singular_frame_reports_point(self):
        def mat(p):
            p = np.asarray(p)
            scale = p[..., 0]  # vanishes on the x0 = 0 plane
            return scale[..., None, None] * np.eye(1)

        f = wave_packet([0, 0, 0, 0], 1.0, 1)
        bad = frame_change_components(f, FrameChange(1, mat))
        pts = np.array([[1.0, 0, 0, 0], [0.0, 1.0, 0, 0]])
        with pytest.raises(SingularFrameError) as err:
            bad(pts)
        assert_allclose(err.value.point, [0.0, 1.0, 0, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            frame_change_components(_poly_packet(), FrameChange.constant(np.eye(3)))


class TestCocycle:
    def test_identity_triple(self):
        eye = FrameChange.constant(np.eye(2))
        assert cocycle_check(eye, eye, eye, POINTS) == 0.0

    def test_commuting_scalars(self):
        c1 = FrameChange.constant(1.7 * np.eye(2))
        c2 = FrameChange.constant(-0.4 * np.eye(2))
        c12 = FrameChange.constant(1.7 * -0.4 * np.eye(2))
        assert cocycle_check(c1, c2, c12, POINTS) <= 1e-14

    def test_product_constructed_third(self):
        def m1(p):
            p = np.asarray(p)
            out = np.broadcast_to(np.eye(2, dtype=complex), p.shape[:-1] + (2, 2)).copy()
            out[..., 0, 1] = 0.3 * np.sin(p[..., 1])
            return out

        def m2(p):
            p = np.asarray(p)
            out = np.broadcast_to(np.eye(2, dtype=complex), p.shape[:-1] + (2, 2)).copy()
            out[..., 1, 0] = 0.2 * np.cos(p[..., 0])
            out[..., 1, 1] = 1.0 + 0.1 * p[..., 3] ** 2
            return out

        def m12(p):
            return np.einsum("...ij,...jk->...ik", m1(p), m2(p))

        res = cocycle_check(FrameChange(2, m1), FrameChange(2, m2), FrameChange(2, m12), POINTS)
        assert res <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cocycle_check(
                FrameChange.constant(np.eye(2)),
                FrameChange.constant(np.eye(3)),
                FrameChange.constant(np.eye(2)),
                POINTS,
            )


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(((0.0, 1.0),) * 4, (1, 5, 5, 5))
        with pytest.raises(ValueError):
            GridSpec(((1.0, 0.0),) * 4, (5,) * 4)
        with pytest.raises(ValueError):
            GridSpec(((0.0, 1.0),) * 3, (5,) * 3)

    @pytest.mark.parametrize("counts", [(9.7, 9, 9, 9), ("9", 9, 9, 9), (9, 9, float("nan"), 9), (9, 9, 9, float("inf"))])
    def test_counts_must_be_integers(self, counts):
        with pytest.raises(ValueError, match="grid point counts must be integers"):
            GridSpec(((0.0, 1.0),) * 4, counts)

    def test_integral_counts_are_stored_as_ints(self):
        grid = GridSpec(((0.0, 1.0),) * 4, (9.0, np.int64(5), np.float64(3.0), 4))
        assert grid.counts == (9, 5, 3, 4) and all(type(k) is int for k in grid.counts)

    @pytest.mark.parametrize("bound", [float("nan"), float("inf"), -float("inf")])
    def test_bounds_must_be_finite(self, bound):
        for bounds in [((0.0, bound),) + ((0.0, 1.0),) * 3, ((0.0, 1.0),) * 3 + ((bound, 1.0),)]:
            with pytest.raises(ValueError, match="grid bounds must be finite"):
                GridSpec(bounds, (5,) * 4)

    def test_refine_halves_steps(self):
        g = GridSpec(((-1.0, 1.0),) * 4, (5, 9, 3, 5))
        r = g.refine()
        assert r.counts == (9, 17, 5, 9)
        for ax_c, ax_f in zip(g.axes(), r.axes()):
            assert np.all(np.isin(np.round(ax_c, 12), np.round(ax_f, 12)))

    def test_weights_sum_to_length(self):
        g = GridSpec(((-3.0, 5.0),) * 4, (9,) * 4)
        for w in g.weights():
            assert abs(w.sum() - 8.0) <= 1e-12

    def test_level_weights_are_the_coarse_grids_trapezoid_weights(self):
        # Non-dyadic bounds, so each level's step (hi - lo) / m rounds on its own.
        bounds, counts = ((-5.3, 4.9), (-6.1, 5.7), (-4.7, 5.5), (-5.9, 4.3)), (9, 17, 13, 9)
        levels = fields_module._level_weights(GridSpec(bounds, counts), 3)
        for (lo, hi), k, w in zip(bounds, counts, levels):
            assert w.shape == (k, 3)
            for j, step in enumerate((4, 2, 1)):
                m = (k - 1) // step
                expected = np.zeros(k)
                expected[::step] = (hi - lo) / m
                expected[[0, -1]] /= 2
                assert np.array_equal(w[:, j], expected), (k, j)
        for w, one in zip(GridSpec(bounds, counts).weights(), levels):
            assert np.array_equal(w, one[:, -1])


class TestPairing:
    def test_zero_test_function(self):
        phi = wave_packet([0, 0, 0, 0], 1.0, 1)
        zero = wave_packet([0, 0, 0, 0], 1.0, [0.0])
        grid = GridSpec(((-6.0, 6.0),) * 4, (9,) * 4)
        assert pairing(phi, zero, grid) == 0.0

    def test_unit_gaussian_integral(self):
        # widths sqrt(2) so the product is exp(-|x|^2);整integral = pi^2
        w = math.sqrt(2.0)
        phi = wave_packet([0, 0, 0, 0], w, 1)
        grid = GridSpec(((-8.0, 8.0),) * 4, (33,) * 4)
        val = pairing(phi, phi, grid)
        assert abs(val.imag) <= 1e-15
        assert abs(val.real - math.pi**2) <= 1e-8 * math.pi**2
        # separable product of 1-D trapezoids is the same number
        oracle = trapezoid_1d(lambda x: np.exp(-(x**2)), -8.0, 8.0, 33) ** 4
        assert abs(val.real - oracle) <= 1e-10 * abs(oracle)

    def test_disjoint_supports(self):
        phi = wave_packet([0, 0, 0, 0], 1.0, 1)
        f = wave_packet([100.0, 0, 0, 0], 1.0, 1)
        grid = GridSpec(((-8.0, 108.0), (-8.0, 8.0), (-8.0, 8.0), (-8.0, 8.0)), (65, 17, 17, 17))
        assert abs(pairing(phi, f, grid)) <= 1e-12

    def test_component_sum(self):
        # two components integrate to the sum of the separate pairings
        phi = wave_packet([0, 0, 0, 0], math.sqrt(2.0), [1.0, 2.0])
        f = wave_packet([0, 0, 0, 0], math.sqrt(2.0), [1.0, 1.0])
        grid = GridSpec(((-8.0, 8.0),) * 4, (17,) * 4)
        single = pairing(
            wave_packet([0, 0, 0, 0], math.sqrt(2.0), 1),
            wave_packet([0, 0, 0, 0], math.sqrt(2.0), 1),
            grid,
        )
        assert abs(pairing(phi, f, grid) - 3 * single) <= 1e-12

    def test_mismatch_rejected(self):
        phi = wave_packet([0, 0, 0, 0], 1.0, 2)
        f = wave_packet([0, 0, 0, 0], 1.0, 1)
        with pytest.raises(ValueError):
            pairing(phi, f, GridSpec())

    def test_invariance_under_boost_cheap(self):
        # active-transformed field against original test function vs
        # original field against transformed test function
        phi = wave_packet([0.3, -0.2, 0.1, 0.0], 1.0, 1)
        f = wave_packet([-0.25, 0.4, 0.0, 0.2], 1.2, 1)
        g = PoincareElement.from_params([0.3, 0, 0, 0, 0, 0], np.zeros(4))
        rep = FieldRep.scalar()
        grid = GridSpec(((-7.0, 7.0),) * 4, (33,) * 4)
        lhs = pairing(active_transform(phi, rep, g), f, grid)
        rhs = pairing(phi, transform_test_function(f, rep, g), grid)
        assert abs(lhs - rhs) / abs(rhs) <= 1e-6


def _bits(values):
    return np.ascontiguousarray(np.asarray(values, dtype=complex)).view(np.int64)


def _complex_packet(center, width, comps, points):
    """The complex evaluation: monomials from ones, terms added into zeros."""
    y = np.asarray(points, dtype=float) - center
    envelope = np.exp(-np.sum(y * y, axis=-1) / width**2)
    vals = np.zeros(y.shape[:-1] + (len(comps),), dtype=complex)
    for i, terms in enumerate(comps):
        for coeff, powers in terms:
            mono = np.ones(y.shape[:-1], dtype=complex)
            for k, p in enumerate(powers):
                if p:
                    mono = mono * y[..., k] ** p
            vals[..., i] += complex(coeff) * mono
    return vals * envelope[..., None]


def _complex_gradient(center, width, comps, points):
    """The complex gradient: every monomial and its derivatives from ones,
    each derivative term p * coeff times its monomial, added into zeros,
    then (dP - (2/s^2) P y) e."""
    y = np.asarray(points, dtype=float) - center
    envelope = np.exp(-np.sum(y * y, axis=-1) / width**2)
    vals = np.zeros(y.shape[:-1] + (len(comps),), dtype=complex)
    grads = np.zeros(y.shape[:-1] + (len(comps), 4), dtype=complex)
    for i, terms in enumerate(comps):
        for coeff, powers in terms:
            mono = np.ones(y.shape[:-1], dtype=complex)
            for k, p in enumerate(powers):
                if p:
                    mono = mono * y[..., k] ** p
            vals[..., i] += complex(coeff) * mono
            for k, p in enumerate(powers):
                if p:
                    dmono = np.ones(y.shape[:-1], dtype=complex)
                    for j, pj in enumerate(powers):
                        pw = pj - 1 if j == k else pj
                        if pw:
                            dmono = dmono * y[..., j] ** pw
                    grads[..., i, k] += complex(p * coeff) * dmono
    out = grads - (2.0 / width**2) * vals[..., :, None] * y[..., None, :]
    return out * envelope[..., None, None]


def _trapezoid_in_order(integrands, grid):
    """Trapezoid sum of whole axis-0 slices in the order ``pairings`` adds.

    Each slice's real and imaginary parts are summed apart: over axes 2
    and 3 by one real matrix product with the outer product of their
    weights, then over axis 1.  The slice sums are added in order.
    """
    w0, w1, w2, w3 = grid.weights()
    w23 = np.outer(w2, w3).reshape(-1, 1)
    total = np.zeros(2)
    for w, integrand in zip(w0, integrands):
        for k, part in enumerate((integrand.real, np.imag(integrand))):
            rows = np.ascontiguousarray(part).reshape(len(w1), -1)
            total[k] += w * np.einsum("aj,aj->j", w1[:, None], rows @ w23)[0]
    return complex(total[0], total[1])


def _complex_pairing(phi, f, grid):
    """Trapezoid sum of complex integrands, one axis-0 slice at a time."""
    axes = grid.axes()
    slices = (np.stack(np.meshgrid([x0], *axes[1:], indexing="ij"), axis=-1)[0] for x0 in axes[0])
    return _trapezoid_in_order((np.sum(phi(pts) * f(pts), axis=-1) for pts in slices), grid)


class TestClosedFormPairing:
    """Quadrature against the exact Gaussian overlap over R^4."""

    GRID = GridSpec(((-7.0, 7.0),) * 4, (33,) * 4)
    C1 = np.array([0.3, -0.2, 0.1, 0.0])
    C2 = np.array([-0.25, 0.4, 0.0, 0.2])
    S1, S2 = 1.1, 1.3

    def _check(self, value, exact):
        assert abs(value.imag) == 0.0
        assert abs(value.real - exact) <= 1e-12 * abs(exact)

    def test_one_component_pair(self):
        phi = wave_packet(self.C1, self.S1, [0.8])
        f = wave_packet(self.C2, self.S2, [1.3])
        exact = 0.8 * 1.3 * gaussian_overlap(np.eye(4) / self.S1**2, self.C1, np.eye(4) / self.S2**2, self.C2)
        self._check(pairing(phi, f, self.GRID), exact)

    def test_four_component_constant_amplitudes(self):
        a, b = [1.0, 0.5, -0.7, 1.2], [0.9, 1.1, 0.6, -1.0]
        phi = wave_packet(self.C1, self.S1, a)
        f = wave_packet(self.C2, self.S2, b)
        exact = np.dot(a, b) * gaussian_overlap(np.eye(4) / self.S1**2, self.C1, np.eye(4) / self.S2**2, self.C2)
        self._check(pairing(phi, f, self.GRID), exact)

    def test_active_side_under_boost(self):
        # phi(L x + a) = exp(-(x - m)^T L^T L (x - m) / s^2) with m = L^-1 (c - a)
        g = PoincareElement.from_params([0.3, 0.0, 0.0, 0.2, 0.0, 0.0], [0.3, 0.0, -0.2, 0.1])
        moved = active_transform(wave_packet(self.C1, self.S1, 1), FieldRep.scalar(), g)
        f = wave_packet(self.C2, self.S2, 1)
        lin = g.linear
        m = np.linalg.solve(lin, self.C1 - g.offset)
        exact = gaussian_overlap(lin.T @ lin / self.S1**2, m, np.eye(4) / self.S2**2, self.C2)
        self._check(pairing(moved, f, self.GRID), exact)


class TestHermitePairing:
    """Monomial packets under the laws against the Gauss-Hermite oracle over R^4."""

    GRID = GridSpec(((-7.0, 7.0),) * 4, (33,) * 4)
    C1 = np.array([0.3, -0.2, 0.1, 0.0])
    C2 = np.array([-0.25, 0.4, 0.0, 0.2])
    S1, S2 = 1.1, 1.3
    G = PoincareElement.from_params([0.3, -0.1, 0.2, 0.2, 0.1, -0.15], [0.3, 0.0, -0.2, 0.1])
    # Components 1 + c y^p with |p| <= 2.
    POWERS = [(1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 2, 0), (0, 0, 0, 1)]
    REAL = [[(1.0, (0, 0, 0, 0)), (c, p)] for c, p in zip([0.4, -0.3, 0.5, 0.2], POWERS)]
    COMPLEX = [[(1.0, (0, 0, 0, 0)), (c, p)] for c, p in zip([0.4 - 0.3j, 0.6j, -0.2 + 0.1j, 0.7], POWERS[::-1])]

    def _check(self, value, exact):
        assert abs(value - exact) <= 1e-12 * abs(exact)

    def test_oracle_reduces_to_the_gaussian_overlap(self):
        # constant amplitudes, a boosted pull-back on one side
        lam, a = self.G.linear, self.G.offset
        value = hermite_pairing(
            (np.eye(1), lam, a, self.C1, self.S1, [[(0.8, (0, 0, 0, 0))]]),
            (np.eye(1), np.eye(4), np.zeros(4), self.C2, self.S2, [[(1.3, (0, 0, 0, 0))]]),
        )
        m = np.linalg.solve(lam, self.C1 - a)
        exact = 0.8 * 1.3 * gaussian_overlap(lam.T @ lam / self.S1**2, m, np.eye(4) / self.S2**2, self.C2)
        self._check(value, exact)

    def _cli_pairs(self, kind, coeffs):
        """The pairs of the CLI's invariance check, each with its integrand bound, and the oracle's values."""
        # The representation matrix comes from the package; the packets,
        # the laws' pull-backs and the integral do not.
        rep = getattr(FieldRep, kind)()
        n, D = rep.n, rep_matrix_for_element(rep, self.G)
        lam, a = self.G.linear, self.G.offset
        inv = np.linalg.inv(lam)
        # Both packets real (float64 until a complex law acts) or both complex.
        comps = self.REAL if coeffs == "real" else self.COMPLEX
        mine, other = comps[:n], comps[::-1][:n]

        # phi and f are each shared by two pairs, as in one pass of the CLI.
        phi, f = wave_packet(self.C1, self.S1, mine), wave_packet(self.C2, self.S2, other)
        phi_bound, f_bound = GaussianBound.of_packet(self.C1, self.S1, mine), GaussianBound.of_packet(self.C2, self.S2, other)
        pairs = [
            (phi, f, phi_bound * f_bound),
            (active_transform(phi, rep, self.G), f, active_transform_bound(phi_bound, rep, self.G) * f_bound),
            (phi, transform_test_function(f, rep, self.G), phi_bound * transform_test_function_bound(f_bound, rep, self.G)),
        ]
        same = (np.eye(n), np.eye(4), np.zeros(4))
        exact = [
            hermite_pairing((*same, self.C1, self.S1, mine), (*same, self.C2, self.S2, other)),
            hermite_pairing((D.T, lam, a, self.C1, self.S1, mine), (*same, self.C2, self.S2, other)),
            hermite_pairing((*same, self.C1, self.S1, mine), (D, inv, -inv @ a, self.C2, self.S2, other)),
        ]
        return pairs, exact

    @pytest.mark.parametrize("kind", ["scalar", "vector", "spinor"])
    @pytest.mark.parametrize("coeffs", ["real", "complex"])
    def test_active_and_test_function_laws(self, kind, coeffs):
        pairs, exact = self._cli_pairs(kind, coeffs)
        values, skipped = pairings(_unbounded(pairs), self.GRID)
        assert np.all(skipped == 0.0)
        for value, oracle in zip(values[:, 0], exact):
            self._check(value, oracle)

    @pytest.mark.parametrize("kind", ["scalar", "vector", "spinor"])
    @pytest.mark.parametrize("coeffs", ["real", "complex"])
    def test_bounded_pairings(self, kind, coeffs):
        # The pass skips part of the grid, within the reported bound of the full sum.
        pairs, exact = self._cli_pairs(kind, coeffs)
        bounded, skipped = (part[:, 0] for part in pairings(pairs, self.GRID))
        full = pairings(_unbounded(pairs), self.GRID)[0][:, 0]
        boxes = fields_module._slice_boxes([b for *_, b in pairs], self.GRID)
        assert _kept_points(boxes) < 0.8 * self.GRID.npoints
        assert np.all(skipped > 0) and np.all(skipped <= 1e-15 * np.abs(exact))
        # TAIL_CUTOFF times each pair's peak times the trapezoid weight of every point outside the boxes
        weight = np.einsum("a,b,c,d->abcd", *self.GRID.weights())[_outside(boxes, self.GRID)].sum()
        for (*_, bound), bound_skipped in zip(pairs, skipped):
            assert bound_skipped == pytest.approx(fields_module.TAIL_CUTOFF * bound.amp * weight, rel=1e-12)
        for value, plain, bound, oracle in zip(bounded, full, skipped, exact):
            self._check(value, oracle)
            assert abs(value - plain) <= bound + 1e-14 * abs(plain)


def _outside(boxes, grid):
    """Mask of the grid points outside the boxes of ``fields._slice_boxes``."""
    outside = np.ones(grid.counts, dtype=bool)
    for i, box in enumerate(boxes):
        if box is not None:
            outside[(i, *box)] = False
    return outside


def _unbounded(pairs):
    """``pairs`` without their bounds: a pass of them evaluates the whole grid."""
    return [(phi, f, None) for phi, f, *_ in pairs]


def _kept_points(boxes):
    """The number of grid points in the boxes of ``fields._slice_boxes``."""
    return sum(math.prod(s.stop - s.start for s in box) for box in boxes if box is not None)


def _draw_packet(rng, n=None):
    """Center, width and ``n`` (else 1 or 4) components of a random packet: constant, or real or complex monomials of degree <= 2."""
    n = int(rng.choice([1, 4])) if n is None else n
    kind = rng.choice(["constant", "real", "complex"])
    if kind == "constant":
        comps = [float(c) for c in rng.uniform(-1.5, 1.5, n)]
    else:
        comps = []
        for _ in range(n):
            terms = []
            for _ in range(int(rng.integers(1, 4))):
                powers = [0] * 4
                for _ in range(int(rng.integers(0, 3))):
                    powers[int(rng.integers(4))] += 1
                coeff = rng.uniform(-1, 1) + (1j * rng.uniform(-1, 1) if kind == "complex" else 0.0)
                terms.append((coeff, tuple(powers)))
            comps.append(terms)
    return rng.uniform(-1, 1, 4), float(rng.uniform(0.3, 3.0)), comps


def _draw_law(rng, n):
    """A representation for ``n`` components and a Poincare element: rapidity up to 8, shifts up to 1."""
    rep = FieldRep.scalar() if n == 1 else getattr(FieldRep, str(rng.choice(["vector", "spinor"])))()
    boost = rng.normal(size=3)
    boost *= rng.uniform(0.0, 8.0) / np.linalg.norm(boost)
    return rep, PoincareElement.from_params(np.concatenate([boost, rng.uniform(-np.pi, np.pi, 3)]), rng.uniform(-1, 1, 4))


#: The laws of the real bounds: (of_packet, active law, test-function law).
BOUND_LAWS = (GaussianBound.of_packet, active_transform_bound, transform_test_function_bound)


def _bounded_fields(rng, laws=BOUND_LAWS, n=None):
    """A random packet (of ``n`` components), its two transforms and their bounds from ``laws``, with points out to 8 widths.

    Each entry is (field, bound, points): the points are the images of
    center + y, |y| up to 8 widths, under the inverse of the field's point map.
    """
    of_packet, active_law, test_law = laws
    center, width, comps = _draw_packet(rng, n)
    packet, bound = wave_packet(center, width, comps), of_packet(center, width, comps)
    rep, g = _draw_law(rng, packet.n)
    y = rng.normal(size=(200, 4))
    y *= 8 * width * rng.uniform(0.0, 1.0, (200, 1)) / np.linalg.norm(y, axis=-1, keepdims=True)
    y[0] = 0.0
    at = center + y
    return [
        (packet, bound, at),
        (active_transform(packet, rep, g), active_law(bound, rep, g), g.inverse()(at)),
        (transform_test_function(packet, rep, g), test_law(bound, rep, g), g(at)),
    ]


def _log_majorant(bound, x):
    """log of ``bound`` at points x, and the rounding of that log.

    Each entry of a pulled-back form and each product of its evaluation is
    off by a few ulps of sqrt(A_ii A_jj) |z_i| |z_j|, z = x - center.
    """
    z = x - bound.center
    reach = np.abs(z) @ np.sqrt(np.diag(bound.form))
    return math.log(bound.amp) - np.einsum("...i,ij,...j->...", z, bound.form, z), 64 * np.finfo(float).eps * reach**2 + 1e-12


def _log_abs(values):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(values))


def _worst_excess(laws, draws=40):
    """Largest log(|field(x)|_2 / bound(x)) past its rounding over random fields and points; <= 0 if the bounds hold."""
    rng = np.random.default_rng(31)
    worst = -np.inf
    for _ in range(draws):
        for field, bound, x in _bounded_fields(rng, laws):
            log_bound, rounding = _log_majorant(bound, x)
            worst = max(worst, float(np.max(_log_abs(np.linalg.norm(field.evaluate(x), axis=-1)) - log_bound - rounding)))
    return worst


def _skip_excess(sides, grid):
    """Check a bounded pass of the pairs ``(p, p_bound, q, q_bound)`` at every point it skips.

    Asserts that the pass evaluates exactly its boxes' points and that each
    skipped point's pair majorant (the product of the two bounds) is below
    TAIL_CUTOFF times its peak.  Returns the largest
    log(|integrand| / (TAIL_CUTOFF peak)) past its rounding at a skipped
    point (<= 0 when the bounds hold) and the number of points kept.
    """
    sizes = []
    first = sides[0][0]
    counted = _counting(first, sizes)
    sides = [(counted if p is first else p, a, counted if q is first else q, b) for p, a, q, b in sides]
    bounds = [a * b for _, a, _, b in sides]
    cut, axes = -math.log(fields_module.TAIL_CUTOFF), grid.axes()
    worst = -np.inf
    with np.errstate(all="ignore"):
        pairings([(p, q, bound) for (p, _, q, _), bound in zip(sides, bounds)], grid)
        boxes = fields_module._slice_boxes(bounds, grid)
        kept = _kept_points(boxes)
        assert sum(sizes) == kept
        for x0, box in zip(axes[0], boxes):
            skip = np.ones(grid.counts[1:], dtype=bool)
            if box is not None:
                skip[box] = False
            x = np.stack(np.meshgrid([x0], *axes[1:], indexing="ij"), axis=-1)[0][skip]
            for (p, p_bound, q, q_bound), bound in zip(sides, bounds):
                z = x - bound.center
                assert np.all(np.einsum("...i,ij,...j->...", z, bound.form, z) >= cut)
                integrand = np.sum(p.evaluate(x) * q.evaluate(x), axis=-1)
                rounding = _log_majorant(p_bound, x)[1] + _log_majorant(q_bound, x)[1] + 1e-9
                excess = _log_abs(integrand) - np.log(fields_module.TAIL_CUTOFF * bound.amp) - rounding
                worst = max(worst, float(np.max(excess[integrand != 0], initial=-np.inf)))
    return worst, kept


def _worst_skipped(grid, laws, draws):
    """``_skip_excess`` over random pairs as the CLI forms them, laws from ``laws``: the worst excess and the points kept."""
    rng = np.random.default_rng(grid.counts[0])
    worst, kept = -np.inf, 0
    for _ in range(draws):
        (phi, phi_bound, _), (moved, moved_bound, _), _ = _bounded_fields(rng, laws)
        (f, f_bound, _), _, (pulled, pulled_bound, _) = _bounded_fields(rng, laws, phi.n)
        sides = [(phi, phi_bound, f, f_bound), (moved, moved_bound, f, f_bound), (phi, phi_bound, pulled, pulled_bound)]
        excess, in_boxes = _skip_excess(sides, grid)
        worst, kept = max(worst, excess), kept + in_boxes
    return worst, kept


def _unwidened(center, width, comps):
    """A broken packet bound: the monomials' coefficient sums times the packet's own Gaussian."""
    amps = [abs(c) if np.isscalar(c) else sum(abs(coeff) for coeff, _ in c) for c in comps]
    return GaussianBound(float(np.linalg.norm(amps)), np.eye(4) / width**2, np.asarray(center, dtype=float))


def _norm(rep, g):
    return fields_module._norm_bound(rep_matrix_for_element(rep, g))


#: Broken bounds, each a (of_packet, active law, test-function law).
BROKEN_BOUND_LAWS = {
    "no-polynomial-widening": (_unwidened, active_transform_bound, transform_test_function_bound),
    "test-function-law-through-g": (
        GaussianBound.of_packet,
        active_transform_bound,
        lambda bound, rep, g: bound.pull_back(g, _norm(rep, g)),
    ),
    "no-representation-norm": (
        GaussianBound.of_packet,
        lambda bound, rep, g: bound.pull_back(g, abs(g.jacobian)),
        lambda bound, rep, g: bound.pull_back(g.inverse(), 1.0),
    ),
}


class TestGaussianBound:
    """A packet's and a law's Gaussian majorant bounds the field, and bounded pairings skip only below it."""

    def test_bounds_random_packets_under_the_laws(self):
        assert _worst_excess(BOUND_LAWS) <= 0.0

    @pytest.mark.parametrize("name", list(BROKEN_BOUND_LAWS))
    def test_a_broken_bound_fails(self, name):
        assert _worst_excess(BROKEN_BOUND_LAWS[name]) > 1e-3

    @pytest.mark.parametrize("count, draws", [(17, 8), (33, 3)])
    def test_skipped_points_are_below_the_cutoff(self, count, draws):
        grid = GridSpec(((-7.0, 7.0),) * 4, (count,) * 4)
        worst, kept = _worst_skipped(grid, BOUND_LAWS, draws)
        assert worst <= 0.0
        assert kept < 0.9 * draws * grid.npoints

    def test_a_box_from_the_forward_map_skips_a_live_point(self):
        # The two other broken bounds keep the right ellipsoids, so only the pointwise test above sees them.
        grid = GridSpec(((-7.0, 7.0),) * 4, (17,) * 4)
        assert _worst_skipped(grid, BROKEN_BOUND_LAWS["test-function-law-through-g"], 8)[0] > 1.0

    def test_skipped_bound_is_the_weight_outside_the_boxes(self):
        # A narrow bound skips whole x0 slices and the corners of the others, on two levels.
        grid = GridSpec(((-7.0, 7.0),) * 4, (9,) * 4)
        phi, bound = wave_packet(np.zeros(4), 0.5, 1), GaussianBound(1.5, 16.0 * np.eye(4), np.zeros(4))
        skipped = pairings([(phi, phi, bound), (phi, phi, bound * bound)], grid, levels=2)[1]
        boxes = fields_module._slice_boxes([bound, bound * bound], grid)
        assert boxes[0] is None and boxes[4] is not None
        outside = _outside(boxes, grid)
        levels = fields_module._level_weights(grid, 2)
        for j in range(2):
            weight = np.einsum("a,b,c,d->abcd", *(w[:, j] for w in levels))[outside].sum()
            expected = fields_module.TAIL_CUTOFF * weight * np.array([bound.amp, (bound * bound).amp])
            assert_allclose(skipped[:, j], expected, rtol=1e-12)

    def test_peak_and_form_of_a_pair(self):
        # exp(-|x - c1|^2 / s1^2) exp(-|x - c2|^2 / s2^2) is a Gaussian of form 1/s1^2 + 1/s2^2
        c1, c2 = np.array([0.3, -0.2, 0.1, 0.0]), np.array([-0.25, 0.4, 0.0, 0.2])
        pair = GaussianBound.of_packet(c1, 1.1, [0.8]) * GaussianBound.of_packet(c2, 1.3, [-1.5])
        a1, a2 = 1 / 1.1**2, 1 / 1.3**2
        mu = (a1 * c1 + a2 * c2) / (a1 + a2)
        assert_allclose(pair.form, (a1 + a2) * np.eye(4), rtol=1e-15)
        assert_allclose(pair.center, mu, rtol=1e-14)
        assert pair.amp == pytest.approx(1.2 * math.exp(-a1 * a2 / (a1 + a2) * np.sum((c1 - c2) ** 2)), rel=1e-14)

    def test_a_monomial_packet_widens_its_gaussian(self):
        # |y_0|^2 exp(-|y|^2 / s^2) <= (2 s^2 / (2 e e))^1 exp(-(1 - e) |y|^2 / s^2), e = 1/16
        bound = GaussianBound.of_packet(np.zeros(4), 1.5, [[(0.5, (2, 0, 0, 0)), (1.0, (0, 0, 0, 0))]])
        share = fields_module._MONOMIAL_SHARE
        assert_allclose(bound.form, (1 - share) / 1.5**2 * np.eye(4))
        assert bound.amp == pytest.approx(0.5 * 1.5**2 / (share * math.e) + 1.0, rel=1e-15)


class TestDegenerateBounds:
    """Bound data without a box make a whole-grid pass; extreme widths and boosts never raise or under-cover."""

    GRID = GridSpec(((-7.0, 7.0),) * 4, (9,) * 4)
    NARROW = GaussianBound(1.0, 4.0 * np.eye(4), np.zeros(4))
    NO_BOX = {
        "none": None,
        "infinite-amp": GaussianBound(np.inf, np.eye(4), np.zeros(4)),
        "nan-amp": GaussianBound(np.nan, np.eye(4), np.zeros(4)),
        "overflowed-form": GaussianBound(1.0, np.full((4, 4), np.inf), np.zeros(4)),
        "nan-center": GaussianBound(1.0, np.eye(4), np.array([np.nan, 0.0, 0.0, 0.0])),
        "indefinite-form": GaussianBound(1.0, np.diag([1.0, -1.0, 1.0, 1.0]), np.zeros(4)),
        "zero-form": GaussianBound(1.0, np.zeros((4, 4)), np.zeros(4)),
        "ill-conditioned-form": GaussianBound(1.0, np.diag([1.0, 1.0, 1.0, 1e-13]), np.zeros(4)),
    }

    @pytest.mark.parametrize("name", list(NO_BOX))
    def test_a_pair_without_a_box_makes_the_whole_grid(self, name):
        whole = fields_module._whole_slices(self.GRID)
        assert fields_module._slice_boxes([self.NARROW], self.GRID) != whole
        assert fields_module._slice_boxes([self.NARROW, self.NO_BOX[name]], self.GRID) == whole
        phi = wave_packet([0, 0, 0, 0], 1.0, 1)
        skipped = pairings([(phi, phi, self.NARROW), (phi, phi, self.NO_BOX[name])], self.GRID, levels=2)[1]
        assert skipped.shape == (2, 2) and np.all(skipped == 0.0)

    def test_a_pair_without_a_bound_keeps_the_unbounded_bits(self):
        pairs = list(TestBlockedPairing()._pairs(FieldRep.spinor()).values())
        grid = GridSpec(TestPairings.BOUNDS, TestPairings.COUNTS)
        bounded, skipped = pairings([(phi, f, b) for (phi, f), b in zip(pairs, [self.NARROW, None, self.NARROW])], grid, levels=3)
        assert np.array_equal(_bits(bounded), _bits(pairings(_unbounded(pairs), grid, levels=3)[0]))
        assert np.all(skipped == 0.0)

    def test_a_pair_without_its_bound_is_rejected(self):
        phi = wave_packet([0, 0, 0, 0], 1.0, 1)
        with pytest.raises(ValueError):
            pairings([(phi, phi)], self.GRID)

    @pytest.mark.parametrize("monomial", [False, True])
    @pytest.mark.parametrize("rapidity", [0.3, 8.0])
    @pytest.mark.parametrize(
        "phi_width, f_width", [(1.055e-154, 1.2), (1.34e154, 1.2), (1.055e-154, 1.055e-154), (1.34e154, 1.34e154), (1.055e-154, 1.34e154)]
    )
    def test_extreme_widths_and_boosts(self, phi_width, f_width, rapidity, monomial):
        # The CLI's three pairs at the documented width extremes: no bound raises or warns, one
        # pair's form or center overflows, so the pass takes the whole grid, and no pair alone
        # skips a live point.
        comps = [[(1.0, (0, 2, 0, 0)), (0.5, (0, 0, 0, 0))]] if monomial else [1.0]
        c1, c2 = np.array([0.3, -0.2, 0.1, 0.0]), np.array([-0.25, 0.4, 0.0, 0.2])
        rep, g = FieldRep.scalar(), PoincareElement.from_params([rapidity, 0, 0, 0, 0, 0], [0.5, 0, 0, 0])
        phi, f = wave_packet(c1, phi_width, comps), wave_packet(c2, f_width, 1)
        phi_bound, f_bound = GaussianBound.of_packet(c1, phi_width, comps), GaussianBound.of_packet(c2, f_width, 1)
        sides = [
            (phi, phi_bound, f, f_bound),
            (active_transform(phi, rep, g), active_transform_bound(phi_bound, rep, g), f, f_bound),
            (phi, phi_bound, transform_test_function(f, rep, g), transform_test_function_bound(f_bound, rep, g)),
        ]
        assert _skip_excess(sides, self.GRID) == (-np.inf, self.GRID.npoints)
        for side in sides:
            assert _skip_excess([side], self.GRID)[0] <= 0.0


def _slice_at_once_pairing(phi, f, grid):
    """The pairing that evaluates each whole axis-0 slice in one call."""
    axes = grid.axes()
    pts = np.empty(grid.counts[1:] + (4,))
    pts[..., 1] = axes[1][:, None, None]
    pts[..., 2] = axes[2][None, :, None]
    pts[..., 3] = axes[3][None, None, :]

    def integrands():
        for x0 in axes[0]:
            pts[..., 0] = x0
            yield np.einsum("...i,...i->...", phi.evaluate(pts), f.evaluate(pts))

    return _trapezoid_in_order(integrands(), grid)


def _counting(field, sizes):
    """``field`` with every evaluate call's point count appended to ``sizes``."""

    def evaluate(points):
        sizes.append(int(np.prod(np.shape(points)[:-1])))
        return field.evaluate(points)

    return FieldFunction(field.n, evaluate, field.gradient)


class TestBlockedPairing:
    """Evaluating in blocks of axis-1 rows cannot change a pairing's bits."""

    # A 129 x 3 point row: 42 rows per block, 4 blocks per slice.
    GRID = GridSpec(((-5.0, 5.0), (-6.0, 6.0), (-6.0, 6.0), (-5.0, 5.0)), (3, 129, 129, 3))
    G = PoincareElement.from_params([0.3, -0.2, 0.1, 0.4, 0.0, -0.5], [0.2, 0.0, -0.1, 0.3])
    C1, C2 = [0.3, -0.2, 0.1, 0.0], [-0.25, 0.4, 0.0, 0.2]
    MONOMIALS = [
        [(0.5 + 0.25j, (1, 0, 0, 0)), (1.0, (0, 0, 0, 0))],
        [(0.7j, (0, 2, 0, 0)), (-0.3, (0, 0, 1, 1))],
        [(1.0, (0, 0, 0, 0))],
        [(0.2, (0, 1, 0, 0))],
    ]

    def _pairs(self, rep):
        n = rep.n
        phi = wave_packet(self.C1, 1.1, n)
        f = wave_packet(self.C2, 1.3, [0.9, 1.1, -0.6, 1.0][:n])
        monomial = wave_packet(self.C1, 1.0, self.MONOMIALS[:n])
        return {
            "active": (active_transform(phi, rep, self.G), f),
            "test-function": (phi, transform_test_function(f, rep, self.G)),
            "complex-monomial": (active_transform(monomial, rep, self.G), transform_test_function(f, rep, self.G)),
        }

    @staticmethod
    def _frame_pair():
        def matrix(p):
            out = np.zeros(p.shape[:-1] + (2, 2), dtype=complex)
            out[..., 0, 0] = 2.0 + np.sin(p[..., 0])
            out[..., 0, 1] = 0.3j * p[..., 1]
            out[..., 1, 1] = 1.5 + 0.1 * p[..., 3] ** 2
            return out

        packet = wave_packet(TestBlockedPairing.C1, 1.1, TestBlockedPairing.MONOMIALS[:2])
        return frame_change_components(packet, FrameChange(2, matrix)), wave_packet(TestBlockedPairing.C2, 1.2, 2)

    @pytest.mark.parametrize("kind", ["scalar", "vector", "spinor"])
    def test_equals_the_slice_at_once_pairing(self, kind):
        rep = getattr(FieldRep, kind)()
        for name, (phi, f) in self._pairs(rep).items():
            sizes = []
            value = pairing(_counting(phi, sizes), _counting(f, sizes), self.GRID)
            assert np.array_equal(_bits(value), _bits(_slice_at_once_pairing(phi, f, self.GRID))), name
            assert max(sizes) <= fields_module.BLOCK_POINTS
            assert len(sizes) == 2 * 3 * 4

    def test_frame_change_field(self):
        phi, f = self._frame_pair()
        sizes = []
        value = pairing(_counting(phi, sizes), f, self.GRID)
        assert np.array_equal(_bits(value), _bits(_slice_at_once_pairing(phi, f, self.GRID)))
        assert max(sizes) <= fields_module.BLOCK_POINTS

    @pytest.mark.parametrize("block", [1, 100, 1000])
    def test_small_blocks_and_a_partial_last_block(self, monkeypatch, block):
        # Below one row a block holds one row; 129 rows never split evenly here.
        grid = GridSpec(((-5.0, 5.0),) * 4, (3, 129, 5, 7))
        monkeypatch.setattr(fields_module, "BLOCK_POINTS", block)
        pairs = list(self._pairs(FieldRep.spinor()).values()) + [self._frame_pair()]
        for phi, f in pairs:
            sizes = []
            value = pairing(_counting(phi, sizes), f, grid)
            assert np.array_equal(_bits(value), _bits(_slice_at_once_pairing(phi, f, grid)))
            assert max(sizes) == max(35, block // 35 * 35) and sum(sizes) == grid.npoints


class TestPairings:
    """Several pairs and nested levels of one grid in one pass."""

    # Non-dyadic bounds: the coarse grids' coordinates round differently
    # from the fine grid's points they stand for.
    BOUNDS = ((-5.3, 4.9), (-6.1, 5.7), (-4.7, 5.5), (-5.9, 4.3))
    COUNTS = (9, 17, 13, 9)

    @pytest.mark.parametrize("kind", ["scalar", "spinor"])
    def test_levels_match_the_coarse_grids(self, kind):
        pairs = list(TestBlockedPairing()._pairs(getattr(FieldRep, kind)()).values())
        grid = GridSpec(self.BOUNDS, self.COUNTS)
        values = pairings(_unbounded(pairs), grid, levels=3)[0]
        assert values.shape == (len(pairs), 3)
        for j, step in enumerate((4, 2, 1)):
            coarse = GridSpec(self.BOUNDS, tuple((k - 1) // step + 1 for k in self.COUNTS))
            for p, (phi, f) in enumerate(pairs):
                separate = pairing(phi, f, coarse)
                assert abs(values[p, j] - separate) <= 1e-14 * abs(separate), (p, j)

    @pytest.mark.parametrize("counts, levels", [((9, 9, 10, 9), 2), ((9, 11, 9, 9), 3), ((9,) * 4, 0)])
    def test_counts_that_do_not_nest_are_rejected(self, counts, levels):
        phi = wave_packet([0, 0, 0, 0], 1.0, 1)
        with pytest.raises(ValueError):
            pairings([(phi, phi, None)], GridSpec(((-6.0, 6.0),) * 4, counts), levels=levels)

    def test_a_shared_field_is_evaluated_once_per_block(self):
        # The invariance check's pairs: phi and f each appear in two of them.
        rep, g, grid = FieldRep.vector(), TestBlockedPairing.G, TestBlockedPairing.GRID
        phi, f = wave_packet([0.3, -0.2, 0.1, 0.0], 1.1, 4), wave_packet([-0.25, 0.4, 0.0, 0.2], 1.3, [0.9, 1.1, -0.6, 1.0])
        sizes = []
        shared = _counting(phi, sizes)
        moved = active_transform(phi, rep, g)
        values = pairings(_unbounded([(shared, f), (moved, f), (shared, transform_test_function(f, rep, g))]), grid)[0]
        assert len(sizes) == 3 * 4 and sum(sizes) == grid.npoints
        # A pair's value does not depend on the other pairs of the pass.
        assert np.array_equal(_bits(values[1, 0]), _bits(pairing(moved, f, grid)))

    def test_a_field_complex_on_some_blocks_only(self, monkeypatch):
        # A factor 1 + 0.5i where x0 < 0 or x1 > 0, and real values from a
        # block without such points: after a slice complex throughout, the
        # blocks of one slice differ in dtype.
        packet = wave_packet([0.3, -0.2, 0.1, 0.0], 1.1, 1)

        def evaluate(points):
            vals = packet.evaluate(points)
            pts = np.asarray(points)
            up = (pts[..., 0:1] < 0) | (pts[..., 1:2] > 0)
            return np.where(up, vals * (1 + 0.5j), vals) if np.any(up) else vals

        phi = FieldFunction(1, evaluate, packet.gradient)
        f = wave_packet([-0.25, 0.4, 0.0, 0.2], 1.3, 1)
        grid = GridSpec(((-5.0, 5.0),) * 4, (3, 129, 5, 7))
        monkeypatch.setattr(fields_module, "BLOCK_POINTS", 100)
        as_complex = lambda field: lambda pts: np.asarray(field(pts), dtype=complex)
        reference = _complex_pairing(as_complex(phi), as_complex(f), grid)
        assert reference.imag != 0.0
        assert np.array_equal(_bits(pairing(phi, f, grid)), _bits(reference))


class TestPointLayout:
    """Grid points reach fields as coordinate-major views; the values do not depend on it."""

    @pytest.mark.parametrize("block", [100, fields_module.BLOCK_POINTS])
    def test_slice_blocks_are_the_grid_axes(self, monkeypatch, block):
        # 129 rows of 35 points: a partial last block at 100 points, one block at the default
        grid = GridSpec(((-5.3, 4.9), (-6.1, 5.7), (-4.7, 5.5), (-5.9, 4.3)), (3, 129, 5, 7))
        monkeypatch.setattr(fields_module, "BLOCK_POINTS", block)
        axes = grid.axes()
        slices = list(fields_module._slice_blocks(grid))
        assert len(slices) == len(axes[0])
        for x0, blocks in zip(axes[0], slices):
            parts = []
            for pts in blocks:
                assert type(pts) is fields_module._GridBlock
                assert pts.shape[1:] == (5, 7, 4)
                assert all(pts[..., k].flags.c_contiguous for k in range(4))
                # the same coordinates as 1-D axes that broadcast to the block
                assert [a.shape for a in pts.axes] == [(1,), (len(pts), 1, 1), (5, 1), (7,)]
                assert np.array_equal(np.stack(np.broadcast_arrays(*pts.axes), axis=-1), pts)
                # only the yielded block carries them: its views and ufunc results do not
                assert pts[:1].axes is None and (pts * 1).axes is None
                assert type(np.asarray(pts)) is np.ndarray and type(np.ascontiguousarray(pts)) is np.ndarray
                parts.append(np.array(pts))
            expected = np.stack(np.meshgrid([x0], *axes[1:], indexing="ij"), axis=-1)[0]
            assert np.array_equal(np.concatenate(parts), expected)

    @pytest.mark.parametrize("kind", ["scalar", "vector", "spinor"])
    def test_pairings_do_not_depend_on_the_layout(self, kind):
        # Each distinct field wrapped once, so that sharing between pairs is kept.
        pairs = list(TestBlockedPairing()._pairs(getattr(FieldRep, kind)()).values()) + [TestBlockedPairing._frame_pair()]
        copies = {}

        def row_major(field):
            if id(field) not in copies:
                evaluate = lambda points: field.evaluate(np.ascontiguousarray(points))
                copies[id(field)] = FieldFunction(field.n, evaluate, field.gradient)
            return copies[id(field)]

        grid = GridSpec(TestPairings.BOUNDS, TestPairings.COUNTS)
        wrapped = [(row_major(phi), row_major(f)) for phi, f in pairs]
        assert np.array_equal(_bits(pairings(_unbounded(pairs), grid, levels=3)[0]), _bits(pairings(_unbounded(wrapped), grid, levels=3)[0]))


def _stripped(field):
    """``field`` evaluated on plain points: a grid block without its ``axes`` takes the generic path."""
    return FieldFunction(field.n, lambda points: field.evaluate(np.asarray(points)), field.gradient)


class TestGridEntry:
    """A wave packet on a grid block gives the bits of ``evaluate`` on the materialized points."""

    GRID = GridSpec(((-3.1, 2.9), (-2.7, 3.3), (-3.5, 2.5), (-2.9, 3.1)), (3, 11, 5, 7))
    MONOMIALS = [
        [(0.7, (3, 0, 0, 0)), (-0.4, (1, 2, 0, 3)), (1.0, (0, 0, 0, 0))],
        [(0.3, (0, 3, 1, 2)), (0.9, (2, 0, 3, 1))],
        [(-1.2, (0, 0, 0, 3))],
        [(0.5, (1, 1, 1, 1)), (0.25, (0, 0, 2, 0))],
    ]
    PACKETS = {
        "real-one-component": lambda: wave_packet([0.2, -0.1, 0.3, 0.0], 1.1, [0.8]),
        "real-four-components": lambda: wave_packet([0.2, -0.1, 0.3, 0.0], 1.1, [0.9, 1.1, -0.6, 1.0]),
        "real-monomials": lambda: wave_packet([0.2, -0.1, 0.3, 0.0], 1.3, TestGridEntry.MONOMIALS),
        "complex-one-component": lambda: wave_packet([-0.3, 0.2, 0.0, 0.1], 0.9, [[(0.5 - 0.25j, (2, 0, 1, 3))]]),
        "complex-monomials": lambda: wave_packet(
            [-0.3, 0.2, 0.0, 0.1], 1.2, [[(c * (1 + 0.5j), p) for c, p in t] for t in TestGridEntry.MONOMIALS]
        ),
        "center-outside-the-grid": lambda: wave_packet([9.0, -7.5, 11.0, 6.0], 2.5, TestGridEntry.MONOMIALS[:2]),
        # exp(-r2 / s^2) is 0 at most points, subnormal at some (asserted below)
        "underflowing-envelope": lambda: wave_packet([0.05, 0.0, 0.0, 0.0], 0.11, [[(1.0, (3, 0, 0, 0))], 1.0]),
    }

    @pytest.mark.parametrize("block", [fields_module.BLOCK_POINTS, 35, 10])
    @pytest.mark.parametrize("name", list(PACKETS))
    def test_same_bits_as_evaluate_on_the_block(self, monkeypatch, name, block):
        # 35-point rows: all 11 rows in one block, one row a block, and a row larger than the block
        monkeypatch.setattr(fields_module, "BLOCK_POINTS", block)
        field = self.PACKETS[name]()
        values = []
        for blocks in fields_module._slice_blocks(self.GRID):
            for pts in blocks:
                assert pts.axes is not None
                from_axes = field.evaluate(pts)
                assert from_axes.shape == pts.shape[:-1] + (field.n,)
                assert from_axes.tobytes() == field.evaluate(np.asarray(pts)).tobytes()
                assert from_axes.tobytes() == field.evaluate(np.ascontiguousarray(pts)).tobytes()
                values.append(from_axes)
        values = np.concatenate(values)
        assert values.dtype == (np.complex128 if name.startswith("complex") else np.float64)
        if name == "underflowing-envelope":
            magnitude = np.abs(values[..., 1])
            assert np.any(magnitude == 0) and np.any((magnitude > 0) & (magnitude < np.finfo(float).tiny))

    def test_a_packet_reads_the_blocks_axes(self):
        # Points moved off their axes: the packet's values are those of the axes.
        field = self.PACKETS["real-monomials"]()
        pts = next(next(fields_module._slice_blocks(self.GRID)))
        moved = pts + 0.25
        assert moved.axes is None
        moved.axes = pts.axes
        assert field.evaluate(moved).tobytes() == field.evaluate(np.asarray(pts)).tobytes()
        assert field.evaluate(moved).tobytes() != field.evaluate(np.asarray(moved)).tobytes()

    def test_transformed_fields_give_their_packet_plain_points(self):
        # An AffineMap's matrix product moves the points; only a same-point frame change passes the block on.
        seen = []
        packet = wave_packet([0, 0, 0, 0], 1.0, 4)

        def evaluate(points):
            seen.append(getattr(points, "axes", None) is not None)
            return packet.evaluate(points)

        spied = FieldFunction(packet.n, evaluate, packet.gradient)
        g, vector = TestBlockedPairing.G, FieldRep.vector()
        for field, axes in [
            (active_transform(spied, vector, g), False),
            (transform_test_function(spied, vector, g), False),
            (frame_change_components(spied, FrameChange.constant(np.eye(4))), True),
            (spied, True),
        ]:
            seen.clear()
            pairing(field, constant_field([1.0, 2.0, 3.0, 4.0]), self.GRID)
            assert seen and all(s is axes for s in seen)

    @pytest.mark.parametrize("kind", ["scalar", "spinor"])
    def test_stripped_pairs_give_the_same_pairings(self, kind):
        # Pairs whose fields see plain points take the generic path and must give the same bits.
        rep = getattr(FieldRep, kind)()
        blocked = TestBlockedPairing()
        phi = wave_packet(blocked.C1, 1.1, blocked.MONOMIALS[: rep.n])
        f = wave_packet(blocked.C2, 1.3, [0.9, 1.1, -0.6, 1.0][: rep.n])
        pairs = [(phi, f), (active_transform(phi, rep, blocked.G), f), (phi, transform_test_function(f, rep, blocked.G))]
        pairs += list(blocked._pairs(rep).values())
        copies = {}
        strip = lambda field: copies.setdefault(id(field), _stripped(field))
        grid = GridSpec(TestPairings.BOUNDS, TestPairings.COUNTS)
        values = pairings(_unbounded(pairs), grid, levels=3)[0]
        assert np.any(values.imag != 0)
        assert np.array_equal(_bits(values), _bits(pairings([(strip(a), strip(b), None) for a, b in pairs], grid, levels=3)[0]))

    @pytest.mark.parametrize("name", ["real-four-components", "complex-monomials", "underflowing-envelope"])
    def test_stripped_packet_gives_the_same_csv(self, monkeypatch, tmp_path, name):
        monkeypatch.setattr(fields_module, "BLOCK_POINTS", 100)
        field = self.PACKETS[name]()
        dump_field_csv(field, self.GRID, tmp_path / "entry.csv")
        dump_field_csv(_stripped(field), self.GRID, tmp_path / "generic.csv")
        assert (tmp_path / "entry.csv").read_bytes() == (tmp_path / "generic.csv").read_bytes()

    def test_a_rebuilt_packet_gets_the_blocks(self, tmp_path):
        # A wrapper that rebuilds a packet from (n, evaluate, gradient), as the
        # benchmark tracer does, passes each block on with its axes: same bits.
        seen = []

        def spy(evaluate):
            def wrapped(points):
                seen.append(getattr(points, "axes", None) is not None)
                return evaluate(points)

            return wrapped

        packets = [wave_packet([0.3, -0.2, 0.1, 0.0], 1.1, 4), wave_packet([-0.25, 0.4, 0.0, 0.2], 1.3, TestGridEntry.MONOMIALS)]
        phi, f = (FieldFunction(ff.n, spy(ff.evaluate), ff.gradient) for ff in packets)
        grid = GridSpec(TestPairings.BOUNDS, TestPairings.COUNTS)
        values = pairings(_unbounded([(phi, f), (phi, phi), (f, f)]), grid, levels=3)[0]
        dump_field_csv(phi, self.GRID, tmp_path / "rebuilt.csv")
        assert seen and all(seen)
        assert np.array_equal(_bits(values), _bits(pairings(_unbounded([(packets[0], packets[1])] + [(p, p) for p in packets]), grid, levels=3)[0]))
        dump_field_csv(packets[0], self.GRID, tmp_path / "packet.csv")
        assert (tmp_path / "rebuilt.csv").read_bytes() == (tmp_path / "packet.csv").read_bytes()


class TestEvaluateDtype:
    CENTER = np.array([0.2, -0.1, 0.3, 0.0])
    WIDTH = 1.1

    def _independent(self, comps, points):
        # P(y) exp(-|y|^2 / s^2), one point and one term at a time
        out = np.zeros((len(points), len(comps)), dtype=complex)
        for p, x in enumerate(points):
            y = x - self.CENTER
            envelope = math.exp(-sum(v * v for v in y) / self.WIDTH**2)
            for i, terms in enumerate(comps):
                out[p, i] = sum(coeff * math.prod(v**k for v, k in zip(y, powers)) for coeff, powers in terms) * envelope
        return out

    def test_real_packet_returns_float64(self):
        comps = [[(1.0, (0, 0, 0, 0)), (-0.4, (1, 0, 2, 0))], [(0.7, (0, 1, 0, 1))]]
        values = wave_packet(self.CENTER, self.WIDTH, comps).evaluate(POINTS)
        assert values.dtype == np.float64
        assert_allclose(values, self._independent(comps, POINTS).real, rtol=1e-13, atol=1e-15)

    def test_complex_monomial_packet_returns_complex128(self):
        comps = [[(1.0, (0, 0, 0, 0)), (0.5 - 0.25j, (1, 0, 0, 1))], [(0.7j, (0, 2, 0, 0))]]
        values = wave_packet(self.CENTER, self.WIDTH, comps).evaluate(POINTS)
        assert values.dtype == np.complex128
        assert_allclose(values, self._independent(comps, POINTS), rtol=1e-13, atol=1e-15)

    def test_same_numbers_as_the_complex_evaluation(self):
        # Real evaluation must repeat the complex arithmetic bit for bit,
        # zero signs included: exact zeros of y, negative terms, and far
        # points where the envelope underflows to 0.
        comps = [[(-1.0, (1, 0, 0, 0)), (0.5, (0, 2, 0, 1))], [(-0.3, (0, 0, 0, 0))], [(-1.0, (1, 0, 0, 0))],
                 [(0.7 - 0.2j, (0, 0, 1, 0))]]
        pts = np.concatenate([POINTS, [[0.2, 0.0, 0.3, 1.0], [40.0, -0.1, 0.3, 0.0], [-40.0, 1.0, 0.0, 0.0]]])
        for packet_comps in (comps[:3], comps):
            packet = wave_packet(self.CENTER, self.WIDTH, packet_comps)
            expected = _complex_packet(self.CENTER, self.WIDTH, packet_comps, pts)
            assert np.array_equal(_bits(packet.evaluate(pts)), _bits(expected))
            assert np.array_equal(_bits(packet.evaluate(pts[0])), _bits(expected[0]))

    def test_same_numbers_as_the_complex_laws_and_pairing(self):
        # Negative amplitudes at a far point give -0 values, which the
        # complex contraction adds into +0.
        comps = [[(a, (0, 0, 0, 0))] for a in (-0.3, -0.7, -1.1, -0.9)]
        g = PoincareElement.from_params([0.3, 0.0, 0.0, 0.0, 0.0, 0.0], [0.3, 0.0, -0.2, 0.1])
        moved = active_transform(wave_packet(self.CENTER, self.WIDTH, comps), FieldRep.vector(), g)
        pts = np.concatenate([POINTS, [[60.0, 0.0, 0.0, 0.0]]])
        expected = 1.0 * np.einsum(
            "ij,...j->...i",
            g.linear.T.astype(complex),
            _complex_packet(self.CENTER, self.WIDTH, comps, pts @ g.linear.T + g.offset),
        )
        assert np.array_equal(_bits(moved.evaluate(pts)), _bits(expected))

        phi = wave_packet(self.CENTER, self.WIDTH, [0.3, 0.7, 1.1, 0.9])
        f = wave_packet([-0.25, 0.4, 0.0, 0.2], 1.2, [1.3, 0.2, 0.8, 0.5])
        grid = GridSpec(((-6.0, 6.0),) * 4, (9,) * 4)
        as_complex = lambda field: lambda pts: np.asarray(field.evaluate(pts), dtype=complex)
        reference = _complex_pairing(as_complex(phi), as_complex(f), grid)
        assert np.array_equal(_bits(pairing(phi, f, grid)), _bits(reference))

    @pytest.mark.parametrize("complex_coeffs", [False, True])
    def test_gradient_equals_the_complex_gradient(self, complex_coeffs):
        # Same numbers (zero signs aside) on random monomial packets, with
        # exact zeros of y, far points whose envelope underflows, and a
        # single point.
        rng = np.random.default_rng(7 + complex_coeffs)
        for _ in range(40):
            coeff = lambda: complex(*rng.normal(size=2)) if complex_coeffs else float(rng.normal())
            comps = [
                [(coeff(), tuple(int(p) for p in rng.integers(0, 4, 4))) for _ in range(rng.integers(1, 5))]
                for _ in range(rng.integers(1, 5))
            ]
            center, width = rng.uniform(-1, 1, 4), rng.uniform(0.5, 2.0)
            pts = rng.uniform(-3, 3, (30, 4)) * np.where(np.arange(30) < 25, 1.0, 15.0)[:, None]
            pts[0, 2] = center[2]
            packet = wave_packet(center, width, comps)
            expected = _complex_gradient(center, width, comps, pts)
            got = packet.gradient(pts)
            assert got.dtype == np.complex128 and got.shape == expected.shape
            assert np.array_equal(got, expected)
            assert np.array_equal(packet.gradient(pts[3]), expected[3])

    def test_real_values_survive_real_laws_only(self):
        packet = wave_packet(self.CENTER, self.WIDTH, 4)
        g = PoincareElement.from_params([0.3, 0.0, 0.0, 0.2, 0.0, 0.0], [0.3, 0.0, -0.2, 0.1])
        assert active_transform(packet, FieldRep.vector(), g).evaluate(POINTS).dtype == np.float64
        assert active_transform(packet, FieldRep.spinor(), g).evaluate(POINTS).dtype == np.complex128


class TestCsvDump:
    def test_layout_and_precision(self, tmp_path):
        f = wave_packet([0, 0, 0, 0], 1.0, [[(1.0 + 0.5j, (0, 0, 0, 0))]])
        grid = GridSpec(((-1.0, 1.0),) * 4, (2, 2, 2, 2))
        path = tmp_path / "dump.csv"
        dump_field_csv(f, grid, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x0,x1,x2,x3,re0,im0"
        assert len(lines) == 1 + 16
        # corner (-1,-1,-1,-1): value (1 + 0.5i) exp(-4)
        first = lines[1].split(",")
        assert first[:4] == ["-1", "-1", "-1", "-1"]
        assert float(first[4]) == pytest.approx(math.exp(-4.0), abs=1e-16)
        assert float(first[5]) == pytest.approx(0.5 * math.exp(-4.0), abs=1e-16)
        # 17 significant digits survive a parse round trip
        val = float(first[4])
        assert f"{val:.17g}" == first[4]

    @staticmethod
    def _reference_csv(field, grid) -> str:
        """The per-row, per-cell formatter: the reference for the dump's bytes."""
        axes = grid.axes()
        pts = np.empty(grid.counts[1:] + (4,))
        pts[..., 1] = axes[1][:, None, None]
        pts[..., 2] = axes[2][None, :, None]
        pts[..., 3] = axes[3][None, None, :]
        header = ["x0", "x1", "x2", "x3"]
        for i in range(field.n):
            header += [f"re{i}", f"im{i}"]
        lines = [",".join(header) + "\n"]
        for x0 in axes[0]:
            pts[..., 0] = x0
            vals = field.evaluate(pts).reshape(-1, field.n)
            for row_pt, row_val in zip(pts.reshape(-1, 4), vals):
                cells = [f"{v:.17g}" for v in row_pt]
                for v in row_val:
                    cells += [f"{v.real:.17g}", f"{v.imag:.17g}"]
                lines.append(",".join(cells) + "\n")
        return "".join(lines)

    @staticmethod
    def _signed_zero_field():
        """Two complex components with -0.0 parts, tiny and huge magnitudes."""

        def evaluate(points):
            pts = np.asarray(points, dtype=float)
            vals = np.empty(pts.shape[:-1] + (2,), dtype=complex)
            vals.real[..., 0] = -0.0
            vals.imag[..., 0] = pts[..., 1] / 3.0
            vals.real[..., 1] = 1e-300 * pts[..., 2] - 1e300 * pts[..., 3]
            vals.imag[..., 1] = -0.0 * pts[..., 0]
            return vals

        return FieldFunction(2, evaluate, lambda points: None)

    @staticmethod
    def _coordinate_field():
        """Values that echo the point's coordinates, so a misplaced coordinate text shows."""

        def evaluate(points):
            pts = np.asarray(points, dtype=float)
            return np.stack([pts[..., 0] + 1j * pts[..., 1], pts[..., 3] - 1j * pts[..., 2]], axis=-1)

        return FieldFunction(2, evaluate, lambda points: None)

    GRID = GridSpec(((-1.0, 1.0), (-0.7, 0.9), (-2.0, 0.5), (0.0, 1.3)), (3, 4, 2, 5))
    #: Grids that pin the coordinate text, each with the BLOCK_POINTS it is dumped under.
    COORDINATE_GRIDS = {
        # linspace starts at 0 * step + lo, so a -0.0 lower bound prints 0;
        # its last point is the upper bound itself, so a -0.0 one prints -0.
        "negative-zero-bounds": (GridSpec(((-0.0, 1.0), (-1.0, -0.0), (-0.0, 0.5), (-2.0, -0.0)), (3, 4, 2, 5)), None),
        "tiny-and-huge-bounds": (
            GridSpec(((1e-300, 3e-300), (-1e300, 1e300), (-2e-300, 1e-300), (1e299, 1e300)), (3, 4, 2, 5)),
            None,
        ),
        # 6-point rows, two to a block: blocks of 2, 2 and 1 rows
        "partial-last-block": (GridSpec(((-1.0, 1.0), (-0.7, 0.9), (-2.0, 0.5), (0.0, 1.3)), (2, 5, 2, 3)), 12),
        "two-point-axes": (GridSpec(((-1.0, 1.0), (-0.7, 0.9), (-2.0, 0.5), (0.0, 1.3)), (2, 2, 2, 2)), None),
    }

    @pytest.mark.parametrize(
        "case", ["complex-signed-zeros", "real-four-components", "transformed", *COORDINATE_GRIDS]
    )
    def test_bytes_equal_the_per_row_formatter(self, case, monkeypatch, tmp_path):
        grid = self.GRID
        if case == "complex-signed-zeros":
            field = self._signed_zero_field()
        elif case == "real-four-components":
            field = wave_packet([0.1, -0.2, 0.3, 0.0], 0.9, [1.0, -0.5, [(2.0, (1, 0, 2, 0))], 0.25])
            assert field.evaluate(np.zeros((1, 4))).dtype == np.float64
        elif case == "transformed":
            g = PoincareElement.from_params([0.3, -0.2, 0.1, 0.4, 0.0, -0.5], [0.2, 0.0, -0.1, 0.3])
            field = active_transform(wave_packet([0, 0, 0, 0], 1.1, 4), FieldRep.spinor(), g)
        else:
            field = self._coordinate_field()
            grid, block = self.COORDINATE_GRIDS[case]
            if block is not None:
                monkeypatch.setattr(fields_module, "BLOCK_POINTS", block)
        path = tmp_path / "dump.csv"
        dump_field_csv(field, grid, path)
        expected = self._reference_csv(field, grid)
        if case == "complex-signed-zeros":
            assert ",-0," in expected and "-0\n" in expected
        if case == "negative-zero-bounds":
            assert "\n-0," not in expected and "\n0,-1,0,-2," in expected and "\n1,-0,0.5,-0," in expected
        if case == "tiny-and-huge-bounds":
            assert "\n1e-300,-1.0000000000000001e+300,-2.0000000000000001e-300,1.0000000000000001e+299," in expected
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("block", [1, 30])
    def test_bytes_do_not_depend_on_the_block_size(self, monkeypatch, tmp_path, block):
        # 10-point rows: one row per block, or 3 rows and a partial last block
        grid = GridSpec(((-1.0, 1.0), (-0.7, 0.9), (-2.0, 0.5), (0.0, 1.3)), (3, 4, 2, 5))
        g = PoincareElement.from_params([0.3, -0.2, 0.1, 0.4, 0.0, -0.5], [0.2, 0.0, -0.1, 0.3])
        field = active_transform(wave_packet([0, 0, 0, 0], 1.1, 4), FieldRep.spinor(), g)
        monkeypatch.setattr(fields_module, "BLOCK_POINTS", block)
        path = tmp_path / "dump.csv"
        dump_field_csv(field, grid, path)
        assert path.read_bytes() == self._reference_csv(field, grid).encode()


class TestConstantField:
    def test_values_and_gradient(self):
        f = constant_field([1.0, 2.0 - 1.0j])
        assert np.array_equal(f(POINTS)[0], np.array([1.0, 2.0 - 1.0j]))
        assert np.abs(f.gradient(POINTS)).max() == 0.0

    BATCH = RNG.uniform(-1.0, 1.0, (3, 5, 4))

    def test_field_on_a_batch(self):
        v = np.array([1.0, 2.0 - 1.0j, -0.5j])
        f = constant_field(v)
        vals, grads = f.evaluate(self.BATCH), f.gradient(self.BATCH)
        assert vals.shape == (3, 5, 3) and vals.dtype == np.complex128
        assert np.array_equal(vals, np.broadcast_to(v, (3, 5, 3)))
        assert grads.shape == (3, 5, 3, 4) and grads.dtype == np.complex128
        assert not np.any(grads)
        vals[0, 0] = 7.0  # the caller owns its copy
        assert np.array_equal(f.evaluate(self.BATCH)[0, 0], v)

    def test_frame_change_on_a_batch(self):
        m = np.array([[2.0, 1.0j], [0.0, -1.0]])
        change = FrameChange.constant(m)
        mats, grads = change.matrix(self.BATCH), change._gradient(self.BATCH)
        assert change.n == 2
        assert mats.shape == (3, 5, 2, 2) and mats.dtype == np.complex128
        assert np.array_equal(mats, np.broadcast_to(m, (3, 5, 2, 2)))
        assert grads.shape == (3, 5, 2, 2, 4) and grads.dtype == np.complex128
        assert not np.any(grads)
        mats[0, 0] = 0.0
        assert np.array_equal(change.matrix(self.BATCH)[0, 0], m)
