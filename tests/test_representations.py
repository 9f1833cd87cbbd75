import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from covariant_kit.geometry import ETA, PLANES, AffineMap, PoincareElement, lorentz_exp
from covariant_kit.representations import (
    FieldRep,
    GammaBasis,
    homomorphism_check,
    rep_matrix,
    rep_matrix_for_element,
    sigma_tensor,
)

from oracles import expm_series


@pytest.fixture(scope="module")
def gamma():
    return GammaBasis.standard()


@pytest.fixture(scope="module")
def sigma(gamma):
    return sigma_tensor(gamma)


class TestGammaAlgebra:
    def test_anticommutator_all_ten_pairs(self, gamma):
        g = gamma.matrices
        for mu in range(4):
            for nu in range(mu, 4):
                anti = g[mu] @ g[nu] + g[nu] @ g[mu]
                assert np.abs(anti - 2 * ETA[mu, nu] * np.eye(4)).max() <= 1e-12

    def test_residual_helper(self, gamma):
        assert gamma.anticommutator_residual() <= 1e-12

    def test_sigma_tensor_is_cached_and_read_only(self, gamma, sigma):
        assert sigma_tensor(gamma) is sigma
        assert not sigma.flags.writeable
        with pytest.raises(ValueError):
            sigma[0, 1, 0, 0] = 1.0

    def test_chirality_projectors_and_plane_stack(self, gamma, sigma):
        P_plus, P_minus = gamma.chirality
        assert np.array_equal(P_plus + P_minus, np.eye(4))
        for P in gamma.chirality:
            assert np.array_equal(P @ P, P)
            for a, b in PLANES:
                assert np.array_equal(P @ sigma[a, b], sigma[a, b] @ P)
        assert np.array_equal(gamma.plane_sigma, np.stack([sigma[a, b].ravel() for a, b in PLANES]))
        assert not gamma.chirality.flags.writeable and not gamma.plane_sigma.flags.writeable

    def test_bad_basis_rejected(self):
        broken = np.stack([np.eye(4, dtype=complex)] * 4)
        with pytest.raises(ValueError):
            GammaBasis(broken)

    def test_sigma_from_commutators(self, gamma, sigma):
        g = gamma.matrices
        for mu in range(4):
            for nu in range(4):
                expected = 0.5j * (g[mu] @ g[nu] - g[nu] @ g[mu])
                assert np.abs(sigma[mu, nu] - expected).max() <= 1e-12

    def test_sigma_antisymmetric_exact(self, sigma):
        for mu in range(4):
            for nu in range(4):
                assert np.array_equal(sigma[mu, nu], -sigma[nu, mu])

    def test_spatial_sigma_hermitian(self, sigma):
        for mu, nu in ((1, 2), (1, 3), (2, 3)):
            assert np.abs(sigma[mu, nu] - sigma[mu, nu].conj().T).max() <= 1e-14


class TestRepMatrix:
    def test_scalar_always_one(self):
        rep = FieldRep.scalar()
        assert np.array_equal(rep_matrix(rep, np.zeros(6)), np.eye(1))
        assert np.array_equal(rep_matrix(rep, [0.3, -1, 2, 0.5, 0, 1]), np.eye(1))

    def test_vector_is_lorentz_matrix(self):
        omega = np.array([0.5, 0, 0, 0, 0, 0])
        assert_allclose(rep_matrix(FieldRep.vector(), omega), lorentz_exp(omega), atol=1e-14)

    def test_vector_preserves_metric(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = rep_matrix(FieldRep.vector(), rng.uniform(-1, 1, 6)).real
            assert np.abs(m.T @ ETA @ m - ETA).max() <= 1e-12

    def test_identity_at_zero_all_variants(self):
        reps = [
            FieldRep.scalar(),
            FieldRep.vector(),
            FieldRep.spinor(),
            FieldRep.phase(q=2.0, e=1.0),
            FieldRep.custom(lambda b: np.eye(2, dtype=complex) * np.exp(b[0] ** 2), 2, 1),
        ]
        for rep in reps:
            mat = rep_matrix(rep, np.zeros(rep.nparams))
            assert np.abs(mat - np.eye(rep.n)).max() <= 1e-12

    def test_spinor_full_turn_is_minus_identity(self, sigma):
        rep = FieldRep.spinor()
        omega = np.zeros(6)
        omega[3] = 2 * math.pi  # plane (1, 2)
        S = rep_matrix(rep, omega)
        assert np.abs(S + np.eye(4)).max() <= 1e-10
        oracle = expm_series(-0.5j * 2 * math.pi * sigma[1, 2])
        assert np.abs(S - oracle).max() <= 1e-10

    def test_spinor_matches_series_oracle(self, sigma):
        rep = FieldRep.spinor()
        rng = np.random.default_rng(4)
        for _ in range(10):
            omega = rng.uniform(-0.8, 0.8, 6)
            total = sum(w * sigma[a, b] for w, (a, b) in zip(omega, PLANES))
            assert np.abs(rep_matrix(rep, omega) - expm_series(-0.5j * total)).max() <= 1e-12

    @pytest.mark.parametrize("scale", [3.0, 1e-3, 1e-6])
    def test_spinor_matches_series_oracle_across_scales(self, sigma, scale):
        rep = FieldRep.spinor()
        rng = np.random.default_rng(5)
        for _ in range(30):
            omega = rng.uniform(-scale, scale, 6)
            oracle = expm_series(-0.5j * sum(w * sigma[a, b] for w, (a, b) in zip(omega, PLANES)))
            assert np.abs(rep_matrix(rep, omega) - oracle).max() <= 1e-14 * np.abs(oracle).max()

    def test_spinor_null_generator(self, sigma):
        S = -0.5j * (sigma[0, 1] + sigma[1, 2])  # omega = (1, 0, 0, 1, 0, 0)
        assert np.array_equal(S @ S, np.zeros((4, 4)))
        assert np.array_equal(rep_matrix(FieldRep.spinor(), [1.0, 0, 0, 1.0, 0, 0]), np.eye(4) + S)

    def test_spinor_spatial_rotation_unitary(self):
        rep = FieldRep.spinor()
        omega = np.array([0.0, 0.0, 0.0, 0.9, -0.4, 0.3])
        S = rep_matrix(rep, omega)
        assert np.abs(S.conj().T @ S - np.eye(4)).max() <= 1e-10

    def test_phase_identity_at_zero(self):
        rep = FieldRep.phase(q=1.0, e=1.0)
        assert np.abs(rep_matrix(rep, 0.0) - np.eye(1)).max() == 0.0

    def test_phase_value(self):
        rep = FieldRep.phase(q=2.0, e=1.0)
        val = rep_matrix(rep, 0.7)[0, 0]
        # exp(-(q/(i e)) b) = exp(i q b / e)
        assert abs(val - np.exp(1.4j)) <= 1e-15
        assert abs(abs(val) - 1.0) <= 1e-15

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            rep_matrix(FieldRep.vector(), [np.inf, 0, 0, 0, 0, 0])

    def test_custom_identity_enforced(self):
        with pytest.raises(ValueError):
            FieldRep.custom(lambda b: 2.0 * np.eye(2, dtype=complex), 2, 1)

    def test_phase_needs_nonzero_unit(self):
        with pytest.raises(ValueError):
            FieldRep.phase(q=1.0, e=0.0)


class TestHomomorphism:
    def test_vector_same_plane(self):
        p1 = np.array([0.4, 0, 0, 0, 0, 0])
        p2 = np.array([0.9, 0, 0, 0, 0, 0])
        res, sign = homomorphism_check(FieldRep.vector(), p1, p2)
        assert res <= 1e-10
        assert sign == 1

    def test_scalar_trivial(self):
        res, sign = homomorphism_check(FieldRep.scalar(), np.ones(6), -np.ones(6))
        assert res == 0.0
        assert sign == 1

    def test_spinor_double_cover_sign(self):
        half_turn = np.array([0.0, 0.0, 0.0, math.pi, 0.0, 0.0])
        res, sign = homomorphism_check(FieldRep.spinor(), half_turn, half_turn)
        assert res <= 1e-9
        assert sign == -1

    def test_random_pairs_all_variants(self):
        rng = np.random.default_rng(21)
        for rep in (FieldRep.vector(), FieldRep.spinor()):
            for _ in range(6):
                res, sign = homomorphism_check(rep, rng.uniform(-0.4, 0.4, 6), rng.uniform(-0.4, 0.4, 6))
                assert res <= 1e-9
                assert sign in (1, -1)
                if rep.kind == "vector":
                    assert sign == 1

    def test_phase_abelian(self):
        res, sign = homomorphism_check(FieldRep.phase(q=1.5, e=0.5), 0.3, -0.8)
        assert res <= 1e-12
        assert sign == 1


class TestRepForElement:
    def test_vector_reads_matrix(self):
        g = PoincareElement.from_params([0.2, 0.1, 0, 0.3, 0, 0], [1, 2, 3, 4])
        assert np.array_equal(rep_matrix_for_element(FieldRep.vector(), g), g.linear.astype(complex))

    def test_spinor_from_params(self):
        omega = np.array([0.2, 0, 0, 0.4, 0, 0])
        g = PoincareElement.from_params(omega, np.zeros(4))
        assert np.array_equal(rep_matrix_for_element(FieldRep.spinor(), g), rep_matrix(FieldRep.spinor(), omega))

    def test_spinor_recovers_params_from_matrix(self):
        omega = np.array([0.2, -0.1, 0.05, 0.4, 0.1, -0.3])
        bare = PoincareElement(lorentz_exp(omega), np.zeros(4))
        assert bare.params is None
        recovered = rep_matrix_for_element(FieldRep.spinor(), bare)
        assert np.abs(recovered - rep_matrix(FieldRep.spinor(), omega)).max() <= 1e-9

    def test_phase_rejected(self):
        g = PoincareElement.identity()
        with pytest.raises(ValueError):
            rep_matrix_for_element(FieldRep.phase(1.0, 1.0), g)

    AFFINE = AffineMap(np.diag([1.5, 0.5, 2.0, 1.0]) + np.triu(np.full((4, 4), 0.1), 1), [0.3, -1.0, 0.0, 2.0])

    def test_affine_map_scalar(self):
        mat = rep_matrix_for_element(FieldRep.scalar(), self.AFFINE)
        assert mat.dtype == np.complex128
        assert np.array_equal(mat, np.eye(1))

    def test_affine_map_vector_is_its_linear_part(self):
        mat = rep_matrix_for_element(FieldRep.vector(), self.AFFINE)
        assert mat.dtype == np.complex128
        assert np.array_equal(mat, self.AFFINE.linear.astype(complex))

    def test_affine_map_spinor_rejected(self):
        with pytest.raises(ValueError, match="'spinor' representation is undefined for general affine point maps"):
            rep_matrix_for_element(FieldRep.spinor(), self.AFFINE)
