import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusnf import fibering
from torusnf.errors import HypothesisViolation
from torusnf.realization import (
    MEAN_MONOMIAL_TOL,
    AnnulusFunction,
    AnnulusMap,
    check_exact,
    realization_step,
    realize_form,
    solve_divergence,
)
from torusnf.series import PeriodicSeries

from annulus_oracle import (
    apply_z,
    det_jacobian_z,
    divergence_z,
    eval_z,
    holo_components,
)
from oracles import abs_max_coeff, theta_grid
from test_series import random_series


def random_annulus_function(rng, n, N, r, norm, decay=0.8):
    """Random Laurent data with vanishing all-(-1) monomial, given norm at r."""
    s = random_series(rng, n, N, decay=decay, real=False)
    c = np.array(s.coeffs)
    if N >= 1:
        c[tuple([N - 1] * n)] = 0.0
    a = PeriodicSeries(c)
    return a * (norm / a.coeff_norm(r))


def torus_points(n, M):
    return np.exp(1j * theta_grid(n, M))


def laurent_sum_3d(c, z):
    """Values at (m, 3) points z of the 3-D Laurent polynomial with the
    coefficient block c, summed by einsum one axis at a time, last first."""
    e = np.arange(-(c.shape[0] // 2), c.shape[0] // 2 + 1)
    x, y, w = (z[:, j:j + 1] ** e for j in range(3))
    return np.einsum("im,mi->m", np.einsum("ijm,mj->im",
                                           np.einsum("ijk,mk->ijm", c, w), y),
                     x)


def finite_difference_det_3d(phi, z, h=1e-5):
    """det D phi at the points z by central differences of step h, for
    phi_j = z_j exp(log g_j) summed from the coefficients of `phi.log_g`."""
    coeffs = [lg.series.coeffs for lg in phi.log_g]

    def apply(w):
        return np.stack([w[:, j] * np.exp(laurent_sum_3d(c, w))
                         for j, c in enumerate(coeffs)], axis=-1)

    jac = np.empty((z.shape[0], 3, 3), dtype=complex)
    for l in range(3):
        dz = np.zeros(3)
        dz[l] = h
        jac[:, :, l] = (apply(z + dz) - apply(z - dz)) / (2.0 * h)
    return np.linalg.det(jac)


class TestLaurentSplit:
    """The Laurent terms split among the components of `solve_divergence`:
    each term goes to the first axis whose exponent is not -1."""

    def test_one_dim_positive_power(self):
        a = PeriodicSeries.from_terms(1, 2, {(1,): 1e-3})
        (p,) = solve_divergence(a)
        assert p.coeff((1,)) == pytest.approx(-0.5e-3j)
        assert np.count_nonzero(p.coeffs) == 1

    def test_partition_and_norm_bound(self):
        rng = np.random.default_rng(61)
        a = random_annulus_function(rng, 2, 5, 0.5, 1e-3)
        p = solve_divergence(a)
        # every nonzero term lands in exactly one component
        owners = sum((c.coeffs != 0).astype(int) for c in p)
        assert np.array_equal(owners, (a.coeffs != 0).astype(int))
        k = np.arange(-5, 6)
        axis_1_only = (k == -1)[:, None] & (k != -1)[None, :]
        assert np.array_equal(p[1].coeffs != 0,
                              axis_1_only & (a.coeffs != 0))
        for j, c in enumerate(p):
            assert c.coeff_norm(0.5) <= 2 * np.e ** (j + 1) * a.coeff_norm(0.5)


    @settings(derandomize=True, database=None, deadline=None,
              max_examples=80)
    @given(n=st.integers(1, 3), N=st.integers(0, 4),
           fill=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_each_term_is_placed_once(self, n, N, fill, seed):
        # a sparse density, its all-(-1) term left out: the components'
        # supports partition the support of a, and the holomorphic field
        # they define has divergence a
        rng = np.random.default_rng(seed)
        shape = (2 * N + 1,) * n
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        c[rng.uniform(size=shape) >= fill] = 0.0
        if N >= 1:
            c[(N - 1,) * n] = 0.0
        a = PeriodicSeries(c)
        p = solve_divergence(a)
        assert len(p) == n
        owners = sum((c_j.coeffs != 0).astype(int) for c_j in p)
        assert np.array_equal(owners, (a.coeffs != 0).astype(int))
        resid = divergence_z(holo_components(p)) - a
        assert abs_max_coeff(resid) <= 1e-15 * abs_max_coeff(a)


class TestMeanCheck:
    def test_positive_power_passes(self):
        a = PeriodicSeries.from_terms(1, 2, {(1,): 1e-3})
        assert check_exact(a) == 0.0

    def test_obstruction_fails(self):
        a = PeriodicSeries.from_terms(2, 1, {(-1, -1): 1.0})
        with pytest.raises(HypothesisViolation, match="1.000e[+]00") as err:
            check_exact(a)
        assert err.value.bound == "(kn)"

    def test_zeroed_coefficient_passes(self):
        rng = np.random.default_rng(62)
        a = random_annulus_function(rng, 2, 4, 0.5, 1e-3)
        assert check_exact(a) <= MEAN_MONOMIAL_TOL


class TestSolveDivergence:
    def test_one_dim_quadratic(self):
        eps = 1e-3
        a = PeriodicSeries.from_terms(1, 2, {(1,): eps})
        q = holo_components(solve_divergence(a))
        assert q[0].coeff((2,)) == pytest.approx(eps / 2)
        resid = divergence_z(q) - a
        assert abs_max_coeff(resid) < 1e-18

    def test_zero_input(self):
        a = PeriodicSeries.zeros(2, 3)
        p = solve_divergence(a)
        assert all(abs_max_coeff(c) == 0.0 for c in p)

    def test_random_reconstruction_and_gauge(self):
        rng = np.random.default_rng(63)
        for _ in range(10):
            a = random_annulus_function(rng, 2, 5, 0.5, 1e-3)
            q = holo_components(solve_divergence(a))
            resid = divergence_z(q) - a
            assert resid.coeff_norm(0.5) <= 1e-12
            for j, q_j in enumerate(q):
                # no exponent-0 monomials in z_j (the uniqueness gauge)
                plane = np.take(q_j.coeffs, q_j.N, axis=j)
                assert np.max(np.abs(plane)) == 0.0
                assert (q_j.coeff_norm(0.5)
                        <= 4 * np.pi * np.e ** (j + 2) * a.coeff_norm(0.5))

    def test_refuses_obstructed_input(self):
        a = PeriodicSeries.from_terms(2, 1, {(-1, -1): 1e-3})
        with pytest.raises(HypothesisViolation) as err:
            solve_divergence(a)
        assert err.value.bound == "(kn)"


class TestRealizationStep:
    def test_zero_density(self):
        a = PeriodicSeries.zeros(2, 3)
        a_next, lift = realization_step(a, 0.5, 0.1)
        assert lift.part_norm(0.4) < 1e-14
        assert abs_max_coeff(a_next) < 1e-14

    def test_riccati_closed_form(self):
        eps = 1e-3
        # degree 4 keeps the eps^3 z^3 tail of the transported density
        a = PeriodicSeries.from_terms(1, 4, {(1,): eps})
        a_next, lift = realization_step(a, 0.5, 0.3)
        z = torus_points(1, 128)
        psi_vals = apply_z(AnnulusMap.from_torus_lift(lift), z)[:, 0]
        exact = z[:, 0] / (1.0 + eps * z[:, 0] / 2.0)
        assert np.max(np.abs(psi_vals - exact)) < 1e-10
        hat_exact = (1.0 + 1.5 * eps * z[:, 0]) / (1.0 + eps * z[:, 0] / 2.0) ** 3 - 1.0
        hat_vals = eval_z(a_next, z)
        assert np.max(np.abs(hat_vals - hat_exact)) < 1e-10
        # leading coefficient -(3/4) eps^2 z^2
        assert a_next.coeff((2,)) == pytest.approx(-0.75 * eps ** 2, rel=1e-2)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(64)
        for _ in range(5):
            a = random_annulus_function(rng, 2, 5, 0.5, 1e-4)
            a_next, lift = realization_step(a, 0.5, 0.05)
            psi = AnnulusMap.from_torus_lift(lift)
            z = torus_points(2, 24)
            lhs = (1.0 + eval_z(a, apply_z(psi, z))) * det_jacobian_z(psi, z)
            rhs = 1.0 + eval_z(a_next, z)
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_contraction_constant(self):
        rng = np.random.default_rng(65)
        r, delta = 0.5, 0.05
        for _ in range(5):
            a = random_annulus_function(rng, 2, 5, r, 1e-4)
            a_next, _ = realization_step(a, r, delta)
            c7 = (a_next.coeff_norm((1 - 2 * delta) * r) * r * delta
                  / a.coeff_norm(r) ** 2)
            assert c7 <= 1e3

    def test_refuses_oversized_density(self):
        a = PeriodicSeries.from_terms(1, 2, {(1,): 0.3})
        with pytest.raises(HypothesisViolation) as err:
            realization_step(a, 0.5, 0.05)
        assert err.value.bound == "(z1)"


class TestRealizeForm:
    def test_zero_density(self):
        res = realize_form(AnnulusFunction(PeriodicSeries.zeros(2, 3)), 0.5)
        assert res.converged
        assert res.det_residual < 1e-12
        z = torus_points(2, 12)
        assert np.max(np.abs(apply_z(res.phi, z) - z)) < 1e-12

    def test_riccati_full(self):
        eps = 1e-3
        a = AnnulusFunction.from_terms(1, 4, {(1,): eps})
        res = realize_form(a, 0.5)
        assert res.converged
        assert res.det_residual <= 1e-8
        assert res.inverse_residual <= 1e-9
        assert res.min_det > 0.5
        assert res.min_phase_gradient > 0.5

    def test_random_two_dim(self):
        for norm in (1e-4, 3e-3):
            rng = np.random.default_rng(66)
            a = random_annulus_function(rng, 2, 8, 0.5, norm)
            res = realize_form(a, 0.5)
            assert res.converged
            assert res.det_residual <= 1e-7
            assert res.inverse_residual <= 1e-9
            decays = [row.residual for row in res.trace if row.residual > 0]
            assert all(c <= 1e3 for c in decays)

    def test_random_three_dim(self):
        rng = np.random.default_rng(66)
        a = random_annulus_function(rng, 3, 4, 0.5, 1e-4)
        res = realize_form(a, 0.5)
        assert res.converged
        assert res.det_residual <= 1e-7
        assert res.inverse_residual <= 1e-9
        assert res.min_det > 0.5
        assert res.min_phase_gradient > 0.5
        # the realized Jacobian by the direct sum, off the witness grid
        z = torus_points(3, 7)
        assert np.max(np.abs(det_jacobian_z(res.phi, z) - 1.0
                             - eval_z(a, z))) <= 1e-7
        # and by central differences, with no package code
        assert np.max(np.abs(finite_difference_det_3d(res.phi, z) - 1.0
                             - laurent_sum_3d(a.coeffs, z))) <= 1e-7

    def test_exhausted_schedule_is_not_converged(self, monkeypatch):
        # the random density needs two corrective steps; allow only one
        monkeypatch.setattr(fibering, "MAX_ITER", 1)
        rng = np.random.default_rng(66)
        a = random_annulus_function(rng, 2, 8, 0.5, 1e-4)
        res = realize_form(a, 0.5)
        assert not res.converged
        assert res.iterations == 1
        assert [row.m for row in res.trace] == [0, 1]

    def test_refuses_obstructed_density(self):
        a = AnnulusFunction.from_terms(2, 2, {(-1, -1): 1e-3, (1, 0): 1e-3})
        with pytest.raises(HypothesisViolation) as err:
            realize_form(a, 0.5)
        assert err.value.bound == "(kn)"

    def test_refuses_oversized_density(self):
        a = AnnulusFunction.from_terms(1, 2, {(1,): 0.1})
        with pytest.raises(HypothesisViolation) as err:
            realize_form(a, 0.5)
        assert err.value.bound == "(z1)"

