import numpy as np
import pytest

from torusnf import realization
from torusnf.errors import HypothesisViolation
from torusnf.realization import (
    AnnulusFunction,
    AnnulusMap,
    hamiltonian_field,
    laurent_split,
    mean_zero_check,
    realization_step,
    realize_form,
    solve_divergence,
    unimodular_flow_map,
)
from torusnf.series import PeriodicSeries, theta_grid

from test_series import random_series


def random_annulus_function(rng, n, N, r, norm, decay=0.8):
    """Random Laurent data with vanishing all-(-1) monomial, given norm at r."""
    s = random_series(rng, n, N, decay=decay, real=False)
    c = np.array(s.coeffs)
    if N >= 1:
        c[tuple([N - 1] * n)] = 0.0
    a = AnnulusFunction(PeriodicSeries(c))
    return a * (norm / a.norm(r))


def torus_points(n, M):
    return np.exp(1j * theta_grid(n, M))


class TestLaurentSplit:
    def test_one_dim_positive_power(self):
        a = AnnulusFunction.from_terms(1, 2, {(1,): 1e-3})
        pieces = laurent_split(a)
        assert pieces[0].coeff((1,)) == pytest.approx(1e-3)
        assert pieces[1].series.abs_max_coeff() == 0.0

    def test_obstruction_monomial(self):
        a = AnnulusFunction.from_terms(2, 1, {(-1, -1): 2.0})
        pieces = laurent_split(a)
        assert pieces[0].series.abs_max_coeff() == 0.0
        assert pieces[1].series.abs_max_coeff() == 0.0
        assert pieces[2].coeff((-1, -1)) == pytest.approx(2.0)

    def test_partition_and_norm_bound(self):
        rng = np.random.default_rng(61)
        a = random_annulus_function(rng, 2, 5, 0.5, 1e-3)
        pieces = laurent_split(a)
        total = sum((p.series for p in pieces), PeriodicSeries.zeros(2, 5))
        assert np.max(np.abs(total.coeffs - a.series.coeffs)) == 0.0
        for j, p in enumerate(pieces):
            assert p.norm(0.5) <= 2 * np.e ** (j + 1) * a.norm(0.5)


class TestMeanCheck:
    def test_positive_power_passes(self):
        a = AnnulusFunction.from_terms(1, 2, {(1,): 1e-3})
        ok, defect = mean_zero_check(a)
        assert ok and defect == 0.0

    def test_obstruction_fails(self):
        a = AnnulusFunction.from_terms(2, 1, {(-1, -1): 1.0})
        ok, defect = mean_zero_check(a)
        assert not ok and defect == pytest.approx(1.0)

    def test_zeroed_coefficient_passes(self):
        rng = np.random.default_rng(62)
        a = random_annulus_function(rng, 2, 4, 0.5, 1e-3)
        ok, _ = mean_zero_check(a)
        assert ok


class TestSolveDivergence:
    def test_one_dim_quadratic(self):
        eps = 1e-3
        a = AnnulusFunction.from_terms(1, 2, {(1,): eps})
        v = solve_divergence(a)
        assert v.q[0].coeff((2,)) == pytest.approx(eps / 2)
        resid = v.divergence_z() + (-1.0 * a)
        assert resid.series.abs_max_coeff() < 1e-18

    def test_zero_input(self):
        a = AnnulusFunction.zeros(2, 3)
        v = solve_divergence(a)
        assert all(c.series.abs_max_coeff() == 0.0 for c in v.q)

    def test_random_reconstruction_and_gauge(self):
        rng = np.random.default_rng(63)
        for _ in range(10):
            a = random_annulus_function(rng, 2, 5, 0.5, 1e-3)
            v = solve_divergence(a)
            resid = v.divergence_z() + (-1.0 * a)
            assert resid.series.coeff_norm(0.5) <= 1e-12
            for j, q in enumerate(v.q):
                # no exponent-0 monomials in z_j (the uniqueness gauge)
                plane = np.take(q.series.coeffs, q.series.N, axis=j)
                assert np.max(np.abs(plane)) == 0.0
                assert q.norm(0.5) <= 4 * np.pi * np.e ** (j + 2) * a.norm(0.5)

    def test_refuses_obstructed_input(self):
        a = AnnulusFunction.from_terms(2, 1, {(-1, -1): 1e-3})
        with pytest.raises(HypothesisViolation) as err:
            solve_divergence(a)
        assert err.value.bound == "(kn)"


class TestRealizationStep:
    def test_zero_density(self):
        a = AnnulusFunction.zeros(2, 3)
        step = realization_step(a, 0.5, 0.1)
        assert step.map.log_norm(0.4) < 1e-14
        assert step.a_next.series.abs_max_coeff() < 1e-14

    def test_riccati_closed_form(self):
        eps = 1e-3
        # degree 4 keeps the eps^3 z^3 tail of the transported density
        a = AnnulusFunction.from_terms(1, 4, {(1,): eps})
        step = realization_step(a, 0.5, 0.3)
        z = torus_points(1, 128)
        psi_vals = step.map.apply_z(z)[:, 0]
        exact = z[:, 0] / (1.0 + eps * z[:, 0] / 2.0)
        assert np.max(np.abs(psi_vals - exact)) < 1e-10
        hat_exact = (1.0 + 1.5 * eps * z[:, 0]) / (1.0 + eps * z[:, 0] / 2.0) ** 3 - 1.0
        hat_vals = step.a_next.eval_z(z)
        assert np.max(np.abs(hat_vals - hat_exact)) < 1e-10
        # leading coefficient -(3/4) eps^2 z^2
        assert step.a_next.coeff((2,)) == pytest.approx(-0.75 * eps ** 2, rel=1e-2)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(64)
        for _ in range(5):
            a = random_annulus_function(rng, 2, 5, 0.5, 1e-4)
            step = realization_step(a, 0.5, 0.05)
            z = torus_points(2, 24)
            lhs = (1.0 + a.eval_z(step.map.apply_z(z))) \
                * step.map.det_jacobian_z(z)
            rhs = 1.0 + step.a_next.eval_z(z)
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_contraction_constant(self):
        rng = np.random.default_rng(65)
        r, delta = 0.5, 0.05
        for _ in range(5):
            a = random_annulus_function(rng, 2, 5, r, 1e-4)
            step = realization_step(a, r, delta)
            c7 = step.a_next.norm((1 - 2 * delta) * r) * r * delta / step.a_norm ** 2
            assert c7 <= 1e3

    def test_refuses_oversized_density(self):
        a = AnnulusFunction.from_terms(1, 2, {(1,): 0.3})
        with pytest.raises(HypothesisViolation) as err:
            realization_step(a, 0.5, 0.05)
        assert err.value.bound == "(f4)"


class TestRealizeForm:
    def test_zero_density(self):
        res = realize_form(AnnulusFunction.zeros(2, 3), 0.5)
        assert res.converged
        assert res.det_residual < 1e-12
        z = torus_points(2, 12)
        assert np.max(np.abs(res.phi.apply_z(z) - z)) < 1e-12

    def test_riccati_full(self):
        eps = 1e-3
        a = AnnulusFunction.from_terms(1, 4, {(1,): eps})
        res = realize_form(a, 0.5, eps=0.01)
        assert res.converged
        assert res.det_residual <= 1e-8
        assert res.inverse_residual <= 1e-9
        assert res.min_det > 0.5
        assert res.min_phase_gradient > 0.5

    def test_random_two_dim(self):
        rng = np.random.default_rng(66)
        a = random_annulus_function(rng, 2, 8, 0.5, 1e-4)
        res = realize_form(a, 0.5)
        assert res.converged
        assert res.det_residual <= 1e-7
        assert res.inverse_residual <= 1e-9
        decays = [row.residual for row in res.trace.rows if row.residual > 0]
        assert all(c <= 1e3 for c in decays)

    def test_exhausted_schedule_is_not_converged(self, monkeypatch):
        # the random density needs two corrective steps; allow only one
        monkeypatch.setattr(realization, "MAX_ITER", 1)
        rng = np.random.default_rng(66)
        a = random_annulus_function(rng, 2, 8, 0.5, 1e-4)
        with pytest.warns(RuntimeWarning):
            res = realize_form(a, 0.5)
        assert not res.converged
        assert res.iterations == 1
        assert [row.m for row in res.trace.rows] == [0, 1]

    def test_refuses_obstructed_density(self):
        a = AnnulusFunction.from_terms(2, 2, {(-1, -1): 1e-3, (1, 0): 1e-3})
        with pytest.raises(HypothesisViolation) as err:
            realize_form(a, 0.5)
        assert err.value.bound == "(kn)"

    def test_refuses_oversized_density(self):
        a = AnnulusFunction.from_terms(1, 2, {(1,): 0.1})
        with pytest.raises(HypothesisViolation) as err:
            realize_form(a, 0.5)
        assert err.value.bound == "(smalla)"


class TestUnimodularFlow:
    def test_hamiltonian_flow_is_unimodular(self):
        rng = np.random.default_rng(67)
        H = random_annulus_function(rng, 2, 3, 0.5, 2e-3)
        v = hamiltonian_field(H)
        assert v.divergence_z().series.coeff_norm(0.5) < 1e-15
        psi = unimodular_flow_map(v, 0.5, 0.2, N_out=10)
        z = torus_points(2, 16)
        det = psi.det_jacobian_z(z)
        assert np.max(np.abs(det - 1.0)) < 1e-9
