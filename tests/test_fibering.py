import numpy as np
import pytest

from torusnf import fibering, realization
from torusnf.errors import HypothesisViolation, NumericalFailure
from torusnf.fibering import (
    STOP_TOL,
    FiberingPhase,
    fibering_normalize,
    fibering_step,
    leading_bound,
    phase_profile_distance,
    transverse_bound,
)
from torusnf.flows import flow
from torusnf.realization import realize_form
from torusnf.series import PeriodicSeries

from oracles import abs_max_coeff, coeff_distance, multiply
from test_flows import stream_field
from test_realization import random_annulus_function
from test_series import cos_series, random_series, sin_series


def admissible_phase(rng, n=2, N=6, r0=0.5, eps=1e-3, decay=1.0):
    """Random real phase with coefficient norm exactly eps * r0^3 at r0."""
    h = random_series(rng, n, N, decay=decay)
    return h * (eps * r0 ** 3 / h.coeff_norm(r0))


class TestBounds:
    def test_leading_and_transverse(self):
        eps = 1e-3
        h = eps * (sin_series(2, 4, 0)
                   + multiply(cos_series(2, 4, 0), sin_series(2, 4, 1)).truncate(4))
        r = 0.5
        # theta_1 part eps sin t1 has derivative eps cos t1, coeff norm eps e^r
        assert leading_bound(h, r) == pytest.approx(eps * np.exp(r))
        assert transverse_bound(h, r) == pytest.approx(eps * np.exp(2 * r))


class TestStep:
    def test_exact_skew_case(self):
        eps = 1e-3
        h = eps * sin_series(2, 4, 1)
        step = fibering_step(FiberingPhase(h), 0.5, 1.0 / 16.0)
        assert coeff_distance(step.map.parts[0], -eps * sin_series(2, 4, 1)) < 1e-13
        assert abs_max_coeff(step.map.parts[1]) < 1e-14
        assert step.phase_next.h.coeff_norm(0.5) < 1e-12
        assert step.divergence_defect < 1e-14

    def test_theta1_only_phase_is_fixed(self):
        eps = 1e-3
        h = eps * sin_series(2, 4, 0)
        step = fibering_step(FiberingPhase(h), 0.5, 1.0 / 16.0)
        assert step.b == 0.0
        assert step.map.part_norm(0.5) < 1e-14
        assert coeff_distance(step.phase_next.h, h) < 1e-14

    def test_divergence_free_construction(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            h = admissible_phase(rng)
            step = fibering_step(FiberingPhase(h), 0.5, 1.0 / 16.0)
            assert step.divergence_defect <= 1e-10

    def test_contraction_constant_moderate(self):
        rng = np.random.default_rng(52)
        r, delta = 0.5, 1.0 / 16.0
        for _ in range(10):
            h = admissible_phase(rng)
            step = fibering_step(FiberingPhase(h), r, delta)
            b_new = transverse_bound(step.phase_next.h, (1 - 4 * delta) * r)
            c4 = b_new * r ** 3 * delta ** 3 / step.b ** 2
            assert c4 <= 1e4

    def test_refuses_large_transverse_part(self):
        h = 0.3 * sin_series(2, 4, 1)
        with pytest.raises(HypothesisViolation) as err:
            fibering_step(FiberingPhase(h), 0.5, 1.0 / 16.0)
        assert err.value.bound == "(z1)"


class TestNormalize:
    def test_zero_phase(self):
        h = PeriodicSeries.zeros(2, 4)
        res = fibering_normalize(FiberingPhase(h), 0.5)
        assert res.converged
        assert abs_max_coeff(res.k) == 0.0
        assert res.chain.to_single(10).part_norm(0.25) < 1e-13
        assert res.residual < 1e-12

    def test_skew_case_converges_in_one_step(self):
        eps = 1e-3
        h = eps * sin_series(2, 4, 1)
        res = fibering_normalize(FiberingPhase(h), 0.5)
        assert res.converged and res.iterations == 1
        assert res.k.coeff_norm(0.25) < 1e-12
        assert coeff_distance(res.chain.to_single(10).parts[0],
                              -eps * sin_series(2, 4, 1)) < 1e-10
        assert res.residual < 1e-10
        assert res.det_residual < 1e-10

    def test_leading_order_profile(self):
        eps = 1e-3
        h = eps * (sin_series(2, 6, 0)
                   + multiply(cos_series(2, 6, 0), sin_series(2, 6, 1)).truncate(6))
        res = fibering_normalize(FiberingPhase(h), 0.5)
        assert res.converged
        assert res.residual <= 1e-8
        target = eps * sin_series(1, res.k.N, 0)
        assert coeff_distance(res.k, target) < 10 * eps ** 2

    def test_mean_is_removed(self):
        eps = 1e-3
        h = eps * (PeriodicSeries.constant(2, 4, 0.5) + sin_series(2, 4, 1))
        res = fibering_normalize(FiberingPhase(h), 0.5)
        assert res.converged
        assert abs(res.k.mean()) < 1e-15
        assert res.residual < 1e-9

    def test_refuses_oversized_phase(self):
        h = 0.1 * sin_series(2, 4, 1)
        with pytest.raises(HypothesisViolation) as err:
            fibering_normalize(FiberingPhase(h), 0.5)
        assert err.value.bound == "(z1)"

    def test_random_admissible_full_run(self):
        rng = np.random.default_rng(53)
        h = admissible_phase(rng)
        res = fibering_normalize(FiberingPhase(h), 0.5)
        assert res.converged
        assert res.residual <= 1e-8
        assert res.det_residual <= 1e-8
        bs = [row.defect for row in res.trace if row.defect > 0]
        assert all(b2 < b1 for b1, b2 in zip(bs[1:], bs[2:]))  # after first step

    def test_exhausted_schedule_is_not_converged(self, monkeypatch):
        # the random admissible phase needs two steps; allow only one
        monkeypatch.setattr(fibering, "MAX_ITER", 1)
        h = admissible_phase(np.random.default_rng(53))
        res = fibering_normalize(FiberingPhase(h), 0.5)
        assert not res.converged
        assert res.iterations == 1
        assert [row.m for row in res.trace] == [0, 1]
        assert res.trace[-1].defect > STOP_TOL

    def test_uniqueness_under_volume_preserving_conjugation(self):
        rng = np.random.default_rng(54)
        h = admissible_phase(rng, eps=0.7e-3)
        res = fibering_normalize(FiberingPhase(h), 0.5)
        psi = flow(stream_field(rng, N=2, norm=1e-5), 1.0, 0.5, 0.2, N_out=10).map
        conj = (psi.parts[0].pad_to(10) + psi.pullback(h, N_out=10))
        conj = conj.truncate(6).symmetrized()
        res2 = fibering_normalize(FiberingPhase(conj), 0.5)
        assert res2.converged
        assert phase_profile_distance(res.k, res2.k) <= 1e-6


def two_step_phase_run():
    h = admissible_phase(np.random.default_rng(53))
    return fibering_normalize(FiberingPhase(h), 0.5)


def two_step_density_run():
    a = random_annulus_function(np.random.default_rng(66), 2, 8, 0.5, 1e-4)
    return realize_form(a, 0.5)


class TestShrinkingStrip:
    @pytest.mark.parametrize("error", [
        lambda: HypothesisViolation("(z1)", "injected step refusal"),
        lambda: NumericalFailure("injected step failure"),
    ], ids=["HypothesisViolation", "NumericalFailure"])
    @pytest.mark.parametrize("module, step, run", [
        (fibering, "fibering_step", two_step_phase_run),
        (realization, "realization_step", two_step_density_run),
    ], ids=["fibering", "realization"])
    def test_step_error_keeps_partial_trace(self, monkeypatch, module, step,
                                            run, error):
        # both runs take two steps; the second one raises
        original = getattr(module, step)
        calls = []

        def second_call_raises(*args):
            calls.append(args)
            if len(calls) == 2:
                raise error()
            return original(*args)

        monkeypatch.setattr(module, step, second_call_raises)
        with pytest.raises((HypothesisViolation, NumericalFailure)) as err:
            run()
        assert "injected" in str(err.value)
        assert [row.m for row in err.value.trace] == [0]


class TestProfileDistance:
    def test_identical(self):
        k = 1e-3 * sin_series(1, 4, 0)
        assert phase_profile_distance(k, k) == 0.0

    def test_half_turn_match(self):
        from torusnf.series import translate
        k = 1e-3 * sin_series(1, 4, 0)
        shifted = translate(k, [np.pi]).symmetrized()
        assert phase_profile_distance(k, shifted, allow_half_turn=True) < 1e-15
        assert phase_profile_distance(k, shifted) == pytest.approx(2e-3, rel=1e-6)

    def test_sin_vs_cos(self):
        k = sin_series(1, 2, 0)
        k_hat = cos_series(1, 2, 0)
        d = phase_profile_distance(k, k_hat, allow_half_turn=True)
        assert d == pytest.approx(np.sqrt(2.0), rel=1e-6)

    def test_refuses_nonzero_mean(self):
        k = PeriodicSeries.constant(1, 2, 0.1)
        with pytest.raises(ValueError):
            phase_profile_distance(k, k)
