import numpy as np
import pytest

from torusnf import fibering, flows, realization, series
from torusnf.errors import HypothesisViolation, NumericalFailure
from torusnf.fibering import (
    STOP_TOL,
    fibering_normalize,
    fibering_step,
    leading_bound,
    transverse_bound,
)
from torusnf.flows import MapChain, flow
from torusnf.realization import realize_form
from torusnf.series import PeriodicSeries

from oracles import (
    abs_max_coeff,
    at_points,
    coeff_distance,
    divergence,
    multiply,
    phase_profile_distance,
    theta_grid,
)
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


def record_fields(monkeypatch):
    """Rebinds `fibering.flow` to record the field each step flows along."""
    fields = []

    def recording(v, *args, **kwargs):
        fields.append(v)
        return flow(v, *args, **kwargs)

    monkeypatch.setattr(fibering, "flow", recording)
    return fields


class TestStep:
    def test_exact_skew_case(self, monkeypatch):
        eps = 1e-3
        h = eps * sin_series(2, 4, 1)
        fields = record_fields(monkeypatch)
        h_next, lift = fibering_step(h, 0.5, 1.0 / 16.0)
        assert coeff_distance(lift.parts[0], -eps * sin_series(2, 4, 1)) < 1e-13
        assert abs_max_coeff(lift.parts[1]) < 1e-14
        assert h_next.coeff_norm(0.5) < 1e-12
        assert divergence(fields[0]).coeff_norm(0.5) < 1e-14

    def test_theta1_only_phase_is_fixed(self):
        eps = 1e-3
        h = eps * sin_series(2, 4, 0)
        h_next, lift = fibering_step(h, 0.5, 1.0 / 16.0)
        assert transverse_bound(h, 0.5) == 0.0
        assert lift.part_norm(0.5) < 1e-14
        assert coeff_distance(h_next, h) < 1e-14

    def test_divergence_free_construction(self, monkeypatch):
        rng = np.random.default_rng(51)
        fields = record_fields(monkeypatch)
        for _ in range(10):
            h = admissible_phase(rng)
            fibering_step(h, 0.5, 1.0 / 16.0)
            assert divergence(fields[-1]).coeff_norm(0.5) <= 1e-10
        assert len(fields) == 10

    def test_contraction_constant_moderate(self):
        rng = np.random.default_rng(52)
        r, delta = 0.5, 1.0 / 16.0
        for _ in range(10):
            h = admissible_phase(rng)
            h_next, _ = fibering_step(h, r, delta)
            b_new = transverse_bound(h_next, (1 - 4 * delta) * r)
            c4 = b_new * r ** 3 * delta ** 3 / transverse_bound(h, r) ** 2
            assert c4 <= 1e4

    def test_refuses_large_transverse_part(self):
        h = 0.3 * sin_series(2, 4, 1)
        with pytest.raises(HypothesisViolation) as err:
            fibering_step(h, 0.5, 1.0 / 16.0)
        assert err.value.bound == "(z1)"


class TestNormalize:
    def test_zero_phase(self):
        h = PeriodicSeries.zeros(2, 4)
        res = fibering_normalize(h, 0.5)
        assert res.converged
        assert abs_max_coeff(res.k) == 0.0
        assert MapChain(res.stages).to_single(10).part_norm(0.25) < 1e-13
        assert res.residual < 1e-12

    def test_skew_case_converges_in_one_step(self):
        eps = 1e-3
        h = eps * sin_series(2, 4, 1)
        res = fibering_normalize(h, 0.5)
        assert res.converged and res.iterations == 1
        assert res.k.coeff_norm(0.25) < 1e-12
        assert coeff_distance(MapChain(res.stages).to_single(10).parts[0],
                              -eps * sin_series(2, 4, 1)) < 1e-10
        assert res.residual < 1e-10
        assert res.det_residual < 1e-10

    def test_leading_order_profile(self):
        eps = 1e-3
        h = eps * (sin_series(2, 6, 0)
                   + multiply(cos_series(2, 6, 0), sin_series(2, 6, 1)).truncate(6))
        res = fibering_normalize(h, 0.5)
        assert res.converged
        assert res.residual <= 1e-8
        target = eps * sin_series(1, res.k.N, 0)
        assert coeff_distance(res.k, target) < 10 * eps ** 2

    def test_mean_is_removed(self):
        eps = 1e-3
        h = eps * (PeriodicSeries.constant(2, 4, 0.5) + sin_series(2, 4, 1))
        res = fibering_normalize(h, 0.5)
        assert res.converged
        assert abs(res.k.mean()) < 1e-15
        assert res.residual < 1e-9

    def test_refuses_complex_phase(self):
        with pytest.raises(ValueError, match="real"):
            fibering_normalize(1j * sin_series(2, 4, 1), 0.5)

    def test_refuses_oversized_phase(self):
        h = 0.1 * sin_series(2, 4, 1)
        with pytest.raises(HypothesisViolation) as err:
            fibering_normalize(h, 0.5)
        assert err.value.bound == "(z1)"

    def test_random_admissible_full_run(self):
        rng = np.random.default_rng(53)
        h = admissible_phase(rng)
        res = fibering_normalize(h, 0.5)
        assert res.converged
        assert res.residual <= 1e-8
        assert res.det_residual <= 1e-8
        bs = [row.defect for row in res.trace if row.defect > 0]
        assert all(b2 < b1 for b1, b2 in zip(bs[1:], bs[2:]))  # after first step

    def test_exhausted_schedule_is_not_converged(self, monkeypatch):
        # the random admissible phase needs two steps; allow only one
        monkeypatch.setattr(fibering, "MAX_ITER", 1)
        h = admissible_phase(np.random.default_rng(53))
        res = fibering_normalize(h, 0.5)
        assert not res.converged
        assert res.iterations == 1
        assert [row.m for row in res.trace] == [0, 1]
        assert res.trace[-1].defect > STOP_TOL

    def test_uniqueness_under_volume_preserving_conjugation(self):
        rng = np.random.default_rng(54)
        h = admissible_phase(rng, eps=0.7e-3)
        res = fibering_normalize(h, 0.5)
        psi = flow(stream_field(rng, N=2, norm=1e-5), 1.0, 0.5, 0.2, N_out=10).map
        conj = (psi.parts[0].pad_to(10) + psi.pullback(h, N_out=10))
        conj = conj.truncate(6).symmetrized()
        res2 = fibering_normalize(conj, 0.5)
        assert res2.converged
        assert phase_profile_distance(res.k, res2.k) <= 1e-6


def two_step_phase_run():
    h = admissible_phase(np.random.default_rng(53))
    return fibering_normalize(h, 0.5)


class TestWitness:
    def test_phase_is_read_on_the_moved_grid(self, monkeypatch):
        h0 = admissible_phase(np.random.default_rng(53))
        seen = []
        evaluate = series.eval_many

        def recording(series_list, pts):
            seen.extend(s.coeffs for s in series_list)
            return evaluate(series_list, pts)

        for mod in (series, flows):
            monkeypatch.setattr(mod, "eval_many", recording)
        res = two_step_phase_run()
        monkeypatch.undo()
        assert res.iterations == 2 and seen
        assert not [c for c in seen
                    if c.shape == h0.coeffs.shape and np.array_equal(c, h0.coeffs)]

        # mu o Phi - theta_1 - k(theta_1), every value by the direct sum
        pts = theta_grid(2, fibering.VERIFY_GRID)
        moved = at_points(MapChain(res.stages), pts)
        mu = moved[:, 0] + series.eval_many([h0], moved)[0]
        t1 = pts[:, :1]
        target = t1[:, 0] + series.eval_many([res.k], t1)[0]
        assert abs(np.max(np.abs(mu - target)) - res.residual) < 1e-14


def two_step_density_run():
    a = random_annulus_function(np.random.default_rng(66), 2, 8, 0.5, 1e-4)
    return realize_form(a, 0.5)


class TestShrinkingStrip:
    @pytest.mark.parametrize("error", [
        lambda: HypothesisViolation("(z1)", 1.0, 0.5, "injected step refusal"),
        lambda: NumericalFailure("(lie)", 1.0, 0.5, "injected step failure"),
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

    @pytest.mark.parametrize("module, run", [
        (fibering, two_step_phase_run),
        (realization, two_step_density_run),
    ], ids=["fibering", "realization"])
    def test_each_defect_is_computed_once(self, monkeypatch, module, run):
        original = fibering.shrinking_strip
        radii = []

        def counting(state, r0, schedule, defect, step, power):
            def counted(state, r):
                radii.append(r)
                return defect(state, r)
            return original(state, r0, schedule, counted, step, power)

        monkeypatch.setattr(module, "shrinking_strip", counting)
        res = run()
        assert res.iterations == 2
        assert radii == [row.r for row in res.trace]


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
