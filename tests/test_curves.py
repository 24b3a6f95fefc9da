import numpy as np

from torusnf.curves import (
    NONCRITICAL_TOL,
    CurveImmersion,
    embedding_check,
    gauss_degree,
    noncritical_phase,
)
from torusnf.series import PeriodicSeries

from oracles import circle, eval_points


def ellipse(a=1.0, b=2.0, N=4):
    # cos t + i b sin t = ((a+b)/2) e^{it} + ((a-b)/2) e^{-it}
    return CurveImmersion(PeriodicSeries.from_terms(
        1, N, {(1,): (a + b) / 2.0, (-1,): (a - b) / 2.0}))


def doubled_circle(N=4):
    # velocity e^{2 i t}: turning number 2
    return CurveImmersion(PeriodicSeries.from_terms(1, N, {(2,): -0.5j}))


def limacon_like(b=1.5, N=4):
    # (b + cos t) e^{it}: immersed for b > 1, inflected for b < 2
    return CurveImmersion(PeriodicSeries.from_terms(
        1, N, {(0,): 0.5, (1,): b, (2,): 0.5}))


class TestGaussDegree:
    def test_circle(self):
        assert gauss_degree(circle()) == 1

    def test_doubled_circle(self):
        assert gauss_degree(doubled_circle()) == 2

    def test_ellipse(self):
        assert gauss_degree(ellipse()) == 1

    def test_orientation_preserving_reparametrization_invariance(self):
        from torusnf.series import series_from_real_grid
        f = ellipse()
        M = 1024
        t = 2 * np.pi * np.arange(M) / M
        warped = eval_points(f.series,
                             (t + 0.3 * np.sin(t)).astype(complex)[:, None])
        g = CurveImmersion(series_from_real_grid(warped, 64))
        assert gauss_degree(g) == 1


class TestNoncritical:
    def test_circle_phase_derivative_is_one(self):
        mu_prime, margin = noncritical_phase(circle())
        assert margin > NONCRITICAL_TOL
        assert np.max(np.abs(mu_prime - 1.0)) < 1e-10

    def test_ellipse_strictly_convex(self):
        mu_prime, margin = noncritical_phase(ellipse())
        assert margin > NONCRITICAL_TOL
        assert np.min(mu_prime) > 0

    def test_inflected_curve_flagged(self):
        mu_prime, margin = noncritical_phase(limacon_like(1.5))
        assert not margin > NONCRITICAL_TOL
        assert np.min(mu_prime) < 0 < np.max(mu_prime)

    def test_round_curve_not_inflected(self):
        _, margin = noncritical_phase(limacon_like(3.0))
        assert margin > NONCRITICAL_TOL


class TestEmbeddingCheck:
    def test_circle(self):
        assert embedding_check(circle()) == 1

    def test_doubled_circle(self):
        assert embedding_check(doubled_circle()) == 2

    def test_perturbed_circle(self):
        rng = np.random.default_rng(71)
        pert = {(int(k),): 1e-3 * (rng.standard_normal() + 1j * rng.standard_normal())
                for k in range(-3, 4)}
        f = CurveImmersion(circle().series
                           + PeriodicSeries.from_terms(1, 4, pert))
        assert embedding_check(f) == 1

    def test_gauss_map_injectivity_for_unit_turning(self):
        # for |d| = 1 the normalized velocity visits each direction once
        f = ellipse()
        M = 512
        v = f.series.derivative(0).eval_real_grid(M)
        gauss = -1j * v / np.abs(v)
        ang = np.angle(gauss)
        order = np.argsort(ang)
        assert np.all(np.diff(ang[order]) > 0)
