import numpy as np
import pytest

from torusnf.errors import NumericalFailure
from torusnf.flows import MapChain, invert_map
from torusnf.moser import moser_normalize
from torusnf.series import PeriodicSeries

from oracles import (
    abs_max_coeff,
    at_points,
    average,
    coeff_distance,
    eval_points,
    theta_grid,
)
from test_series import cos_series, random_series, sin_series


def admissible_density(rng, n, N, r, frac=0.5):
    b = random_series(rng, n, N)
    return b * (frac * r / (32.0 * n * np.pi) / b.coeff_norm(r))


class TestMoserNormalize:
    def test_zero_density(self):
        d = PeriodicSeries.zeros(2, 3)
        res = moser_normalize(d, N_out=3)
        assert res.mean == 0.0
        assert res.map.part_norm(0.5) == 0.0
        assert res.residual < 1e-14

    def test_refuses_complex_density(self):
        with pytest.raises(ValueError, match="real"):
            moser_normalize(1j * cos_series(2, 4, 0), N_out=4)

    def test_one_dimensional_cosine(self):
        eps = 1e-3
        d = eps * cos_series(1, 4, 0)
        res = moser_normalize(d, N_out=4)
        assert res.mean == pytest.approx(0.0, abs=1e-15)
        assert coeff_distance(res.map.parts[0], eps * sin_series(1, 4, 0)) < 1e-12

    def test_random_admissible_residual_and_bound(self):
        rng = np.random.default_rng(41)
        r = 0.5
        for n in (2, 3):
            for _ in range(5):
                d = admissible_density(rng, n, 6, r)
                res = moser_normalize(d, N_out=12)
                assert res.residual < 1e-9
                assert res.map.part_norm(r) <= 8 * np.pi * d.coeff_norm(r)

    def test_refuses_large_density(self):
        # 1 + cos theta_1 reaches 0
        d = cos_series(2, 3, 0)
        with pytest.raises(NumericalFailure, match="vanishes"):
            moser_normalize(d, N_out=3)

    def test_triangularity(self):
        rng = np.random.default_rng(42)
        d = admissible_density(rng, 3, 4, 0.5)
        res = moser_normalize(d, N_out=8)
        for j, f in enumerate(res.map.parts):
            assert abs_max_coeff(f - f.restrict_axes(j)) == 0.0
            assert abs_max_coeff(average(f, [j])) == 0.0

    def test_volume_balance(self):
        # the Jacobian factor transports the density to its mean:
        # mean((1+b)/(1+[b]) - prod(1+D_j f_j)) = 0
        rng = np.random.default_rng(43)
        d = admissible_density(rng, 2, 6, 0.5)
        res = moser_normalize(d, N_out=12)
        M = 40
        det = np.ones((M, M), dtype=complex)
        for j, f in enumerate(res.map.parts):
            det *= 1.0 + f.derivative(j).eval_real_grid(M)
        vals = (1.0 + d.eval_real_grid(M)) / (1.0 + res.mean)
        gap = vals - det
        assert abs(np.mean(gap)) < 1e-10

    def test_domain_containment(self):
        rng = np.random.default_rng(44)
        r = 0.5
        d = admissible_density(rng, 2, 6, r)
        res = moser_normalize(d, N_out=12)
        # phi maps the half strip into the full strip
        assert res.map.part_norm(r / 2) <= r / 2
        # and the contraction inverse is admissible on the quarter strip
        inv = invert_map((res.map,), r, N_out=12)
        assert inv.residual < 1e-10
        assert inv.map.part_norm(r / 4) <= r / 4

    def test_reality_of_map(self):
        rng = np.random.default_rng(45)
        d = admissible_density(rng, 2, 5, 0.5)
        res = moser_normalize(d, N_out=5)
        assert all(p.real and p.is_real_symmetric() for p in res.map.parts)

    def test_pullback_identity_on_grid(self):
        # direct check of the defining identity via composition with phi
        rng = np.random.default_rng(46)
        d = admissible_density(rng, 2, 5, 0.5)
        res = moser_normalize(d, N_out=10)
        pts = theta_grid(2, 24)
        _, det = at_points(MapChain([res.map]), pts, det=True)
        lhs = (1.0 + res.mean) * det
        rhs = 1.0 + eval_points(d, pts)
        assert np.max(np.abs(lhs - rhs)) < 1e-9
