import itertools

import numpy as np
import pytest

from torusnf.errors import HypothesisViolation
from torusnf.series import (
    CHOP_FLOOR,
    PeriodicSeries,
    allclose,
    coeff_distance,
    divide,
    eval_many,
    multiply,
    pull_back_linear,
    series_from_real_grid,
    theta_grid,
    translate,
)


def sin_series(n, N, axis):
    # sin theta_axis = (e^{i t} - e^{-i t}) / 2i
    k = [0] * n
    k[axis] = 1
    km = [0] * n
    km[axis] = -1
    return PeriodicSeries.from_terms(n, N, {tuple(k): -0.5j, tuple(km): 0.5j})


def cos_series(n, N, axis):
    k = [0] * n
    k[axis] = 1
    km = [0] * n
    km[axis] = -1
    return PeriodicSeries.from_terms(n, N, {tuple(k): 0.5, tuple(km): 0.5})


def random_series(rng, n, N, decay=0.7, real=True):
    shape = (2 * N + 1,) * n
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    k = np.arange(-N, N + 1)
    w = np.ones(shape)
    for j in range(n):
        sh = [1] * n
        sh[j] = 2 * N + 1
        w = w * np.exp(-decay * np.abs(k)).reshape(sh)
    h = PeriodicSeries(c * w)
    return h.symmetrized() if real else h


class TestEval:
    def test_constant(self):
        h = PeriodicSeries.constant(2, 3, 7.5)
        assert h.eval([0.3, -1.2]) == pytest.approx(7.5)

    def test_unit_harmonic_at_origin(self):
        h = PeriodicSeries.from_terms(2, 2, {(1, 0): 1.0})
        assert h.eval([0.0, 0.0]) == pytest.approx(1.0)

    def test_cosine_continues_to_cosh(self):
        h = cos_series(1, 2, 0)
        r = 0.4
        assert h.eval([1j * r]) == pytest.approx(np.cosh(r))

    def test_dimension_mismatch(self):
        h = PeriodicSeries.constant(2, 1, 1.0)
        with pytest.raises(ValueError):
            h.eval([0.1])

    def test_grid_eval_matches_pointwise(self):
        rng = np.random.default_rng(7)
        h = random_series(rng, 2, 4, real=False)
        M = 11
        grid_vals = h.eval_real_grid(M).reshape(-1)
        pts_vals = h.eval_points(theta_grid(2, M))
        assert np.max(np.abs(grid_vals - pts_vals)) < 1e-12


def term_sum(h, pts):
    """sum_k c_k exp(i <k, theta>) over the stored terms, one term at a time."""
    out = np.zeros(pts.shape[0], dtype=complex)
    for idx in np.ndindex(h.coeffs.shape):
        out += h.coeffs[idx] * np.exp(1j * (pts @ (np.array(idx) - h.N)))
    return out


class TestEvalMany:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_term_sum_off_torus(self, n):
        rng = np.random.default_rng(30 + n)
        N = 3
        full = random_series(rng, n, N, real=False)
        inputs = ([PeriodicSeries.zeros(n, N),
                   PeriodicSeries.constant(n, N, 0.7 - 0.2j),
                   full.average(range(1, n))]      # on axis 0 alone
                  + [full.average(j) for j in range(n)]  # all but axis j
                  + [full])
        pts = (rng.uniform(0.0, 2.0 * np.pi, (40, n))
               + 1j * rng.uniform(-0.4, 0.4, (40, n)))
        mixed = eval_many(inputs, pts)
        for h, row in zip(inputs, mixed):
            expect = term_sum(h, pts)
            assert np.max(np.abs(row - expect)) <= 1e-12
            assert np.max(np.abs(eval_many([h], pts)[0] - expect)) <= 1e-12

    def test_dependent_axes(self):
        h = PeriodicSeries.from_terms(3, 2, {(1, 0, 0): 1.0, (0, 0, -2): 2.0,
                                             (0, 0, 0): 3.0})
        assert h.dependent_axes() == (0, 2)
        assert PeriodicSeries.constant(3, 2, 1.0).dependent_axes() == ()
        assert PeriodicSeries.zeros(2, 2).dependent_axes() == ()


class TestAverage:
    def test_oscillatory_mean_vanishes(self):
        h = PeriodicSeries.from_terms(1, 2, {(1,): 1.0})
        assert h.average([0]).abs_max_coeff() == 0.0

    def test_constant_untouched(self):
        h = PeriodicSeries.constant(3, 2, 2.0 + 0.0j)
        assert allclose(h.average([1]), h)

    def test_mixed_product_averages_out(self):
        h = multiply(cos_series(2, 2, 0), sin_series(2, 2, 1))
        assert h.average([1]).abs_max_coeff() < 1e-15


class TestTriangularSplit:
    def test_disjoint_support_example(self):
        three = PeriodicSeries.constant(2, 3, 3.0)
        s1 = sin_series(2, 3, 0)
        cs = multiply(cos_series(2, 3, 0), sin_series(2, 3, 1)).truncate(3)
        h = three + s1 + cs
        parts = h.triangular_split()
        assert allclose(parts[0], three)
        assert allclose(parts[1], s1)
        assert allclose(parts[2], cs)

    def test_pure_second_axis(self):
        h = sin_series(2, 2, 1)
        parts = h.triangular_split()
        assert parts[0].abs_max_coeff() == 0.0
        assert parts[1].abs_max_coeff() == 0.0
        assert allclose(parts[2], h)

    def test_reconstruction_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            h = random_series(rng, 3, 3)
            total = sum(h.triangular_split(), PeriodicSeries.zeros(3, 3))
            assert coeff_distance(total, h) == 0.0

    def test_partial_sums_are_nested_averages(self):
        rng = np.random.default_rng(5)
        h = random_series(rng, 3, 3)
        parts = h.triangular_split()
        for j in range(3):
            lhs = sum(parts[: j + 1], PeriodicSeries.zeros(3, 3))
            rhs = h.average(range(j, 3))
            assert coeff_distance(lhs, rhs) == 0.0

    def test_norm_bound(self):
        # coefficient-majorant norms make the classical factor-2 bound easy
        rng = np.random.default_rng(11)
        for _ in range(25):
            h = random_series(rng, 2, 6)
            r = rng.choice([0.25, 0.5, 0.9])
            for part in h.triangular_split():
                assert part.coeff_norm(r) <= 2.0 * h.coeff_norm(r) + 1e-15


class TestCalculus:
    def test_derivative_of_sine(self):
        assert allclose(sin_series(1, 2, 0).derivative(0), cos_series(1, 2, 0))

    def test_derivative_other_axis_vanishes(self):
        h = sin_series(2, 2, 0)
        assert h.derivative(1).abs_max_coeff() == 0.0

    def test_derivative_of_harmonic(self):
        h = PeriodicSeries.from_terms(1, 3, {(3,): 1.0})
        d = h.derivative(0)
        assert d.coeff((3,)) == pytest.approx(3j)

    def test_antiderivative_of_cosine(self):
        assert allclose(cos_series(1, 2, 0).antiderivative(0), sin_series(1, 2, 0))

    def test_antiderivative_of_harmonic(self):
        h = PeriodicSeries.from_terms(1, 2, {(1,): 1.0})
        a = h.antiderivative(0)
        assert a.coeff((1,)) == pytest.approx(-1j)

    def test_antiderivative_refuses_nonzero_mean(self):
        h = PeriodicSeries.constant(1, 2, 1.0)
        with pytest.raises(HypothesisViolation) as err:
            h.antiderivative(0)
        assert err.value.bound == "(i2)"

    def test_round_trips(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            h = random_series(rng, 2, 5)
            for axis in range(2):
                g = PeriodicSeries(
                    np.where(h.leading_axis_map() >= -1, h.coeffs, 0.0))
                g = g - g.average([axis]) + 0.0
                assert coeff_distance(g.antiderivative(axis).derivative(axis), g) < 1e-14
                assert coeff_distance(g.derivative(axis).antiderivative(axis), g) < 1e-14

    def test_antiderivative_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            h = random_series(rng, 3, 4)
            h = h - h.average([1])
            r = rng.choice([0.25, 0.5, 0.9])
            assert h.antiderivative(1).coeff_norm(r) <= 2 * np.pi * h.coeff_norm(r)


def boundary_sample_sup(h, r, M=32):
    """max |h| over a grid on the distinguished boundary Im theta_j = +-r."""
    pts = theta_grid(h.n, M)
    return max(float(np.max(np.abs(h.eval_points(pts + 1j * r * np.array(s)))))
               for s in itertools.product((-1.0, 1.0), repeat=h.n))


class TestNorms:
    def test_unit_harmonic(self):
        h = PeriodicSeries.from_terms(1, 1, {(1,): 1.0})
        assert h.coeff_norm(0.3) == pytest.approx(np.exp(0.3))

    def test_constant(self):
        h = PeriodicSeries.constant(2, 1, -2.0)
        assert h.coeff_norm(0.5) == pytest.approx(2.0)

    def test_majorant_dominates_sample(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            h = random_series(rng, 2, 4, real=False)
            assert boundary_sample_sup(h, 0.6) <= h.coeff_norm(0.6) * (1 + 1e-12)


class TestAlgebra:
    def test_multiply_exact_harmonics(self):
        a = PeriodicSeries.from_terms(1, 1, {(1,): 2.0})
        b = PeriodicSeries.from_terms(1, 2, {(2,): 3.0, (0,): 1.0})
        p = multiply(a, b)
        assert p.coeff((3,)) == pytest.approx(6.0)
        assert p.coeff((1,)) == pytest.approx(2.0)

    def test_multiply_matches_grid(self):
        rng = np.random.default_rng(21)
        a = random_series(rng, 2, 3, real=False)
        b = random_series(rng, 2, 4, real=False)
        p = multiply(a, b)
        M = 2 * (2 * p.N + 1)
        lhs = p.eval_real_grid(M)
        rhs = a.eval_real_grid(M) * b.eval_real_grid(M)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_truncation_mass_recorded(self):
        a = PeriodicSeries.from_terms(1, 2, {(2,): 1.0})
        p = multiply(a, a, N_out=2)  # drops the k=4 term of mass 1
        assert p.trunc_mass == pytest.approx(1.0)

    def test_divide_round_trip(self):
        rng = np.random.default_rng(23)
        den = PeriodicSeries.constant(2, 4, 1.0) + 0.2 * random_series(rng, 2, 4)
        num = random_series(rng, 2, 4)
        q = divide(num, den, N_out=10)
        back = multiply(q, den, N_out=4)
        assert coeff_distance(back, num) < 1e-10

    def test_translate(self):
        h = PeriodicSeries.from_terms(1, 1, {(1,): 1.0})
        t = translate(h, [0.7])
        assert t.coeff((1,)) == pytest.approx(np.exp(0.7j))

    def test_pull_back_linear(self):
        # h(theta1 + theta2) with h = e^{i t}: coefficient moves to (1, 1)
        h = PeriodicSeries.from_terms(2, 1, {(1, 0): 1.0})
        A = np.array([[1, 1], [0, 1]])
        g = pull_back_linear(h, A)
        assert g.coeff((1, 1)) == pytest.approx(1.0)
        rng = np.random.default_rng(6)
        f = random_series(rng, 2, 3, real=False)
        g = pull_back_linear(f, A)
        pts = rng.uniform(0, 2 * np.pi, size=(20, 2))
        assert np.max(np.abs(g.eval_points(pts) - f.eval_points(pts @ A.T))) < 1e-12


class TestChopTail:
    def test_drops_smallest_within_budget(self):
        h = PeriodicSeries.from_terms(
            1, 3, {(0,): 1.0, (1,): 4e-16, (2,): 3e-16, (3,): 5e-16})
        out = h.chop_tail()
        # 3e-16 + 4e-16 fits the budget; adding 5e-16 would not
        assert out.coeff((2,)) == 0.0 and out.coeff((1,)) == 0.0
        assert out.coeff((3,)) == 5e-16 and out.coeff((0,)) == 1.0
        assert out.N == h.N
        assert out.trunc_mass == pytest.approx(7e-16, rel=1e-12)

    def test_keeps_conjugate_pairs_together(self):
        rng = np.random.default_rng(34)
        h = random_series(rng, 2, 6, decay=5.0)
        out = h.chop_tail()
        assert out.real and out.is_real_symmetric()
        dropped = (out.coeffs == 0.0) & (h.coeffs != 0.0)
        assert np.array_equal(dropped, dropped[::-1, ::-1])
        assert dropped.any()
        mass = float(np.abs(h.coeffs[dropped]).sum())
        assert mass <= CHOP_FLOOR
        assert out.trunc_mass - h.trunc_mass == pytest.approx(mass, rel=1e-12)
        kept = ~dropped
        assert np.array_equal(out.coeffs[kept], h.coeffs[kept])


class TestReality:
    def test_flag_propagation(self):
        rng = np.random.default_rng(31)
        h = random_series(rng, 2, 4)
        assert h.real and h.is_real_symmetric()
        for out in [h.average([0]), h.derivative(1), *h.triangular_split()]:
            assert out.real and out.is_real_symmetric()
        g = h - h.average([0])
        assert g.antiderivative(0).is_real_symmetric()

    def test_real_series_has_real_grid_values(self):
        rng = np.random.default_rng(32)
        h = random_series(rng, 2, 4)
        vals = h.eval_real_grid(12)
        assert np.max(np.abs(vals.imag)) < 1e-12

    def test_series_from_real_grid_symmetrizes(self):
        rng = np.random.default_rng(33)
        h = random_series(rng, 1, 5)
        vals = h.eval_real_grid(16).real
        back = series_from_real_grid(vals, 5, real=True)
        assert coeff_distance(back, h) < 1e-13
        assert back.real


class TestImmutability:
    def test_coeffs_read_only(self):
        h = PeriodicSeries.constant(1, 1, 1.0)
        with pytest.raises(ValueError):
            h.coeffs[0] = 5.0

    def test_attributes_frozen(self):
        h = PeriodicSeries.constant(1, 1, 1.0)
        with pytest.raises(AttributeError):
            h.N = 3
