import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusnf.errors import HypothesisViolation
from torusnf.series import (
    CHOP_FLOOR,
    REAL_TOL,
    PeriodicSeries,
    divide,
    eval_many,
    grid_size,
    pull_back_linear,
    series_from_real_grid,
    seven_smooth,
    stacked_det,
    translate,
    witness_grid_size,
    z_derivative,
)

from oracles import (
    abs_max_coeff,
    allclose,
    average,
    coeff_distance,
    eval_points,
    multiply,
    theta_grid,
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
        assert eval_points(h, [[0.3, -1.2]])[0] == pytest.approx(7.5)

    def test_unit_harmonic_at_origin(self):
        h = PeriodicSeries.from_terms(2, 2, {(1, 0): 1.0})
        assert eval_points(h, [[0.0, 0.0]])[0] == pytest.approx(1.0)

    def test_cosine_continues_to_cosh(self):
        h = cos_series(1, 2, 0)
        r = 0.4
        assert eval_points(h, [[1j * r]])[0] == pytest.approx(np.cosh(r))

    def test_dimension_mismatch(self):
        h = PeriodicSeries.constant(2, 1, 1.0)
        with pytest.raises(ValueError):
            eval_points(h, [[0.1]])

    def test_grid_eval_matches_pointwise(self):
        rng = np.random.default_rng(7)
        h = random_series(rng, 2, 4, real=False)
        M = 11
        grid_vals = h.eval_real_grid(M).reshape(-1)
        pts_vals = eval_points(h, theta_grid(2, M))
        assert np.max(np.abs(grid_vals - pts_vals)) < 1e-12

    @pytest.mark.parametrize("n, M", [(1, 5), (2, 6), (3, 4)])
    def test_grid_eval_below_alias_free_size_matches_pointwise(self, n, M):
        # degree 4 needs 9 points per axis to stay alias-free
        rng = np.random.default_rng(8)
        h = random_series(rng, n, 4, real=False)
        grid_vals = h.eval_real_grid(M).reshape(-1)
        pts_vals = eval_points(h, theta_grid(n, M))
        assert np.max(np.abs(grid_vals - pts_vals)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("M", [9, 8, 5])
    def test_grid_eval_at_the_alias_free_boundary(self, n, M):
        # degree 4: from M = 2N + 1 = 9 on every FFT bin holds one
        # coefficient and is assigned; below it the aliases are summed
        rng = np.random.default_rng(9)
        h = random_series(rng, n, 4, real=False)
        grid_vals = h.eval_real_grid(M).reshape(-1)
        pts_vals = eval_many([h], theta_grid(n, M))[0]
        assert np.max(np.abs(grid_vals - pts_vals)) < 1e-13

    # degree 4: 13 points per axis resolve it, 7 alias it
    @pytest.mark.parametrize("M", [13, 7])
    @pytest.mark.parametrize("n, axes, kind", [
        (2, (1,), "subset"), (3, (0, 2), "subset"), (3, (1,), "subset"),
        (2, (), "constant"), (3, (), "constant"),
        (2, (), "zero"), (3, (), "zero")])
    def test_grid_eval_on_the_dependent_axes(self, n, axes, kind, M):
        rng = np.random.default_rng(10 + n)
        if kind == "subset":
            c = np.array(random_series(rng, n, 4, real=False).coeffs)
            for j in set(range(n)) - set(axes):
                np.moveaxis(c, j, 0)[np.arange(-4, 5) != 0] = 0.0
            h = PeriodicSeries(c)
        elif kind == "constant":
            h = PeriodicSeries.constant(n, 4, 0.3 - 0.2j)
        else:
            h = PeriodicSeries.zeros(n, 4)
        assert h.dependent_axes() == axes
        # M along the dependent axes, 1 along the others
        vals = h.eval_real_grid(M)
        assert vals.shape == tuple(M if j in axes else 1 for j in range(n))
        pts_vals = eval_many([h], theta_grid(n, M))[0]
        full = np.broadcast_to(vals, (M,) * n).reshape(-1)
        assert np.max(np.abs(full - pts_vals)) < 1e-13


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
                   average(full, range(1, n))]      # on axis 0 alone
                  + [average(full, j) for j in range(n)]  # all but axis j
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
        assert abs_max_coeff(average(h, [0])) == 0.0

    def test_constant_untouched(self):
        h = PeriodicSeries.constant(3, 2, 2.0 + 0.0j)
        assert allclose(average(h, [1]), h)

    def test_mixed_product_averages_out(self):
        h = multiply(cos_series(2, 2, 0), sin_series(2, 2, 1))
        assert abs_max_coeff(average(h, [1])) < 1e-15


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
        assert abs_max_coeff(parts[0]) == 0.0
        assert abs_max_coeff(parts[1]) == 0.0
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
            rhs = average(h, range(j, 3))
            assert coeff_distance(lhs, rhs) == 0.0

    def test_restrict_axes_keeps_one_piece(self):
        rng = np.random.default_rng(7)
        h = random_series(rng, 3, 4).truncate(3)
        parts = h.triangular_split()
        for j in range(3):
            kept = h.restrict_axes(j)
            assert coeff_distance(kept, parts[j + 1]) == 0.0
            assert kept.trunc_mass == h.trunc_mass > 0.0

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
        assert abs_max_coeff(h.derivative(1)) == 0.0

    def test_derivative_of_harmonic(self):
        h = PeriodicSeries.from_terms(1, 3, {(3,): 1.0})
        d = h.derivative(0)
        assert d.coeff((3,)) == pytest.approx(3j)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_z_derivative_is_the_power_rule_off_the_torus(self, n):
        # d/dz_j z^I = I_j z^{I - e_j}, summed term by term at points with
        # |z_j| = e^{+-0.3}, off the torus
        rng = np.random.default_rng(8)
        h = random_series(rng, n, 3, real=False)
        z = np.exp(rng.choice([-0.3, 0.3], (20, n))
                   + 1j * rng.uniform(0.0, 2.0 * np.pi, (20, n)))
        for axis in range(n):
            e = np.eye(n, dtype=int)[axis]
            exact = np.zeros(len(z), dtype=complex)
            for idx in np.ndindex(h.coeffs.shape):
                I = np.array(idx) - h.N
                exact += (h.coeffs[idx] * I[axis]
                          * np.prod(z ** (I - e), axis=1))
            d = z_derivative(h, axis)
            assert d.N == h.N + 1 and not d.real
            got = eval_points(d, -1j * np.log(z))
            assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))

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
                g = g - average(g, [axis]) + 0.0
                assert coeff_distance(g.antiderivative(axis).derivative(axis), g) < 1e-14
                assert coeff_distance(g.derivative(axis).antiderivative(axis), g) < 1e-14

    def test_antiderivative_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            h = random_series(rng, 3, 4)
            h = h - average(h, [1])
            r = rng.choice([0.25, 0.5, 0.9])
            assert h.antiderivative(1).coeff_norm(r) <= 2 * np.pi * h.coeff_norm(r)


def boundary_sample_sup(h, r, M=32):
    """max |h| over a grid on the distinguished boundary Im theta_j = +-r."""
    pts = theta_grid(h.n, M)
    return max(float(np.max(np.abs(eval_points(h, pts + 1j * r * np.array(s)))))
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
        assert np.max(np.abs(eval_points(g, pts) - eval_points(f, pts @ A.T))) < 1e-12


def largest_prime_factor(m):
    """By trial division; 1 for m = 1."""
    largest, p = 1, 2
    while p * p <= m:
        while m % p == 0:
            largest, m = p, m // p
        p += 1
    return max(largest, m)


class TestGridRule:
    def test_seven_smooth_is_the_next_smooth_integer(self):
        for m in range(1, 1001):
            M = seven_smooth(m)
            assert M >= m
            assert largest_prime_factor(M) <= 7
            assert all(largest_prime_factor(j) > 7 for j in range(m, M))

    def test_grid_size_is_smooth_and_meets_both_bounds(self):
        for N_out, N_in in itertools.product(range(61), repeat=2):
            M = grid_size(N_out, N_in)
            bound = max(3 * N_out + 1, 2 * N_in + 1)
            assert largest_prime_factor(M) <= 7
            assert M >= 3 * N_out + 1
            assert M >= 2 * N_in + 1
            assert M == seven_smooth(bound)

    def test_witness_grids_stay_finer_than_compute_grids(self):
        # the residual witnesses keep the size of the former twice
        # oversampled compute rule, 2 (2 N_out + 1)
        for N_out, N_in in itertools.product(range(61), repeat=2):
            W = witness_grid_size(N_out, N_in)
            assert W == seven_smooth(max(2 * (2 * N_out + 1), 2 * N_in + 1))
            assert W >= grid_size(N_out, N_in)

    def test_twice_a_prime_rounds_up(self):
        # compute grids of the benchmark workloads: 61, 58 and 43 round up,
        # while 28 and 16 are 7-smooth already
        assert [grid_size(N) for N in (20, 19, 14, 9, 5)] == [63, 60, 45, 28, 16]
        assert [grid_size(N) for N in (12, 10)] == [40, 32]

    @pytest.mark.parametrize("n, N", [(1, 12), (2, 8), (3, 5)])
    def test_products_re_expand_without_aliasing(self, n, N):
        # the aliases of a product of two degree-N series fold onto
        # |k| >= M - 2N > N on the grid_size(N) grid, and into the kept band
        # on the bare 2N + 1 grid
        rng = np.random.default_rng(90 + n)
        a, b = (random_series(rng, n, N, real=False) for _ in range(2))
        exact = multiply(a, b, N_out=N)

        def product_on(M):
            vals = a.eval_real_grid(M) * b.eval_real_grid(M)
            return series_from_real_grid(vals, N)

        assert coeff_distance(product_on(grid_size(N)), exact) < 1e-14
        assert coeff_distance(product_on(2 * N + 1), exact) > 1e-6


class TestStackedDet:
    @pytest.mark.parametrize(
        "near_identity, entries",
        [(True, "arrays"), (False, "arrays"),
         (True, "scalars and zeros"), (False, "scalars and zeros")],
        ids=["True", "False", "True-scalars-and-zeros",
             "False-scalars-and-zeros"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_linalg_det(self, n, near_identity, entries):
        rng = np.random.default_rng(50 + n)
        mat = (rng.standard_normal((2000, n, n))
               + 1j * rng.standard_normal((2000, n, n)))
        if near_identity:
            mat = np.eye(n) + 1e-2 * mat
        rows = [[mat[:, j, l] for l in range(n)] for j in range(n)]
        if entries == "scalars and zeros":
            # entry (0, 0) is a scalar, entry (n - 1, 0) a zero, and each
            # other one an array, a scalar or (off the diagonal) a zero
            kind = rng.integers(0, 3, size=(n, n))
            kind[np.diag_indices(n)] %= 2
            kind[0, 0] = 1
            if n > 1:
                kind[n - 1, 0] = 2
            for j, l in zip(*np.nonzero(kind)):
                mat[:, j, l] = 0.0 if kind[j, l] == 2 else mat[0, j, l]
                rows[j][l] = 0 if kind[j, l] == 2 else complex(mat[0, j, l])
        ref = np.linalg.det(mat)
        det = stacked_det(rows)
        # Hadamard's bound |det| <= prod of row norms is the scale of the
        # round-off of either method
        scale = np.prod(np.linalg.norm(mat, axis=2), axis=1)
        assert np.max(np.abs(det - ref) / scale) < 1e-13
        if near_identity:
            assert np.max(np.abs(det / ref - 1.0)) < 1e-13


class TestChop:
    def test_keeps_non_finite_coefficients(self):
        out = PeriodicSeries([np.nan, 1.0, np.nan]).chop(1e-15)
        assert out.N == 1
        assert np.isnan(out.coeffs[0]) and np.isnan(out.coeffs[2])
        assert out.coeff((0,)) == 1.0 and out.trunc_mass == 0.0

    def test_drops_finite_coefficients_at_or_below_tol(self):
        h = PeriodicSeries.from_terms(
            1, 3, {(0,): 1.0, (1,): 2e-15, (2,): 1e-15, (3,): 5e-16})
        out = h.chop(1e-15)
        assert out.N == 1 and out.coeff((1,)) == 2e-15
        assert out.trunc_mass == pytest.approx(1.5e-15, rel=1e-12)


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
        for out in [average(h, [0]), h.derivative(1), *h.triangular_split()]:
            assert out.real and out.is_real_symmetric()
        g = h - average(h, [0])
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


def full_spectrum_values(h, M):
    """h on the M^n grid by one complex inverse FFT of its whole block, the
    coefficients with k = k' (mod M) added into one bin."""
    emb = np.zeros((M,) * h.n, dtype=complex)
    np.add.at(emb, np.ix_(*([h.k_range() % M] * h.n)), h.coeffs)
    return np.fft.ifftn(emb) * M ** h.n


def is_hermitian(c):
    return np.array_equal(c, np.conj(c[(slice(None, None, -1),) * c.ndim]))


half_spectra = settings(derandomize=True, database=None, deadline=None,
                        max_examples=80)


class TestHalfSpectra:
    """A block that is exactly Hermitian is read through `irfftn`, and a real
    grid re-expanded through `rfftn`; both match the full complex spectrum
    to 1e-14 of its l1 mass."""

    @half_spectra
    @given(n=st.integers(1, 3), N=st.integers(0, 4), extra=st.integers(-8, 5),
           subset=st.integers(0, 7), seed=st.integers(0, 2 ** 32 - 1))
    def test_eval_real_grid_matches_full_spectrum(self, n, N, extra, subset,
                                                  seed):
        # M from below the alias-free 2N + 1, where aliases fold, to above
        # it, odd and even; the series depends on a subset of the axes
        M = max(1, 2 * N + 1 + extra)
        axes = tuple(j for j in range(n) if subset >> j & 1)
        c = np.array(random_series(np.random.default_rng(seed), n, N).coeffs)
        for j in set(range(n)) - set(axes):
            np.moveaxis(c, j, 0)[np.arange(-N, N + 1) != 0] = 0.0
        h = PeriodicSeries(c, real=True)
        assert is_hermitian(h.coeffs)
        half = M > 2 * N and bool(h.dependent_axes())
        with mock.patch.object(np.fft, "irfftn",
                               wraps=np.fft.irfftn) as irfftn:
            vals = h.eval_real_grid(M)
        assert irfftn.call_count == half
        mass = np.abs(c).sum()
        assert np.max(np.abs(vals - full_spectrum_values(h, M))) \
            <= 1e-14 * mass
        if not half or N == 0:
            return
        # Hermitian only to within REAL_TOL: the full path
        k = tuple(N + int(j == h.dependent_axes()[0]) for j in range(n))
        c[k] += 0.1 * REAL_TOL
        near = PeriodicSeries(c, real=True)
        assert near.is_real_symmetric() and not is_hermitian(near.coeffs)
        with mock.patch.object(np.fft, "irfftn",
                               wraps=np.fft.irfftn) as irfftn:
            vals = near.eval_real_grid(M)
        assert irfftn.call_count == 0
        assert np.max(np.abs(vals - full_spectrum_values(near, M))) \
            <= 1e-14 * mass

    @half_spectra
    @given(n=st.integers(1, 3), N=st.integers(0, 4), extra=st.integers(0, 5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_series_from_real_grid_matches_full_spectrum(self, n, N, extra,
                                                         seed):
        # white noise, so that the dropped mass is of the order of the kept
        M = 2 * N + 1 + extra
        values = np.random.default_rng(seed).standard_normal((M,) * n)
        full = np.fft.fftn(values) / values.size
        kept = full[np.ix_(*([np.arange(-N, N + 1) % M] * n))]
        dropped = np.abs(full).sum() - np.abs(kept).sum()
        kept = 0.5 * (kept + np.conj(kept[(slice(None, None, -1),) * n]))
        with mock.patch.object(np.fft, "rfftn", wraps=np.fft.rfftn) as rfftn:
            out = series_from_real_grid(values, N, real=True)
        assert rfftn.call_count == 1
        assert out.real and is_hermitian(out.coeffs)
        mass = np.abs(full).sum()
        assert np.max(np.abs(out.coeffs - kept)) <= 1e-14 * mass
        assert abs(out.trunc_mass - dropped) <= 1e-14 * mass


class TestCompactGrids:
    @half_spectra
    @given(n=st.integers(1, 3), N=st.integers(0, 4), extra=st.integers(-8, 5),
           subset=st.integers(0, 7), real=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_broadcast_view_re_expands_as_the_cube(self, n, N, extra, subset,
                                                   real, seed):
        # grid values at the shape of their axes, read from M below the
        # alias-free 2N + 1, where aliases fold, to above it, and re-expanded
        # from their broadcast view: the block of the materialized cube;
        # and re-expanded as they are, which transforms only their axes
        M = max(1, 2 * N + 1 + extra)
        axes = tuple(j for j in range(n) if subset >> j & 1)
        c = np.array(random_series(np.random.default_rng(seed), n, N,
                                   real=real).coeffs)
        for j in set(range(n)) - set(axes):
            np.moveaxis(c, j, 0)[np.arange(-N, N + 1) != 0] = 0.0
        h = PeriodicSeries(c, real=real)
        assert set(h.dependent_axes()) <= set(axes)
        vals = h.eval_real_grid(M)
        assert vals.shape == tuple(M if j in h.dependent_axes() else 1
                                   for j in range(n))
        view = np.broadcast_to(vals, (M,) * n)
        N_out = (M - 1) // 2
        got = series_from_real_grid(view, N_out, real=real)
        want = series_from_real_grid(np.array(view), N_out, real=real)
        assert np.array_equal(got.coeffs, want.coeffs)
        assert got.trunc_mass == want.trunc_mass
        compact = series_from_real_grid(vals, N_out, real=real)
        mass = np.abs(c).sum()
        assert np.max(np.abs(compact.coeffs - want.coeffs)) <= 1e-15 * mass
        assert abs(compact.trunc_mass - want.trunc_mass) <= 1e-15 * mass
        assert compact.real == want.real
        # exactly zero off the axes the values depend on
        off = np.ones(compact.coeffs.shape, dtype=bool)
        off[tuple(slice(None) if vals.shape[j] > 1 else N_out
                  for j in range(n))] = False
        assert not np.any(compact.coeffs[off])


class TestImmutability:
    def test_coeffs_read_only(self):
        h = PeriodicSeries.constant(1, 1, 1.0)
        with pytest.raises(ValueError):
            h.coeffs[0] = 5.0

    def test_attributes_frozen(self):
        h = PeriodicSeries.constant(1, 1, 1.0)
        with pytest.raises(AttributeError):
            h.N = 3
