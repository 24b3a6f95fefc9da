import functools

import numpy as np
import pytest

import torusnf.flows
import torusnf.series
from torusnf.errors import HypothesisViolation
from torusnf.fibering import fibering_step
from torusnf.flows import (
    MapChain,
    TorusMapLift,
    compose_maps,
    flow,
    grid_walk,
    invert_map,
    taylor_on_grid,
)
from torusnf.pipeline import shear_matrix
from torusnf.realization import realization_step
from torusnf.series import (
    PeriodicSeries,
    eval_many,
    grid_size,
    pull_back_linear,
    translate,
)

from oracles import (
    abs_max_coeff,
    at_points,
    average,
    coeff_distance,
    divergence,
    eval_points,
    field_norm,
    finite_difference_jacobian_det,
    theta_grid,
)
from test_series import random_series, sin_series


def stream_field(rng, N=4, norm=2e-2, decay=0.9, r=0.5):
    """Divergence-free field on T^2 from a random stream function.

    Rescaled so the coefficient norm at radius r equals `norm`.
    """
    H = random_series(rng, 2, N, decay=decay)
    v = (H.derivative(1), -1.0 * H.derivative(0))
    s = norm / field_norm(v, r)
    return tuple(s * c for c in v)


def rk4_oracle(v, pts, t, steps=200, g=None):
    """Classical RK4 for d theta/dt = p(theta) from each point.

    With a series g, also integrates int_0^t g(theta(s)) ds.  Returns the end
    points and the integrals (None without g).
    """
    n = len(v)

    def rhs(y):
        vals = [eval_points(c, y[:, :n]) for c in v]
        if g is not None:
            vals.append(eval_points(g, y[:, :n]))
        return np.stack(vals, axis=-1)

    y = np.asarray(pts, dtype=complex)
    if g is not None:
        y = np.concatenate([y, np.zeros((y.shape[0], 1))], axis=1)
    h = t / steps
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y[:, :n], (y[:, n] if g is not None else None)


class TestFlow:
    def test_matches_rk4_oracle_real_stream_field(self):
        rng = np.random.default_rng(30)
        v = stream_field(rng, N=4, norm=2e-2)
        fr = flow(v, 1.0, 0.5, 0.2, N_out=16)
        pts = rng.uniform(0, 2 * np.pi, size=(40, 2))
        end, _ = rk4_oracle(v, pts, 1.0)
        assert np.max(np.abs(at_points(MapChain([fr.map]), pts) - end)) < 1e-10

    def test_matches_rk4_oracle_complex_field_with_integral(self):
        rng = np.random.default_rng(31)
        v = [random_series(rng, 2, 3, real=False) for _ in range(2)]
        v = [c * (1e-2 / field_norm(v, 0.5)) for c in v]
        g = 1e-3 * random_series(rng, 2, 3, real=False)
        fr = flow(v, -1.0, 0.5, 0.2, N_out=16, line_integrand=g)
        pts = rng.uniform(0, 2 * np.pi, size=(40, 2))
        end, integral = rk4_oracle(v, pts, -1.0, g=g)
        assert np.max(np.abs(at_points(MapChain([fr.map]), pts) - end)) < 1e-10
        assert np.max(np.abs(eval_points(fr.integral, pts) - integral)) < 1e-10

    def test_refuses_an_integrand_on_another_torus(self):
        # a 1-D integrand on a 2-D field, and a 3-D constant one
        v = stream_field(np.random.default_rng(19))
        for g in (sin_series(1, 2, 0), PeriodicSeries.constant(3, 0, 1e-3)):
            with pytest.raises(ValueError, match=r"on T\^n"):
                flow(v, 1.0, 0.5, 0.2, N_out=4, line_integrand=g)

    def test_refuses_components_on_another_torus(self):
        for v in ([], [PeriodicSeries.zeros(3, 1)] * 2):
            with pytest.raises(ValueError, match=r"on T\^n"):
                flow(v, 1.0, 0.5, 0.2, N_out=1)

    def test_zero_field_gives_identity(self):
        v = [PeriodicSeries.zeros(2, 2) for _ in range(2)]
        fr = flow(v, 1.0, 0.5, 0.25, N_out=2)
        assert fr.map.part_norm(0.5) == 0.0
        assert fr.defect < 1e-14

    def test_constant_field(self):
        c = 0.03
        v = [PeriodicSeries.constant(2, 1, c), PeriodicSeries.zeros(2, 1)]
        fr = flow(v, 0.7, 0.5, 0.25, N_out=1)
        assert abs(fr.map.parts[0].mean() - c * 0.7) < 1e-14
        f = fr.map.parts[0]
        assert abs_max_coeff(f - average(f, [0, 1])) < 1e-14

    def test_skew_field_is_exact(self):
        eps = 1e-3
        v = [eps * sin_series(2, 2, 1), PeriodicSeries.zeros(2, 2)]
        fr = flow(v, -1.0, 0.5, 0.25, N_out=2)
        assert coeff_distance(fr.map.parts[0], -eps * sin_series(2, 2, 1)) < 1e-13
        assert abs_max_coeff(fr.map.parts[1]) < 1e-14

    def test_hypothesis_z1_checked(self):
        v = [sin_series(2, 2, 0), PeriodicSeries.zeros(2, 2)]
        with pytest.raises(HypothesisViolation) as err:
            flow(v, 1.0, 0.25, 0.1, N_out=2)
        assert err.value.bound == "(z1)"

    def test_displacement_bound_z2(self):
        rng = np.random.default_rng(12)
        r1, delta = 0.5, 0.2
        for _ in range(8):
            v = stream_field(rng, N=4)
            assert field_norm(v, r1) <= r1 * delta
            fr = flow(v, 1.0, r1, delta, N_out=4)
            assert (fr.map.part_norm((1 - delta) * r1)
                    <= field_norm(v, r1) * (1 + 1e-9))

    def test_linearization_bound_z3(self):
        rng = np.random.default_rng(13)
        r1, delta = 0.5, 0.2
        for _ in range(5):
            v = stream_field(rng, N=4)
            fr = flow(v, 1.0, r1, delta, N_out=4)
            bound = 2 * field_norm(v, r1) ** 2 / (r1 * delta)
            for j in range(2):
                dev = fr.map.parts[j] - 1.0 * v[j]
                assert dev.coeff_norm((1 - 2 * delta) * r1) <= bound + 1e-14

    def test_group_law(self):
        rng = np.random.default_rng(14)
        v = stream_field(rng, N=2, norm=5e-3)
        a = flow(v, 0.4, 0.5, 0.2, N_out=12).map
        b = flow(v, 0.5, 0.5, 0.2, N_out=12).map
        c = flow(v, 0.9, 0.5, 0.2, N_out=12).map
        pts = theta_grid(2, 9)
        assert np.max(np.abs(at_points(MapChain([b, a]), pts)
                             - at_points(MapChain([c]), pts))) < 1e-9


class TestDivergence:
    def test_skew_field_divergence_free(self):
        v = [sin_series(2, 3, 1), PeriodicSeries.zeros(2, 3)]
        assert abs_max_coeff(divergence(v)) == 0.0

    def test_gradient_field_divergence(self):
        v = [sin_series(2, 3, 0), PeriodicSeries.zeros(2, 3)]
        d = divergence(v)
        assert abs(d.coeff((1, 0)) - 0.5) < 1e-15
        assert abs(d.coeff((-1, 0)) - 0.5) < 1e-15

    def test_stream_fields_divergence_free(self):
        rng = np.random.default_rng(15)
        v = stream_field(rng)
        assert divergence(v).coeff_norm(0.5) <= 1e-10


class TestLogDet:
    """Along a flow, d/ds log det D phi_s = (div p)(phi_s), so the log
    determinant of the time-t map is the line integral of the divergence."""

    def test_divergence_free_flow_has_unit_jacobian(self):
        rng = np.random.default_rng(16)
        v = stream_field(rng)
        ld = flow(v, 1.0, 0.5, 0.2, N_out=4,
                  line_integrand=divergence(v)).integral
        assert ld.coeff_norm(0.4) < 1e-10

    def test_zero_time(self):
        rng = np.random.default_rng(17)
        v = stream_field(rng)
        ld = flow(v, 0.0, 0.5, 0.2, N_out=4,
                  line_integrand=divergence(v)).integral
        assert abs_max_coeff(ld) < 1e-14

    def test_matches_finite_difference_determinant(self):
        v = [0.05 * sin_series(2, 3, 0), PeriodicSeries.zeros(2, 3)]
        t, r1, delta = 1.0, 0.5, 0.3
        fr = flow(v, t, r1, delta, N_out=3, line_integrand=divergence(v))
        pts = theta_grid(2, 7)
        fd = finite_difference_jacobian_det(
            functools.partial(at_points, MapChain([fr.map])), pts)
        ld = eval_points(fr.integral, pts)
        assert np.max(np.abs(np.log(fd) - ld)) < 1e-6

    def test_volume_preservation_on_grid(self):
        rng = np.random.default_rng(18)
        v = stream_field(rng, N=2, norm=5e-3)
        fr = flow(v, -1.0, 0.5, 0.2, N_out=12)
        pts = theta_grid(2, 8)
        fd = finite_difference_jacobian_det(
            functools.partial(at_points, MapChain([fr.map])), pts)
        assert np.max(np.abs(fd - 1.0)) < 1e-8


class TestMapAlgebra:
    def test_compose_with_identity(self):
        rng = np.random.default_rng(19)
        phi = flow(stream_field(rng), 1.0, 0.5, 0.2, N_out=4).map
        identity = TorusMapLift.translation(2, np.zeros(2))
        out = compose_maps((identity, phi), N_out=phi.N)
        pts = theta_grid(2, 9)
        assert np.max(np.abs(at_points(MapChain([out]), pts)
                             - at_points(MapChain([phi]), pts))) < 1e-12

    def test_refuses_an_integer_part_other_than_the_identity(self):
        # every lift is near-identity: a shear, a skew and a D of the wrong
        # shape are refused, where an integer map acts on coefficients
        # through pull_back_linear instead
        parts = [PeriodicSeries.zeros(2, 0)] * 2
        for D in (shear_matrix(2), [[1, 0], [1, 1]], np.eye(3, dtype=int)):
            with pytest.raises(ValueError, match="identity"):
                TorusMapLift(D, parts)
        lift = TorusMapLift(np.eye(2), parts)
        assert np.array_equal(lift.D, np.eye(2, dtype=int))
        assert not lift.D.flags.writeable

    def test_associativity_pointwise(self):
        rng = np.random.default_rng(20)
        maps = [flow(stream_field(rng, norm=1.5e-2), 1.0, 0.5, 0.2,
                     N_out=4).map
                for _ in range(3)]
        a, b, c = maps
        left = compose_maps((c, compose_maps((b, a), N_out=10)), N_out=10)
        right = compose_maps((compose_maps((c, b), N_out=10), a), N_out=10)
        flat = compose_maps((c, b, a), N_out=10)
        pts = theta_grid(2, 9)
        assert np.max(np.abs(at_points(MapChain([left]), pts)
                             - at_points(MapChain([right]), pts))) < 1e-10
        assert np.max(np.abs(at_points(MapChain([flat]), pts)
                             - at_points(MapChain([right]), pts))) < 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_normalizer_shaped_chain_matches_stage_by_stage(self, n):
        # the shape of the chain a normalizer collapses: a translation, a
        # near-identity lift, and a constant stage after it; the
        # displacement stays a scalar through the leading translation
        rng = np.random.default_rng(90 + n)
        translation = TorusMapLift.translation(n, rng.uniform(-1.0, 1.0, n))
        lift = TorusMapLift(np.eye(n, dtype=int),
                            [1e-3 * random_series(rng, n, 3) for _ in range(n)])
        after = TorusMapLift.translation(n, rng.uniform(-0.1, 0.1, n))
        chain = MapChain([translation, lift, after])
        single = compose_maps((translation, lift, after), N_out=3)
        assert np.array_equal(single.D, np.eye(n, dtype=int))
        pts = rng.uniform(0, 2 * np.pi, size=(40, n)) + 0.05j
        assert np.max(np.abs(at_points(MapChain([single]), pts)
                             - at_points(chain, pts))) < 1e-13

    def test_pullback_matches_pointwise(self):
        rng = np.random.default_rng(22)
        h = random_series(rng, 2, 4)
        phi = flow(stream_field(rng, norm=1e-3), 1.0, 0.5, 0.2, N_out=8).map
        pts = rng.uniform(0, 2 * np.pi, size=(30, 2))
        comp = phi.pullback(h, N_out=16)
        lhs = eval_points(comp, pts)
        rhs = eval_points(h, at_points(MapChain([phi]), pts))
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_pullback_refuses_coarse_degree(self):
        rng = np.random.default_rng(24)
        h = random_series(rng, 2, 4)
        with pytest.raises(ValueError):
            TorusMapLift.translation(2, np.zeros(2)).pullback(h, N_out=2)

    def test_pullback_with_identity_is_exact(self):
        rng = np.random.default_rng(25)
        h = random_series(rng, 2, 4)
        identity = TorusMapLift.translation(2, np.zeros(2))
        assert coeff_distance(identity.pullback(h, N_out=4), h) < 1e-13


class TestInverse:
    def test_identity(self):
        identity = TorusMapLift.translation(2, np.zeros(2))
        inv = invert_map((identity,), 0.5, N_out=2)
        assert inv.residual < 1e-13

    def test_translation(self):
        c = 0.02
        phi = TorusMapLift.translation(2, [c, 0.0])
        inv = invert_map((phi,), 0.5, N_out=0)
        assert abs(inv.map.parts[0].mean() + c) < 1e-12
        assert inv.residual < 1e-12

    def test_random_small_round_trip(self):
        rng = np.random.default_rng(26)
        for _ in range(5):
            phi = flow(stream_field(rng), 1.0, 0.5, 0.2, N_out=4).map
            inv = invert_map((phi,), 0.5, N_out=10)
            assert inv.residual < 1e-10
            pts = theta_grid(2, 9)
            round_trip = at_points(MapChain([phi, inv.map]), pts)
            assert np.max(np.abs(round_trip - pts)) < 1e-9

    def test_hypothesis_nf_checked(self):
        phi = TorusMapLift.translation(2, [0.4, 0.0])
        with pytest.raises(HypothesisViolation) as err:
            invert_map((phi,), 0.5, N_out=0)
        assert err.value.bound == "(nf)"

    def test_invert_compose_round_trip(self):
        rng = np.random.default_rng(27)
        a = flow(stream_field(rng, norm=1.5e-2), 1.0, 0.5, 0.2, N_out=4).map
        b = flow(stream_field(rng, norm=1.5e-2), 1.0, 0.5, 0.2, N_out=4).map
        ab = compose_maps((b, a), N_out=10)
        inv = invert_map((ab,), 0.5, N_out=10)
        out = compose_maps((inv.map, ab), N_out=10)
        pts = theta_grid(2, 9)
        assert np.max(np.abs(at_points(MapChain([out]), pts) - pts)) < 1e-9

    def test_chain_round_trip(self):
        rng = np.random.default_rng(28)
        a = flow(stream_field(rng, norm=1.5e-2), 1.0, 0.5, 0.2, N_out=4).map
        b = flow(stream_field(rng, norm=1.5e-2), 1.0, 0.5, 0.2, N_out=4).map
        chain = MapChain([b, a])
        inv = invert_map(chain.stages, 0.5, N_out=10)
        pts = theta_grid(2, 9)
        assert np.max(np.abs(at_points(MapChain((inv.map,) + chain.stages), pts)
                             - pts)) < 1e-9

    def test_chain_nf_gate_sums_stages(self):
        # each stage alone passes ||f||_r <= r/(4n) = 0.0625, the chain does not
        phi = TorusMapLift.translation(2, [0.04, 0.0])
        assert invert_map((phi,), 0.5, N_out=0).residual < 1e-12
        with pytest.raises(HypothesisViolation) as err:
            invert_map((phi, phi), 0.5, N_out=0)
        assert err.value.bound == "(nf)"


class TestStageJacobian:
    @staticmethod
    def three_angle_chain():
        """A translation, a stream-field flow whose third component vanishes,
        and a lift of theta_1 alone that makes the determinant vary."""
        rng = np.random.default_rng(31)
        H = random_series(rng, 3, 3)
        v = [H.derivative(1), -1.0 * H.derivative(0),
             PeriodicSeries.zeros(3, 3)]
        v = [(3e-3 / field_norm(v, 0.5)) * c for c in v]
        phi = flow(v, 1.0, 0.5, 0.2, N_out=3).map
        assert phi.parts[2].dependent_axes() == ()
        bump = 0.05 * sin_series(3, phi.N, 0)
        bumped = TorusMapLift(np.eye(3, dtype=int),
                              [bump, PeriodicSeries.zeros(3, 0),
                               PeriodicSeries.zeros(3, 0)])
        return MapChain([TorusMapLift.translation(3, [0.3, -0.2, 0.1]),
                         phi, bumped])

    def test_determinant_matches_finite_difference(self):
        chain = self.three_angle_chain()
        pts = theta_grid(3, 5) + 0.05j
        image, det = at_points(chain, pts, det=True)
        assert np.array_equal(image, at_points(chain, pts))
        fd = finite_difference_jacobian_det(
            functools.partial(at_points, chain), pts)
        assert np.max(np.abs(det - 1.0)) > 1e-2
        assert np.max(np.abs(det - fd)) < 1e-8

    def test_one_evaluation_per_stage(self, monkeypatch):
        # the leading and the trailing translation read nothing, and
        # leave the determinant as it is
        after = TorusMapLift.translation(3, [0.2, 0.0, -0.1])
        chain = MapChain(self.three_angle_chain().stages + (after,))
        pts = theta_grid(3, 4) + 0.05j
        calls = []

        def counting(series_list, pts):
            calls.append(len(series_list))
            return torusnf.series.eval_many(series_list, pts)

        monkeypatch.setattr(torusnf.flows, "eval_many", counting)
        image, det = at_points(chain, pts, det=True)
        assert calls == [3 + 9] * 2   # the flow and the bump only
        assert np.array_equal(image, at_points(chain, pts))
        _, inner = at_points(MapChain(chain.stages[1:3]),
                             at_points(MapChain(chain.stages[:1]), pts),
                             det=True)
        assert np.array_equal(det, inner)

    def test_constant_entries_reach_stacked_det_as_scalars(self, monkeypatch):
        # the flow's third part and the bump lift's last two parts are
        # constant, and so is the bump's derivative along axes 1 and 2
        chain = self.three_angle_chain()
        pts = theta_grid(3, 4) + 0.05j
        seen = []

        def recording(rows):
            seen.append([[np.ndim(e) == 0 for e in row] for row in rows])
            return torusnf.series.stacked_det(rows)

        monkeypatch.setattr(torusnf.flows, "stacked_det", recording)
        _, det = at_points(chain, pts, det=True)
        want = [[[not p.derivative(l).dependent_axes() for l in range(3)]
                 for p in s.parts] for s in chain.stages[1:]]
        assert seen == want
        assert want[0][2] == [True] * 3 and want[1][0] == [False, True, True]
        fd = finite_difference_jacobian_det(
            functools.partial(at_points, chain), pts)
        assert np.max(np.abs(det - fd)) < 1e-8

    def test_compact_coordinates_read_as_the_full_grid(self):
        # theta_1-only, two-axis, translation and constant-part stages, read at
        # the grid axes kept at their own shape and at the full cube
        rng = np.random.default_rng(33)
        n, N, M = 3, 3, 6

        def on(axes):
            c = np.array(random_series(rng, n, N).coeffs)
            for j in set(range(n)) - set(axes):
                np.moveaxis(c, j, 0)[np.arange(-N, N + 1) != 0] = 0.0
            return 1e-2 * PeriodicSeries(c, real=True)

        eye, zero = np.eye(n, dtype=int), PeriodicSeries.zeros(n, N)
        chain = MapChain([
            TorusMapLift(eye, [on((0,)), zero, zero]),
            TorusMapLift(eye, [on((0, 1)), on((0,)), zero]),
            TorusMapLift.translation(n, [0.3, -0.2, 0.1]),
            TorusMapLift(eye, [PeriodicSeries.constant(n, N, 0.05),
                               on((1, 2)), zero]),
            TorusMapLift.translation(n, [-0.1] * n)])
        t = 2.0 * np.pi * np.arange(M) / M + 0.05j
        compact = [t.reshape([M if l == j else 1 for l in range(n)])
                   for j in range(n)]
        full = [np.broadcast_to(c, (M,) * n).copy() for c in compact]
        image, det = chain.jacobian_det(compact)
        full_image, full_det = chain.jacobian_det(full)
        assert np.array_equal(np.broadcast_to(det, (M,) * n), full_det)
        for u, v in zip(image, full_image):
            assert np.array_equal(np.broadcast_to(u, (M,) * n), v)
        # the first two stages keep the third axis out of every read
        image, det = MapChain(chain.stages[:2]).jacobian_det(compact)
        assert [u.shape for u in image] == [(M, M, 1), (M, M, 1), (1, 1, M)]
        assert det.shape == (M, M, 1)


class TestTaylorKernel:
    """`taylor_on_grid` reads h(theta + U(theta)) on the M^n grid: against
    the direct sum at the displaced points.  A sheared series, as the
    witnesses read, is h(A .) = pull_back_linear(h, A), the integer map
    acting on the coefficients, and is checked against h at A(theta + U)."""

    N = 5

    @staticmethod
    def displacement(rng, n, M, eps):
        return [eps * random_series(rng, n, 3, real=False).eval_real_grid(M)
                for _ in range(n)]

    # 12 points per axis resolve degree 5; 7 alias it, and there a spectral
    # derivative of the grid values (FFT of the values times i k) is wrong,
    # while one read from the coefficients is exact
    @pytest.mark.parametrize("M", [12, 7])
    @pytest.mark.parametrize("eps", [0.0, 1e-4])
    @pytest.mark.parametrize("shear", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_direct_sum_at_displaced_points(self, n, shear, eps, M):
        rng = np.random.default_rng(70 + n)
        A = shear_matrix(n) if shear else np.eye(n, dtype=int)
        series = [random_series(rng, n, self.N, decay=1.0, real=False),
                  PeriodicSeries.constant(n, self.N, 0.3 - 0.2j),
                  PeriodicSeries.zeros(n, self.N)]
        U = self.displacement(rng, n, M, eps)
        pts = theta_grid(n, M) + np.stack([u.reshape(-1) for u in U], -1)
        want = eval_many(series, pts @ A.T)
        sheared = [pull_back_linear(h, A) for h in series]
        for got, ref in zip(taylor_on_grid(sheared, U, M), want):
            assert np.max(np.abs(got.reshape(-1) - ref)) < 1e-13

    @pytest.mark.parametrize("c", [[0.7, -1.3, 2.1], [0.3 + 0.05j, 0.0, -0.02j]])
    @pytest.mark.parametrize("shear", [False, True])
    @pytest.mark.parametrize("n", [2, 3])
    def test_scalar_displacement_is_an_exact_translation(self, n, shear, c):
        rng = np.random.default_rng(74 + n)
        M, c = 12, np.array(c[:n])
        A = shear_matrix(n) if shear else np.eye(n, dtype=int)
        h = random_series(rng, n, self.N, decay=1.0, real=False)
        g = pull_back_linear(h, A)
        const = PeriodicSeries.constant(n, self.N, 0.3 - 0.2j)
        got, flat = taylor_on_grid([g, const], list(c), M)
        assert np.array_equal(got, translate(g, c).eval_real_grid(M))
        assert not flat.flags.writeable and np.all(flat == 0.3 - 0.2j)
        pts = (theta_grid(n, M) + c) @ A.T
        assert np.max(np.abs(got.reshape(-1) - eval_many([h], pts)[0])) < 1e-13

    def test_constant_costs_no_transform(self, monkeypatch):
        # a real series is read through irfftn and a real grid re-expanded
        # through rfftn; each transform is recorded by its grid shape
        calls = []

        def counting(transform, inverse):
            def spy(a, *args, **kwargs):
                out = transform(a, *args, **kwargs)
                calls.append(out.shape if inverse else a.shape)
                return out
            return spy

        rng = np.random.default_rng(73)
        n, M = 3, 12
        U = self.displacement(rng, n, M, 1e-4)
        for name, inverse in [("ifftn", True), ("irfftn", True),
                              ("rfftn", False)]:
            monkeypatch.setattr(
                np.fft, name, counting(getattr(np.fft, name), inverse))
        taylor_on_grid([PeriodicSeries.constant(n, self.N, 2.0),
                        PeriodicSeries.zeros(n, self.N)], U, M)
        assert calls == []
        taylor_on_grid([PeriodicSeries.constant(n, self.N, 2.0)],
                       [0.1, 0.0, -0.2j], M)
        translations = (TorusMapLift.translation(n, [0.1, 0.2, 0.3]),
                        TorusMapLift.translation(n, [-0.1, 0.0, 0.2]))
        compose_maps(translations, N_out=2)
        assert calls == []
        # nor a grid: through translations the displacement stays a scalar
        W, _ = torusnf.flows._walk(
            translations, functools.partial(taylor_on_grid, M=M),
            [0.0] * n, None)
        assert [np.ndim(w) for w in W] == [0] * n
        # with U = 0 a series costs its values alone
        h = random_series(rng, n, self.N)
        taylor_on_grid([h], [np.zeros((M,) * n)] * n, M)
        assert calls == [(M,) * n]


class TestUnimodular:
    # a truncating integer inverse gives [[0, -1], [0, 2]] for the first,
    # and np.linalg.det gives 0.9999999999999964 for the second; each shear
    # onto the fibration comes with its closed-form inverse 2 I - A
    MATRICES = [[[3, 2], [1, 1]], [[1, 2, 3], [0, 1, 4], [5, 6, 0]]] + [
        (shear_matrix(n), 2 * np.eye(n, dtype=int) - shear_matrix(n))
        for n in range(2, 6)]

    @pytest.mark.parametrize("A", MATRICES)
    def test_inverse_and_determinant_are_exact(self, A):
        if isinstance(A, tuple):
            A, A_inv = A
        else:
            A = np.array(A)
            A_inv = np.rint(np.linalg.inv(A)).astype(int)
        n = len(A)
        assert np.array_equal(A_inv @ A, np.eye(n, dtype=int))
        assert np.array_equal(A @ A_inv, np.eye(n, dtype=int))
        # the map acts on coefficients: h(A .) re-indexes them, exactly, and
        # A^-1 re-indexes them back bit for bit
        h = random_series(np.random.default_rng(34 + n), n, 2, real=False)
        moved = pull_back_linear(h, A)
        back = pull_back_linear(moved, A_inv)
        N = max(h.N, back.N)
        assert np.array_equal(back.pad_to(N).coeffs, h.pad_to(N).coeffs)
        pts = theta_grid(n, 5) + 0.05j
        assert np.max(np.abs(eval_points(moved, pts)
                             - eval_points(h, pts @ A.T))) < 1e-13


class TestGridNative:
    def test_compute_path_makes_no_off_grid_evaluation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("off-grid eval_many on the compute path")

        rng = np.random.default_rng(29)
        h = random_series(rng, 2, 6, decay=1.0)
        h = h * (1e-3 * 0.5 ** 3 / h.coeff_norm(0.5))
        s = random_series(rng, 2, 5, real=False)
        c = np.array(s.coeffs)
        c[4, 4] = 0.0   # the all-(-1) monomial obstructs realization
        a = PeriodicSeries(c)
        a = a * (1e-4 / a.coeff_norm(0.5))
        phi = flow(stream_field(rng, norm=1e-3), 1.0, 0.5, 0.2, N_out=8).map

        monkeypatch.setattr(torusnf.series, "eval_many", refuse)
        monkeypatch.setattr(torusnf.flows, "eval_many", refuse)
        with pytest.raises(AssertionError):
            at_points(MapChain([phi]), theta_grid(2, 3))
        fibering_step(h, 0.5, 1.0 / 16.0)
        realization_step(a, 0.5, 0.05)
        compose_maps((phi, phi), N_out=10)
        phi.pullback(h, N_out=20)


class TestSmoothGrids:
    """The map algebra on grids that `grid_size` rounds up to a 7-smooth
    size, against the direct sum `eval_points` at off-grid points."""

    @pytest.mark.parametrize("n, N, M, eps", [(2, 20, 63, 1e-3),
                                              (3, 14, 45, 1e-5)])
    def test_matches_direct_sum_off_grid(self, n, N, M, eps):
        # 3N + 1 is 61 and 43, both prime
        assert grid_size(N, N) == M != 3 * N + 1
        rng = np.random.default_rng(60 + n)
        phi, psi = (TorusMapLift(np.eye(n, dtype=int),
                                 [eps * random_series(rng, n, N, decay=2.0)
                                  for _ in range(n)])
                    for _ in range(2))
        h = random_series(rng, n, 3)
        pts = rng.uniform(0, 2 * np.pi, size=(50, n)) + 0.05j
        comp = phi.pullback(h, N_out=N)
        moved = at_points(MapChain([phi]), pts)
        assert np.max(np.abs(eval_points(comp, pts)
                             - eval_points(h, moved))) < 1e-13
        both = compose_maps((psi, phi), N_out=N)
        assert np.max(np.abs(at_points(MapChain([both]), pts)
                             - at_points(MapChain([psi, phi]), pts))) < 1e-13
        inv = invert_map((phi,), 0.5, N_out=N)
        assert inv.residual < 1e-13
        assert np.max(np.abs(at_points(MapChain([inv.map, phi]), pts) - pts)) < 1e-13


class TestGridWitness:
    """`grid_walk` reads at theta_grid + i shift what `apply` and
    `jacobian_det` give there point by point."""

    @staticmethod
    def chain(kind, n):
        rng = np.random.default_rng(40 + n)
        first, second = (
            TorusMapLift(np.eye(n, dtype=int),
                         [2e-3 * random_series(rng, n, 3, real=False)
                          for _ in range(n)])
            for _ in range(2))
        translation = TorusMapLift.translation(n, rng.uniform(-1.0, 1.0, n))
        # the normal-form shape: a constant stage after non-constant ones
        return {"lift": (first,),
                "translation": (translation, first, second),
                "translation-last": (first, second, translation)}[kind]

    @pytest.mark.parametrize(
        "kind", ["lift", "translation", "translation-last"])
    @pytest.mark.parametrize("shift", [0.0, -0.5 / 8.0, 0.5 / 8.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_pointwise_evaluation(self, n, shift, kind):
        stages = self.chain(kind, n)
        chain = MapChain(stages)
        # 7 points per axis resolve degree 3; 5 alias it
        for M in (5, 7):
            def flat(u):
                # grid_walk keeps each value at the shape of its axes
                return np.broadcast_to(u, (M,) * n).reshape(-1)

            pts = theta_grid(n, M) + 1j * shift
            _, det = at_points(chain, pts, det=True)
            assert np.ptp(np.abs(det)) > 1e-3
            U, none = grid_walk(stages, M, shift, None)
            assert none is None
            U = np.stack([flat(u) for u in U], -1)
            moved = theta_grid(n, M) + U
            assert np.max(np.abs(moved - at_points(chain, pts))) < 1e-13
            U_det, grid_det = grid_walk(stages, M, shift, 1.0)
            assert np.array_equal(np.stack([flat(u) for u in U_det], -1), U)
            assert np.max(np.abs(flat(grid_det) - det)) < 1e-13

    def test_values_keep_the_shape_of_their_axes(self):
        # a translation leaves U and det the same at every point: scalars;
        # a lift of theta_1 alone moves the first angle along a line
        n, M = 3, 7
        translation = TorusMapLift.translation(n, [0.1, 0.2, 0.3])
        U, det = grid_walk((translation,), M, 0.05, 1.0)
        assert [np.ndim(u) for u in U] == [0] * n and np.ndim(det) == 0
        rng = np.random.default_rng(47)
        first = random_series(rng, n, 3).restrict_axes(0)
        assert first.dependent_axes() == (0,)
        lift = TorusMapLift(np.eye(n, dtype=int),
                            [1e-3 * first] + [PeriodicSeries.zeros(n, 3)] * 2)
        U, det = grid_walk((lift,), M, 0.0, 1.0)
        assert U[0].shape == (M, 1, 1) and np.shape(det) == (M, 1, 1)
