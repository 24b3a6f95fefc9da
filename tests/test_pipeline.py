import functools

import numpy as np
import pytest

from torusnf import fibering, flows, pipeline, realization, series
from torusnf.curves import gauss_degree
from torusnf.errors import HypothesisViolation, NumericalFailure
from torusnf.fibering import phase_profile_distance
from torusnf.flows import TorusMapLift, flow, invert_map
from torusnf.moser import VolumeDensity, moser_normalize
from torusnf.pipeline import (
    TorusEmbedding,
    closure_defect,
    curve_from_profile,
    exactness_correct,
    half_turn_profile,
    identity_embedding,
    jacobian_density,
    modulus_phase_split,
    normal_form_curve,
    normal_form_embedding,
    normalize_embedding,
    postcompose_monomial_shear,
    precompose_torus_map,
    shear_lift,
)
from torusnf.realization import AnnulusFunction, realize_form
from torusnf.series import (
    CHOP_FLOOR,
    PeriodicSeries,
    pull_back_linear,
    theta_grid,
)

from annulus_oracle import eval_z
from oracles import abs_max_coeff, coeff_distance
from test_flows import stream_field
from test_realization import random_annulus_function
from test_series import random_series, sin_series


def bessel_j1_quadrature(x, M=20000):
    """J_1 by the integral representation (independent oracle)."""
    tau = np.pi * (np.arange(M) + 0.5) / M
    return float(np.mean(np.cos(tau - x * np.sin(tau))))


def rich_profile(delta=1e-3, N=4):
    """First, second and third harmonics.

    Closure correction removes the first harmonic (forced to second order by
    the closure constraint); the others survive, and the third changes sign
    under the half turn, keeping the two representatives distinguishable.
    """
    return delta * (sin_series(1, N, 0)
                    + PeriodicSeries.from_terms(
                        1, N, {(2,): -0.5j, (-2,): 0.5j,
                               (3,): -0.5j, (-3,): 0.5j}))


def seeded_embedding(delta=1e-3, rho0=1.0, n=2, r0=0.5, profile=None):
    k = exactness_correct(profile if profile is not None else rich_profile(delta))
    g, _ = normal_form_curve(k, rho0)
    return normal_form_embedding(g, n, r0), k


def perturbed_embedding():
    """A seeded n = 2 embedding with complex degree-3 perturbations."""
    rng = np.random.default_rng(81)
    emb, _ = seeded_embedding(1e-3)
    pert = [AnnulusFunction(c.series
                            + 1e-4 * random_series(rng, 2, 3, real=False))
            for c in emb.components]
    return TorusEmbedding(tuple(pert), 0.5)


@functools.lru_cache(maxsize=None)
def three_angle_embedding():
    """seeded_embedding(1e-4, n=3), built once: embeddings are immutable."""
    return seeded_embedding(1e-4, n=3)[0]


class TestJacobianDensity:
    def test_identity(self):
        a = jacobian_density(identity_embedding(2))
        assert abs_max_coeff(a.series) < 1e-13

    def test_linear_scaling(self):
        eps = 1e-3
        comps = (AnnulusFunction.from_terms(2, 1, {(1, 0): 1.0 + eps}),
                 AnnulusFunction.from_terms(2, 1, {(0, 1): 1.0}))
        a = jacobian_density(TorusEmbedding(comps, 0.5))
        assert abs(a.series.mean() - eps) < 1e-13
        assert abs(a.norm(0.25) - eps) < 1e-12

    def test_matches_finite_differences(self):
        emb = perturbed_embedding()
        a = jacobian_density(emb)
        h = 1e-5
        pts = theta_grid(2, 9)
        z = np.exp(1j * pts)
        jac = np.empty((pts.shape[0], 2, 2), dtype=complex)

        def image(w):
            return np.stack([eval_z(c, w) for c in emb.components], axis=-1)

        for l in range(2):
            dz = np.zeros(2)
            dz[l] = h
            jac[:, :, l] = (image(z + dz) - image(z - dz)) / (2 * h)
        fd = np.linalg.det(jac)
        assert np.max(np.abs(fd - 1.0 - eval_z(a, z))) < 1e-8

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_direct_determinant_off_grid(self, n):
        emb = perturbed_embedding() if n == 2 else three_angle_embedding()
        a = jacobian_density(emb)
        rng = np.random.default_rng(85)
        z = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(200, n)))
        jac = np.stack([np.stack([eval_z(emb.components[j].z_derivative(l), z)
                                  for l in range(n)], axis=-1)
                        for j in range(n)], axis=-2)
        assert np.max(np.abs(np.linalg.det(jac) - 1.0 - eval_z(a, z))) < 1e-13

    @pytest.mark.parametrize("n", [2, 3])
    def test_samples_exact_alias_free_grid(self, n, monkeypatch):
        # the smallest 7-smooth size at or above 2 N_exact + 1 = 53 and 73
        size = {2: 54, 3: 75}[n]
        emb = perturbed_embedding() if n == 2 else three_angle_embedding()
        assert size >= 2 * n * (emb.N + 1) + 1
        sizes = []
        sample = PeriodicSeries.eval_real_grid

        def recording(self, M):
            sizes.append(M)
            return sample(self, M)

        monkeypatch.setattr(PeriodicSeries, "eval_real_grid", recording)
        jacobian_density(emb)
        assert sizes and set(sizes) == {size}


def inverse_volume_maps(emb, monkeypatch):
    """The inverse volume map of `normalize_embedding`, rebuilt stage by
    stage, and the same map computed without the tail chop."""
    a = jacobian_density(emb)
    r = emb.r0 / 2.0
    A_inv = np.linalg.inv(shear_lift(emb.n).D).astype(int)
    b2 = pull_back_linear(modulus_phase_split(a).modulus, A_inv)
    moser = moser_normalize(VolumeDensity(b2), r, N_out=b2.N + 4)
    inv = invert_map(moser.map, r, N_out=moser.map.N + 4).map
    with monkeypatch.context() as m:
        m.setattr(PeriodicSeries, "chop_tail", lambda self: self)
        raw = invert_map(moser.map, r, N_out=moser.map.N + 4).map
    return inv, raw


class TestComputedMapChop:
    def test_round_off_inverse_volume_map_becomes_one_angle(self, monkeypatch):
        inv, raw = inverse_volume_maps(three_angle_embedding(), monkeypatch)
        assert raw.parts[0].dependent_axes() == (0, 1, 2)
        assert inv.parts[0].dependent_axes() == (0,)
        assert np.count_nonzero(inv.parts[0].coeffs) == 2
        for p, q in zip(inv.parts, raw.parts):
            mass = float(np.abs(p.coeffs - q.coeffs).sum())
            assert mass <= CHOP_FLOOR
            assert p.trunc_mass - q.trunc_mass == pytest.approx(
                mass, rel=1e-12, abs=0.0)
            change = np.abs(p.eval_real_grid(32) - q.eval_real_grid(32))
            assert float(np.max(change)) <= CHOP_FLOOR

    def test_map_with_content_keeps_every_coefficient_above_floor(
            self, monkeypatch):
        rng = np.random.default_rng(84)
        emb, _ = seeded_embedding(1e-3)
        parts = [2e-5 * random_series(rng, 2, 3), 2e-5 * random_series(rng, 2, 3)]
        emb2 = precompose_torus_map(
            emb, TorusMapLift(np.eye(2, dtype=int), parts))
        inv, raw = inverse_volume_maps(emb2, monkeypatch)
        for p, q in zip(inv.parts, raw.parts):
            big = np.abs(q.coeffs) > CHOP_FLOOR
            assert big.any()
            assert np.array_equal(p.coeffs[big], q.coeffs[big])
            assert float(np.abs(p.coeffs - q.coeffs).sum()) <= CHOP_FLOOR


class TestModulusPhaseSplit:
    def test_zero(self):
        split = modulus_phase_split(AnnulusFunction(PeriodicSeries.zeros(2, 2)))
        assert abs_max_coeff(split.modulus) < 1e-15
        assert abs_max_coeff(split.phase) < 1e-15

    def test_real_constant(self):
        eps = 1e-3
        a = AnnulusFunction.from_terms(2, 1, {(0, 0): eps})
        split = modulus_phase_split(a)
        assert abs(split.modulus.mean() - eps) < 1e-14
        assert abs_max_coeff(split.phase) < 1e-14

    def test_imaginary_constant(self):
        eps = 1e-3
        a = AnnulusFunction.from_terms(2, 1, {(0, 0): 1j * eps})
        split = modulus_phase_split(a)
        assert abs(split.phase.mean() - np.arctan(eps)) < 1e-14
        assert abs(split.modulus.mean() - (np.hypot(1, eps) - 1.0)) < 1e-14

    def test_reconstruction(self):
        rng = np.random.default_rng(82)
        a = AnnulusFunction(3e-4 * random_series(rng, 2, 4, real=False))
        split = modulus_phase_split(a)
        assert split.residual < 1e-10
        assert split.modulus.real and split.phase.real

    def test_branch_guard(self):
        a = AnnulusFunction.from_terms(2, 1, {(0, 0): 0.7})
        with pytest.raises(HypothesisViolation) as err:
            modulus_phase_split(a)
        assert err.value.bound == "(branch)"


class TestNormalFormCurve:
    def test_flat_profile_gives_circle(self):
        g, defect = normal_form_curve(PeriodicSeries.zeros(1, 2), 1.0)
        assert defect < 1e-15
        assert abs(g.series.coeff((1,)) + 1j) < 1e-14
        assert gauss_degree(g) == 1

    def test_pure_sine_refused_with_bessel_defect(self):
        delta = 0.05
        k = delta * sin_series(1, 2, 0)
        with pytest.raises(HypothesisViolation) as err:
            normal_form_curve(k, 1.0)
        assert err.value.bound == "(exact)"
        expected = 2.0 * np.pi * abs(bessel_j1_quadrature(delta))
        assert closure_defect(k, 1.0) == pytest.approx(expected, rel=1e-9)

    def test_pure_sine_correction_collapses(self):
        # closure forces the first harmonic of an exact profile to second
        # order, so correcting a pure sine removes it almost entirely
        delta = 1e-3
        k = exactness_correct(delta * sin_series(1, 2, 0))
        assert abs_max_coeff(k) < 1e-12
        assert closure_defect(k, 1.0) < 1e-12

    def test_rich_profile_correction_keeps_higher_harmonics(self):
        delta = 1e-3
        seed = rich_profile(delta)
        k = exactness_correct(seed)
        g, defect = normal_form_curve(k, 1.0)
        assert defect < 1e-12
        assert gauss_degree(g) == 1
        assert abs(k.coeff((2,)) - seed.coeff((2,))) < 2 * delta ** 2
        assert abs(k.coeff((1,))) < 2 * delta ** 2

    def test_curve_from_profile_closes_any_seed(self):
        delta = 1e-3
        g = curve_from_profile(delta * sin_series(1, 2, 0), 1.0)
        assert gauss_degree(g) == 1


class TestNormalFormEmbedding:
    def test_flat_profile_gives_identity(self):
        g, _ = normal_form_curve(PeriodicSeries.zeros(1, 2), 1.0)
        emb = normal_form_embedding(g, 2)
        ident = identity_embedding(2)
        for c, i in zip(emb.components, ident.components):
            assert coeff_distance(c.series, i.series) < 1e-13

    def test_needs_two_angles(self):
        g, _ = normal_form_curve(PeriodicSeries.zeros(1, 2), 1.0)
        with pytest.raises(ValueError):
            normal_form_embedding(g, 1)


class TestNormalizeEmbedding:
    def test_identity(self):
        rep = normalize_embedding(identity_embedding(2))
        assert rep.rho0 == pytest.approx(1.0, abs=1e-12)
        assert rep.k.coeff_norm(0.25) < 1e-12
        assert rep.phase_residual < 1e-10

    def test_round_trip(self):
        emb, k_seed = seeded_embedding(1e-3)
        rep = normalize_embedding(emb)
        assert rep.rho0 == pytest.approx(1.0, abs=1e-9)
        assert phase_profile_distance(
            k_seed, rep.k, allow_half_turn=True) <= 1e-6
        assert rep.phase_residual <= 1e-8
        assert rep.volume_residual <= 1e-8
        assert rep.exactness_defect <= 1e-8

    def test_round_trip_three_angles(self):
        emb, k_seed = seeded_embedding(1e-4, n=3)
        rep = normalize_embedding(emb)
        assert rep.rho0 == pytest.approx(1.0, abs=1e-6)
        assert phase_profile_distance(
            k_seed, rep.k, allow_half_turn=True) <= 1e-6
        assert rep.phase_residual <= 1e-8
        assert rep.volume_residual <= 1e-8

    def test_round_trip_with_amplitude(self):
        emb, k_seed = seeded_embedding(5e-4, rho0=1.0005)
        rep = normalize_embedding(emb)
        assert rep.rho0 == pytest.approx(1.0005, abs=1e-9)
        assert rep.total_volume == pytest.approx(
            (2 * np.pi) ** 2 * 1.0005, rel=1e-9)
        assert phase_profile_distance(
            k_seed, rep.k, allow_half_turn=True) <= 1e-6

    @pytest.mark.parametrize("rho0, n", [
        (0.9, 2), (0.99, 2), (1.01, 2), (1.1, 2), (1.01, 3)])
    def test_round_trip_far_amplitude(self, rho0, n):
        emb, k_seed = seeded_embedding(1e-3 if n == 2 else 1e-4, rho0, n=n)
        rep = normalize_embedding(emb)
        assert abs(rep.rho0 - rho0) <= 1e-12
        assert phase_profile_distance(
            k_seed, rep.k, allow_half_turn=True) <= 1e-12

    def test_refuses_amplitude_off_the_branch(self):
        # 1 + a has modulus rho0 on the torus, so |a| reaches 1/2 at rho0 = 1.5
        emb, _ = seeded_embedding(1e-3, 1.5)
        with pytest.raises(HypothesisViolation) as err:
            normalize_embedding(emb)
        assert err.value.bound == "(branch)"

    def test_half_turn_construction(self):
        emb, k_seed = seeded_embedding(1e-3)
        rep = normalize_embedding(emb)
        k_hat = half_turn_profile(rep.k)
        g_hat, _ = normal_form_curve(k_hat, rep.rho0)
        emb_hat = normal_form_embedding(g_hat, 2)
        rep_hat = normalize_embedding(emb_hat)
        # the half-turned profile is recovered on the nose...
        assert coeff_distance(rep_hat.k, k_hat) <= 1e-8
        # ...and matches the original only through the half-turn family
        assert phase_profile_distance(rep.k, rep_hat.k) > 1e-4
        assert phase_profile_distance(rep.k, rep_hat.k,
                                      allow_half_turn=True) <= 1e-8

    def test_reparametrization_invariance_volume_preserving(self):
        rng = np.random.default_rng(83)
        emb, _ = seeded_embedding(1e-3)
        rep = normalize_embedding(emb)
        psi = flow(stream_field(rng, N=2, norm=3e-5), 1.0, 0.5, 0.2,
                   N_out=8).map
        emb2 = precompose_torus_map(emb, psi)
        rep2 = normalize_embedding(emb2)
        assert abs(rep2.rho0 - rep.rho0) <= 1e-8
        assert phase_profile_distance(rep.k, rep2.k) <= 1e-6

    def test_reparametrization_invariance_generic(self):
        # a non-volume-preserving parameter change exercises the volume
        # normalization stage nontrivially
        from torusnf.flows import TorusMapLift
        emb, _ = seeded_embedding(1e-3)
        rep = normalize_embedding(emb)
        for scale in (2e-5, 5e-4):
            rng = np.random.default_rng(84)
            parts = [scale * random_series(rng, 2, 3),
                     scale * random_series(rng, 2, 3)]
            psi = TorusMapLift(np.eye(2, dtype=int), parts)
            emb2 = precompose_torus_map(emb, psi)
            rep2 = normalize_embedding(emb2)
            assert abs(rep2.rho0 - rep.rho0) <= 1e-7
            assert phase_profile_distance(rep.k, rep2.k) <= 1e-6

    @pytest.mark.parametrize("n", [2, 3])
    def test_ambient_shear_leaves_density_and_invariants(self, n):
        # w_1 += 2e-4 w_2^2 at n = 2, and w_3 += 1e-4 w_1 w_2 at n = 3
        emb = seeded_embedding(1e-3)[0] if n == 2 else three_angle_embedding()
        target, exponents, eps = {2: (0, {1: 2}, 2e-4),
                                  3: (2, {0: 1, 1: 1}, 1e-4)}[n]
        rep = normalize_embedding(emb)
        emb2 = postcompose_monomial_shear(emb, target, exponents, eps)
        a1 = jacobian_density(emb)
        a2 = jacobian_density(emb2)
        assert coeff_distance(a1.series.pad_to(a2.N),
                              a2.series.pad_to(a1.N)) < 1e-12
        rep2 = normalize_embedding(emb2)
        assert phase_profile_distance(rep.k, rep2.k) <= 1e-8

    def test_refuses_exhausted_phase_schedule(self, monkeypatch):
        # a volume-changing reparametrization needs two phase steps
        monkeypatch.setattr(fibering, "MAX_ITER", 1)
        rng = np.random.default_rng(84)
        emb, _ = seeded_embedding(1e-3)
        parts = [2e-5 * random_series(rng, 2, 3), 2e-5 * random_series(rng, 2, 3)]
        emb2 = precompose_torus_map(
            emb, TorusMapLift(np.eye(2, dtype=int), parts))
        with pytest.raises(NumericalFailure, match="exhausted") as err:
            normalize_embedding(emb2)
        assert err.value.trace

    def test_ambient_translation_is_standard(self):
        # z_1 + 0.4 is the standard torus moved by an ambient translation,
        # a unimodular map, so its invariants are those of the standard torus
        comps = (AnnulusFunction.from_terms(2, 1, {(1, 0): 1.0, (0, 0): 0.4}),
                 AnnulusFunction.from_terms(2, 1, {(0, 1): 1.0}))
        rep = normalize_embedding(TorusEmbedding(comps, 0.5))
        assert abs(rep.rho0 - 1.0) <= 1e-14
        assert abs_max_coeff(rep.k) <= 1e-14

    def test_complex_constant_consistency(self):
        emb, _ = seeded_embedding(1e-3)
        rep = normalize_embedding(emb)
        # the complex mean of the density has modulus close to rho0 at
        # second order in the profile
        assert abs(abs(rep.complex_constant) - rep.rho0) < 1e-5


def is_full_grid(pts):
    """Whether the points are exactly theta_grid(n, M) + i shift for some M
    and one shift: a witness grid itself rather than its image."""
    m, n = pts.shape
    M = round(m ** (1.0 / n))
    return (M ** n == m and np.array_equal(pts.real, theta_grid(n, M))
            and np.all(pts.imag == pts.imag[0, 0]))


class TestWitnessGrids:
    @staticmethod
    def reparametrized():
        rng = np.random.default_rng(84)
        seeded, _ = seeded_embedding(1e-3)
        parts = [2e-5 * random_series(rng, 2, 3), 2e-5 * random_series(rng, 2, 3)]
        return seeded, precompose_torus_map(
            seeded, TorusMapLift(np.eye(2, dtype=int), parts))

    def test_no_full_grid_reaches_eval_many(self, monkeypatch):
        seeded, reparam = self.reparametrized()
        density = random_annulus_function(
            np.random.default_rng(66), 2, 8, 0.5, 1e-4)

        seen = []
        evaluate = series.eval_many

        def recording(series_list, pts):
            seen.append(np.asarray(pts))
            return evaluate(series_list, pts)

        for mod in (series, flows, pipeline, fibering, realization):
            if hasattr(mod, "eval_many"):
                monkeypatch.setattr(mod, "eval_many", recording)
        assert normalize_embedding(seeded).fibering_trace
        assert len(normalize_embedding(reparam).chain.stages) > 5
        assert realize_form(density, 0.5).converged
        # the stages after the first non-affine one still see scattered points
        assert seen
        assert not [p.shape for p in seen if is_full_grid(p)]

    def test_density_is_read_on_the_moved_grid(self, monkeypatch):
        _, emb = self.reparametrized()
        a = jacobian_density(emb).series
        seen = []
        evaluate = series.eval_many

        def recording(series_list, pts):
            seen.extend(s.coeffs for s in series_list)
            return evaluate(series_list, pts)

        for mod in (series, flows, pipeline):
            if hasattr(mod, "eval_many"):
                monkeypatch.setattr(mod, "eval_many", recording)
        rep = normalize_embedding(emb)
        monkeypatch.undo()
        assert len(rep.chain.stages) > 5 and seen
        assert not [c for c in seen
                    if c.shape == a.coeffs.shape and np.array_equal(c, a.coeffs)]

        # the defining identity, every value by the direct sum
        pts = theta_grid(2, fibering.VERIFY_GRID)
        moved = rep.chain.apply(pts)
        lhs = (1.0 + series.eval_many([a], moved)[0]) \
            * np.exp(1j * moved.sum(axis=1)) * rep.chain.jacobian_det(pts)
        s = pts.sum(axis=1)
        rhs = rep.rho0 * np.exp(
            1j * (s + series.eval_many([rep.k], s[:, None])[0]))
        assert abs(np.max(np.abs(lhs - rhs)) - rep.phase_residual) < 1e-14
