import dataclasses
import functools
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusnf import fibering, flows, pipeline, realization, series
from torusnf.curves import gauss_degree
from torusnf.errors import HypothesisViolation, NumericalFailure
from torusnf.flows import MapChain, TorusMapLift, compose_maps, flow, invert_map
from torusnf.moser import moser_normalize
from torusnf.pipeline import (
    TorusEmbedding,
    exactness_correct,
    jacobian_density,
    modulus_phase_split,
    normal_form_curve,
    normal_form_embedding,
    normalize_embedding,
    precompose_torus_map,
    shear_matrix,
)
from torusnf.realization import realize_form
from torusnf.series import (
    CHOP_FLOOR,
    PeriodicSeries,
    pull_back_linear,
    z_derivative,
)

from annulus_oracle import eval_z
from oracles import (
    abs_max_coeff,
    at_points,
    coeff_distance,
    half_turn_profile,
    identity_embedding,
    phase_profile_distance,
    postcompose_monomial_shear,
    theta_grid,
)
from test_flows import stream_field
from test_realization import random_annulus_function
from test_series import random_series, sin_series


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
    pert = [c + 1e-4 * random_series(rng, 2, 3, real=False)
            for c in emb.components]
    return TorusEmbedding(tuple(pert), 0.5)


@functools.lru_cache(maxsize=None)
def three_angle_embedding():
    """seeded_embedding(1e-4, n=3), built once: embeddings are immutable."""
    return seeded_embedding(1e-4, n=3)[0]


def top_degree_embedding():
    """(z1 + z1^-1 / 2, z2 + z1^-1 z2^-1 / 2) at degree N = 1.

    Its determinant (1 - z1^-2 / 2)(1 - z1^-1 z2^-2 / 2) has the coefficient
    1/4 at z1^-3 z2^-2, the top degree n N + 1 = 3 of axis 1, which a grid of
    fewer than 7 points folds onto another coefficient."""
    comps = (PeriodicSeries.from_terms(2, 1, {(1, 0): 1.0, (-1, 0): 0.5}),
             PeriodicSeries.from_terms(2, 1, {(0, 1): 1.0, (-1, -1): 0.5}))
    return TorusEmbedding(comps, 0.5)


class TestJacobianDensity:
    def test_identity(self):
        a = jacobian_density(identity_embedding(2))
        assert abs_max_coeff(a) < 1e-13

    def test_linear_scaling(self):
        eps = 1e-3
        comps = (PeriodicSeries.from_terms(2, 1, {(1, 0): 1.0 + eps}),
                 PeriodicSeries.from_terms(2, 1, {(0, 1): 1.0}))
        a = jacobian_density(TorusEmbedding(comps, 0.5))
        assert abs(a.mean() - eps) < 1e-13
        assert abs(a.coeff_norm(0.25) - eps) < 1e-12

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

    @pytest.mark.parametrize("case", [2, 3, "top-degree"])
    def test_matches_direct_determinant_off_grid(self, case):
        emb = {2: perturbed_embedding, 3: three_angle_embedding,
               "top-degree": top_degree_embedding}[case]()
        a = jacobian_density(emb)
        n = emb.n
        rng = np.random.default_rng(85)
        z = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(200, n)))
        jac = np.stack([np.stack([eval_z(z_derivative(emb.components[j], l), z)
                                  for l in range(n)], axis=-1)
                        for j in range(n)], axis=-2)
        assert np.max(np.abs(np.linalg.det(jac) - 1.0 - eval_z(a, z))) < 1e-13

    @pytest.mark.parametrize("n", [2, 3])
    def test_samples_exact_alias_free_grid(self, n, monkeypatch):
        # the smallest 7-smooth size at or above 2 N_exact + 1, with
        # N_exact = k (N + 1) for the k rows that vary: 2 (12 + 1) and
        # 1 (11 + 1), as rows 2 and 3 of the n = 3 input are constant.  At
        # n = 2 that is the zero-check grid, the size at or above
        # 2 n (N + 1) + 1 = 53, so the samples settle the check.  At n = 3
        # the certificate on the samples settles it, and the 75-point check
        # grid is not read
        density, check = {2: (54, 54), 3: (25, 75)}[n]
        emb = perturbed_embedding() if n == 2 else three_angle_embedding()
        assert check >= 2 * n * (emb.N + 1) + 1
        sizes = record_grid_sizes(monkeypatch)
        jacobian_density(emb)
        assert set(sizes) == {density}

    def test_reads_the_check_grid_when_the_certificate_fails(self,
                                                             monkeypatch):
        # det = 1 + 0.99 z1 has modulus at least 0.01 on the torus.  Only
        # row 1 varies, so the density grid has 7 points; their minimum,
        # 0.443, is below the certificate's (pi/7) 0.99 = 0.444.  1 + a is
        # then read on the 14-point check grid, and the density accepted
        comps = (PeriodicSeries.from_terms(2, 2, {(1, 0): 1.0, (2, 0): 0.495}),
                 PeriodicSeries.from_terms(2, 2, {(0, 1): 1.0}))
        sizes = record_grid_sizes(monkeypatch)
        a = jacobian_density(TorusEmbedding(comps, 0.5))
        assert set(sizes[:-1]) == {7} and sizes[-1] == 14
        assert abs(a.coeff((1, 0)) - 0.99) < 1e-13

    def test_refuses_a_vanishing_determinant(self):
        # det = 1 + z1 vanishes at theta_1 = pi.  Only row 1 varies, so the
        # density grid has 7 points, which miss pi, and the certificate
        # fails there; the 14-point check grid holds pi
        comps = (PeriodicSeries.from_terms(2, 2, {(1, 0): 1.0, (2, 0): 0.5}),
                 PeriodicSeries.from_terms(2, 2, {(0, 1): 1.0}))
        with pytest.raises(NumericalFailure, match="not totally real"):
            jacobian_density(TorusEmbedding(comps, 0.5))


def record_grid_sizes(monkeypatch):
    """The list that every later `eval_real_grid` call appends its M to."""
    sizes = []
    sample = PeriodicSeries.eval_real_grid

    def recording(self, M):
        sizes.append(M)
        return sample(self, M)

    monkeypatch.setattr(PeriodicSeries, "eval_real_grid", recording)
    return sizes


def volume_map(emb):
    """The volume map of `normalize_embedding`, rebuilt stage by stage, with
    the strip half-width r and the degree N_out of its inversion there."""
    a = jacobian_density(emb)
    A_inv = 2 * np.eye(emb.n, dtype=int) - shear_matrix(emb.n)
    b2 = pull_back_linear(modulus_phase_split(a).modulus, A_inv)
    phi = moser_normalize(b2, N_out=b2.N + 4).map
    return phi, emb.r0 / 2.0, phi.N + 4


def inverse_volume_maps(emb, monkeypatch):
    """The inverse volume map of `normalize_embedding`, rebuilt stage by
    stage, and the same map computed without the tail chop."""
    phi, r, N_out = volume_map(emb)
    inv = invert_map((phi,), r, N_out=N_out).map
    with monkeypatch.context() as m:
        m.setattr(PeriodicSeries, "chop_tail", lambda self: self)
        raw = invert_map((phi,), r, N_out=N_out).map
    return inv, raw


class TestCompactGrids:
    """Grid values keep the shape of the axes they depend on, so the
    theta_1-only volume map of the seeded n = 3 normal form is inverted and
    witnessed on lines of the grid, not on its cube."""

    def test_round_trip_reads_the_first_axis_only(self, monkeypatch):
        phi, r, N_out = volume_map(three_angle_embedding())
        assert [p.dependent_axes() for p in phi.parts] == [(0,), (), ()]
        M_w = series.witness_grid_size(N_out, phi.N) + 1
        points, walked = [], []
        evaluate, walk = series.eval_many, flows.grid_walk

        def recording(series_list, pts):
            points.append(len(pts))
            return evaluate(series_list, pts)

        def keeping(*args):
            out = walk(*args)
            walked.append(out[0])
            return out

        monkeypatch.setattr(flows, "eval_many", recording)
        monkeypatch.setattr(flows, "grid_walk", keeping)
        assert invert_map((phi,), r, N_out=N_out).residual < 1e-13
        # the round trip's volume stage is read at the M_w points of the
        # first coordinate; at the full cube it would take M_w ** 3
        assert points and max(points) <= M_w
        [U] = walked
        # grid_walk returns each component at the shape of its axes: the
        # first is a line along theta_1, and the two that the volume map
        # leaves unmoved are the scalar 0, not lines of zeros
        assert [np.shape(u) for u in U] == [(M_w, 1, 1), (), ()]

    def test_inverse_volume_map_fits_in_two_megabytes(self):
        phi, r, N_out = volume_map(three_angle_embedding())
        tracemalloc.start()
        try:
            invert_map((phi,), r, N_out=N_out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # read on the full (M,)*3 cubes it peaks at about 14 MB
        assert peak < 2e6

    def test_phase_witness_fits_in_one_and_a_half_megabytes(self, monkeypatch):
        # the seeded phase needs no fibering step, so its witness walks a
        # translation alone: U and det are scalars, not (48,)*3 grids
        seen = []
        normalize = pipeline.fibering_normalize

        def recording(phase, r):
            seen.append((phase, r))
            return normalize(phase, r)

        monkeypatch.setattr(pipeline, "fibering_normalize", recording)
        pipeline.normalize_embedding(three_angle_embedding())
        [(phase, r)] = seen
        tracemalloc.start()
        try:
            res = fibering.fibering_normalize(phase, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.iterations == 0 and len(res.stages) == 1
        # with U and det broadcast to the cube it peaks at about 4.5 MB
        assert peak < 1.5e6

    def test_normal_form_witness_fits_in_two_megabytes(self, monkeypatch):
        # in the sheared frame the seeded witness continues the fibering
        # walk by the theta_1-only volume map: every array is an M-line
        seen = []
        witness = pipeline._normal_form_residual

        def recording(*args):
            seen.append(args)
            return witness(*args)

        monkeypatch.setattr(pipeline, "_normal_form_residual", recording)
        rep = pipeline.normalize_embedding(three_angle_embedding())
        [args] = seen
        tracemalloc.start()
        try:
            residual = witness(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residual == rep.phase_residual
        # walked in the theta frame on the (48,)*3 cube it peaks at 12.5 MB
        assert peak < 2e6

    def test_four_angle_embedding_fits_in_forty_mebibytes(self):
        # the coordinates z_2 .. z_4 are one term of degree 1 each, and the
        # complex components are flagged without a copy; padded to the
        # curve's degree N = 11, each coordinate was a dense (23,)^4 block,
        # and the call peaked at 58 MiB
        k = exactness_correct(rich_profile(1e-4))
        g, _ = normal_form_curve(k, 1.0)
        tracemalloc.start()
        try:
            emb = normal_form_embedding(g, 4, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert emb.N == 11
        assert [c.N for c in emb.components] == [11, 1, 1, 1]
        assert peak < 40 * 2 ** 20


class TestComputedMapChop:
    def test_round_off_inverse_volume_map_becomes_one_angle(self, monkeypatch):
        # re-expanded from the full (M,)*3 cube, the theta_1-only inverse
        # volume map spreads round-off over every axis, and the tail chop
        # makes it one angle again
        re_expand = series.series_from_real_grid

        def from_cube(values, N, real=False):
            cube = (max(np.shape(values)),) * np.ndim(values)
            return re_expand(np.broadcast_to(values, cube), N, real=real)

        with monkeypatch.context() as m:
            m.setattr(flows, "series_from_real_grid", from_cube)
            inv, raw = inverse_volume_maps(three_angle_embedding(), m)
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
        # re-expanded at the shape of its axes, as the package does, the
        # chopped map is the same one angle
        phi, r, N_out = volume_map(three_angle_embedding())
        compact = invert_map((phi,), r, N_out=N_out).map
        assert np.count_nonzero(compact.parts[0].coeffs) == 2
        for p, q in zip(compact.parts, inv.parts):
            assert p.dependent_axes() == q.dependent_axes()
            assert coeff_distance(p, q) <= CHOP_FLOOR

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


class TestShearedFrame:
    """`normalize_embedding` splits the density after the shear and
    collapses only the stages between the shear and the unshear; the old
    order, the split before the shear and the collapse of every stage, is
    the oracle, on the seeded n = 3 normal form and on an n = 2 normal
    form behind a volume-changing reparametrization."""

    @staticmethod
    def embedding(case):
        if case == "n3-seeded":
            return three_angle_embedding()
        return TestWitnessGrids.reparametrized()[1]

    @pytest.mark.parametrize("case", ["n3-seeded", "n2-reparam"])
    def test_split_after_the_shear_matches_the_split_before_it(self, case):
        emb = self.embedding(case)
        a = jacobian_density(emb)
        A_inv = 2 * np.eye(emb.n, dtype=int) - shear_matrix(emb.n)
        before = modulus_phase_split(a)
        after = modulus_phase_split(pull_back_linear(a, A_inv))
        assert coeff_distance(
            after.modulus, pull_back_linear(before.modulus, A_inv)) <= 1e-15
        assert coeff_distance(
            after.phase, pull_back_linear(before.phase, A_inv)) <= 1e-15

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=60)
    @given(n=st.integers(2, 4), N=st.integers(0, 5),
           fill=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_the_shear_re_indexes_the_density_exactly(self, n, N, fill, seed):
        # the normal-form witness reads b = a(A^-1 .) for a: the round trip
        # gives a back bit for bit, and b.N <= 2 a.N keeps the VERIFY_GRID
        # read of b alias-free up to a.N = 11
        rng = np.random.default_rng(seed)
        shape = (2 * N + 1,) * n
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        c[rng.uniform(size=shape) >= fill] = 0.0
        a = PeriodicSeries(c)
        A = shear_matrix(n)
        b = pull_back_linear(a, 2 * np.eye(n, dtype=int) - A)
        back = pull_back_linear(b, A)
        assert b.N <= 2 * a.N
        N_max = max(a.N, back.N)
        assert np.array_equal(back.pad_to(N_max).coeffs,
                              a.pad_to(N_max).coeffs)

    @pytest.mark.parametrize("case", ["n3-seeded", "n2-reparam"])
    def test_normalizer_matches_the_collapse_of_every_stage(self, case):
        # the stages are the sheared-frame chain psi, and the normalizer is
        # A^-1 psi(A .): theta + A^-1 f(A theta) for the collapse theta + f
        rep = normalize_embedding(self.embedding(case))
        n, N = rep.normalizer.n, rep.normalizer.N
        A = shear_matrix(n)
        A_inv = 2 * np.eye(n, dtype=int) - A
        psi = compose_maps(rep.stages, N_out=N)
        moved = [pull_back_linear(f, A) for f in psi.parts]
        oracle = TorusMapLift(psi.D, [
            sum((d * f for d, f in zip(row, moved) if d),
                PeriodicSeries.zeros(n, 0)).truncate(N) for row in A_inv])
        assert np.array_equal(rep.normalizer.D, oracle.D)
        for p, q in zip(rep.normalizer.parts, oracle.parts):
            assert p.N == q.N and p.real and q.real
            assert coeff_distance(p, q) <= 1e-15
        # off the grid, the normalizer's displacement is A^-1 (psi(A theta)
        # - A theta), with A applied to the points, not to coefficients
        pts = np.random.default_rng(86).uniform(0.0, 2.0 * np.pi,
                                                size=(200, n))
        phi = pts @ A.T
        want = (at_points(MapChain(rep.stages), phi) - phi) @ A_inv.T
        got = at_points(MapChain([rep.normalizer]), pts) - pts
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_seeded_split_reads_lines_of_its_grid(self, monkeypatch):
        # the seeded n = 3 density is a function of theta_1 + theta_2 +
        # theta_3, and after the shear one of theta_1 alone: every value the
        # split reads or re-expands is a line of M points, not the (M,)*3 cube
        sizes = []
        sample = PeriodicSeries.eval_real_grid
        re_expand = pipeline.series_from_real_grid
        split = pipeline.modulus_phase_split

        def reading(self, M):
            vals = sample(self, M)
            sizes.append((M, vals.size))
            return vals

        def expanding(values, N, real=False):
            sizes.append((max(np.shape(values)), np.size(values)))
            return re_expand(values, N, real=real)

        def recorded(a):
            with monkeypatch.context() as m:
                m.setattr(PeriodicSeries, "eval_real_grid", reading)
                m.setattr(pipeline, "series_from_real_grid", expanding)
                return split(a)

        monkeypatch.setattr(pipeline, "modulus_phase_split", recorded)
        normalize_embedding(three_angle_embedding())
        assert len(sizes) == 5   # a, then b and h read and re-expanded
        assert all(size <= M for M, size in sizes)


class TestModulusPhaseSplit:
    def test_zero(self):
        split = modulus_phase_split(PeriodicSeries.zeros(2, 2))
        assert abs_max_coeff(split.modulus) < 1e-15
        assert abs_max_coeff(split.phase) < 1e-15

    def test_real_constant(self):
        eps = 1e-3
        a = PeriodicSeries.from_terms(2, 1, {(0, 0): eps})
        split = modulus_phase_split(a)
        assert abs(split.modulus.mean() - eps) < 1e-14
        assert abs_max_coeff(split.phase) < 1e-14

    def test_imaginary_constant(self):
        eps = 1e-3
        a = PeriodicSeries.from_terms(2, 1, {(0, 0): 1j * eps})
        split = modulus_phase_split(a)
        assert abs(split.phase.mean() - np.arctan(eps)) < 1e-14
        assert abs(split.modulus.mean() - (np.hypot(1, eps) - 1.0)) < 1e-14

    def test_reconstruction(self):
        rng = np.random.default_rng(82)
        a = 3e-4 * random_series(rng, 2, 4, real=False)
        split = modulus_phase_split(a)
        assert split.residual < 1e-10
        assert split.modulus.real and split.phase.real

    def test_branch_guard(self):
        a = PeriodicSeries.from_terms(2, 1, {(0, 0): 0.7})
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
        expected = 2.0 * np.pi * abs(float(mpmath.besselj(1, delta)))
        assert err.value.value == pytest.approx(expected, rel=1e-9)

    def test_pure_sine_correction_collapses(self):
        # closure forces the first harmonic of an exact profile to second
        # order, so correcting a pure sine removes it almost entirely
        delta = 1e-3
        k = exactness_correct(delta * sin_series(1, 2, 0))
        assert abs_max_coeff(k) < 1e-12
        assert normal_form_curve(k, 1.0)[1] < 1e-12

    def test_flat_profile_is_already_exact(self):
        # the invariant of the standard torus; its degree 0 is below the
        # degree 1 of the correction
        k = exactness_correct(PeriodicSeries.zeros(1, 0))
        assert abs_max_coeff(k) == 0.0
        assert normal_form_curve(k, 1.0)[1] < 1e-12

    def test_rich_profile_correction_keeps_higher_harmonics(self):
        delta = 1e-3
        seed = rich_profile(delta)
        k = exactness_correct(seed)
        g, defect = normal_form_curve(k, 1.0)
        assert defect < 1e-12
        assert gauss_degree(g) == 1
        assert abs(k.coeff((2,)) - seed.coeff((2,))) < 2 * delta ** 2
        assert abs(k.coeff((1,))) < 2 * delta ** 2

    def test_gate_reads_the_returned_correction(self, monkeypatch):
        # one Newton step closes this profile's integral to round-off, so
        # the gate must read the closure after that step, not before it
        monkeypatch.setattr(pipeline, "CLOSURE_MAX_ITER", 1)
        seed = PeriodicSeries.from_terms(
            1, 3, {(2,): -5e-4j, (-2,): 5e-4j, (3,): 2e-4, (-3,): 2e-4})
        k = exactness_correct(seed)
        defect = normal_form_curve(k, 1.0)[1]
        assert defect <= 2.0 * np.pi * pipeline.CLOSURE_TOL

    def test_velocity_is_re_expanded_once(self, monkeypatch):
        # the (exact) gate and the curve read the same re-expansion
        re_expand = pipeline.series_from_real_grid
        calls = []

        def counting(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return re_expand(*args, **kwargs)

        monkeypatch.setattr(pipeline, "series_from_real_grid", counting)
        g, defect = normal_form_curve(exactness_correct(rich_profile()), 1.0)
        assert len(calls) == 1
        assert defect < 1e-12 and gauss_degree(g) == 1


class TestNormalFormEmbedding:
    def test_flat_profile_gives_identity(self):
        g, _ = normal_form_curve(PeriodicSeries.zeros(1, 2), 1.0)
        emb = normal_form_embedding(g, 2, 0.5)
        ident = identity_embedding(2)
        for c, i in zip(emb.components, ident.components):
            assert coeff_distance(c, i) < 1e-13

    def test_needs_two_angles(self):
        g, _ = normal_form_curve(PeriodicSeries.zeros(1, 2), 1.0)
        with pytest.raises(ValueError):
            normal_form_embedding(g, 1, 0.5)

    @pytest.mark.parametrize("n", [2, 3])
    def test_model_check_refuses_a_perturbed_determinant(self, n, monkeypatch):
        # the check reads det D psi on the line of s = sum theta: a
        # determinant moved by 1e-6 everywhere must not pass it
        g, _ = normal_form_curve(exactness_correct(rich_profile(1e-4)), 1.0)
        normal_form_embedding(g, n, 0.5)
        monkeypatch.setattr(pipeline, "z_derivative",
                            lambda c, l: z_derivative(c, l) + 1e-6)
        with pytest.raises(NumericalFailure) as err:
            normal_form_embedding(g, n, 0.5)
        assert err.value.bound == "(model)"


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
        emb_hat = normal_form_embedding(g_hat, 2, 0.5)
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

    def test_refuses_complex_reparametrization(self):
        emb, _ = seeded_embedding(1e-3)
        lift = TorusMapLift(np.eye(2, dtype=int),
                            [1e-5j * sin_series(2, 3, 1),
                             PeriodicSeries.zeros(2, 3)])
        with pytest.raises(ValueError, match="real"):
            precompose_torus_map(emb, lift)

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
        assert coeff_distance(a1.pad_to(a2.N), a2.pad_to(a1.N)) < 1e-12
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

    def test_refuses_a_phase_witness_above_tolerance(self, monkeypatch):
        emb, _ = seeded_embedding(1e-3)
        normalize = pipeline.fibering_normalize

        def off(phase, r0):
            return dataclasses.replace(normalize(phase, r0), residual=1e-6)

        monkeypatch.setattr(pipeline, "fibering_normalize", off)
        with pytest.raises(NumericalFailure, match="phase normalization"):
            normalize_embedding(emb)

    def test_ambient_translation_is_standard(self):
        # z_1 + 0.4 is the standard torus moved by an ambient translation,
        # a unimodular map, so its invariants are those of the standard torus
        comps = (PeriodicSeries.from_terms(2, 1, {(1, 0): 1.0, (0, 0): 0.4}),
                 PeriodicSeries.from_terms(2, 1, {(0, 1): 1.0}))
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
        assert len(normalize_embedding(reparam).stages) > 3
        assert realize_form(density, 0.5).converged
        # the stages after the first non-affine one still see scattered points
        assert seen
        assert not [p.shape for p in seen if is_full_grid(p)]

    def test_each_witness_walks_its_chain_once(self, monkeypatch):
        _, emb = self.reparametrized()
        walks, continued = [], []
        walk, extend = flows.grid_walk, pipeline.continue_walk

        def counting(stages, M, shift, det):
            out = walk(stages, M, shift, det)
            walks.append((M, stages, out))
            return out

        def continuing(stages, M, *finished):
            continued.append((stages, M, finished))
            return extend(stages, M, *finished)

        for mod in (flows, fibering):
            monkeypatch.setattr(mod, "grid_walk", counting)
        monkeypatch.setattr(pipeline, "continue_walk", continuing)
        rep = normalize_embedding(emb)
        assert len(rep.stages) > 3
        # the round trip of invert_map, then the fibering witness, which
        # reads image and determinant from one walk of its stages: every
        # stage but the last, the inverse volume map
        assert len(walks) == 2
        assert walks[1][0] == fibering.VERIFY_GRID
        assert walks[1][1] == rep.stages[:-1]
        # the normal-form witness continues that very walk by the inverse
        # volume map alone, and walks no fibering stage again
        [(stages, M, finished)] = continued
        assert M == fibering.VERIFY_GRID
        assert len(stages) == 1 and stages[0] is rep.stages[-1]
        assert len(finished) == 2
        assert all(x is y for x, y in zip(finished, walks[1][2]))

    def test_density_is_read_on_the_moved_grid(self, monkeypatch):
        for case in ("n2-reparam", "n3-seeded"):
            emb = TestShearedFrame.embedding(case)
            a = jacobian_density(emb)
            seen = []
            evaluate = series.eval_many

            def recording(series_list, pts):
                seen.extend(s.coeffs for s in series_list)
                return evaluate(series_list, pts)

            with monkeypatch.context() as m:
                for mod in (series, flows, pipeline):
                    if hasattr(mod, "eval_many"):
                        m.setattr(mod, "eval_many", recording)
                rep = normalize_embedding(emb)
            assert len(rep.stages) > (3 if emb.n == 2 else 1) and seen
            assert not [c for c in seen if c.shape == a.coeffs.shape
                        and np.array_equal(c, a.coeffs)]

            # the defining identity in the theta frame, every value by the
            # direct sum, on the full VERIFY_GRID^n grid: the normalizer is
            # A^-1 psi(A .), psi the stages, with A applied to the points
            pts = theta_grid(emb.n, fibering.VERIFY_GRID)
            A = shear_matrix(emb.n)
            psi, det = at_points(MapChain(rep.stages), pts @ A.T, det=True)
            moved = psi @ (2 * np.eye(emb.n, dtype=int) - A).T
            lhs = (1.0 + series.eval_many([a], moved)[0]) \
                * np.exp(1j * moved.sum(axis=1)) * det
            s = pts.sum(axis=1)
            rhs = rep.rho0 * np.exp(
                1j * (s + series.eval_many([rep.k], s[:, None])[0]))
            assert abs(np.max(np.abs(lhs - rhs))
                       - rep.phase_residual) < 1e-14, case
