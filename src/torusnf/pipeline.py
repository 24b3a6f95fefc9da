"""End-to-end extraction of the unimodular invariant pair of a torus embedding.

The pipeline factors the toroidal volume form of a near-identity embedding
into modulus and phase, straightens the modulus with the triangular volume
normalization, straightens the phase with the volume-preserving iteration,
and reads off the complete invariant: a positive amplitude rho0 and a
one-variable zero-mean phase profile k, unique up to a half turn.

Every stage is gated by its own admissibility check and the staged residuals
are verified on the real torus grid, which is where the invariants live; the
strip-radius bookkeeping of the worst-case analysis is replaced by those
a-posteriori checks (the data here are trigonometric polynomials with
recorded truncation mass, evaluable on any strip).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .curves import CurveImmersion, embedding_check, gauss_degree
from .errors import NumericalFailure, above, at_most
from .fibering import STOP_TOL, VERIFY_GRID, FiberingPhase, fibering_normalize
from .flows import (
    MapChain,
    TorusMapLift,
    _grid_index,
    grid_walk,
    invert_map,
    taylor_on_grid,
)
from .moser import VolumeDensity, moser_normalize
from .realization import AnnulusFunction
from .series import (
    CHOP_FLOOR,
    PeriodicSeries,
    grid_size,
    pull_back_linear,
    series_from_real_grid,
    seven_smooth,
    stacked_det,
    unimodular_inverse,
)

# Every stage residual of the normalization, the closure defect of a normal
# form and the normal-form embedding check must land at or below STAGE_TOL.
STAGE_TOL = 1e-8
FIB_DEGREE = 16    # the transported phase is truncated to this degree
CLOSURE_MAX_ITER = 30  # damped Newton steps of the closure correction
CLOSURE_TOL = 1e-13    # closure integral at which the correction stops
# An embedding whose Jacobian determinant reaches MIN_JACOBIAN in modulus on
# the torus is refused as not totally real.
MIN_JACOBIAN = 1e-12


@dataclasses.dataclass(frozen=True)
class TorusEmbedding:
    """Holomorphic near-identity map of the annulus carrying the torus."""

    components: tuple
    r0: float

    def __post_init__(self):
        comps = tuple(AnnulusFunction(c) for c in self.components)
        object.__setattr__(self, "components", comps)
        if not 0.0 < self.r0 < 1.0:
            raise ValueError(f"r0 must lie in (0, 1), got {self.r0}")
        if any(c.n != len(comps) for c in comps):
            raise ValueError("component dimensions are inconsistent")

    @property
    def n(self):
        return len(self.components)

    @property
    def N(self):
        return max(c.N for c in self.components)


def _identity_component(n, N, axis):
    k = [0] * n
    k[axis] = 1
    return PeriodicSeries.from_terms(n, max(N, 1), {tuple(k): 1.0})


def jacobian_density(emb):
    """det of the embedding Jacobian minus one, as Laurent data.

    The derivative entries are exact coefficient operations of degree at
    most N + 1 per axis, and a row of constant entries has degree 0.  So the
    determinant, a sum of products of one entry per row, is a Laurent
    polynomial of degree at most N_exact = k (N + 1) per axis, k the number
    of rows with a varying entry.  It is sampled on
    M = seven_smooth(2 N_exact + 1) points per axis, the alias-free size
    rounded up by the helper `grid_size` uses, which reproduces every
    coefficient up to round-off while keeping the FFTs off prime sizes.  The
    entries go to `stacked_det` one by one, a constant one as a scalar with
    no transform, and the re-expansion is chopped at CHOP_FLOOR with the
    dropped mass recorded.

    The non-vanishing check is settled on the samples when every row varies,
    as M is then the grid of k = n, M_check = seven_smooth(2 n (N + 1) + 1).
    Otherwise it is first certified on them: every point of the torus lies
    within pi/M per axis of a sample, so |1 + a| is at least the sample
    minimum less (pi/M) sum_l sum_k |k_l| |a_k| everywhere.  Only when that
    bound is not above MIN_JACOBIAN is 1 + a read on the M_check grid, as a
    coarser grid can miss a zero; a certificate alone would refuse
    determinants that vanish nowhere.
    """
    n = emb.n
    rows = [[c.z_derivative(l).series for l in range(n)]
            for c in emb.components]
    varying = sum(any(d.dependent_axes() for d in row) for row in rows)
    N_exact = varying * (emb.N + 1)
    M = seven_smooth(2 * N_exact + 1)
    # at the shape of the axes some entry varies on; a scalar if none does
    det = stacked_det([[d.eval_real_grid(M) if d.dependent_axes()
                        else d.mean() for d in row] for row in rows])
    # a scalar det is re-expanded as the (1,)*n array of its value
    a = series_from_real_grid(np.reshape(det - 1.0, np.shape(det) or (1,) * n),
                              N_exact)
    M_check = seven_smooth(2 * n * (emb.N + 1) + 1)
    low = float(np.min(np.abs(det)))
    if M < M_check and low - np.pi / M * _slope_mass(a) <= MIN_JACOBIAN:
        low = float(np.min(np.abs(1.0 + a.eval_real_grid(M_check))))
    above("(jacobian)", low, MIN_JACOBIAN)
    return AnnulusFunction(a.chop(CHOP_FLOOR))


def _slope_mass(h):
    """sum_l sum_k |k_l| |c_k|: a bound on the sum over the axes of the sup
    of |d h / d theta_l| on the real torus."""
    k = np.abs(h.k_range())
    weight = sum(k.reshape([-1 if j == l else 1 for j in range(h.n)])
                 for l in range(h.n))
    return float(np.sum(weight * np.abs(h.coeffs)))


@dataclasses.dataclass(frozen=True)
class PolarSplit:
    modulus: PeriodicSeries   # b with |1 + a| = 1 + b on the real torus
    phase: PeriodicSeries     # h with arg(1 + a) = h on the real torus
    residual: float           # sup |(1+b) e^{ih} - (1+a)| on the grid


def modulus_phase_split(a):
    """Factor 1 + a into positive modulus and real phase on the real torus.

    Requires |a| <= 1/2 on the grid so the principal branch is unambiguous;
    both outputs extend holomorphically off the real torus and are flagged
    real.
    """
    a = AnnulusFunction(a)
    N_out = a.N + 8
    M = grid_size(N_out)
    vals = a.series.eval_real_grid(M)
    at_most("(branch)", float(np.max(np.abs(vals))), 0.5)
    w = 1.0 + vals
    b = series_from_real_grid(np.abs(w) - 1.0, N_out, real=True)
    h = series_from_real_grid(np.angle(w), N_out, real=True)
    recon = (1.0 + b.eval_real_grid(M)) * np.exp(1j * h.eval_real_grid(M))
    residual = float(np.max(np.abs(recon - w)))
    return PolarSplit(b.chop(CHOP_FLOOR), h.chop(CHOP_FLOOR), residual)


def shear_lift(n):
    """The unimodular integer lift sending theta_1 to theta_1 + ... + theta_n."""
    A = np.eye(n, dtype=int)
    A[0, :] = 1
    return TorusMapLift(A, [PeriodicSeries.zeros(n, 0) for _ in range(n)])


@dataclasses.dataclass
class InvariantReport:
    """The complete unimodular invariant with its verification residuals.

    Normal-form gauge: the first component of the normal-form embedding
    carries an absorbed factor i, so the round curve maps to the identity
    embedding.
    """

    rho0: float
    k: PeriodicSeries              # one-dimensional, zero mean
    normalizer: TorusMapLift       # collapsed normalizing lift
    stages: tuple                  # the same map, lift by lift, first-applied first
    g: CurveImmersion              # normal-form generating curve
    phase_residual: float
    volume_residual: float
    exactness_defect: float        # |integral of e^{i(t + k(t))}| over a turn
    moser_residual: float
    split_residual: float
    complex_constant: complex      # 1 + mean of the Jacobian density
    total_volume: float            # (2 pi)^n rho0
    fibering_trace: list


def normalize_embedding(emb):
    """Run the full normalization and assemble the invariant report.

    Stage order: Jacobian density; the integer shear that concentrates the
    phase on the first angle, applied to the density as the exact re-index
    `pull_back_linear`; modulus/phase factorization in that sheared frame,
    where the density of a seeded normal form depends on theta_1 alone;
    volume normalization of the modulus, phase transport through the
    inverse volume map, and the volume-preserving phase iteration.  Each
    stage must land under STAGE_TOL before the next runs, the phase
    iteration's witness included.  The normalizer is the sheared-frame
    stages, phase iteration then inverse volume map, collapsed by
    `MapChain.to_single` and conjugated back by the shear on the
    coefficients (`_unsheared`).  Both residual witnesses, of the phase
    iteration and of the normal form, sample VERIFY_GRID points per axis
    and take the displacement U and the determinant from one `grid_walk` of
    their stages, and read the density or phase at the displaced grid by
    the grid kernel.  Of the normal-form stages, the shear and the closing
    unshear are affine and read nothing.
    Raises NumericalFailure when the phase iteration exhausts its schedule.
    """
    n = emb.n
    if n < 2:
        raise ValueError("the normal form machinery needs n >= 2")
    a = jacobian_density(emb)
    r = emb.r0 / 2.0
    shear = shear_lift(n)
    A_inv = unimodular_inverse(shear.D)
    split = modulus_phase_split(
        AnnulusFunction(pull_back_linear(a.series, A_inv)))
    at_most("(split)", split.residual, STAGE_TOL)
    b2, h2 = split.modulus, split.phase

    moser = moser_normalize(VolumeDensity(b2), N_out=b2.N + 4)
    at_most("(volume)", moser.residual, STAGE_TOL)
    rho0 = 1.0 + moser.mean
    inv1 = invert_map((moser.map,), r, N_out=moser.map.N + 4)
    at_most("(volume-inverse)", inv1.residual, STAGE_TOL)

    carried = h2 - moser.map.parts[0]
    h3 = inv1.map.pullback(carried, N_out=carried.N + 4)
    h3 = h3.symmetrized().chop(CHOP_FLOOR)
    if h3.N > FIB_DEGREE:
        h3 = h3.truncate(FIB_DEGREE)

    fib = fibering_normalize(FiberingPhase(h3), r)
    try:
        at_most("(exhausted)", fib.trace[-1].defect, STOP_TOL)
        at_most("(phase)", fib.residual, STAGE_TOL)
    except NumericalFailure as err:
        err.trace = fib.trace
        raise
    k = fib.k

    g, exactness_defect = normal_form_curve(k, rho0)
    unshear = TorusMapLift(A_inv, shear.parts)
    stages = (shear, *fib.stages, inv1.map, unshear)
    # a phase step adds flow stages, which need h3.N + 6 harmonics
    N_norm = max(h3.N + 6 if fib.iterations else 0, moser.map.N + 4, 12)
    normalizer = _unsheared(MapChain((*fib.stages, inv1.map)).to_single(N_norm),
                            shear.D, N_norm)

    phase_residual = _normal_form_residual(a, stages, k, rho0, n)
    return InvariantReport(
        rho0=rho0, k=k, normalizer=normalizer, stages=stages, g=g,
        phase_residual=phase_residual, volume_residual=fib.det_residual,
        exactness_defect=exactness_defect, moser_residual=moser.residual,
        split_residual=split.residual,
        complex_constant=1.0 + a.series.mean(),
        total_volume=(2.0 * np.pi) ** n * rho0,
        fibering_trace=fib.trace)


def _unsheared(lift, A, N_out):
    """The lift theta -> A^-1 lift(A theta) for a unimodular integer A, on
    the coefficients: (A^-1 D A) theta + A^-1 f(A theta), each f_l(A theta)
    the exact re-index `pull_back_linear` and each part a sum of them with
    the integer entries of A^-1.  Each part is truncated at N_out, which
    adds the mass that the re-index moved beyond N_out to its trunc_mass."""
    A_inv = unimodular_inverse(A)
    moved = [pull_back_linear(p, A) for p in lift.parts]
    sums = [[d * f for d, f in zip(row, moved) if d] for row in A_inv]
    return TorusMapLift(A_inv @ lift.D @ A,
                        [sum(terms[1:], terms[0]).truncate(N_out)
                         for terms in sums])


def _normal_form_residual(a, stages, k, rho0, n):
    """sup over the real grid of the defining identity of the normal form:

    (1 + a(pi(Phi theta))) e^{i sum Phi_j} det D Phi
        = rho0 e^{i (sum theta_j + k(sum theta_j))}.

    The shear and the unshear cancel, so Phi theta = theta + U(theta) and
    the common factor e^{i sum theta_j} drops out: the witness compares
    (1 + a(theta + U)) e^{i sum U_j} det D Phi with rho0 e^{i k(sum theta_j)},
    a read by `taylor_on_grid` at (D, U).  The right side is exponentiated
    on the M-point line of k and only then spread over the grid.

    Every product is taken in place, in the same order as the formula, on
    two (M,)*n grids: the Taylor read of a, when it is a fresh grid of its
    own, and one buffer for e^{i sum U_j} and then the right side.
    """
    M = VERIFY_GRID
    cube = (M,) * n
    D, U, det = grid_walk(stages, M, 0.0, 1.0)
    lhs = taylor_on_grid([a.series], D, U, M)[0]
    if not (lhs.flags.writeable and lhs.shape == cube):
        lhs = np.array(np.broadcast_to(lhs, cube))   # a view, or a line
    lhs += 1.0
    buf = np.add(U[0], U[1], out=np.empty(cube, dtype=complex))
    for u in U[2:]:
        buf += u
    buf *= 1j
    lhs *= np.exp(buf, out=buf)
    lhs *= det
    line = np.broadcast_to(rho0 * np.exp(1j * k.eval_real_grid(M)), (M,))
    lhs -= np.take(line, _grid_index(np.ones((1, n), dtype=int), M), out=buf,
                   mode="wrap")   # in range: "raise" would buffer the output
    return float(np.max(np.abs(lhs, out=buf.real)))


def _on_grid_sums(line, n):
    """Values of a function of one angle, given on its M-point grid, at the
    sums theta_1 + ... + theta_n over the M^n-point real grid, as an (M,)*n
    grid: the line values at the index (m_1 + ... + m_n) mod M."""
    return np.take(line, _grid_index(np.ones((1, n), dtype=int), len(line)))


def exactness_correct(k):
    """Adjust a zero-mean profile so e^{i(t + k(t))} integrates to zero.

    Adds a small first-harmonic correction alpha cos t + beta sin t and
    solves the two real closure equations by a damped Newton iteration;
    profiles produced by the normalization pipeline already satisfy closure,
    so this is only needed to seed synthetic normal forms.
    """
    if k.n != 1:
        raise ValueError("expected a one-dimensional profile")
    M = max(16 * (k.N + 1), 64)
    t = 2.0 * np.pi * np.arange(M) / M
    kv = k.eval_real_grid(M).real
    ct, st = np.cos(t), np.sin(t)

    def closure(alpha, beta):
        w = np.exp(1j * (t + kv + alpha * ct + beta * st))
        return np.mean(w), w

    alpha = beta = 0.0
    c0, w = closure(alpha, beta)
    for _ in range(CLOSURE_MAX_ITER):
        if abs(c0) <= CLOSURE_TOL:
            break
        da = np.mean(1j * ct * w)
        db = np.mean(1j * st * w)
        J = np.array([[da.real, db.real], [da.imag, db.imag]])
        step = np.linalg.solve(J, np.array([c0.real, c0.imag]))
        alpha -= step[0]
        beta -= step[1]
        c0, w = closure(alpha, beta)
    at_most("(closure)", abs(c0), CLOSURE_TOL)
    corr = PeriodicSeries.from_terms(
        1, 1, {(1,): 0.5 * (alpha - 1j * beta),
               (-1,): 0.5 * (alpha + 1j * beta)})
    return (k + corr).symmetrized()


def _profile_velocity(k, rho0):
    N_out = max(2 * k.N + 8, 24)
    M = grid_size(N_out)
    t = 2.0 * np.pi * np.arange(M) / M
    kv = k.eval_real_grid(M).real
    slope = 1.0 + k.derivative(0).eval_real_grid(M).real
    above("(slope)", float(np.min(slope)), 0.0)
    return series_from_real_grid(rho0 * np.exp(1j * (t + kv)), N_out)


def closure_defect(k, rho0):
    """|integral over a turn of rho0 e^{i(t + k(t))}| = 2 pi |velocity mean|."""
    return 2.0 * np.pi * abs(_profile_velocity(k, rho0).mean())


def normal_form_curve(k, rho0):
    """The generating curve with velocity rho0 e^{i(t + k(t))} (zero mean).

    Refuses when the closure integral of the velocity over a turn is above
    2 pi STAGE_TOL (reported as 2 pi times the mean defect), or when the profile
    fails 1 + k' > 0, which would make the normal form critical.
    """
    if k.n != 1:
        raise ValueError("expected a one-dimensional profile")
    if abs(k.mean()) > 1e-10:
        raise ValueError(f"profile must have zero mean, got {k.mean():.3e}")
    if rho0 <= 0.0:
        raise ValueError("the amplitude must be positive")
    defect = closure_defect(k, rho0)
    at_most("(exact)", defect, 2.0 * np.pi * STAGE_TOL)
    return curve_from_profile(k, rho0), defect


def curve_from_profile(k, rho0):
    """A closed non-critical curve from a possibly non-exact profile.

    Subtracts the velocity mean before integrating, so any small profile
    yields a valid generating curve; its true invariant profile is then the
    nearby exact one the normalization extracts.  This is how a synthetic
    profile is \"closure-corrected through the pipeline\": build the curve,
    embed, normalize, and read the corrected profile off the report.  The
    curve is chopped at CHOP_FLOOR, so that its round-off coefficients do not
    raise the degree of the embedding built from it.
    """
    vel = _profile_velocity(k, rho0)
    vel = vel - vel.mean()
    curve = CurveImmersion(vel.antiderivative(0).chop(CHOP_FLOOR))
    at_most("(turning)", abs(gauss_degree(curve) - 1), 0)
    return curve


def normal_form_embedding(g, n, r0):
    """The model embedding built from a generating curve.

    First component i g(z_1 ... z_n) / (z_2 ... z_n), remaining components
    the coordinates themselves; the absorbed factor i makes the round curve
    correspond to the identity.  Verifies on the uniform grid of
    4 (N + 1) points per axis, N the embedding degree, that the Jacobian
    determinant matches the curve velocity data to STAGE_TOL; both sides
    are read there by FFT, and the target e^{-i s} g'(s), a function of
    s = sum theta, is formed on the M-point line and spread by
    `_on_grid_sums`.
    """
    if n < 2:
        raise ValueError("the normal form embedding needs n >= 2")
    at_most("(embed)", abs(abs(embedding_check(g).turning_number) - 1), 0)
    line = g.series
    N_emb = line.N + 1
    terms = {}
    for m in range(-line.N, line.N + 1):
        gamma = line.coeff((m,))
        if gamma == 0.0:
            continue
        idx = tuple([m] + [m - 1] * (n - 1))
        terms[idx] = 1j * gamma
    first = AnnulusFunction.from_terms(n, N_emb, terms)
    comps = [first] + [AnnulusFunction(_identity_component(n, N_emb, j))
                       for j in range(1, n)]
    emb = TorusEmbedding(tuple(comps), r0)

    # det D psi(e^{i theta}) must equal e^{-i s} d/ds g(e^{i s}) at s = sum theta
    M = 4 * (N_emb + 1)
    det = first.z_derivative(0).series.eval_real_grid(M)
    t = 2.0 * np.pi * np.arange(M) / M
    target = _on_grid_sums(
        np.exp(-1j * t) * line.derivative(0).eval_real_grid(M), n)
    at_most("(model)", float(np.max(np.abs(det - target))), STAGE_TOL)
    return emb


# ----------------------------------------------------------------------
# reparametrization


def precompose_torus_map(emb, lift):
    """Reparametrize the embedding by a real near-identity torus self-map.

    The image submanifold is unchanged, so the invariant pair must be
    reproduced; this is the working form of the uniqueness statement.
    """
    if not lift.real:
        raise ValueError("reparametrizations must be real torus maps")
    comps = [AnnulusFunction(lift.pullback(
        c.series, N_out=c.N + lift.N + 4).chop(CHOP_FLOOR))
        for c in emb.components]
    return TorusEmbedding(tuple(comps), emb.r0)
