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
from .errors import HypothesisViolation, NumericalFailure
from .fibering import VERIFY_GRID, FiberingPhase, fibering_normalize
from .flows import (
    MapChain,
    TorusMapLift,
    grid_image,
    grid_jacobian_det,
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
    theta_grid,
    translate,
)

# Every stage residual of the normalization, the closure defect of a normal
# form and the normal-form embedding check must land at or below STAGE_TOL.
STAGE_TOL = 1e-8
FIB_DEGREE = 16    # the transported phase is truncated to this degree
CLOSURE_MAX_ITER = 30  # damped Newton steps of the closure correction
CLOSURE_TOL = 1e-13    # closure integral at which the correction stops


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


def identity_embedding(n, N=1, r0=0.5):
    comps = [AnnulusFunction(_identity_component(n, N, j)) for j in range(n)]
    return TorusEmbedding(tuple(comps), r0)


def jacobian_density(emb):
    """det of the embedding Jacobian minus one, as Laurent data.

    The derivative entries are exact coefficient operations, so the
    determinant is a Laurent polynomial of degree at most N_exact = n(N+1)
    per axis.  It is sampled on M = seven_smooth(2 N_exact + 1) points per
    axis, the alias-free size rounded up by the helper `grid_size` uses, which
    reproduces every coefficient up to round-off while keeping the FFTs off
    prime sizes.  The determinant stack goes through `stacked_det`, and the
    re-expansion is chopped at CHOP_FLOOR with the dropped mass recorded.
    """
    n = emb.n
    N_exact = n * (emb.N + 1)
    M = seven_smooth(2 * N_exact + 1)
    mat = np.empty((M ** n, n, n), dtype=complex)
    for j in range(n):
        for l in range(n):
            d = emb.components[j].z_derivative(l)
            mat[:, j, l] = d.series.eval_real_grid(M).reshape(-1)
    det = stacked_det(mat)
    if float(np.min(np.abs(det))) <= 1e-12:
        raise NumericalFailure(
            "Jacobian determinant vanishes on the torus grid: not totally real")
    a = series_from_real_grid((det - 1.0).reshape((M,) * n), N_exact)
    return AnnulusFunction(a.chop(CHOP_FLOOR))


@dataclasses.dataclass(frozen=True)
class PolarSplit:
    modulus: PeriodicSeries   # b with |1 + a| = 1 + b on the real torus
    phase: PeriodicSeries     # h with arg(1 + a) = h on the real torus
    residual: float           # sup |(1+b) e^{ih} - (1+a)| on the grid


def modulus_phase_split(a):
    """Factor 1 + a into positive modulus and real phase on the real torus.

    Requires |a| < 1/2 on the grid so the principal branch is unambiguous;
    both outputs extend holomorphically off the real torus and are flagged
    real.
    """
    a = AnnulusFunction(a)
    n = a.n
    N_out = a.N + 8
    M = grid_size(N_out)
    vals = a.series.eval_real_grid(M)
    worst = float(np.max(np.abs(vals)))
    if worst >= 0.5:
        raise HypothesisViolation(
            "(branch)", f"|a| reaches {worst:.3f} >= 1/2 on the torus grid")
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
    chain: MapChain                # the same map, stage by stage
    g: CurveImmersion              # normal-form generating curve
    phase_residual: float
    volume_residual: float
    exactness_defect: float        # |integral of e^{i(t + k(t))}| over a turn
    moser_residual: float
    split_residual: float
    complex_constant: complex      # 1 + mean of the Jacobian density
    total_volume: float            # (2 pi)^n rho0
    density_norm: float
    fibering_trace: list


def normalize_embedding(emb):
    """Run the full normalization and assemble the invariant report.

    Stage order: Jacobian density, modulus/phase factorization, the integer
    shear that concentrates the phase on the first angle, volume
    normalization of the modulus, phase transport through the inverse volume
    map, and the volume-preserving phase iteration.  Each stage must land
    under STAGE_TOL before the next runs.  Both residual witnesses, of the
    phase iteration and of the normal form, sample VERIFY_GRID points per
    axis.  The normal-form witness reads the shear and the first stage with
    a non-constant part (a fibering stage, or the inverse volume map) on
    that grid by FFT, the later stages at the scattered image points by
    `eval_many`, and the density on the moved grid by the grid kernel.
    Raises NumericalFailure when the phase iteration exhausts its schedule.
    """
    n = emb.n
    if n < 2:
        raise ValueError("the normal form machinery needs n >= 2")
    a = jacobian_density(emb)
    r = emb.r0 / 2.0
    density_norm = a.norm(r)
    split = modulus_phase_split(a)
    _stage_gate("modulus/phase factorization", split.residual)

    shear = shear_lift(n)
    A_inv = np.linalg.inv(shear.D).astype(int)
    b2 = pull_back_linear(split.modulus, A_inv)
    h2 = pull_back_linear(split.phase, A_inv)

    moser = moser_normalize(VolumeDensity(b2), r, N_out=b2.N + 4)
    _stage_gate("volume normalization", moser.residual)
    rho0 = 1.0 + moser.mean
    inv1 = invert_map(moser.map, r, N_out=moser.map.N + 4)
    _stage_gate("volume map inversion", inv1.residual)

    h2s = h2.pad_to(max(h2.N, moser.map.N))
    carried = h2s - moser.map.parts[0].pad_to(h2s.N)
    h3 = inv1.map.pullback(carried, N_out=carried.N + 4)
    h3 = h3.symmetrized().chop(CHOP_FLOOR)
    if h3.N > FIB_DEGREE:
        h3 = h3.truncate(FIB_DEGREE)

    fib = fibering_normalize(FiberingPhase(h3), r)
    if not fib.converged:
        err = NumericalFailure(
            "phase normalization exhausted its schedule; trace attached")
        err.trace = fib.trace
        raise err
    k = fib.k

    g, exactness_defect = normal_form_curve(k, rho0)
    unshear = TorusMapLift(A_inv, shear.parts)
    stages = [shear] + list(fib.chain.stages) + [inv1.map, unshear]
    chain = MapChain(stages)
    # a phase step adds flow stages, which need h3.N + 6 harmonics
    N_norm = max(h3.N + 6 if fib.iterations else 0, moser.map.N + 4, 12)
    normalizer = chain.to_single(N_norm)

    phase_residual = _normal_form_residual(a, chain, k, rho0, n)
    return InvariantReport(
        rho0=rho0, k=k, normalizer=normalizer, chain=chain, g=g,
        phase_residual=phase_residual, volume_residual=fib.det_residual,
        exactness_defect=exactness_defect, moser_residual=moser.residual,
        split_residual=split.residual,
        complex_constant=1.0 + a.series.mean(),
        total_volume=(2.0 * np.pi) ** n * rho0,
        density_norm=density_norm,
        fibering_trace=fib.trace)


def _stage_gate(stage, residual):
    if residual > STAGE_TOL:
        raise NumericalFailure(
            f"{stage} residual {residual:.3e} above {STAGE_TOL:.1e}")


def _normal_form_residual(a, chain, k, rho0, n):
    """sup over the real grid of the defining identity of the normal form:

    (1 + a(pi(Phi theta))) e^{i sum Phi_j} det D Phi
        = rho0 e^{i (sum theta_j + k(sum theta_j))}.

    a is read at Phi theta = D theta + U(theta) by `taylor_on_grid` at (D, U).
    """
    M = VERIFY_GRID
    moved = grid_image(chain, M, 0.0)
    det = grid_jacobian_det(chain, M, 0.0)
    theta = theta_grid(n, M)
    U = [u.reshape((M,) * n) for u in (moved - theta @ chain.D.T).T]
    lhs = (1.0 + taylor_on_grid([a.series], chain.D, U, M)[0].reshape(-1)) \
        * np.exp(1j * moved.sum(axis=1)) * det
    rhs = rho0 * np.exp(1j * (theta.sum(axis=1) + _on_grid_sums(k, n, M)))
    return float(np.max(np.abs(lhs - rhs)))


def _on_grid_sums(line, n, M):
    """A one-angle series at the sums theta_1 + ... + theta_n over
    theta_grid(n, M), flat: its M-point grid values at the index
    (m_1 + ... + m_n) mod M."""
    index = np.indices((M,) * n).sum(axis=0).reshape(-1) % M
    return line.eval_real_grid(M)[index]


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
    for _ in range(CLOSURE_MAX_ITER):
        c0, w = closure(alpha, beta)
        if abs(c0) <= CLOSURE_TOL:
            break
        da = np.mean(1j * ct * w)
        db = np.mean(1j * st * w)
        J = np.array([[da.real, db.real], [da.imag, db.imag]])
        step = np.linalg.solve(J, np.array([c0.real, c0.imag]))
        alpha -= step[0]
        beta -= step[1]
    else:
        raise NumericalFailure("closure correction did not converge")
    corr = PeriodicSeries.from_terms(
        1, 1, {(1,): 0.5 * (alpha - 1j * beta),
               (-1,): 0.5 * (alpha + 1j * beta)})
    return (k + corr.pad_to(k.N)).symmetrized()


def _profile_velocity(k, rho0):
    N_out = max(2 * k.N + 8, 24)
    M = grid_size(N_out)
    t = 2.0 * np.pi * np.arange(M) / M
    kv = k.eval_real_grid(M).real
    slope = 1.0 + k.derivative(0).eval_real_grid(M).real
    if float(np.min(slope)) <= 0.0:
        raise NumericalFailure(
            "1 + k' vanishes on the grid: the normal form is critical")
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
    if defect > 2.0 * np.pi * STAGE_TOL:
        raise HypothesisViolation(
            "(exact)", f"velocity closure defect {defect:.6e} "
            "(integral over a turn); correct the profile first")
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
    if gauss_degree(curve) != 1:
        raise NumericalFailure("generating curve has turning number != 1")
    return curve


def normal_form_embedding(g, n, r0=0.5):
    """The model embedding built from a generating curve.

    First component i g(z_1 ... z_n) / (z_2 ... z_n), remaining components
    the coordinates themselves; the absorbed factor i makes the round curve
    correspond to the identity.  Verifies on the uniform grid of
    4 (N + 1) points per axis, N the embedding degree, that the Jacobian
    determinant matches the curve velocity data to STAGE_TOL; both sides
    are read there by FFT.
    """
    if n < 2:
        raise ValueError("the normal form embedding needs n >= 2")
    chk = embedding_check(g)
    if not chk.is_embedding:
        raise HypothesisViolation(
            "(embed)", f"generating curve has turning number giving index "
            f"{chk.self_intersection_index}; not an embedding")
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
    s = theta_grid(n, M).sum(axis=1)
    det = first.z_derivative(0).series.eval_real_grid(M).reshape(-1)
    target = np.exp(-1j * s) * _on_grid_sums(line.derivative(0), n, M)
    worst = float(np.max(np.abs(det - target)))
    if worst > STAGE_TOL:
        raise NumericalFailure(
            f"normal form embedding verification failed at {worst:.3e}")
    return emb


# ----------------------------------------------------------------------
# test conjugations


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


def postcompose_monomial_shear(emb, target, exponents, eps):
    """Apply the ambient unimodular shear w_target += eps prod w_j^{m_j}.

    The exponent map must not involve the target coordinate, which makes the
    ambient map triangular with unit Jacobian; images are unimodularly
    equivalent, leaving the invariants fixed.
    """
    exponents = dict(exponents)
    if target in exponents:
        raise ValueError("a shear cannot feed a coordinate into itself")
    n = emb.n
    N_out = emb.N * max(1, sum(abs(m) for m in exponents.values())) + 4
    M = grid_size(N_out)
    vals = np.ones((M,) * n, dtype=complex)
    for j, m in exponents.items():
        vals = vals * emb.components[j].series.eval_real_grid(M) ** m
    add = series_from_real_grid(vals, N_out).chop(CHOP_FLOOR)
    comps = list(emb.components)
    comps[target] = AnnulusFunction(
        comps[target].series.pad_to(max(comps[target].N, add.N))
        + (eps * add).pad_to(max(comps[target].N, add.N)))
    return TorusEmbedding(tuple(comps), emb.r0)


def half_turn_profile(k):
    """The equally valid representative k(t + pi) of the invariant profile."""
    return translate(k, [np.pi]).symmetrized()
