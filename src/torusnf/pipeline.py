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
from .fibering import STOP_TOL, VERIFY_GRID, fibering_normalize
from .flows import (MapChain, TorusMapLift, continue_walk, invert_map,
                    taylor_on_grid)
from .moser import moser_normalize
from .series import (
    CHOP_FLOOR,
    PeriodicSeries,
    grid_size,
    pull_back_linear,
    series_from_real_grid,
    seven_smooth,
    stacked_det,
    z_derivative,
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
    """Holomorphic near-identity map of the annulus carrying the torus, its
    components Laurent data: series flagged complex, so that a pullback
    re-expands them on full spectra."""

    components: tuple
    r0: float

    def __post_init__(self):
        comps = tuple(c.with_real_flag(False) for c in self.components)
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


def _identity_component(n, axis):
    k = [0] * n
    k[axis] = 1
    return PeriodicSeries.from_terms(n, 1, {tuple(k): 1.0})


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
    rows = [[z_derivative(c, l) for l in range(n)] for c in emb.components]
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
    return a.chop(CHOP_FLOOR)


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
    N_out = a.N + 8
    M = grid_size(N_out)
    vals = a.eval_real_grid(M)
    at_most("(branch)", float(np.max(np.abs(vals))), 0.5)
    w = 1.0 + vals
    b = series_from_real_grid(np.abs(w) - 1.0, N_out, real=True)
    h = series_from_real_grid(np.angle(w), N_out, real=True)
    recon = (1.0 + b.eval_real_grid(M)) * np.exp(1j * h.eval_real_grid(M))
    residual = float(np.max(np.abs(recon - w)))
    return PolarSplit(b.chop(CHOP_FLOOR), h.chop(CHOP_FLOOR), residual)


def shear_matrix(n):
    """The unimodular integer matrix A sending theta_1 to theta_1 + ... +
    theta_n.  It acts on series by `pull_back_linear`, never as a lift.
    A = I + E, E nonzero only in row 0 off the diagonal, so E^2 = 0 and
    A^-1 = 2 I - A exactly."""
    A = np.eye(n, dtype=int)
    A[0, :] = 1
    return A


@dataclasses.dataclass
class InvariantReport:
    """The complete unimodular invariant with its verification residuals.

    Normal-form gauge: the first component of the normal-form embedding
    carries an absorbed factor i, so the round curve maps to the identity
    embedding.  The amplitude rho0 fixes the total volume, (2 pi)^n rho0.
    """

    rho0: float
    k: PeriodicSeries              # one-dimensional, zero mean
    normalizer: TorusMapLift       # collapsed normalizing lift
    stages: tuple                  # the sheared-frame chain psi, first-applied
                                   # first: normalizer = A^-1 psi(A .)
    g: CurveImmersion              # normal-form generating curve
    phase_residual: float
    volume_residual: float
    exactness_defect: float        # 2 pi |mean of rho0 e^{i(t + k(t))}|
    moser_residual: float
    split_residual: float
    complex_constant: complex      # 1 + mean of the Jacobian density
    fibering_trace: list


def normalize_embedding(emb):
    """Run the full normalization and assemble the invariant report.

    The Jacobian density, like the components of `emb`, is Laurent data
    held as a plain series, so every stage takes and returns series.
    Stage order: Jacobian density; the integer shear that concentrates the
    phase on the first angle, applied to the density as the exact re-index
    `pull_back_linear`; modulus/phase factorization in that sheared frame,
    where the density of a seeded normal form depends on theta_1 alone;
    volume normalization of the modulus, phase transport through the
    inverse volume map, and the volume-preserving phase iteration.  Each
    stage must land under STAGE_TOL before the next runs, the phase
    iteration's witness included.  The report's `stages` are the
    sheared-frame chain psi, phase iteration then inverse volume map, every
    one a near-identity lift: the shear A never walks, it acts on
    coefficients alone.  The normalizer is psi collapsed by
    `MapChain.to_single` and conjugated back by A on the coefficients
    (`_unsheared`), theta -> A^-1 psi(A theta), A^-1 = 2 I - A.  Both
    residual witnesses sample VERIFY_GRID points per axis in the sheared
    frame and read the phase or the sheared density at the displaced grid
    by the grid kernel.
    The phase iteration's witness walks its stages once (`grid_walk`), and
    the normal-form witness continues that walk by the inverse volume map.
    Raises NumericalFailure when the phase iteration exhausts its schedule.
    """
    n = emb.n
    if n < 2:
        raise ValueError("the normal form machinery needs n >= 2")
    a = jacobian_density(emb)
    r = emb.r0 / 2.0
    A = shear_matrix(n)
    A_inv = 2 * np.eye(n, dtype=int) - A
    b = pull_back_linear(a, A_inv)   # the density in the sheared frame
    split = modulus_phase_split(b)
    at_most("(split)", split.residual, STAGE_TOL)
    b2, h2 = split.modulus, split.phase

    moser = moser_normalize(b2, N_out=b2.N + 4)
    at_most("(volume)", moser.residual, STAGE_TOL)
    rho0 = 1.0 + moser.mean
    inv1 = invert_map((moser.map,), r, N_out=moser.map.N + 4)
    at_most("(volume-inverse)", inv1.residual, STAGE_TOL)

    carried = h2 - moser.map.parts[0]
    h3 = inv1.map.pullback(carried, N_out=carried.N + 4)
    h3 = h3.symmetrized().chop(CHOP_FLOOR)
    if h3.N > FIB_DEGREE:
        h3 = h3.truncate(FIB_DEGREE)

    fib = fibering_normalize(h3, r)
    try:
        at_most("(exhausted)", fib.trace[-1].defect, STOP_TOL)
        at_most("(phase)", fib.residual, STAGE_TOL)
    except NumericalFailure as err:
        err.trace = fib.trace
        raise
    k = fib.k

    g, exactness_defect = normal_form_curve(k, rho0)
    stages = (*fib.stages, inv1.map)
    # a phase step adds flow stages, which need h3.N + 6 harmonics
    N_norm = max(h3.N + 6 if fib.iterations else 0, moser.map.N + 4, 12)
    normalizer = _unsheared(MapChain(stages).to_single(N_norm), A, A_inv,
                            N_norm)

    phase_residual = _normal_form_residual(b, fib, inv1.map, rho0)
    return InvariantReport(
        rho0=rho0, k=k, normalizer=normalizer, stages=stages, g=g,
        phase_residual=phase_residual, volume_residual=fib.det_residual,
        exactness_defect=exactness_defect, moser_residual=moser.residual,
        split_residual=split.residual,
        complex_constant=1.0 + a.mean(),
        fibering_trace=fib.trace)


def _unsheared(lift, A, A_inv, N_out):
    """The lift theta -> A^-1 lift(A theta) for a unimodular integer A and
    its inverse A_inv, on the coefficients: theta + A^-1 f(A theta), each
    f_l(A theta) the exact re-index `pull_back_linear` and each part a sum
    of them with the integer entries of A_inv.  Each part is truncated at
    N_out, which adds the mass moved beyond N_out to its trunc_mass."""
    moved = [pull_back_linear(p, A) for p in lift.parts]
    sums = [[d * f for d, f in zip(row, moved) if d] for row in A_inv]
    return TorusMapLift(lift.D, [sum(terms[1:], terms[0]).truncate(N_out)
                                 for terms in sums])


def _normal_form_residual(b, fib, volume_inverse, rho0):
    """sup over the real grid of the defining identity of the normal form,
    in the sheared frame phi = A theta, phi_1 = theta_1 + ... + theta_n.

    The normalizer is Phi = A^-1 psi A, psi the sheared-frame chain
    (*fib.stages, volume_inverse).  The first row of A is all ones, so
    sum_j Phi_j(theta) = psi_1(phi), det D Phi(theta) = det D psi(phi) and
    a(Phi theta) = b(psi phi), b = a(A^-1 .) the sheared density.  A is
    unimodular and permutes the grid, so the witness compares, at each
    grid point phi, (1 + b(phi + V)) e^{i V_1} det D psi with
    rho0 e^{i k(phi_1)}, the common factor e^{i phi_1} dropped, with
    V = psi(phi) - phi.  (V, det) continue the fibering witness's walk by
    the volume stage (`continue_walk`), b is read at that image by
    `taylor_on_grid`, and the right side stays on the M-point line of k.
    """
    M = VERIFY_GRID
    V, det = continue_walk((volume_inverse,), M, *fib.walk)
    lhs = (1.0 + taylor_on_grid([b], V, M)[0]) * np.exp(1j * V[0]) * det
    rhs = rho0 * np.exp(1j * fib.k.eval_real_grid(M))
    return float(np.max(np.abs(lhs - rhs.reshape((-1,) + (1,) * (b.n - 1)))))


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


def normal_form_curve(k, rho0):
    """The generating curve with velocity rho0 e^{i(t + k(t))}, and its
    closure defect 2 pi |velocity mean|.

    k and 1 + k' are read once on the line and the velocity re-expanded
    once.  Refuses when 1 + k' > 0 fails, which would make the normal form
    critical (slope), when the defect is above 2 pi STAGE_TOL (exact), and
    when the antiderivative of the velocity less its mean does not turn
    once (turning).  It is chopped at CHOP_FLOOR, so that round-off does
    not raise the degree of the embedding built from it.
    """
    if k.n != 1:
        raise ValueError("expected a one-dimensional profile")
    if not abs(k.mean()) <= 1e-10:
        raise ValueError(f"profile must have zero mean, got {k.mean():.3e}")
    if not rho0 > 0.0:
        raise ValueError(f"the amplitude must be positive, got {rho0}")
    N_out = max(2 * k.N + 8, 24)
    M = grid_size(N_out)
    t = 2.0 * np.pi * np.arange(M) / M
    kv = k.eval_real_grid(M).real
    slope = 1.0 + k.derivative(0).eval_real_grid(M).real
    above("(slope)", float(np.min(slope)), 0.0)
    vel = series_from_real_grid(rho0 * np.exp(1j * (t + kv)), N_out)
    defect = 2.0 * np.pi * abs(vel.mean())
    at_most("(exact)", defect, 2.0 * np.pi * STAGE_TOL)
    curve = CurveImmersion((vel - vel.mean()).antiderivative(0)
                           .chop(CHOP_FLOOR))
    at_most("(turning)", abs(gauss_degree(curve) - 1), 0)
    return curve, defect


def normal_form_embedding(g, n, r0):
    """The model embedding built from a generating curve.

    First component i g(z_1 ... z_n) / (z_2 ... z_n), remaining components
    the coordinates themselves, each one term of degree 1; the absorbed
    factor i makes the round curve correspond to the identity.  Verifies
    that the Jacobian determinant, d psi_1 / d z_1, matches the curve
    velocity data e^{-i s} g'(s), s = sum theta, to STAGE_TOL.  The
    determinant is read in the sheared frame (`pull_back_linear` by the
    inverse shear), where it is a function of theta_1 = s alone, so both
    sides are read on the line of 4 (N + 1) points, N the embedding degree,
    by FFT.
    """
    if n < 2:
        raise ValueError("the normal form embedding needs n >= 2")
    at_most("(embed)", abs(abs(embedding_check(g)) - 1), 0)
    line = g.series
    N_emb = line.N + 1
    terms = {}
    for m in range(-line.N, line.N + 1):
        gamma = line.coeff((m,))
        if gamma == 0.0:
            continue
        idx = tuple([m] + [m - 1] * (n - 1))
        terms[idx] = 1j * gamma
    first = PeriodicSeries.from_terms(n, N_emb, terms)
    comps = [first] + [_identity_component(n, j) for j in range(1, n)]
    emb = TorusEmbedding(tuple(comps), r0)

    # det D psi(e^{i theta}) must equal e^{-i s} d/ds g(e^{i s}) at s = sum theta
    M = 4 * (N_emb + 1)
    A_inv = 2 * np.eye(n, dtype=int) - shear_matrix(n)
    det = pull_back_linear(z_derivative(first, 0), A_inv).eval_real_grid(M)
    t = 2.0 * np.pi * np.arange(M) / M
    target = np.exp(-1j * t) * line.derivative(0).eval_real_grid(M)
    gap = det - target.reshape((-1,) + (1,) * (n - 1))
    at_most("(model)", float(np.max(np.abs(gap))), STAGE_TOL)
    return emb


# ----------------------------------------------------------------------
# reparametrization


def precompose_torus_map(emb, lift):
    """Reparametrize the embedding by a real near-identity torus self-map.

    The image submanifold is unchanged, so the invariant pair must be
    reproduced; this is the working form of the uniqueness statement.
    Every component is re-expanded at the embedding degree plus lift.N + 4,
    so a component held at a lower degree, as the coordinates of
    `normal_form_embedding` are, comes back at the common one.
    """
    if not lift.real:
        raise ValueError("reparametrizations must be real torus maps")
    N_out = emb.N + lift.N + 4
    comps = [lift.pullback(c, N_out=N_out).chop(CHOP_FLOOR)
             for c in emb.components]
    return TorusEmbedding(tuple(comps), emb.r0)
