"""KAM normalization of the phase mu(theta) = theta_1 + h(theta), and the
shrinking-strip driver it shares with the annulus realization.

`shrinking_strip` is the one loop of both halves of the construction: step
m works on the strip of radius r_m with loss delta_m, until the defect norm
of the state is at or below STOP_TOL or MAX_ITER steps are taken, and one
`TraceRow` per m records the run.  Each caller owns its schedule:

    fibering:     r_m = (1 + 1/(m+1)) r0 / 2,  delta_m = 1/(4 (m+2)^2)
    realization:  r_{m+1} = (1 - 2 delta_m) r_m,
                  delta_m = e^{-2} / (2 n (m+2)^2)

Both sequences decrease to a positive limit above r0/2.

Each fibering sweep removes the part of h that couples theta_2..theta_n by
flowing for time -1 along a divergence-free field built from the triangular
split of h, so every correction map is volume-preserving and the coupling
mass decays quadratically on the shrinking-strip schedule.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import HypothesisViolation, NumericalFailure, TorusNFError
from .flows import (
    MapChain,
    PeriodicVectorField,
    TorusMapLift,
    flow,
    grid_image,
    grid_jacobian_det,
)
from .series import (
    PeriodicSeries,
    divide,
    extract_axis_line,
    translate,
)

# `shrinking_strip` stops once the defect norm is at or below STOP_TOL, and
# gives up after MAX_ITER steps.
MAX_ITER = 20
STOP_TOL = 1e-12
VERIFY_GRID = 48  # points per axis of the residual witness grids
PROFILE_GRID = 4096
PROFILE_MEAN_TOL = 1e-10


@dataclasses.dataclass(frozen=True)
class FiberingPhase:
    """Phase perturbation h in mu(theta) = theta_1 + h(theta), real on R^n."""

    h: PeriodicSeries

    def __post_init__(self):
        if not self.h.real:
            raise ValueError("phase perturbation must be real on R^n")


def _fibering_schedule(r0, m):
    """r_m = (1 + 1/(m+1)) r0 / 2 and delta_m = 1/(4 (m+2)^2)."""
    return 0.5 * (1.0 + 1.0 / (m + 1)) * r0, 1.0 / (4.0 * (m + 2) ** 2)


@dataclasses.dataclass(frozen=True)
class TraceRow:
    m: int
    r: float
    delta: float
    defect: float    # the defect norm of the state at radius r
    residual: float  # realized contraction constant of the step taken at m


def shrinking_strip(state, r0, schedule, defect, step, power):
    """The shrinking-strip iteration shared by both normalizations.

    At m = 0, 1, ... takes (r_m, delta_m) = schedule(r0, m) and stops once
    defect(state, r_m) <= STOP_TOL, or after MAX_ITER steps; otherwise
    step(state, r_m, delta_m) returns the next state and the lift of the
    step.  One `TraceRow` per m records the defect and the realized
    contraction constant d_{m+1} (r_m delta_m)^power / d_m^2 of the step.
    Returns (state, lifts, trace, converged), the lifts in the order they
    were taken.  An error raised by a step carries the trace so far.
    """
    if not 0.0 < r0 < 1.0:
        raise ValueError(f"r0 must lie in (0, 1), got {r0}")
    lifts = []
    trace = []
    for m in range(MAX_ITER + 1):
        r_m, d_m = schedule(r0, m)
        defect_m = defect(state, r_m)
        if defect_m <= STOP_TOL or m == MAX_ITER:
            trace.append(TraceRow(m, r_m, d_m, defect_m, 0.0))
            return state, lifts, trace, defect_m <= STOP_TOL
        try:
            state, lift = step(state, r_m, d_m)
        except TorusNFError as err:
            err.trace = trace
            raise
        defect_next = defect(state, schedule(r0, m + 1)[0])
        realized = (defect_next * r_m ** power * d_m ** power / defect_m ** 2
                    if defect_m > 0 else 0.0)
        trace.append(TraceRow(m, r_m, d_m, defect_m, realized))
        lifts.append(lift)


def leading_bound(h, r):
    """max(|constant part|, ||d/d theta_1 of the theta_1-only part||_r)."""
    parts = h.triangular_split()
    return max(abs(parts[0].mean()), parts[1].derivative(0).coeff_norm(r))


def transverse_bound(h, r):
    """Largest norm among the pieces that oscillate in theta_2..theta_n."""
    parts = h.triangular_split()
    if h.n < 2:
        return 0.0
    return max(parts[p].coeff_norm(r) for p in range(2, h.n + 1))


@dataclasses.dataclass(frozen=True)
class FiberingStep:
    map: TorusMapLift
    phase_next: FiberingPhase
    b: float
    divergence_defect: float


def fibering_step(phase, r, delta):
    """One volume-preserving sweep reducing the transverse part of h.

    Builds the divergence-free field whose first component cancels the
    transverse sum against the stretched theta_1 direction, flows for time
    -1, and pulls the phase through the flow map.

    The field and its flow only need a few extra harmonics beyond the state
    degree (the quotient tail decays geometrically in the leading bound),
    while the pulled-back phase is resolved at roughly twice the state
    degree before truncating back.
    """
    h = phase.h
    n = h.n
    if n < 2:
        raise ValueError("a fibering step needs at least two angles")
    if not 0.0 < delta < 0.25:
        raise ValueError(f"delta must lie in (0, 1/4), got {delta}")
    B = leading_bound(h, r)
    b = transverse_bound(h, r)
    if B > 0.5:
        raise HypothesisViolation("(p4)", f"B_r = {B:.3e} exceeds 1/2")
    N_field = h.N + 4
    N_pull = 2 * h.N + 4

    parts = h.triangular_split()
    denom = PeriodicSeries.constant(n, h.N, 1.0) + parts[1].derivative(0)
    transverse_sum = sum(parts[2:], PeriodicSeries.zeros(n, h.N))
    comps = [divide(transverse_sum, denom, N_out=N_field).symmetrized()]
    for p in range(2, n + 1):
        axis = p - 1
        u = divide(parts[p], denom, N_out=N_field)
        u = u.restrict_axes(axis, require_oscillating=axis).symmetrized()
        comps.append((-1.0 * u).derivative(0).antiderivative(axis))
    field = PeriodicVectorField(comps)
    div_defect = field.divergence().coeff_norm(r)
    if div_defect > 1e-8:
        raise NumericalFailure(
            f"constructed field has divergence {div_defect:.3e}")

    fr = flow(field, -1.0, (1.0 - delta) * r, delta, N_out=N_field)
    pulled = fr.map.pullback(h, N_out=N_pull)
    k_next = (fr.map.parts[0].pad_to(N_pull) + pulled).truncate(h.N).symmetrized()
    return FiberingStep(fr.map, FiberingPhase(k_next), b, div_defect)


@dataclasses.dataclass
class FiberingResult:
    chain: MapChain            # stages in application order (translation first)
    k: PeriodicSeries          # one-dimensional, zero mean
    trace: list                # TraceRow per m, defect = transverse_bound
    residual: float
    det_residual: float
    converged: bool
    iterations: int


def fibering_normalize(phase, r0):
    """Iterate fibering steps until the transverse mass drops to STOP_TOL.

    Runs `shrinking_strip` on the fibering schedule with the transverse
    bound as defect.  On success returns the stage chain, the normalized
    one-variable phase k with zero mean, the per-step trace, and the grid
    residuals sup |mu(Phi(theta)) - theta_1 - k(theta_1)| and
    sup |det D Phi - 1| on VERIFY_GRID points per axis.  The witness reads
    the translation and the first stage with a non-constant part on that
    grid by FFT (h too, when no step was taken), and the later stages and
    h at the scattered image points by `eval_many`.

    Schedule exhaustion (MAX_ITER steps) returns a non-converged result
    with its trace; a step refusal mid-run raises, with the partial trace
    attached to the error.
    """
    h0 = phase.h
    n = h0.n

    def step(h, r, delta):
        taken = fibering_step(FiberingPhase(h), r, delta)
        return taken.phase_next.h, taken.map

    state, stage_maps, trace, converged = shrinking_strip(
        h0, r0, _fibering_schedule, transverse_bound, step, 3)

    parts = state.triangular_split()
    k_nd = parts[0] + parts[1]
    k_line = extract_axis_line(k_nd)
    a = -k_line.mean().real
    k = (translate(k_line, [a]) + a).symmetrized()
    shift = np.zeros(n)
    shift[0] = a
    stages = [TorusMapLift.translation(n, shift)] + stage_maps[::-1]
    chain = MapChain(stages)

    # mu o Phi is the first component of Phi followed by the lift
    # theta -> (theta_1 + h0(theta), theta_2, ..., theta_n); when every stage
    # of Phi is affine, h0 is then read on the grid too
    M = VERIFY_GRID
    mu_lift = TorusMapLift(np.eye(n, dtype=int),
                           [h0] + [PeriodicSeries.zeros(n, 0)] * (n - 1))
    mu = grid_image(MapChain(chain.stages + (mu_lift,)), M, 0.0)[:, 0]
    t = 2.0 * np.pi * np.arange(M) / M
    # theta_1 is the slowest axis of theta_grid
    target = np.repeat(t + k.eval_real_grid(M), M ** (n - 1))
    residual = float(np.max(np.abs(mu - target)))
    det = grid_jacobian_det(chain, M, 0.0)
    det_residual = float(np.max(np.abs(det - 1.0)))
    return FiberingResult(chain, k, trace, residual, det_residual, converged,
                          len(stage_maps))


def phase_profile_distance(k, k_hat, allow_half_turn=False):
    """Sup-grid distance between two one-variable phase profiles.

    Minimizes over the allowed reparametrizations: no shift, or additionally
    the half-turn theta_1 -> theta_1 + pi when `allow_half_turn` is set.
    Both profiles must have zero mean; the distance is sampled on
    PROFILE_GRID points.
    """
    for name, s in (("k", k), ("k_hat", k_hat)):
        if s.n != 1:
            raise ValueError(f"{name} must be a one-dimensional series")
        if abs(s.mean()) > PROFILE_MEAN_TOL:
            raise ValueError(f"{name} must have zero mean, got {s.mean():.3e}")
    N = max(k.N, k_hat.N)
    k, k_hat = k.pad_to(N), k_hat.pad_to(N)
    base = k.eval_real_grid(PROFILE_GRID)
    shifts = [0.0, np.pi] if allow_half_turn else [0.0]
    best = np.inf
    for s in shifts:
        shifted = translate(k_hat, [s]).eval_real_grid(PROFILE_GRID)
        best = min(best, float(np.max(np.abs(shifted - base))))
    return best
