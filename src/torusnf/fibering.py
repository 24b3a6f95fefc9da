"""KAM normalization of the phase mu(theta) = theta_1 + h(theta).

Each sweep removes the part of h that couples theta_2..theta_n by flowing
for time -1 along a divergence-free field built from the triangular split of
h, so every correction map is volume-preserving and the coupling mass decays
quadratically on the shrinking-strip schedule.

The worst-case admissibility constants of the underlying estimates are never
quantified in closed form; the gates below use empirically fitted constants
(with a safety factor) so that inputs which demonstrably converge at desk
scale are not refused.  The classical schedule invariant is still monitored
and reported when it first fails.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from .errors import HypothesisViolation, NumericalFailure
from .flows import MapChain, PeriodicVectorField, TorusMapLift, flow
from .series import (
    PeriodicSeries,
    divide,
    extract_axis_line,
    theta_grid,
    translate,
)

EPS_SMALLH = 1e-3  # default constant in the entry hypothesis ||h||_r <= eps r^3
# Fitted admissibility constants.  The measured step norms run at c2 ~ 0.03
# on admissible desk-scale data; C2 keeps a factor ~4 of headroom while still
# admitting every input that demonstrably converges.  The flow re-checks its
# own admissibility bound (z1) directly, so a too-generous C2 cannot silently
# break the iteration: it only changes which gate names the refusal.
C2 = 0.125   # step gate (b):  b_r <= r^2 delta^2 / (n C2)
C6 = 27.0    # schedule invariant b_m <= r_m^3 delta_m^3 / C6
# Both shrinking-strip loops (this one and the annulus realization) stop once
# the defect norm is at or below STOP_TOL, and give up after MAX_ITER steps.
MAX_ITER = 20
STOP_TOL = 1e-12
VERIFY_GRID = 48  # points per axis of the off-grid residual witnesses
PROFILE_GRID = 4096
PROFILE_MEAN_TOL = 1e-10


@dataclasses.dataclass(frozen=True)
class FiberingPhase:
    """Phase perturbation h in mu(theta) = theta_1 + h(theta), real on R^n."""

    h: PeriodicSeries

    def __post_init__(self):
        if not self.h.real:
            raise ValueError("phase perturbation must be real on R^n")


@dataclasses.dataclass(frozen=True)
class KamSchedule:
    """Shrinking-strip schedule r_m, delta_m.

    kind "fibering":     r_m = (1 + 1/(m+1)) r0 / 2,  delta_m = 1/(4 (m+2)^2)
    kind "realization":  r_{m+1} = (1 - 2 delta_m) r_m,
                         delta_m = e^{-2} / (2 n (m+2)^2)
    Both sequences decrease to a positive limit above r0/2.
    """

    r0: float
    kind: str = "fibering"
    dim: int = 2

    def __post_init__(self):
        if not 0.0 < self.r0 < 1.0:
            raise ValueError(f"r0 must lie in (0, 1), got {self.r0}")
        if self.kind not in ("fibering", "realization"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")

    def delta(self, m):
        if self.kind == "fibering":
            return 1.0 / (4.0 * (m + 2) ** 2)
        return np.exp(-2.0) / (2.0 * self.dim * (m + 2) ** 2)

    def radius(self, m):
        if self.kind == "fibering":
            return 0.5 * (1.0 + 1.0 / (m + 1)) * self.r0
        r = self.r0
        for j in range(m):
            r *= 1.0 - 2.0 * self.delta(j)
        return r


@dataclasses.dataclass(frozen=True)
class TraceRow:
    m: int
    r: float
    delta: float
    b: float
    B: float
    residual: float  # realized contraction constant of the step taken at m


@dataclasses.dataclass
class KamTrace:
    """Per-iteration record of the shrinking-strip run, one row per step."""

    rows: list

    def append(self, row):
        self.rows.append(row)


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
    field: PeriodicVectorField
    b: float
    B: float
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
    b_max = r * r * delta * delta / (n * C2)
    if b > b_max:
        raise HypothesisViolation(
            "(b)", f"b_r = {b:.3e} exceeds r^2 delta^2/(n C2) = {b_max:.3e}")
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
    return FiberingStep(fr.map, FiberingPhase(k_next), field, b, B, div_defect)


@dataclasses.dataclass
class FiberingResult:
    chain: MapChain            # stages in application order (translation first)
    composite: TorusMapLift    # collapsed single lift
    k: PeriodicSeries          # one-dimensional, zero mean
    trace: KamTrace
    residual: float
    det_residual: float
    converged: bool
    iterations: int
    lemma42_first_fail: int    # -1 when the invariant held throughout


def fibering_normalize(phase, schedule, eps=EPS_SMALLH):
    """Iterate fibering steps until the transverse mass drops to STOP_TOL.

    Entry hypothesis: ||h||_{r0} <= eps r0^3 in the coefficient norm.  On
    success returns the stage chain, its collapsed lift, the normalized
    one-variable phase k with zero mean, the per-step trace, and the grid
    residuals sup |mu(Phi(theta)) - theta_1 - k(theta_1)| and
    sup |det D Phi - 1| on VERIFY_GRID points per axis.

    Schedule exhaustion (MAX_ITER steps) returns a non-converged result
    with its trace; a step refusal mid-run raises, with the partial trace
    attached to the error.
    """
    h0 = phase.h
    n = h0.n
    r0 = schedule.r0
    h_norm = h0.coeff_norm(r0)
    if h_norm > eps * r0 ** 3:
        raise HypothesisViolation(
            "(smallh)",
            f"||h||_r0 = {h_norm:.3e} exceeds eps r0^3 = {eps * r0 ** 3:.3e}")

    state = h0
    stage_maps = []
    trace = KamTrace(rows=[])
    converged = False
    lemma42_first_fail = -1
    iterations = 0
    for m in range(MAX_ITER + 1):
        r_m = schedule.radius(m)
        d_m = schedule.delta(m)
        b_m = transverse_bound(state, r_m)
        B_m = leading_bound(state, r_m)
        if lemma42_first_fail < 0 and b_m > r_m ** 3 * d_m ** 3 / C6:
            lemma42_first_fail = m
            warnings.warn(
                f"schedule invariant b_m <= r_m^3 delta_m^3/C6 fails at m={m} "
                f"(b={b_m:.3e}); continuing on fitted-constant gates",
                RuntimeWarning, stacklevel=2)
        if b_m <= STOP_TOL:
            trace.append(TraceRow(m, r_m, d_m, b_m, B_m, 0.0))
            converged = True
            break
        if m == MAX_ITER:
            trace.append(TraceRow(m, r_m, d_m, b_m, B_m, 0.0))
            break
        try:
            step = fibering_step(FiberingPhase(state), r_m, d_m)
        except HypothesisViolation as err:
            err.trace = trace
            raise
        state = step.phase_next.h
        iterations = m + 1
        b_next = transverse_bound(state, schedule.radius(m + 1))
        realized = b_next * r_m ** 3 * d_m ** 3 / b_m ** 2 if b_m > 0 else 0.0
        trace.append(TraceRow(m, r_m, d_m, b_m, B_m, realized))
        stage_maps.append(step.map)

    parts = state.triangular_split()
    k_nd = parts[0] + parts[1]
    k_line = extract_axis_line(k_nd)
    a = -k_line.mean().real
    k = (translate(k_line, [a]) + a).symmetrized()
    shift = np.zeros(n)
    shift[0] = a
    stages = [TorusMapLift.translation(n, shift)] + stage_maps[::-1]
    chain = MapChain(stages)
    composite = chain.to_single(max(h0.N + 6, 10))

    pts = theta_grid(n, VERIFY_GRID)
    moved = chain.apply(pts)
    mu = moved[:, 0] + h0.eval_points(moved)
    target = pts[:, 0] + k.eval_points(pts[:, :1])
    residual = float(np.max(np.abs(mu - target)))
    det = chain.jacobian_det(pts)
    det_residual = float(np.max(np.abs(det - 1.0)))
    return FiberingResult(chain, composite, k, trace, residual, det_residual,
                          converged, iterations, lemma42_first_fail)


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
