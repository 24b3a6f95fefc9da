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

from .errors import TorusNFError, at_most
from .flows import TorusMapLift, flow, grid_walk, taylor_on_grid
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
# A step's field must be divergence-free to DIVERGENCE_TOL in the r-norm.
DIVERGENCE_TOL = 1e-8


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
    step(state, r_m, delta_m) returns the pair (next state, lift of the
    step), taken as it is.  One `TraceRow` per m records the defect and the
    realized contraction constant d_{m+1} (r_m delta_m)^power / d_m^2; the
    defect d_{m+1} taken after a step is carried to m + 1, so each defect
    is computed once.
    Returns (state, lifts, trace, converged), the lifts a tuple, first-applied
    first: the state after the steps is the first state pulled back through
    their composite, so the last step taken comes first.  An error raised by
    a step carries the trace so far.
    """
    if not 0.0 < r0 < 1.0:
        raise ValueError(f"r0 must lie in (0, 1), got {r0}")
    lifts = ()
    trace = []
    defect_m = defect(state, schedule(r0, 0)[0])
    for m in range(MAX_ITER + 1):
        r_m, d_m = schedule(r0, m)
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
        lifts = (lift, *lifts)
        defect_m = defect_next


def leading_bound(h, r):
    """max(|constant part|, ||d/d theta_1 of the theta_1-only part||_r)."""
    parts = h.triangular_split()
    return float(np.max([abs(parts[0].mean()),
                         parts[1].derivative(0).coeff_norm(r)]))


def transverse_bound(h, r):
    """Largest norm among the pieces that oscillate in theta_2..theta_n."""
    parts = h.triangular_split()
    if h.n < 2:
        return 0.0
    return max(parts[p].coeff_norm(r) for p in range(2, h.n + 1))


def fibering_step(h, r, delta):
    """One volume-preserving sweep reducing the transverse part of h.

    Builds the divergence-free field whose first component cancels the
    transverse sum against the stretched theta_1 direction, flows for time
    -1, and pulls the phase through the flow map.  Returns the next phase
    and the flow map.

    The field and its flow only need a few extra harmonics beyond the state
    degree (the quotient tail decays geometrically in the leading bound),
    while the pulled-back phase is resolved at roughly twice the state
    degree before truncating back.
    """
    n = h.n
    if n < 2:
        raise ValueError("a fibering step needs at least two angles")
    if not 0.0 < delta < 0.25:
        raise ValueError(f"delta must lie in (0, 1/4), got {delta}")
    at_most("(p4)", leading_bound(h, r), 0.5)
    N_field = h.N + 4
    N_pull = 2 * h.N + 4

    parts = h.triangular_split()
    denom = PeriodicSeries.constant(n, h.N, 1.0) + parts[1].derivative(0)
    transverse_sum = sum(parts[2:], PeriodicSeries.zeros(n, h.N))
    comps = [divide(transverse_sum, denom, N_out=N_field).symmetrized()]
    for p in range(2, n + 1):
        axis = p - 1
        u = divide(parts[p], denom, N_out=N_field)
        u = u.restrict_axes(axis).symmetrized()
        comps.append((-1.0 * u).derivative(0).antiderivative(axis))
    divergence = sum(c.derivative(j) for j, c in enumerate(comps))
    at_most("(divergence)", divergence.coeff_norm(r), DIVERGENCE_TOL)

    fr = flow(comps, -1.0, (1.0 - delta) * r, delta, N_out=N_field)
    pulled = fr.map.pullback(h, N_out=N_pull)
    k_next = (fr.map.parts[0] + pulled).truncate(h.N).symmetrized()
    return k_next, fr.map


@dataclasses.dataclass
class FiberingResult:
    stages: tuple              # first-applied first (the translation first)
    k: PeriodicSeries          # one-dimensional, zero mean
    trace: list                # TraceRow per m, defect = transverse_bound
    residual: float
    det_residual: float
    walk: tuple                # the witness's grid_walk (U, det) of stages
    converged: bool
    iterations: int


def fibering_normalize(h0, r0):
    """Iterate fibering steps on the phase mu(theta) = theta_1 + h0(theta)
    until the transverse mass drops to STOP_TOL.

    h0 is a series real on R^n; a series that is not is refused with a
    ValueError.  Runs `shrinking_strip` on the fibering schedule with the
    transverse bound as defect.  On success returns the stages, the
    normalized one-variable phase k with zero mean, the per-step trace, and
    the grid residuals sup |mu(Phi(theta)) - theta_1 - k(theta_1)| and
    sup |det D Phi - 1| on VERIFY_GRID points per axis.  The witness takes
    the displacement U and the determinant from one `grid_walk` of the
    stages, at the shape of the axes they depend on, and reads h0 at the
    image by the grid kernel, not at scattered points; the result keeps
    that walk.

    Schedule exhaustion (MAX_ITER steps) returns a non-converged result
    with its trace; a step refusal mid-run raises, with the partial trace
    attached to the error.
    """
    if not h0.real:
        raise ValueError("phase perturbation must be real on R^n")
    n = h0.n
    state, steps, trace, converged = shrinking_strip(
        h0, r0, _fibering_schedule, transverse_bound, fibering_step, 3)

    k_line = extract_axis_line(state)
    a = -k_line.mean().real
    k = (translate(k_line, [a]) + a).symmetrized()
    shift = np.zeros(n)
    shift[0] = a
    stages = (TorusMapLift.translation(n, shift), *steps)

    # Phi theta = theta + U(theta), so mu o Phi - theta_1 = U_1 + h0(theta
    # + U), h0 read by the grid kernel
    M = VERIFY_GRID
    U, det = grid_walk(stages, M, 0.0, 1.0)
    mu = U[0] + taylor_on_grid([h0], U, M)[0]
    target = k.eval_real_grid(M).reshape((-1,) + (1,) * (n - 1))
    residual = float(np.max(np.abs(mu - target)))
    det_residual = float(np.max(np.abs(det - 1.0)))
    return FiberingResult(stages, k, trace, residual, det_residual,
                          (U, det), converged, len(steps))

