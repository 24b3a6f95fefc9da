"""Flows of periodic vector fields and the algebra of lifted torus maps.

Flows are integrated by fixed-step classical RK4 from the points of a real
uniform grid and re-expanded as Fourier series; the periodic displacement
determines the analytic extension of the map to the strip, so strip bounds
are then read off coefficient norms.  Holomorphic (non-real) fields are
allowed: trajectories simply leave R^n while staying in the strip.

A composite of lifts is kept as a `MapChain` and evaluated stage by stage.
`compose_maps` is the one place a composite is collapsed: it applies every
map in turn on one oversampled grid and re-expands the result once.
`invert_map` is the one fixed-point inverter, for a single lift or a chain.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import HypothesisViolation, NumericalFailure
from .series import (
    PeriodicSeries,
    eval_many,
    grid_size,
    series_from_real_grid,
    theta_grid,
)

DIV_FREE_TOL = 1e-10


class PeriodicVectorField:
    """n-tuple of periodic series, viewed as d theta_j / dt = p_j(theta)."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple(components)
        n = len(components)
        if n == 0:
            raise ValueError("field needs at least one component")
        if any(c.n != n for c in components):
            raise ValueError("every component must be a series on T^n")
        N = max(c.N for c in components)
        self.components = tuple(c.pad_to(N) for c in components)

    @property
    def n(self):
        return len(self.components)

    @property
    def N(self):
        return self.components[0].N

    @property
    def real(self):
        return all(c.real for c in self.components)

    def coeff_norm(self, r):
        return max(c.coeff_norm(r) for c in self.components)

    def eval_points(self, pts):
        return eval_many(self.components, pts).T

    def divergence(self):
        out = PeriodicSeries.zeros(self.n, self.N, real=self.real)
        for j, c in enumerate(self.components):
            out = out + c.derivative(j)
        return out

    def is_divergence_free(self, r=0.5, tol=DIV_FREE_TOL):
        return self.divergence().coeff_norm(r) <= tol


class TorusMapLift:
    """Lifted self-map of T^n: theta' = D theta + f(theta), D integer, f periodic."""

    __slots__ = ("D", "parts")

    def __init__(self, D, parts):
        parts = tuple(parts)
        n = len(parts)
        if any(p.n != n for p in parts):
            raise ValueError("periodic parts must be series on T^n")
        D = np.array(D, dtype=int)
        if D.shape != (n, n):
            raise ValueError(f"integer part must be {n}x{n}")
        D.setflags(write=False)
        N = max(p.N for p in parts)
        self.D = D
        self.parts = tuple(p.pad_to(N) for p in parts)

    @classmethod
    def identity(cls, n, N=0):
        return cls(np.eye(n, dtype=int),
                   [PeriodicSeries.zeros(n, N) for _ in range(n)])

    @classmethod
    def translation(cls, n, shift, N=0):
        return cls(np.eye(n, dtype=int),
                   [PeriodicSeries.constant(n, N, shift[j]) for j in range(n)])

    @property
    def n(self):
        return len(self.parts)

    @property
    def N(self):
        return self.parts[0].N

    @property
    def real(self):
        return all(p.real for p in self.parts)

    def degree(self):
        return int(round(np.linalg.det(self.D)))

    def has_identity_integer_part(self):
        return bool(np.array_equal(self.D, np.eye(self.n, dtype=int)))

    def part_norm(self, r):
        return max(p.coeff_norm(r) for p in self.parts)

    def apply(self, pts):
        pts = np.asarray(pts, dtype=complex)
        out = pts @ self.D.T.astype(float)
        out += eval_many(self.parts, pts).T
        return out

    def jacobian(self, pts):
        """Stacked Jacobian matrices D + grad f at each point, shape (m, n, n)."""
        pts = np.asarray(pts, dtype=complex)
        m = pts.shape[0]
        jac = np.broadcast_to(self.D.astype(complex), (m, self.n, self.n)).copy()
        grads = [p.derivative(l) for p in self.parts for l in range(self.n)]
        vals = eval_many(grads, pts)
        for j in range(self.n):
            for l in range(self.n):
                jac[:, j, l] += vals[j * self.n + l]
        return jac

    def pullback(self, h, N_out=None):
        """h composed with this lift, re-expanded on an oversampled grid.

        Refuses when the requested degree bound cannot hold the input
        spectrum (the re-expansion grid would alias h itself).
        """
        if h.n != self.n:
            raise ValueError("dimension mismatch")
        if N_out is None:
            N_out = h.N
        if N_out < h.N:
            raise ValueError(
                f"output degree {N_out} below input degree {h.N}: grid too coarse")
        M = grid_size(N_out)
        pts = theta_grid(self.n, M)
        vals = h.eval_points(self.apply(pts)).reshape((M,) * self.n)
        return series_from_real_grid(vals, N_out, real=h.real and self.real)


@dataclasses.dataclass(frozen=True)
class FlowResult:
    """Time-t map of a field, with integration metadata."""

    map: TorusMapLift
    t: float
    step_count: int
    defect: float


def _rk4(eval_state, y0, t, steps):
    y = np.array(y0, dtype=complex)
    h = t / steps
    for _ in range(steps):
        k1 = eval_state(y)
        k2 = eval_state(y + 0.5 * h * k1)
        k3 = eval_state(y + 0.5 * h * k2)
        k4 = eval_state(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def _flow_points(v, pts, t, steps, extra=None):
    """Integrate the field from `pts`; optionally accumulate int g(theta(s)) ds."""
    n = v.n
    if extra is None:
        return _rk4(lambda y: v.eval_points(y), pts, t, steps), None

    def rhs(y):
        out = np.empty_like(y)
        out[:, :n] = v.eval_points(y[:, :n])
        out[:, n] = extra.eval_points(y[:, :n])
        return out

    y0 = np.concatenate([pts, np.zeros((pts.shape[0], 1), dtype=complex)], axis=1)
    y = _rk4(rhs, y0, t, steps)
    return y[:, :n], y[:, n]


def flow_step_count(p_norm, r1, delta, min_steps=32):
    return max(min_steps, int(math.ceil(8.0 * p_norm / (r1 * delta))))


def _lift_from_grid(D, disp, M, N_out, real):
    """The lift D theta + f(theta) whose displacement f has the values `disp`
    (one column per component) on the M^n real grid, re-expanded at N_out."""
    n = disp.shape[1]
    parts = [series_from_real_grid(disp[:, j].reshape((M,) * n), N_out, real=real)
             for j in range(n)]
    return TorusMapLift(D, parts)


def flow(v, t, r1, delta, N_out=None, min_steps=32, defect_tol=1e-8,
         line_integrand=None):
    """Time-t map of the field as a near-identity lift.

    Requires |t| <= 1, 0 < delta < 1/2 and the admissibility bound (z1)
    ||p||_{r1} <= r1 delta in the coefficient norm.  With `line_integrand` g,
    additionally returns the series of int_0^t g(theta(s)) ds along the flow.
    """
    if abs(t) > 1.0 + 1e-15:
        raise ValueError("flows are only taken for |t| <= 1")
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    p_norm = v.coeff_norm(r1)
    if p_norm > r1 * delta:
        raise HypothesisViolation(
            "(z1)", f"||p||_r1 = {p_norm:.3e} exceeds r1*delta = {r1 * delta:.3e}")
    if N_out is None:
        N_out = v.N
    steps = flow_step_count(p_norm, r1, delta, min_steps)
    M = grid_size(N_out, v.N)
    pts = theta_grid(v.n, M)
    end, acc = _flow_points(v, pts, t, steps, extra=line_integrand)
    # Richardson witness from a half-resolution run; for 4th order the
    # coarse-fine gap over-estimates the fine error by roughly 15x.
    coarse_steps = max(8, steps // 2)
    end_c, acc_c = _flow_points(v, pts, t, coarse_steps, extra=line_integrand)
    defect = float(np.max(np.abs(end - end_c)))
    if acc is not None:
        defect = max(defect, float(np.max(np.abs(acc - acc_c))))
    if defect > defect_tol:
        raise NumericalFailure(
            f"integrator defect {defect:.3e} above tolerance {defect_tol:.1e}")
    result = FlowResult(
        _lift_from_grid(np.eye(v.n, dtype=int), end - pts, M, N_out, v.real),
        float(t), steps, defect)
    if line_integrand is None:
        return result
    acc_series = series_from_real_grid(acc.reshape((M,) * v.n), N_out,
                                       real=v.real and line_integrand.real)
    return result, acc_series


def log_det_jacobian(v, t, r1, delta, **kw):
    """log det of the time-t flow map, via quadrature of the divergence.

    Along the flow, d/ds log det D phi_s = (div p)(phi_s), so the log
    determinant is the line integral of the divergence; for divergence-free
    fields it vanishes identically and the flow is volume-preserving.
    """
    _, acc = flow(v, t, r1, delta, line_integrand=v.divergence(), **kw)
    return acc


def compose_maps(*maps, N_out=None):
    """The lift of the composite of `maps`, outermost first.

    compose_maps(phi, psi) is theta -> phi(psi(theta)).  Integer parts
    multiply; the maps are applied in turn on one oversampled grid and the
    periodic part of the composite is re-expanded once, at the requested
    degree bound (default: the largest input degree).
    """
    chain = MapChain(maps[::-1])
    if N_out is None:
        N_out = chain.N
    M = grid_size(N_out, chain.N)
    pts = theta_grid(chain.n, M)
    D = chain.D
    disp = chain.apply(pts) - pts @ D.T.astype(float)
    return _lift_from_grid(D, disp, M, N_out, chain.real)


class MapChain:
    """A composition of lifts kept stage by stage, first-applied first.

    Evaluating through the stages avoids the re-expansion error of collapsing
    the chain into a single truncated lift.  A chain has the lift-shaped
    members `D`, `N`, `real`, `has_identity_integer_part` and `part_norm`,
    so `invert_map` inverts it without collapsing it first; `to_single`
    collapses it in one pass when a serializable map is wanted.
    """

    __slots__ = ("stages",)

    def __init__(self, stages):
        self.stages = tuple(stages)
        if not self.stages:
            raise ValueError("chain needs at least one stage")
        n = self.stages[0].n
        if any(s.n != n for s in self.stages):
            raise ValueError("all stages must act on the same torus")

    @property
    def n(self):
        return self.stages[0].n

    @property
    def N(self):
        return max(s.N for s in self.stages)

    @property
    def real(self):
        return all(s.real for s in self.stages)

    @property
    def D(self):
        """Integer part of the composite: the stage integer parts multiplied."""
        D = np.eye(self.n, dtype=int)
        for s in self.stages:
            D = s.D @ D
        return D

    def has_identity_integer_part(self):
        return bool(np.array_equal(self.D, np.eye(self.n, dtype=int)))

    def part_norm(self, r):
        """Sum of the stage part norms: what `invert_map` gates for a chain."""
        return sum(s.part_norm(r) for s in self.stages)

    def apply(self, pts):
        pts = np.asarray(pts, dtype=complex)
        for s in self.stages:
            pts = s.apply(pts)
        return pts

    def jacobian_det(self, pts):
        """Determinant of the chain Jacobian at each point (chain rule)."""
        pts = np.asarray(pts, dtype=complex)
        det = np.ones(pts.shape[0], dtype=complex)
        for s in self.stages:
            det = det * np.linalg.det(s.jacobian(pts))
            pts = s.apply(pts)
        return det

    def to_single(self, N_out):
        """The chain collapsed by `compose_maps` into one lift of degree N_out.

        A one-stage chain returns its lone stage unchanged.
        """
        if len(self.stages) == 1:
            return self.stages[0]
        return compose_maps(*self.stages[::-1], N_out=N_out)


@dataclasses.dataclass(frozen=True)
class MapInverse:
    map: TorusMapLift
    residual: float
    iterations: int


def invert_map(phi, r, N_out=None, tol=1e-13, max_iter=200):
    """Inverse of a near-identity lift or MapChain by fixed-point iteration.

    Iterates theta' -> theta' + (theta - phi(theta')), which for one lift
    theta + f is the contraction theta' -> theta - f(theta'); a chain is
    applied stage by stage and never collapsed.  Requires an identity
    integer part and the smallness bound (nf) ||f||_r <= r/(4n), on the
    summed stage norms for a chain, which makes the iteration a contraction
    on the half-width strip.  The returned residual is the sup of
    |phi(phi^{-1}(theta)) - theta| over a verification grid.
    """
    if not phi.has_identity_integer_part():
        raise ValueError("invert_map requires an identity integer part")
    n = phi.n
    f_norm = phi.part_norm(r)
    if f_norm > r / (4.0 * n):
        raise HypothesisViolation(
            "(nf)", f"||f||_r = {f_norm:.3e} exceeds r/(4n) = {r / (4 * n):.3e}")
    if N_out is None:
        N_out = phi.N
    M = grid_size(N_out, phi.N)
    pts = theta_grid(n, M)
    cur = np.array(pts)
    prev_delta = np.inf
    its = 0
    for its in range(1, max_iter + 1):
        step = pts - phi.apply(cur)
        cur = cur + step
        delta = float(np.max(np.abs(step)))
        if delta <= tol:
            break
        if delta > prev_delta * (1.0 + 1e-12) and delta > 1e3 * tol:
            raise NumericalFailure(
                f"fixed-point iteration expanding: step {delta:.3e} "
                f"after {prev_delta:.3e}")
        prev_delta = delta
    else:
        raise NumericalFailure(
            f"fixed-point iteration did not reach {tol:.1e} in {max_iter} steps")
    inv = _lift_from_grid(np.eye(n, dtype=int), cur - pts, M, N_out, phi.real)
    check = theta_grid(n, M + 1)
    residual = float(np.max(np.abs(phi.apply(inv.apply(check)) - check)))
    return MapInverse(inv, residual, its)


def finite_difference_jacobian_det(apply_fn, pts, h=1e-5):
    """Central-difference det of an arbitrary point map; test oracle helper."""
    pts = np.asarray(pts, dtype=complex)
    m, n = pts.shape
    jac = np.empty((m, n, n), dtype=complex)
    for l in range(n):
        e = np.zeros(n)
        e[l] = h
        jac[:, :, l] = (apply_fn(pts + e) - apply_fn(pts - e)) / (2.0 * h)
    return np.linalg.det(jac)
