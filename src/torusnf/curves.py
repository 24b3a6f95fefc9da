"""Closed-curve tools: turning number, convexity phase, regular homotopies.

A closed curve is carried as a one-dimensional complex Fourier series of its
lift theta -> f(e^{i theta}).  The turning number is read off the winding of
the derivative; "non-critical" means the derivative's phase is itself an
immersion of the circle (strict local convexity), which is what makes the
straight-line interpolation of radii below stay regular for every parameter.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import HypothesisViolation, NumericalFailure
from .series import PeriodicSeries, series_from_real_grid

DEFAULT_GRID = 4096
IMMERSION_TOL = 1e-9
NONCRITICAL_TOL = 1e-6  # margin of the phase derivative from zero
HOMOTOPY_GRID = 2048
EMBED_GRID = 512
SEPARATION_FRACTION = 0.02  # of a turn, between compared embedding samples
REPARAM_BISECTIONS = 60  # halvings of the bracket in _invert_circle_reparam


@dataclasses.dataclass(frozen=True)
class CurveImmersion:
    """Closed curve in the plane, stored through its periodic lift."""

    series: PeriodicSeries

    def __post_init__(self):
        if self.series.n != 1:
            raise ValueError("curves are one-dimensional series")

    @property
    def N(self):
        return self.series.N

    def positions(self, M=DEFAULT_GRID):
        return self.series.eval_real_grid(M)

    def velocity(self, M=DEFAULT_GRID):
        return self.series.derivative(0).eval_real_grid(M)

    def speed_minimum(self, M=DEFAULT_GRID):
        return float(np.min(np.abs(self.velocity(M))))


def circle(radius=1.0, N=4):
    """The unit-speed round circle, f(e^{i t}) = -i radius e^{i t}."""
    return CurveImmersion(
        PeriodicSeries.from_terms(1, N, {(1,): -1j * radius}))


def _check_immersion(curve, M):
    low = curve.speed_minimum(M)
    if low <= IMMERSION_TOL:
        raise NumericalFailure(
            f"curve speed drops to {low:.3e} on the grid: not an immersion")


def gauss_degree(curve, M=DEFAULT_GRID):
    """Turning number: the winding of f' around 0.

    Accumulates the phase increments of the velocity between adjacent grid
    samples (each below pi in magnitude on an adequate grid) and divides by
    2 pi; refuses when the total is not within 1e-6 of an integer.
    """
    _check_immersion(curve, M)
    v = curve.velocity(M)
    ratios = np.roll(v, -1) / v
    total = float(np.sum(np.angle(ratios))) / (2.0 * np.pi)
    d = int(np.round(total))
    if abs(total - d) > 1e-6:
        raise NumericalFailure(
            f"accumulated winding {total:.8f} is not an integer; refine the grid")
    return d


def phase_derivative(curve, M=DEFAULT_GRID):
    """Samples of d(arg f')/d theta, via Im(f''/f') (no unwrapping needed)."""
    _check_immersion(curve, M)
    d1 = curve.series.derivative(0)
    v = d1.eval_real_grid(M)
    a = d1.derivative(0).eval_real_grid(M)
    return (a / v).imag


def noncritical_phase(curve, M=DEFAULT_GRID):
    """Phase-derivative samples and whether they stay away from zero.

    Non-critical means the samples keep one sign with margin NONCRITICAL_TOL;
    testing |mu'| alone would miss a continuous sign crossing that falls
    between grid points.
    """
    mu_prime = phase_derivative(curve, M)
    flag = bool(np.min(mu_prime) > NONCRITICAL_TOL
                or np.max(mu_prime) < -NONCRITICAL_TOL)
    return mu_prime, flag


def _phase_deviation(curve, d, M):
    """The periodic part h with arg f' = d theta + h(theta), as a series."""
    v = curve.velocity(M)
    ang = np.unwrap(np.angle(v))
    t = 2.0 * np.pi * np.arange(M) / M
    h_vals = ang - d * t
    # unwrap leaves an overall 2 pi k ambiguity only; the values are periodic
    N_h = min(M // 4, max(32, 4 * curve.N))
    return series_from_real_grid(h_vals.astype(complex), N_h, real=True)


def _invert_circle_reparam(h, d, targets):
    """Solve x + h(x)/d = target for each target by bisection.

    The map is strictly increasing for a non-critical curve (its slope is
    the phase derivative over d), so bisection from a bracket of width
    2 (max|h|/|d| + 1) converges deterministically; plain Newton can cycle
    when the slope varies by large factors.
    """
    margin = float(np.max(np.abs(h.eval_real_grid(4 * h.N + 4)))) / abs(d) + 1.0

    def val(x):
        return x + h.eval_points(x[:, None].astype(complex)).real / d

    lo = targets - margin
    hi = targets + margin
    for _ in range(REPARAM_BISECTIONS):
        mid = 0.5 * (lo + hi)
        too_low = val(mid) < targets
        lo = np.where(too_low, mid, lo)
        hi = np.where(too_low, hi, mid)
    return 0.5 * (lo + hi)


def whitney_homotopy(f0, f1, t):
    """The non-critical regular interpolation between two curves at time t.

    Both curves must be non-critical with the same nonzero turning number d.
    Each is first reparametrized so its velocity phase is exactly d theta;
    the velocities' radial profiles are then interpolated linearly and
    integrated back to a mean-zero closed curve, which is non-critical for
    every t and reproduces the (reparametrized, centered) inputs at t = 0, 1.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"homotopy time must lie in [0, 1], got {t}")
    M = HOMOTOPY_GRID
    d0, d1 = gauss_degree(f0, M), gauss_degree(f1, M)
    if d0 != d1:
        raise HypothesisViolation(
            "(degree)", f"turning numbers differ ({d0} vs {d1}): "
            "no regular homotopy exists")
    if d0 == 0:
        raise HypothesisViolation(
            "(degree)", "turning number 0 admits no non-critical immersion")
    for name, f in (("f0", f0), ("f1", f1)):
        _, flag = noncritical_phase(f, M)
        if not flag:
            raise HypothesisViolation(
                "(noncritical)", f"{name} has a vanishing phase derivative")
    d = d0
    N_out = max(f0.N, f1.N, 32) + 8

    grid = 2.0 * np.pi * np.arange(M) / M
    profiles = []
    for f in (f0, f1):
        h = _phase_deviation(f, d, M)
        x = _invert_circle_reparam(h, d, grid)
        v = f.series.derivative(0).eval_points(x[:, None].astype(complex))
        slope = 1.0 + h.derivative(0).eval_points(
            x[:, None].astype(complex)).real / d
        profiles.append(np.abs(v) / slope)
    rho = (1.0 - t) * profiles[0] + t * profiles[1]
    if float(np.min(rho)) <= 0.0:
        raise NumericalFailure("interpolated radial profile is not positive")
    g_vals = rho * np.exp(1j * d * grid)
    g = series_from_real_grid(g_vals, N_out)
    # closure of the reparametrized inputs makes the mean vanish exactly;
    # remove the quadrature residue before integrating
    g = g - g.mean()
    curve = CurveImmersion(g.antiderivative(0))
    return curve


@dataclasses.dataclass(frozen=True)
class EmbeddingCheck:
    is_embedding: bool
    self_intersection_index: int
    min_separated_gap: float
    grid_injective: bool


def embedding_check(curve):
    """Embeddedness by turning number, cross-checked by grid injectivity.

    A non-critical immersion is an embedding exactly when its turning
    number is +-1; the index d - sign(d) counts signed double points.  The
    grid check reports the smallest distance between images of parameters
    separated by at least SEPARATION_FRACTION of a turn.
    """
    mu_prime, flag = noncritical_phase(curve)
    if not flag:
        raise HypothesisViolation(
            "(noncritical)", "embedding criterion needs a non-critical curve")
    d = gauss_degree(curve)
    index = d - int(np.sign(d))
    is_embedding = abs(d) == 1

    M = EMBED_GRID
    pos = curve.positions(M)
    sep = max(2, int(np.ceil(SEPARATION_FRACTION * M)))
    diff = np.abs(pos[None, :] - pos[:, None])
    idx = np.arange(M)
    ring = np.minimum(np.abs(idx[None, :] - idx[:, None]),
                      M - np.abs(idx[None, :] - idx[:, None]))
    gaps = diff[ring >= sep]
    min_gap = float(np.min(gaps))
    gap_tol = 1e-6 * float(np.max(np.abs(pos - pos.mean())))
    return EmbeddingCheck(is_embedding, index, min_gap, bool(min_gap > gap_tol))
