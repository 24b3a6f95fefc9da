"""Closed-curve tools: turning number, convexity phase and embeddedness.

A closed curve is carried as a one-dimensional complex Fourier series of its
lift theta -> f(e^{i theta}).  The turning number is read off the winding of
the derivative; "non-critical" means the derivative's phase is itself an
immersion of the circle (strict local convexity).  The generating curve of a
normal form must be a non-critical embedding, which `embedding_check`
decides from the turning number.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import HypothesisViolation, NumericalFailure
from .series import PeriodicSeries

DEFAULT_GRID = 4096  # samples per turn of the velocity and phase checks
IMMERSION_TOL = 1e-9
NONCRITICAL_TOL = 1e-6  # margin of the phase derivative from zero


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

    def velocity(self):
        return self.series.derivative(0).eval_real_grid(DEFAULT_GRID)


def _check_immersion(velocity):
    low = float(np.min(np.abs(velocity)))
    if low <= IMMERSION_TOL:
        raise NumericalFailure(
            f"curve speed drops to {low:.3e} on the grid: not an immersion")


def gauss_degree(curve):
    """Turning number: the winding of f' around 0.

    Accumulates the phase increments of the velocity between adjacent grid
    samples (each below pi in magnitude on an adequate grid) and divides by
    2 pi; refuses when the total is not within 1e-6 of an integer.
    """
    v = curve.velocity()
    _check_immersion(v)
    ratios = np.roll(v, -1) / v
    total = float(np.sum(np.angle(ratios))) / (2.0 * np.pi)
    d = int(np.round(total))
    if abs(total - d) > 1e-6:
        raise NumericalFailure(
            f"accumulated winding {total:.8f} is not an integer; refine the grid")
    return d


def phase_derivative(curve):
    """Samples of d(arg f')/d theta, via Im(f''/f') (no unwrapping needed)."""
    d1 = curve.series.derivative(0)
    v = d1.eval_real_grid(DEFAULT_GRID)
    _check_immersion(v)
    a = d1.derivative(0).eval_real_grid(DEFAULT_GRID)
    return (a / v).imag


def noncritical_phase(curve):
    """Phase-derivative samples and whether they stay away from zero.

    Non-critical means the samples keep one sign with margin NONCRITICAL_TOL;
    testing |mu'| alone would miss a continuous sign crossing that falls
    between grid points.
    """
    mu_prime = phase_derivative(curve)
    flag = bool(np.min(mu_prime) > NONCRITICAL_TOL
                or np.max(mu_prime) < -NONCRITICAL_TOL)
    return mu_prime, flag


@dataclasses.dataclass(frozen=True)
class EmbeddingCheck:
    is_embedding: bool
    self_intersection_index: int


def embedding_check(curve):
    """Embeddedness by turning number.

    A non-critical immersion is an embedding exactly when its turning
    number is +-1; the index d - sign(d) counts signed double points.
    """
    _, flag = noncritical_phase(curve)
    if not flag:
        raise HypothesisViolation(
            "(noncritical)", "embedding criterion needs a non-critical curve")
    d = gauss_degree(curve)
    return EmbeddingCheck(abs(d) == 1, d - int(np.sign(d)))
