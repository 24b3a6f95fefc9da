"""Closed-curve tools: turning number, convexity phase and embeddedness.

A closed curve is carried as a one-dimensional complex Fourier series of its
lift theta -> f(e^{i theta}).  The turning number is read off the winding of
the derivative; "non-critical" means the derivative's phase is itself an
immersion of the circle (strict local convexity).  The generating curve of a
normal form must be a non-critical embedding: `embedding_check` refuses a
critical curve and returns the turning number, which is +-1 exactly for an
embedding.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import above, at_most
from .series import PeriodicSeries

DEFAULT_GRID = 4096  # samples per turn of the velocity and phase checks
IMMERSION_TOL = 1e-9
NONCRITICAL_TOL = 1e-6  # margin of the phase derivative from zero
WINDING_TOL = 1e-6      # distance of the accumulated winding from an integer


@dataclasses.dataclass(frozen=True)
class CurveImmersion:
    """Closed curve in the plane, stored through its periodic lift."""

    series: PeriodicSeries

    def __post_init__(self):
        if self.series.n != 1:
            raise ValueError("curves are one-dimensional series")

    def velocity(self):
        return self.series.derivative(0).eval_real_grid(DEFAULT_GRID)


def _check_immersion(velocity):
    above("(immersion)", float(np.min(np.abs(velocity))), IMMERSION_TOL)


def gauss_degree(curve):
    """Turning number: the winding of f' around 0.

    Accumulates the phase increments of the velocity between adjacent grid
    samples (each below pi in magnitude on an adequate grid) and divides by
    2 pi; refuses when the total is not within WINDING_TOL of an integer.
    """
    v = curve.velocity()
    _check_immersion(v)
    ratios = np.roll(v, -1) / v
    total = float(np.sum(np.angle(ratios))) / (2.0 * np.pi)
    at_most("(winding)", abs(total - np.round(total)), WINDING_TOL)
    return int(np.round(total))


def noncritical_phase(curve):
    """Samples of mu' = d(arg f')/d theta, read as Im(f''/f') after the
    (immersion) check, with no unwrapping, and their margin from zero,
    max(min mu', -max mu').

    Non-critical means the samples keep one sign with margin NONCRITICAL_TOL,
    that is margin > NONCRITICAL_TOL; testing |mu'| alone would miss a
    continuous sign crossing that falls between grid points.
    """
    d1 = curve.series.derivative(0)
    v = d1.eval_real_grid(DEFAULT_GRID)
    _check_immersion(v)
    mu_prime = (d1.derivative(0).eval_real_grid(DEFAULT_GRID) / v).imag
    return mu_prime, max(float(np.min(mu_prime)), -float(np.max(mu_prime)))


def embedding_check(curve):
    """The turning number of a non-critical immersion, which is an
    embedding exactly when that number is +-1."""
    above("(noncritical)", noncritical_phase(curve)[1], NONCRITICAL_TOL)
    return gauss_degree(curve)
