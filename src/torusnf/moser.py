"""Normalization of an analytic volume density on T^n to its mean.

The normalizing map is triangular: its j-th component perturbation depends
on the first j angles only and carries no average along the j-th angle, so
the density equation factors into a chain of one-variable antiderivative
problems, one axis at a time.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import NumericalFailure
from .flows import TorusMapLift
from .series import (
    PeriodicSeries,
    divide,
    grid_size,
)


@dataclasses.dataclass(frozen=True)
class VolumeDensity:
    """Real analytic density (1 + b(theta)) d theta on T^n."""

    b: PeriodicSeries

    def __post_init__(self):
        if not self.b.real:
            raise ValueError("volume density perturbation must be real on R^n")

    def min_on_grid(self):
        M = max(grid_size(self.b.N), 16)
        vals = 1.0 + self.b.eval_real_grid(M).real
        return float(np.min(vals))


@dataclasses.dataclass(frozen=True)
class MoserResult:
    map: TorusMapLift
    mean: float
    residual: float
    f_norm: float


def moser_normalize(density, r, N_out=None):
    """Map the density (1+b) d theta to its mean multiple of d theta.

    Returns the triangular near-identity lift phi with
    (1 + [b]) phi^* d theta = (1 + b) d theta, together with the mean [b],
    the grid residual of that identity, and the coefficient norm of the
    perturbation (which obeys ||f||_r <= 8 pi ||b||_r).
    """
    b = density.b
    n = b.n
    if not 0.0 < r < 1.0:
        raise ValueError(f"strip half-width must lie in (0, 1), got {r}")
    if density.min_on_grid() <= 0.0:
        raise NumericalFailure("density 1 + b vanishes on the real grid")
    if N_out is None:
        N_out = b.N

    parts = b.triangular_split()
    mean = parts[0].mean().real
    fs = []
    partial = PeriodicSeries.constant(n, b.N, 1.0 + mean)
    for p in range(1, n + 1):
        axis = p - 1
        num = parts[p].antiderivative(axis)
        f_p = divide(num, partial, N_out=N_out)
        # the quotient lives on axes <= axis and keeps a zero axis-average;
        # re-impose both exactly against grid round-off
        f_p = f_p.restrict_axes(axis, require_oscillating=axis)
        fs.append(f_p.symmetrized())
        partial = partial + parts[p]
    phi = TorusMapLift(np.eye(n, dtype=int), fs)

    M = grid_size(max(N_out, b.N))
    det = np.ones((M,) * n, dtype=complex)
    for p in range(1, n + 1):
        det *= 1.0 + fs[p - 1].derivative(p - 1).eval_real_grid(M)
    lhs = (1.0 + mean) * det
    rhs = 1.0 + b.eval_real_grid(M)
    residual = float(np.max(np.abs(lhs - rhs)))
    f_norm = phi.part_norm(r)
    return MoserResult(phi, mean, residual, f_norm)

