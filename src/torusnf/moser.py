"""Normalization of an analytic volume density on T^n to its mean.

The normalizing map is triangular: its j-th component perturbation depends
on the first j angles only and carries no average along the j-th angle, so
the density equation factors into a chain of one-variable antiderivative
problems, one axis at a time.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import above
from .flows import TorusMapLift
from .series import (
    PeriodicSeries,
    divide,
    witness_grid_size,
)


@dataclasses.dataclass(frozen=True)
class MoserResult:
    map: TorusMapLift
    mean: float
    residual: float


def moser_normalize(b, N_out):
    """Map the density (1+b) d theta to its mean multiple of d theta.

    b is a series real on R^n; a series that is not is refused with a
    ValueError, and a density that is not positive on the grid of
    max(witness_grid_size(b.N), 16) points per axis is refused as
    (density).  Returns the triangular near-identity lift phi, of degree
    N_out, with (1 + [b]) phi^* d theta = (1 + b) d theta, together with
    the mean [b] and the grid residual of that identity.  The perturbation
    obeys ||f||_r <= 8 pi ||b||_r.
    """
    if not b.real:
        raise ValueError("volume density perturbation must be real on R^n")
    n = b.n
    M = max(witness_grid_size(b.N), 16)
    above("(density)", float(np.min(1.0 + b.eval_real_grid(M).real)), 0.0)

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
        f_p = f_p.restrict_axes(axis)
        fs.append(f_p.symmetrized())
        partial = partial + parts[p]
    phi = TorusMapLift(np.eye(n, dtype=int), fs)

    M = witness_grid_size(max(N_out, b.N))
    # each factor keeps the shape of the axes it depends on
    det = 1.0
    for p in range(1, n + 1):
        det = det * (1.0 + fs[p - 1].derivative(p - 1).eval_real_grid(M))
    lhs = (1.0 + mean) * det
    rhs = 1.0 + b.eval_real_grid(M)
    residual = float(np.max(np.abs(lhs - rhs)))
    return MoserResult(phi, mean, residual)

