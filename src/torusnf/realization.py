"""Realizing a complex volume density on the annulus through near-identity maps.

Laurent data a(z) on the annulus are plain `PeriodicSeries` (exponent =
frequency) in every function here.  `AnnulusFunction` and `AnnulusMap` are
the types `realize_form` meets its callers with: it unwraps its density
once and wraps the maps it returns, z_j -> z_j g_j(z) stored as
log g_j = i f_j for the torus lift theta + f.  The correction maps are
time-(-1) flows of holomorphic fields v = sum q_j d/dz_j with div v = a,
computed as Lie series in angle coordinates through the conjugated field
p_j(theta) = -i e^{-i theta_j} q_j(z), which `solve_divergence` writes
directly; the Jacobian determinant along the flow comes from the exact
quadrature log det D psi = int a o phi_s ds.

`realize_form` runs these steps in `fibering.shrinking_strip`, the loop it
shares with the phase normalization, on the realization schedule
r_{m+1} = (1 - 2 delta_m) r_m, delta_m = e^{-2} / (2 n (m+2)^2), with the
density norm ||a||_{r_m}, `coeff_norm`, as defect.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import at_most
from .fibering import shrinking_strip
from .flows import (
    MapChain,
    TorusMapLift,
    flow,
    grid_walk,
    invert_map,
)
from .series import (
    PeriodicSeries,
    grid_size,
    series_from_real_grid,
)

MEAN_MONOMIAL_TOL = 1e-12


class AnnulusFunction:
    """Laurent data on the annulus, stored as a series in the angles."""

    __slots__ = ("series",)

    def __init__(self, series):
        if isinstance(series, AnnulusFunction):
            series = series.series
        self.series = series.with_real_flag(False)

    @classmethod
    def from_terms(cls, n, N, terms):
        return cls(PeriodicSeries.from_terms(n, N, terms))

    @property
    def n(self):
        return self.series.n

    @property
    def N(self):
        return self.series.N

    def norm(self, r):
        return self.series.coeff_norm(r)

    def __mul__(self, scalar):
        return AnnulusFunction(self.series * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return f"AnnulusFunction(n={self.n}, N={self.N})"


def check_exact(a):
    """Refuse (kn) unless the coefficient of 1/(z_1 ... z_n) vanishes.

    That coefficient is zero iff the density integrates to zero over the
    torus; it must be at most MEAN_MONOMIAL_TOL in modulus, and it reads 0
    for a density of degree 0.  Returns the modulus.
    """
    defect = abs(a.coeff((-1,) * a.n))
    at_most("(kn)", defect, MEAN_MONOMIAL_TOL)
    return defect


def solve_divergence(a):
    """The conjugated angle field p of the canonical solution of div v = a,
    as the tuple (p_1, ..., p_n) of series for `flow`.

    v = sum_j q_j d/dz_j has no exponent-0 terms in z_j in q_j, and
    p_j = -i z_j^{-1} q_j.  The term of `a` at I goes to p_j, for the first
    axis j with I_j != -1, as -i a_I / (I_j + 1): q_j integrates it in z_j.
    Requires the all-(-1) monomial of `a` to vanish.
    """
    check_exact(a)
    n, N = a.n, a.N
    k = np.arange(-N, N + 1)
    den = np.where(k == -1, 1, k + 1).astype(complex)  # -1 never reaches p_j
    rest = a.coeffs  # the terms that no earlier axis took
    comps = []
    for j in range(n):
        shape = [1] * n
        shape[j] = 2 * N + 1
        lead = (k != -1).reshape(shape)
        comps.append(-1j * PeriodicSeries(
            np.where(lead, rest / den.reshape(shape), 0.0)))
        rest = np.where(lead, 0.0, rest)
    return tuple(comps)


@dataclasses.dataclass(frozen=True)
class AnnulusMap:
    """Multiplicative near-identity map z_j -> z_j g_j(z), stored as log g_j."""

    log_g: tuple   # AnnulusFunction per component

    @classmethod
    def from_torus_lift(cls, lift):
        return cls(tuple(AnnulusFunction(1j * p) for p in lift.parts))


def realization_step(a, r, delta):
    """One corrective sweep: flow for time -1 along the divergence solution.

    Returns the transported density defect a_hat, with
    1 + a_hat = (1 + a o psi) det D psi, and the lift of the flow map psi.
    a_hat is computed on a grid from the pullback of a through psi and the
    exact log-determinant quadrature.
    """
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    N_pull = 2 * a.N + 4

    fr = flow(solve_divergence(a), -1.0, r, delta, N_out=a.N + 2,
              line_integrand=a)

    M = grid_size(N_pull)
    a_vals = fr.map.pullback(a, N_out=N_pull).eval_real_grid(M)
    det_vals = np.exp(fr.integral.eval_real_grid(M))
    hat_vals = (1.0 + a_vals) * det_vals - 1.0
    return series_from_real_grid(hat_vals, a.N), fr.map


@dataclasses.dataclass
class RealizationResult:
    phi: AnnulusMap              # the realizing embedding perturbation
    psi: AnnulusMap              # collapsed composite of the corrective maps
    trace: list                  # TraceRow per m, defect = ||a_m||_{r_m}
    det_residual: float          # sup |det D phi - (1 + a)| on the torus grid
    inverse_residual: float      # sup |psi(phi(theta)) - theta| near the torus
    min_det: float               # totally-real witness: min |det D phi|
    min_phase_gradient: float    # non-critical witness: min |grad mu|
    converged: bool
    iterations: int


def _realization_delta(n, m):
    return np.exp(-2.0) / (2.0 * n * (m + 2) ** 2)


def realize_form(a, r0):
    """Build the near-identity embedding whose volume density is 1 + a.

    Runs corrective flows in `shrinking_strip` on the realization schedule
    until the transported density defect is at or below STOP_TOL, or
    MAX_ITER steps are taken, then inverts the stages with `invert_map`;
    with no step taken, the one stage is the zero translation, the identity
    lift.  `inverse_residual` is the worst round trip
    sup |psi(phi(theta)) - theta| over the torus, as `invert_map` witnesses
    it on its own grid, and over the shells Im theta = +-r0/8, which lie
    inside the half-width strip of r0/2 where the inversion gate (nf) is
    taken.  `a` is an `AnnulusFunction` or its series, and `phi` and
    `psi` come back as `AnnulusMap`s.  Entry hypothesis: the all-(-1)
    monomial of `a` vanishes.

    Each shell is read by `grid_walk` of the round trip, whose image is
    theta + U, so its defect on the shell Im theta = s is sup |U - i s|.
    The density check reads phi, its Jacobian and `a` on its own uniform
    grid, all by FFT.
    """
    a0 = AnnulusFunction(a).series
    n = a0.n
    check_exact(a0)

    def schedule(r, m):
        for j in range(m):
            r *= 1.0 - 2.0 * _realization_delta(n, j)
        return r, _realization_delta(n, m)

    _, steps, trace, converged = shrinking_strip(
        a0, r0, schedule, PeriodicSeries.coeff_norm, realization_step, 1)

    N_comp = max(2 * a0.N + 4, 8)
    stages = steps or (TorusMapLift.translation(n, np.zeros(n)),)
    psi = AnnulusMap.from_torus_lift(MapChain(stages).to_single(N_comp))

    inverse = invert_map(stages, r0 / 2.0, N_out=N_comp)
    M = max(2 * N_comp + 3, 33)
    round_trip = (inverse.map, *stages)
    inverse_residual = inverse.residual
    for shift in (-r0 / 8.0, r0 / 8.0):
        U = grid_walk(round_trip, M, shift, None)[0]
        inverse_residual = max([inverse_residual] + [
            float(np.max(np.abs(u - 1j * shift))) for u in U])
    det_residual, min_det, min_phase_gradient = _verify_density(
        inverse.map, a0)
    return RealizationResult(AnnulusMap.from_torus_lift(inverse.map), psi,
                             trace, det_residual, inverse_residual, min_det,
                             min_phase_gradient, converged, len(steps))


def _verify_density(lift, a0):
    """det D_z phi against 1 + a0 on the uniform M^n torus grid, read by FFT,
    for phi_j = z_j g_j with torus lift theta + f, log g_j = i f_j.

    det D_z phi is prod_j g_j det(I + grad f), and prod_j g_j =
    exp(sum_j log g_j) is read from the summed series rather than from
    theta + f, which would round f off at the scale of theta; `grid_walk`
    multiplies it by det(I + grad f).
    """
    n = a0.n
    M = max(4 * (lift.N + 1), 32)
    log_g = sum(1j * p for p in lift.parts)
    det = grid_walk((lift,), M, 0.0, np.exp(log_g.eval_real_grid(M)))[1]
    target = 1.0 + a0.eval_real_grid(M)
    det_residual = float(np.max(np.abs(det - target)))
    min_det = float(np.min(np.abs(det)))
    # the toroidal phase of the realized volume form is
    # mu = sum theta_j + Im log det D phi + const; the form is non-critical
    # when grad mu never vanishes
    log_det = series_from_real_grid(np.log(det), M // 4)
    grads = np.stack(np.broadcast_arrays(*[
        1.0 + log_det.derivative(j).eval_real_grid(M).imag
        for j in range(n)]), axis=-1)
    min_phase_gradient = float(np.min(np.max(np.abs(grads), axis=-1)))
    return det_residual, min_det, min_phase_gradient

