"""Realizing a complex volume density on the annulus through near-identity maps.

Laurent data a(z) on the annulus is carried by the same coefficient engine
as the periodic series (exponent = frequency).  The correction maps are
time-(-1) flows of holomorphic fields v = sum q_j d/dz_j with div v = a,
computed as Lie series in angle coordinates through the conjugated field
p_j(theta) = -i e^{-i theta_j} q_j(z), which `solve_divergence` writes
directly; the Jacobian determinant along the flow comes from the exact
quadrature log det D psi = int a o phi_s ds.

`realize_form` runs these steps in `fibering.shrinking_strip`, the loop it
shares with the phase normalization, on the realization schedule
r_{m+1} = (1 - 2 delta_m) r_m, delta_m = e^{-2} / (2 n (m+2)^2), with the
density norm ||a||_{r_m} as defect.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import at_most
from .fibering import shrinking_strip
from .flows import (
    MapChain,
    PeriodicVectorField,
    TorusMapLift,
    flow,
    grid_walk,
    has_identity_integer_part,
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
        return cls(PeriodicSeries.from_terms(n, N, terms, real=False))

    @property
    def n(self):
        return self.series.n

    @property
    def N(self):
        return self.series.N

    def coeff(self, exponents):
        return self.series.coeff(exponents)

    def norm(self, r):
        return self.series.coeff_norm(r)

    def z_derivative(self, axis):
        """d/dz_axis at coefficient level: c_I -> (I_axis + 1) c_{I + e_axis}."""
        s = self.series.pad_to(self.series.N + 1)
        rolled = np.roll(np.array(s.coeffs), -1, axis=axis)
        k = np.arange(-s.N, s.N + 1)
        shape = [1] * s.n
        shape[axis] = 2 * s.N + 1
        out = rolled * (k + 1).reshape(shape)
        return AnnulusFunction(PeriodicSeries(out, trunc_mass=s.trunc_mass))

    def __mul__(self, scalar):
        return AnnulusFunction(self.series * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return f"AnnulusFunction(n={self.n}, N={self.N})"


def check_exact(a):
    """Refuse (kn) unless the coefficient of 1/(z_1 ... z_n) vanishes.

    That coefficient is zero iff the density integrates to zero over the
    torus; it must be at most MEAN_MONOMIAL_TOL in modulus.  Returns the
    modulus.
    """
    defect = abs(a.coeff((-1,) * a.n)) if a.N >= 1 else 0.0
    at_most("(kn)", defect, MEAN_MONOMIAL_TOL)
    return defect


def solve_divergence(a):
    """The conjugated angle field p of the canonical solution of div v = a.

    v = sum_j q_j d/dz_j has no exponent-0 terms in z_j in q_j, and
    p_j = -i z_j^{-1} q_j.  The term of `a` at I goes to p_j, for the first
    axis j with I_j != -1, as -i a_I / (I_j + 1): q_j integrates it in z_j.
    Requires the all-(-1) monomial of `a` to vanish.
    """
    check_exact(a)
    s = a.series
    n, N = s.n, s.N
    k = np.arange(-N, N + 1)
    den = np.where(k == -1, 1, k + 1).astype(complex)  # -1 never reaches p_j
    rest = s.coeffs  # the terms that no earlier axis took
    comps = []
    for j in range(n):
        shape = [1] * n
        shape[j] = 2 * N + 1
        lead = (k != -1).reshape(shape)
        comps.append(-1j * PeriodicSeries(
            np.where(lead, rest / den.reshape(shape), 0.0)))
        rest = np.where(lead, 0.0, rest)
    return PeriodicVectorField(comps)


@dataclasses.dataclass(frozen=True)
class AnnulusMap:
    """Multiplicative near-identity map z_j -> z_j g_j(z), stored as log g_j."""

    log_g: tuple

    def __post_init__(self):
        object.__setattr__(self, "log_g",
                           tuple(AnnulusFunction(c) for c in self.log_g))

    @classmethod
    def from_torus_lift(cls, lift):
        if not has_identity_integer_part(lift):
            raise ValueError("only near-identity lifts define annulus maps")
        return cls(tuple(AnnulusFunction(1j * p) for p in lift.parts))

    @property
    def n(self):
        return len(self.log_g)

    def to_torus_lift(self):
        return TorusMapLift(np.eye(self.n, dtype=int),
                            [(-1j * lg.series) for lg in self.log_g])


def realization_step(a, r, delta):
    """One corrective sweep: flow for time -1 along the divergence solution.

    Returns the transported density defect a_hat, with
    1 + a_hat = (1 + a o psi) det D psi, and the lift of the flow map psi.
    a_hat is computed on a grid from the pullback of a through psi and the
    exact log-determinant quadrature.
    """
    a = AnnulusFunction(a)
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    N_pull = 2 * a.N + 4

    fr = flow(solve_divergence(a), -1.0, r, delta, N_out=a.N + 2,
              line_integrand=a.series)

    M = grid_size(N_pull)
    a_vals = fr.map.pullback(a.series, N_out=N_pull).eval_real_grid(M)
    det_vals = np.exp(fr.integral.eval_real_grid(M))
    hat_vals = (1.0 + a_vals) * det_vals - 1.0
    return AnnulusFunction(series_from_real_grid(hat_vals, a.N)), fr.map


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
    MAX_ITER steps are taken, then inverts the stages with
    `invert_map`.  `inverse_residual` is the worst round trip
    sup |psi(phi(theta)) - theta| over the torus, as `invert_map` witnesses
    it on its own grid, and over the shells Im theta = +-r0/8, which lie
    inside the half-width strip of r0/2 where the inversion gate (nf) is
    taken.  Entry hypothesis: the all-(-1) monomial of `a` vanishes.

    Each shell is read by `grid_walk` of the round trip; it has D = I, so
    its defect on the shell Im theta = s is sup |U - i s|.  The density
    check reads phi, its Jacobian and `a` on its own uniform grid, all by
    FFT.
    """
    a0 = AnnulusFunction(a)
    n = a0.n
    check_exact(a0)

    def schedule(r, m):
        for j in range(m):
            r *= 1.0 - 2.0 * _realization_delta(n, j)
        return r, _realization_delta(n, m)

    _, stage_maps, trace, converged = shrinking_strip(
        a0, r0, schedule, AnnulusFunction.norm, realization_step, 1)
    iterations = len(stage_maps)

    N_comp = max(2 * a0.N + 4, 8)
    if not stage_maps:
        stage_maps = [TorusMapLift.identity(n)]
    stages = tuple(stage_maps[::-1])
    psi = AnnulusMap.from_torus_lift(MapChain(stages).to_single(N_comp))

    inverse = invert_map(stages, r0 / 2.0, N_out=N_comp)
    phi = AnnulusMap.from_torus_lift(inverse.map)
    M = max(2 * N_comp + 3, 33)
    round_trip = (inverse.map, *stages)
    inverse_residual = inverse.residual
    for shift in (-r0 / 8.0, r0 / 8.0):
        U = grid_walk(round_trip, M, shift, None)[1]
        inverse_residual = max([inverse_residual] + [
            float(np.max(np.abs(u - 1j * shift))) for u in U])
    det_residual, min_det, min_phase_gradient = _verify_density(phi, a0)
    return RealizationResult(phi, psi, trace, det_residual,
                             inverse_residual, min_det, min_phase_gradient,
                             converged, iterations)


def _verify_density(phi, a0):
    """det D_z phi against 1 + a0 on the uniform M^n torus grid, read by FFT.

    With phi_j = z_j g_j and theta + f the torus lift, det D_z phi is
    prod_j g_j det(I + grad f), and prod_j g_j = exp(sum_j log g_j) is read
    from the summed series rather than from theta + f, which would round f
    off at the scale of theta; `grid_walk` multiplies it by det(I + grad f).
    """
    n = a0.n
    M = max(4 * (phi.log_g[0].N + 1), 32)
    log_g = sum(lg.series for lg in phi.log_g)
    det = grid_walk((phi.to_torus_lift(),), M, 0.0,
                    np.exp(log_g.eval_real_grid(M)))[2]
    target = 1.0 + a0.series.eval_real_grid(M)
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

