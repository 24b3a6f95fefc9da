"""Realizing a complex volume density on the annulus through near-identity maps.

Laurent data a(z) on the annulus is carried by the same coefficient engine
as the periodic series (exponent = frequency).  The correction maps are
time-(-1) flows of holomorphic fields v = sum q_j d/dz_j with div v = a,
computed as Lie series in angle coordinates through the conjugated field
p_j(theta) = -i e^{-i theta_j} q_j(z); the Jacobian determinant along the
flow comes from the exact quadrature log det D psi = int a o phi_s ds.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from .errors import HypothesisViolation
from .fibering import MAX_ITER, STOP_TOL, KamSchedule, KamTrace
from .flows import (
    DIV_FREE_TOL,
    MapChain,
    PeriodicVectorField,
    TorusMapLift,
    flow,
    invert_map,
)
from .series import (
    PeriodicSeries,
    eval_many,
    grid_size,
    series_from_real_grid,
    theta_grid,
)

MEAN_MONOMIAL_TOL = 1e-12
EPS_SMALLA = 1e-3  # default constant in the entry hypothesis ||a||_r0 <= eps r0
# The step gate keeps the shape ||a||_r <= r delta^2 / C_F4 of the worst-case
# estimate but with a fitted constant; the flow invoked by the step re-checks
# its own bound (z1) on the actual conjugated field, which is the condition
# the construction genuinely needs.
C_F4 = 0.05


class AnnulusFunction:
    """Laurent data on the annulus, stored as a series in the angles."""

    __slots__ = ("series",)

    def __init__(self, series):
        if isinstance(series, AnnulusFunction):
            series = series.series
        self.series = series.with_real_flag(False)

    @classmethod
    def zeros(cls, n, N):
        return cls(PeriodicSeries.zeros(n, N, real=False))

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

    def eval_z(self, zpts):
        zpts = np.asarray(zpts, dtype=complex)
        return self.series.eval_points(-1j * np.log(zpts))

    def z_derivative(self, axis):
        """d/dz_axis at coefficient level: c_I -> (I_axis + 1) c_{I + e_axis}."""
        s = self.series.pad_to(self.series.N + 1)
        rolled = np.roll(np.array(s.coeffs), -1, axis=axis)
        k = np.arange(-s.N, s.N + 1)
        shape = [1] * s.n
        shape[axis] = 2 * s.N + 1
        out = rolled * (k + 1).reshape(shape)
        return AnnulusFunction(PeriodicSeries(out, trunc_mass=s.trunc_mass))

    def shift_exponent(self, axis, by):
        """Multiply by z_axis^by at coefficient level."""
        s = self.series.pad_to(self.series.N + abs(by))
        rolled = np.roll(np.array(s.coeffs), by, axis=axis)
        return AnnulusFunction(PeriodicSeries(rolled, trunc_mass=s.trunc_mass))

    def __add__(self, other):
        other = other.series if isinstance(other, AnnulusFunction) else other
        return AnnulusFunction(self.series + other)

    def __mul__(self, scalar):
        return AnnulusFunction(self.series * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return f"AnnulusFunction(n={self.n}, N={self.N})"


def laurent_split(a):
    """Partition the Laurent terms by the first axis whose exponent is not -1.

    Pieces 0..n-1 collect the terms whose leading exponents are all -1 up to
    that axis; piece n is the single all-(-1) monomial, the obstruction to
    solving the divergence equation.  The pieces sum to `a` exactly.
    """
    s = a.series
    n, N = s.n, s.N
    k = np.arange(-N, N + 1)
    first = np.full(s.coeffs.shape, n, dtype=int)
    for j in reversed(range(n)):
        shape = [1] * n
        shape[j] = 2 * N + 1
        first = np.where((k != -1).reshape(shape), j, first)
    return [AnnulusFunction(PeriodicSeries(np.where(first == j, s.coeffs, 0.0)))
            for j in range(n + 1)]


def mean_monomial(a):
    """Coefficient of 1/(z_1 ... z_n); zero iff the density integrates to zero."""
    if a.N < 1:
        return 0.0 + 0.0j
    return a.coeff((-1,) * a.n)


def mean_zero_check(a):
    defect = abs(mean_monomial(a))
    return defect <= MEAN_MONOMIAL_TOL, defect


@dataclasses.dataclass(frozen=True)
class HoloVectorField:
    """v = sum_j q_j(z) d/dz_j with Laurent component data."""

    q: tuple

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(AnnulusFunction(c) for c in self.q))

    @property
    def n(self):
        return len(self.q)

    def divergence_z(self):
        out = AnnulusFunction.zeros(self.n, 1)
        for j, c in enumerate(self.q):
            out = out + c.z_derivative(j)
        return out

    def to_theta_field(self):
        """The conjugated angle field p_j = -i z_j^{-1} q_j, as periodic series."""
        comps = [(-1j * c.shift_exponent(j, -1)).series
                 for j, c in enumerate(self.q)]
        return PeriodicVectorField(comps)


def solve_divergence(a):
    """The canonical field with div v = a and no exponent-0 terms in q_j.

    Piece j of the Laurent split integrates in z_j: the coefficient at I
    moves to I + e_j divided by I_j + 1, which exists because I_j != -1 on
    that piece.  Requires the all-(-1) monomial of `a` to vanish.
    """
    ok, defect = mean_zero_check(a)
    if not ok:
        raise HypothesisViolation(
            "(kn)", f"mean monomial coefficient has modulus {defect:.3e}")
    n = a.n
    comps = []
    for j in range(n):
        piece = laurent_split(a)[j].series
        shifted = np.roll(np.array(piece.pad_to(piece.N + 1).coeffs), 1, axis=j)
        Np = piece.N + 1
        k = np.arange(-Np, Np + 1).astype(complex)
        k[Np] = 1.0  # exponent 0 entries are identically zero after the shift
        shape = [1] * n
        shape[j] = 2 * Np + 1
        comps.append(AnnulusFunction(PeriodicSeries(shifted / k.reshape(shape))))
    return HoloVectorField(tuple(comps))


@dataclasses.dataclass(frozen=True)
class AnnulusMap:
    """Multiplicative near-identity map z_j -> z_j g_j(z), stored as log g_j."""

    log_g: tuple

    def __post_init__(self):
        object.__setattr__(self, "log_g",
                           tuple(AnnulusFunction(c) for c in self.log_g))

    @classmethod
    def from_torus_lift(cls, lift):
        if not lift.has_identity_integer_part():
            raise ValueError("only near-identity lifts define annulus maps")
        return cls(tuple(AnnulusFunction(1j * p) for p in lift.parts))

    @property
    def n(self):
        return len(self.log_g)

    def to_torus_lift(self):
        return TorusMapLift(np.eye(self.n, dtype=int),
                            [(-1j * lg.series) for lg in self.log_g])

    def log_norm(self, r):
        return max(lg.series.coeff_norm(r) for lg in self.log_g)

    # Both evaluate the torus lift theta + f at theta = -i log z from f itself,
    # since the image theta + f would round f off at the scale of theta.
    def apply_z(self, zpts):
        """z' = e^{i (theta + f)} = z e^{i f}."""
        zpts = np.asarray(zpts, dtype=complex)
        f = eval_many(self.to_torus_lift().parts, -1j * np.log(zpts))
        return zpts * np.exp(1j * f.T)

    def det_jacobian_z(self, zpts):
        """det D_z = e^{i sum_j f_j} det(I + grad f)."""
        theta = -1j * np.log(np.asarray(zpts, dtype=complex))
        lift = self.to_torus_lift()
        f = eval_many(lift.parts, theta)
        return np.exp(1j * f.sum(axis=0)) * np.linalg.det(lift.jacobian(theta))


@dataclasses.dataclass(frozen=True)
class RealizationStep:
    map: AnnulusMap
    a_next: AnnulusFunction
    a_norm: float
    flow_defect: float
    log_g_norm: float


def realization_step(a, r, delta, warn_f5=True):
    """One corrective sweep: flow for time -1 along the divergence solution.

    Returns the multiplicative map psi and the transported density defect
    a_hat with 1 + a_hat = (1 + a o psi) det D psi, computed on a grid from
    the pullback of a through psi and the exact log-determinant quadrature.
    """
    a = AnnulusFunction(a)
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    a_norm = a.norm(r)
    gate = r * delta * delta / C_F4
    if a_norm > gate:
        raise HypothesisViolation(
            "(f4)", f"||a||_r = {a_norm:.3e} exceeds r delta^2/C_F4 = {gate:.3e}")
    N_pull = 2 * a.N + 4

    field = solve_divergence(a).to_theta_field()
    fr, acc = flow(field, -1.0, r, delta, N_out=max(a.N + 1, field.N),
                   line_integrand=a.series)
    psi = AnnulusMap.from_torus_lift(fr.map)
    log_norm = psi.log_norm((1.0 - delta) * r)
    if warn_f5 and log_norm > r * delta * delta:
        warnings.warn(
            f"multiplicative part norm {log_norm:.3e} exceeds the worst-case "
            f"budget r delta^2 = {r * delta ** 2:.3e}; composite convergence "
            "is monitored through the trace instead",
            RuntimeWarning, stacklevel=2)

    M = grid_size(N_pull)
    a_vals = fr.map.pullback(a.series, N_out=N_pull).eval_real_grid(M)
    det_vals = np.exp(acc.pad_to(max(acc.N, N_pull)).eval_real_grid(M))
    hat_vals = (1.0 + a_vals) * det_vals - 1.0
    a_next = AnnulusFunction(series_from_real_grid(hat_vals, a.N))
    return RealizationStep(psi, a_next, a_norm, fr.defect, log_norm)


@dataclasses.dataclass(frozen=True)
class RealizationTraceRow:
    m: int
    r: float
    delta: float
    a: float
    residual: float  # realized contraction constant of the step taken at m


@dataclasses.dataclass
class RealizationResult:
    phi: AnnulusMap              # the realizing embedding perturbation
    psi: AnnulusMap              # collapsed composite of the corrective maps
    chain: MapChain              # psi stage chain in application order
    trace: KamTrace
    det_residual: float          # sup |det D phi - (1 + a)| on the torus grid
    inverse_residual: float      # sup |psi(phi(theta)) - theta| near the torus
    min_det: float               # totally-real witness: min |det D phi|
    min_phase_gradient: float    # non-critical witness: min |grad mu|
    converged: bool
    iterations: int


def realize_form(a, r0, eps=EPS_SMALLA):
    """Build the near-identity embedding whose volume density is 1 + a.

    Iterates corrective flows on the realization schedule until the
    transported density defect is at or below STOP_TOL, or MAX_ITER steps
    are taken, then inverts the stage chain with `invert_map` and checks the
    round trip on the torus and on the shells Im theta = +-r0/8, which lie
    inside the half-width strip of r0/2 where the inversion gate (nf) is
    taken.  Entry hypotheses: the all-(-1) monomial of `a` vanishes and
    ||a||_{r0} <= eps r0.
    """
    a0 = AnnulusFunction(a)
    n = a0.n
    ok, defect = mean_zero_check(a0)
    if not ok:
        raise HypothesisViolation(
            "(kn)", f"mean monomial coefficient has modulus {defect:.3e}")
    a_norm = a0.norm(r0)
    if a_norm > eps * r0:
        raise HypothesisViolation(
            "(smalla)",
            f"||a||_r0 = {a_norm:.3e} exceeds eps r0 = {eps * r0:.3e}")
    schedule = KamSchedule(r0, kind="realization", dim=n)

    state = a0
    stage_maps = []
    trace = KamTrace(rows=[])
    converged = False
    iterations = 0
    for m in range(MAX_ITER + 1):
        r_m = schedule.radius(m)
        d_m = schedule.delta(m)
        a_m = state.norm(r_m)
        if a_m <= STOP_TOL:
            trace.append(RealizationTraceRow(m, r_m, d_m, a_m, 0.0))
            converged = True
            break
        if m == MAX_ITER:
            trace.append(RealizationTraceRow(m, r_m, d_m, a_m, 0.0))
            break
        try:
            step = realization_step(state, r_m, d_m, warn_f5=(m == 0))
        except HypothesisViolation as err:
            err.trace = trace
            raise
        state = step.a_next
        iterations = m + 1
        a_next = state.norm(schedule.radius(m + 1))
        realized = a_next * r_m * d_m / a_m ** 2 if a_m > 0 else 0.0
        trace.append(RealizationTraceRow(m, r_m, d_m, a_m, realized))
        stage_maps.append(step.map.to_torus_lift())

    N_comp = max(2 * a0.N + 4, 8)
    if not stage_maps:
        stage_maps = [TorusMapLift.identity(n, 0)]
    chain = MapChain(stage_maps[::-1])
    psi_single = AnnulusMap.from_torus_lift(chain.to_single(N_comp))

    inv = invert_map(chain, r0 / 2.0, N_out=N_comp).map
    phi = AnnulusMap.from_torus_lift(inv)
    base = theta_grid(n, max(2 * N_comp + 3, 33))
    inverse_residual = 0.0
    for shift in (0.0, -r0 / 8.0, r0 / 8.0):
        pts = base + 1j * shift
        inverse_residual = max(inverse_residual, float(np.max(np.abs(
            chain.apply(inv.apply(pts)) - pts))))
    det_residual, min_det, min_phase_gradient = _verify_density(phi, a0)
    return RealizationResult(phi, psi_single, chain, trace, det_residual,
                             inverse_residual, min_det, min_phase_gradient,
                             converged, iterations)


def _verify_density(phi, a0):
    n = a0.n
    M = max(4 * (phi.log_g[0].N + 1), 32)
    z = np.exp(1j * theta_grid(n, M))
    det = phi.det_jacobian_z(z)
    target = 1.0 + a0.eval_z(z)
    det_residual = float(np.max(np.abs(det - target)))
    min_det = float(np.min(np.abs(det)))
    # the toroidal phase of the realized volume form is
    # mu = sum theta_j + Im log det D phi + const; the form is non-critical
    # when grad mu never vanishes
    log_det = series_from_real_grid(np.log(det).reshape((M,) * n), M // 4)
    grads = np.stack([
        1.0 + log_det.derivative(j).eval_real_grid(M).reshape(-1).imag
        for j in range(n)], axis=-1)
    min_phase_gradient = float(np.min(np.max(np.abs(grads), axis=1)))
    return det_residual, min_det, min_phase_gradient


def hamiltonian_field(H):
    """Divergence-free field on the two-dimensional annulus from Laurent data.

    q = (dH/dz_2, -dH/dz_1) satisfies div_z q = 0 exactly; its time-1 flow
    is a volume-preserving (unimodular) annulus map, handy as a test
    conjugation.
    """
    H = AnnulusFunction(H)
    if H.n != 2:
        raise ValueError("the stream construction needs exactly two variables")
    return HoloVectorField((H.z_derivative(1), -1.0 * H.z_derivative(0)))


def unimodular_flow_map(field, r, delta, N_out=None):
    """Time-1 annulus map of a divergence-free holomorphic field (det = 1)."""
    worst = field.divergence_z().norm(r)
    if worst > DIV_FREE_TOL:
        raise ValueError(f"field divergence {worst:.3e} is not negligible")
    theta_field = field.to_theta_field()
    fr = flow(theta_field, 1.0, r, delta,
              N_out=N_out if N_out is not None else theta_field.N)
    return AnnulusMap.from_torus_lift(fr.map)
