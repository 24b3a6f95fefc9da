"""Flows of periodic vector fields and the algebra of lifted torus maps.

Every map is near the identity, theta -> D theta + f(theta) with D integer
and f small.  It is computed on a uniform real grid and re-expanded as a
Fourier series, whose coefficient norms then bound it on the strip.
Holomorphic (non-real) data are allowed throughout.

One grid kernel composes a series h with such a map: h(D theta + U) is the
Taylor sum of on-grid derivatives of h times powers of U, one order at a
time until an order is below round-off.  `TorusMapLift.pullback`,
`compose_maps` (stage by stage) and `invert_map` all go through it.  Flows
are Lie series, sum_k t^k/k! L^{k-1} p with L g = sum_i p_i d_i g, every
product taken on the grid.  `compose_maps` is the one place a composite is
collapsed and `invert_map` the one fixed-point inverter.

`_lift_from_grid` is the one place a computed map is re-expanded, and it
chops each part by one rule: the smallest coefficients are dropped for as
long as their summed modulus stays at or below CHOP_FLOOR, and that mass is
added to the part's `trunc_mass`.  A chopped part therefore differs from its
re-expansion by at most CHOP_FLOOR anywhere on the real torus, about one ulp
of an angle near 2 pi, while a map that is round-off (the inverse of an
identity up to rounding, say) keeps only the few coefficients that carry its
mass.

Off-grid point evaluation (`apply`, `jacobian`, `MapChain.jacobian_det`) is
kept for the independent residual witnesses.  A stage's image and Jacobian
come from one `eval_many` call over its parts and their first derivatives,
and `eval_many` contracts each series only over the axes it depends on, so
the vanishing and one-angle parts of a stage, chopped maps included, cost
next to nothing.
"""

from __future__ import annotations

import dataclasses
import itertools
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

# A field is divergence-free when its divergence has coefficient norm at or
# below DIV_FREE_TOL on the strip of half-width DIV_FREE_R.
DIV_FREE_TOL = 1e-10
DIV_FREE_R = 0.5
# A Taylor order or Lie term with grid sup at or below TERM_TOL is round-off
# next to the angles, and ends the sum; no sum runs past MAX_TERMS, and a Lie
# series cut there with a last term above FLOW_DEFECT_TOL is refused.
TERM_TOL = 1e-16
MAX_TERMS = 40
FLOW_DEFECT_TOL = 1e-8
# Fixed-point inversion stops once a step is at or below INVERT_TOL.
INVERT_TOL = 1e-13
INVERT_MAX_ITER = 200
# Step of the central differences in `finite_difference_jacobian_det`.
FD_STEP = 1e-5


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

    def divergence(self):
        out = PeriodicSeries.zeros(self.n, self.N, real=self.real)
        for j, c in enumerate(self.components):
            out = out + c.derivative(j)
        return out

    def is_divergence_free(self):
        return self.divergence().coeff_norm(DIV_FREE_R) <= DIV_FREE_TOL


def _spectral_factors(n, M):
    """i k along each axis of an M-point FFT grid, zero at the Nyquist index."""
    k = np.fft.fftfreq(M, 1.0 / M)
    k[2 * np.abs(k) == M] = 0.0
    return [1j * k.reshape([M if i == j else 1 for i in range(n)])
            for j in range(n)]


def _grid_gradient(vals):
    """Spectral partial derivatives of grid values, one grid per axis."""
    spec = np.fft.fftn(vals)
    return [np.fft.ifftn(spec * ik)
            for ik in _spectral_factors(vals.ndim, vals.shape[0])]


def _sup(grids):
    return max(float(np.max(np.abs(g))) for g in grids)


def _taylor_on_grid(series_list, D, U, M):
    """Values of each series at D theta + U(theta) on the M^n grid.

    U holds one grid per component.  The Taylor sum over multi-indices a of
    (d^a h)(D theta) U^a / a! runs one order |a| at a time until an order is
    below TERM_TOL; each derivative is one inverse FFT, and D only re-indexes
    grid points.  Derivatives along axes h does not depend on, and powers of
    vanishing components of U, are skipped.
    """
    n = len(U)
    if np.array_equal(D, np.eye(n, dtype=int)):
        index = Ellipsis
    else:
        index = tuple(np.tensordot(D, np.indices((M,) * n), axes=(1, 0)) % M)
    vals = [h.eval_real_grid(M) for h in series_list]
    out = [v[index] for v in vals]
    spectra = [np.fft.fftn(v) for v in vals]
    deps = [set(h.dependent_axes()) for h in series_list]
    active = [j for j in range(n) if np.any(U[j])]
    ik = _spectral_factors(n, M)
    for order in range(1, MAX_TERMS + 1):
        terms = [0.0] * len(spectra)
        for axes in itertools.combinations_with_replacement(active, order):
            weight, fac = 1.0, 1.0
            for j in set(axes):
                a = axes.count(j)
                weight = weight * U[j] ** a / math.factorial(a)
                fac = fac * ik[j] ** a
            for i, s in enumerate(spectra):
                if deps[i].issuperset(axes):
                    terms[i] = terms[i] + weight * np.fft.ifftn(s * fac)[index]
        for acc, term in zip(out, terms):
            acc += term
        if _sup(terms) <= TERM_TOL:
            return out
    raise NumericalFailure(
        f"Taylor composition not below {TERM_TOL:.0e} after {MAX_TERMS} orders")


def _apply_on_grid(stages, M, U=None):
    """The lifts `stages`, first-applied first, applied to theta + U(theta)
    (default theta) on the M^n grid, as D theta + W(theta): returns D and
    the displacement W, one grid per component."""
    n = stages[0].n
    if U is None:
        U = [np.zeros((M,) * n, dtype=complex) for _ in range(n)]
    D = np.eye(n, dtype=int)
    for s in stages:
        f = _taylor_on_grid(s.parts, D, U, M)
        U = [sum(s.D[j, l] * U[l] for l in range(n)) + f[j] for j in range(n)]
        D = s.D @ D
    return D, U


def _lift_from_grid(D, disp, N_out, real):
    """The lift D theta + f(theta), f re-expanded at N_out from the grids
    `disp`, one per component.

    Each part is tail-chopped: its smallest coefficients are zeroed while
    their summed modulus stays at or below CHOP_FLOOR, so the part moves by
    at most CHOP_FLOOR on the real torus, and the dropped mass is added to
    its `trunc_mass` next to the aliasing mass of the re-expansion.
    """
    return TorusMapLift(
        D, [series_from_real_grid(g, N_out, real=real).chop_tail()
            for g in disp])


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
        return self._image_and_jacobian(pts)[1]

    def _image_and_jacobian(self, pts):
        """The image and the Jacobian at each point, from one `eval_many`
        call over the parts and their n^2 first derivatives."""
        pts = np.asarray(pts, dtype=complex)
        n = self.n
        grads = [p.derivative(l) for p in self.parts for l in range(n)]
        vals = eval_many(self.parts + tuple(grads), pts)
        image = pts @ self.D.T.astype(float)
        image += vals[:n].T
        return image, self.D + vals[n:].T.reshape(-1, n, n)

    def pullback(self, h, N_out=None):
        """h composed with this lift by the grid kernel, re-expanded at N_out.

        Refuses when the requested degree bound cannot hold the input
        spectrum (the re-expansion grid would alias h itself), and raises
        NumericalFailure for a map so far from the identity that the Taylor
        sum does not reach round-off in MAX_TERMS orders.
        """
        if h.n != self.n:
            raise ValueError("dimension mismatch")
        if N_out is None:
            N_out = h.N
        if N_out < h.N:
            raise ValueError(
                f"output degree {N_out} below input degree {h.N}: grid too coarse")
        M = grid_size(N_out, self.N)
        U = [p.eval_real_grid(M) for p in self.parts]
        vals = _taylor_on_grid([h], self.D, U, M)[0]
        return series_from_real_grid(vals, N_out, real=h.real and self.real)


@dataclasses.dataclass(frozen=True)
class FlowResult:
    """Time-t map of a field.  `step_count` Lie-series terms were summed
    (the benchmark tracer reads it as flows.flow.rk4_steps); `defect` is the
    grid sup of the last term, over the displacement and line integral."""

    map: TorusMapLift
    t: float
    step_count: int
    defect: float


def flow(v, t, r1, delta, N_out=None, line_integrand=None):
    """Time-t map of the field as a near-identity lift, by its Lie series.

    The displacement is sum_{k >= 1} t^k/k! L^{k-1} p with L g = sum_i p_i
    d_i g, products and spectral derivatives taken on the grid, summed up to
    the first term at or below TERM_TOL.  Requires |t| <= 1, 0 < delta < 1/2
    and the bound (z1) ||p||_{r1} <= r1 delta.  With `line_integrand` g, also
    returns int_0^t g(theta(s)) ds = sum_{k >= 1} t^k/k! L^{k-1} g.
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
    fields = list(v.components) + ([] if line_integrand is None
                                   else [line_integrand])
    M = grid_size(N_out, *(g.N for g in fields))
    powers = [g.eval_real_grid(M) for g in fields]   # L^{k-1} of each
    p = powers[:v.n]
    sums = [t * g for g in powers]
    k, defect = 1, _sup(sums)
    while defect > TERM_TOL and k < MAX_TERMS:
        k += 1
        powers = [sum(pi * d for pi, d in zip(p, _grid_gradient(g)))
                  for g in powers]
        terms = [t ** k / math.factorial(k) * g for g in powers]
        sums = [acc + term for acc, term in zip(sums, terms)]
        defect = _sup(terms)
    if defect > FLOW_DEFECT_TOL:
        raise NumericalFailure(f"Lie series defect {defect:.3e} above "
                               f"{FLOW_DEFECT_TOL:.1e} after {MAX_TERMS} terms")
    result = FlowResult(
        _lift_from_grid(np.eye(v.n, dtype=int), sums[:v.n], N_out, v.real),
        float(t), k, defect)
    if line_integrand is None:
        return result
    acc_series = series_from_real_grid(sums[v.n], N_out,
                                       real=v.real and line_integrand.real)
    return result, acc_series


def log_det_jacobian(v, t, r1, delta):
    """log det of the time-t flow map, via quadrature of the divergence.

    Along the flow, d/ds log det D phi_s = (div p)(phi_s), so the log
    determinant is the line integral of the divergence; for divergence-free
    fields it vanishes identically and the flow is volume-preserving.
    """
    _, acc = flow(v, t, r1, delta, line_integrand=v.divergence())
    return acc


def compose_maps(*maps, N_out=None):
    """The lift of the composite of `maps`, outermost first.

    compose_maps(phi, psi) is theta -> phi(psi(theta)).  Integer parts
    multiply; the maps are applied in turn on one oversampled grid by the
    grid kernel and the periodic part of the composite is re-expanded once,
    at the requested degree bound (default: the largest input degree).
    """
    chain = MapChain(maps[::-1])
    if N_out is None:
        N_out = chain.N
    M = grid_size(N_out, chain.N)
    D, disp = _apply_on_grid(chain.stages, M)
    return _lift_from_grid(D, disp, N_out, chain.real)


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
            pts, jac = s._image_and_jacobian(pts)
            # a degree-0 stage is affine, with the constant Jacobian D
            det = det * np.linalg.det(jac if s.N else s.D)
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


def invert_map(phi, r, N_out=None):
    """Inverse of a near-identity lift or MapChain by fixed-point iteration.

    The inverse is theta + U on the grid.  Each iteration applies phi to
    theta + U by the grid kernel, stage by stage for a chain, giving
    theta + W, and sets U <- U - W: for one lift theta + f, the contraction
    U <- -f(theta + U).  Requires an identity integer part and the bound
    (nf) ||f||_r <= r/(4n), on the summed stage norms for a chain, which
    makes the iteration contract on the half-width strip.  The residual is
    the off-grid witness sup |phi(phi^{-1}(theta)) - theta| on a second grid.
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
    stages = phi.stages if isinstance(phi, MapChain) else (phi,)
    M = grid_size(N_out, phi.N)
    U = [np.zeros((M,) * n, dtype=complex) for _ in range(n)]
    prev_delta = np.inf
    for its in range(1, INVERT_MAX_ITER + 1):
        _, W = _apply_on_grid(stages, M, U)
        U = [u - w for u, w in zip(U, W)]
        delta = _sup(W)
        if delta <= INVERT_TOL:
            break
        if delta > prev_delta * (1.0 + 1e-12) and delta > 1e3 * INVERT_TOL:
            raise NumericalFailure(
                f"fixed-point iteration expanding: step {delta:.3e} "
                f"after {prev_delta:.3e}")
        prev_delta = delta
    else:
        raise NumericalFailure(
            f"fixed-point iteration did not reach {INVERT_TOL:.1e} "
            f"in {INVERT_MAX_ITER} steps")
    inv = _lift_from_grid(np.eye(n, dtype=int), U, N_out, phi.real)
    check = theta_grid(n, M + 1)
    residual = float(np.max(np.abs(phi.apply(inv.apply(check)) - check)))
    return MapInverse(inv, residual, its)


def finite_difference_jacobian_det(apply_fn, pts):
    """Central-difference det of an arbitrary point map, with step FD_STEP;
    test oracle helper."""
    pts = np.asarray(pts, dtype=complex)
    m, n = pts.shape
    jac = np.empty((m, n, n), dtype=complex)
    for l in range(n):
        e = np.zeros(n)
        e[l] = FD_STEP
        jac[:, :, l] = (apply_fn(pts + e) - apply_fn(pts - e)) / (2.0 * FD_STEP)
    return np.linalg.det(jac)
