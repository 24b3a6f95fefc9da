"""Flows of periodic vector fields and the algebra of lifted torus maps.

Every map is near the identity, theta -> theta + f(theta) with f small;
an integer linear map, as the shear onto the fibration, acts on
coefficients through `pull_back_linear` and never walks here.  A map is
computed on a uniform real grid and re-expanded as a Fourier series, whose
coefficient norms then bound it on the strip.  Holomorphic (non-real) data
are allowed throughout.

One grid kernel, `taylor_on_grid`, composes a series h with such a map:
h(theta + U) is the Taylor sum of the derivatives of h, read on the grid
from their coefficients, times powers of U, one order at a time until an
order is below round-off.  A displacement c that is the same at every point
is read exactly as translate(h, c), so a translation costs no grid work.
`TorusMapLift.pullback`, `compose_maps`, `invert_map` (stage by stage) and
the witnesses all go through it.
A field is a plain tuple of n series p_j on T^n, d theta_j / dt =
p_j(theta).  Flows are Lie series, sum_k t^k/k! L^{k-1} p with
L g = sum_i p_i d_i g, every product taken on the grid.  `compose_maps` is
the one place a composite is collapsed and `invert_map` the one
fixed-point inverter.

`_lift_from_grid` is the one place a computed map is re-expanded, and it
chops each part by one rule: the smallest coefficients are dropped for as
long as their summed modulus stays at or below CHOP_FLOOR, and that mass is
added to the part's `trunc_mass`.  A chopped part therefore differs from its
re-expansion by at most CHOP_FLOOR anywhere on the real torus, about one ulp
of an angle near 2 pi, while a map that is round-off (the inverse of an
identity up to rounding, say) keeps only the few coefficients that carry its
mass.

Values on the M^n-point real grid are kept at the shape of the axes they
depend on: M along each of those axes and 1 along the others, as
`eval_real_grid` returns them, so that arithmetic broadcasts them.  The
volume map is triangular (Moser 1965): its part p depends on the first p
angles only, and a part of theta_1 alone costs M points, not M^n.  A
re-expansion (`series_from_real_grid`) takes the values at that shape too
and transforms only their axes.

One loop, `_walk`, applies a composite map: a tuple of lifts, first-applied
first, the one type a composite has; a single lift is the tuple (lift,).
Each stage sets U <- U + f.  A translation (parts constant) adds its
constants, with nothing read and the determinant unchanged.  Any other
stage reads its parts, and its n^2 first derivatives for a determinant,
through a reader: on the grid `taylor_on_grid` at theta + U, at scattered
points `eval_many` at the points that U carries whole.  Every determinant
goes to `stacked_det` entry by entry, a constant entry as a scalar, so no
(m, n, n) stack is built.  A residual witness samples the real grid
+ i shift through `grid_walk`, which returns the image as theta + U and
the determinant there, each entry a scalar or grid values at the shape of
the axes it depends on, which the witness broadcasts.  Its leading
translations and first non-constant stage are walked on the grid;
`continue_walk` takes the later stages to the scattered image points,
through a `MapChain` of them, whose `apply` / `jacobian_det` take and
return one coordinate array per component at the shape of the axes it
depends on, so no (M^n, n) array of points is built, and a stage of
theta_1 alone is read at M points.  A witness that extends a finished walk,
as the normal-form witness extends the fibering one, hands its (U, det) to
`continue_walk`.  A series read at the image, as the density or the phase
in those witnesses, goes through the grid kernel at the returned U.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np

from .errors import at_most
from .series import (
    PeriodicSeries,
    eval_many,
    grid_size,
    series_from_real_grid,
    stacked_det,
    translate,
    witness_grid_size,
)

# A Taylor order or Lie term with grid sup at or below TERM_TOL is round-off
# next to the angles, and ends the sum; no sum runs past MAX_TERMS, and a Lie
# series cut there with a last term above FLOW_DEFECT_TOL is refused.
TERM_TOL = 1e-16
MAX_TERMS = 40
FLOW_DEFECT_TOL = 1e-8
# Fixed-point inversion stops once a step is at or below INVERT_TOL.
INVERT_TOL = 1e-13
INVERT_MAX_ITER = 200


def _spectral_factors(n, M):
    """i k along each axis of an M-point FFT grid, zero at the Nyquist index."""
    k = np.fft.fftfreq(M, 1.0 / M)
    k[2 * np.abs(k) == M] = 0.0
    return [1j * k.reshape([M if i == j else 1 for i in range(n)])
            for j in range(n)]


def _grid_gradient(vals, M):
    """Spectral partial derivatives of values on the M^n grid, kept at the
    shape of the axes they depend on, one grid per axis; along an axis of
    length 1 the values are constant, and the derivative is 0."""
    spec = np.fft.fftn(vals)
    return [np.fft.ifftn(spec * ik) if vals.shape[j] > 1 else 0.0
            for j, ik in enumerate(_spectral_factors(vals.ndim, M))]


def _sup(grids):
    """The largest modulus over the grids; NaN if any value is NaN."""
    return float(np.max([np.max(np.abs(g)) for g in grids]))


def taylor_on_grid(series_list, U, M):
    """Values of each series at theta + U(theta) on the M^n grid.

    U holds one entry per component: grid values at the shape of the axes
    they depend on (see `eval_real_grid`), or a scalar where the
    displacement is the same at every point.  Each value comes back at the
    shape of the axes it depends on, so a constant series is a read-only
    (1,)*n array of its value.  When every entry is a scalar, U = c, the
    value h(theta + c) is translate(h, c) read by `eval_real_grid`: exact,
    with no Taylor order.  Otherwise the Taylor sum over multi-indices a of
    (d^a h)(theta) U^a / a! runs one order |a| at a time until an order is
    below TERM_TOL.  Each derivative is taken on the coefficients and read by
    `eval_real_grid`, exact for every M.  No derivative is built along an
    axis h does not depend on or where U vanishes.
    """
    n = len(U)
    scalar = all(np.ndim(u) == 0 for u in U)
    deps = [set(h.dependent_axes()) for h in series_list]
    out = [(translate(h, U) if scalar else h).eval_real_grid(M) if dep
           else np.broadcast_to(h.mean(), (1,) * n)
           for h, dep in zip(series_list, deps)]
    active = [] if scalar else [
        j for j in sorted(set().union(*deps)) if np.any(U[j])]
    for order in range(1, MAX_TERMS + 1):
        terms = [0.0] * len(series_list)
        for axes in itertools.combinations_with_replacement(active, order):
            weight = 1.0
            for j in set(axes):
                a = axes.count(j)
                weight = weight * U[j] ** a / math.factorial(a)
            for i, h in enumerate(series_list):
                if deps[i].issuperset(axes):
                    d = functools.reduce(PeriodicSeries.derivative, axes, h)
                    terms[i] = terms[i] + weight * d.eval_real_grid(M)
        # out of place: a term may vary on more axes than the sum so far
        out = [acc + term if np.ndim(term) else acc
               for acc, term in zip(out, terms)]
        sup = _sup(terms)
        if sup <= TERM_TOL:
            break
    at_most("(taylor)", sup, TERM_TOL)
    return out


def _walk(stages, read, U, det):
    """The lifts `stages`, first-applied first, applied to theta + U, as
    (U, det): the new U, and det times the Jacobian determinant of the
    stages (None when det is None).

    Each stage sets U <- U + f.  A translation reads nothing: f is its
    constants, so a scalar entry of U stays scalar, and det is unchanged.
    Any other stage makes one call read(series, U) for the values of its
    parts at theta + U, and of their n^2 first derivatives when det is
    wanted, and multiplies det by det(I + grad f); a derivative that is
    constant goes to `stacked_det` as a scalar, so that the zeros add no
    term.  On the grid the reader is `taylor_on_grid`; at scattered points
    it is `_read_points`, the points carried whole in U.
    """
    n = len(U)
    for s in stages:
        if _is_translation(s):
            f = [p.mean() for p in s.parts]
        else:
            grads = () if det is None else tuple(
                p.derivative(l) for p in s.parts for l in range(n))
            vals = read(s.parts + grads, U)
            f = vals[:n]
            if det is not None:
                jac = [v if g.dependent_axes() else g.mean()
                       for g, v in zip(grads, vals[n:])]
                det = det * stacked_det([[int(j == l) + jac[n * j + l]
                                          for l in range(n)]
                                         for j in range(n)])
        U = [u + f_j for u, f_j in zip(U, f)]
    return U, det


def _read_points(series_list, U):
    """The scattered-point reader of `_walk`: the series at the points whose
    coordinates U carries whole, one array (or scalar) per component, the
    arrays broadcasting together.

    One `eval_many` call reads every series at the broadcast of the
    coordinates on the axes some series depends on, and only those: a stage
    of theta_1 alone costs as many points as the first coordinate holds.
    `eval_many` never reads the other columns, so they are zeros.  Returns,
    per series, an array of that broadcast shape, or for a constant series
    its value in an array of as many dimensions, each of length 1, as the
    grid reader gives it."""
    n = len(U)
    deps = [h.dependent_axes() for h in series_list]
    axes = sorted(set().union(*deps))
    shape = np.broadcast_shapes(*(np.shape(U[j]) for j in axes))
    pts = np.zeros((math.prod(shape), n), dtype=complex)
    for j in axes:
        pts[:, j] = np.broadcast_to(U[j], shape).reshape(-1)
    vals = eval_many(series_list, pts)
    return [v.reshape(shape) if dep else v[:1].reshape((1,) * len(shape))
            for dep, v in zip(deps, vals)]


def _lift_from_grid(disp, N_out, real):
    """The lift theta + f(theta), f re-expanded at N_out from `disp`, one
    grid per component of values on the M^n grid at the shape of the axes
    they depend on, or a scalar for a constant one, which is taken as it
    is, with no transform (its real part for a real lift).

    Each part is tail-chopped: its smallest coefficients are zeroed while
    their summed modulus stays at or below CHOP_FLOOR, so the part moves by
    at most CHOP_FLOOR on the real torus, and the dropped mass is added to
    its `trunc_mass` next to the aliasing mass of the re-expansion.
    """
    n = len(disp)
    parts = [series_from_real_grid(g, N_out, real=real) if np.ndim(g)
             else PeriodicSeries.constant(n, N_out, g.real if real else g)
             .with_real_flag(real) for g in disp]
    return TorusMapLift(np.eye(n, dtype=int), [p.chop_tail() for p in parts])


class TorusMapLift:
    """Lifted near-identity self-map of T^n: theta' = theta + f(theta).

    The integer part D must be the n x n identity, or the constructor
    raises ValueError; it is kept as the read-only array I.  An integer
    linear map of the torus, as the shear of `pipeline`, acts on
    coefficients through `pull_back_linear` and is not a lift.
    """

    __slots__ = ("D", "parts")

    def __init__(self, D, parts):
        parts = tuple(parts)
        n = len(parts)
        if any(p.n != n for p in parts):
            raise ValueError("periodic parts must be series on T^n")
        D = np.array(D, dtype=int)
        if not np.array_equal(D, np.eye(n, dtype=int)):
            raise ValueError(f"the integer part must be the {n}x{n} identity; "
                             "integer maps act through pull_back_linear")
        D.setflags(write=False)
        N = max(p.N for p in parts)
        self.D = D
        self.parts = tuple(p.pad_to(N) for p in parts)

    @classmethod
    def translation(cls, n, shift):
        """theta -> theta + shift, of degree 0."""
        return cls(np.eye(n, dtype=int),
                   [PeriodicSeries.constant(n, 0, shift[j]) for j in range(n)])

    @property
    def n(self):
        return len(self.parts)

    @property
    def N(self):
        return self.parts[0].N

    @property
    def real(self):
        return all(p.real for p in self.parts)

    def part_norm(self, r):
        return float(np.max([p.coeff_norm(r) for p in self.parts]))

    def pullback(self, h, N_out):
        """h composed with this lift by the grid kernel, re-expanded at N_out.

        Refuses when the requested degree bound cannot hold the input
        spectrum (the re-expansion grid would alias h itself), and raises
        NumericalFailure for a map so far from the identity that the Taylor
        sum does not reach round-off in MAX_TERMS orders.
        """
        if h.n != self.n:
            raise ValueError("dimension mismatch")
        if N_out < h.N:
            raise ValueError(
                f"output degree {N_out} below input degree {h.N}: grid too coarse")
        M = grid_size(N_out, self.N)
        U = [p.eval_real_grid(M) for p in self.parts]
        vals = taylor_on_grid([h], U, M)[0]
        return series_from_real_grid(vals, N_out, real=h.real and self.real)


@dataclasses.dataclass(frozen=True)
class FlowResult:
    """Time-t map of a field.  `step_count` Lie-series terms were summed
    (the benchmark tracer reads it as flows.flow.rk4_steps); `defect` is the
    grid sup of the last term, over the displacement and line integral;
    `integral` is the line integral, None when no integrand was given."""

    map: TorusMapLift
    step_count: int
    defect: float
    integral: PeriodicSeries | None


def flow(p, t, r1, delta, N_out, line_integrand=None):
    """Time-t map of the field d theta_j / dt = p_j(theta) as a
    near-identity lift, by its Lie series, re-expanded at degree N_out.

    `p` is a sequence of n series on T^n, one per component, and
    `line_integrand`, when given, a series on T^n too.  The displacement is
    sum_{k >= 1} t^k/k! L^{k-1} p with L g = sum_i p_i d_i g, products and
    spectral derivatives taken on the grid, summed up to the first term at
    or below TERM_TOL.  Requires |t| <= 1, 0 < delta < 1/2 and the bound
    (z1) max_j ||p_j||_{r1} <= r1 delta.  With `line_integrand` g, the
    result's `integral` is int_0^t g(theta(s)) ds = sum_{k >= 1} t^k/k!
    L^{k-1} g.
    """
    n = len(p)
    fields = [*p] + ([] if line_integrand is None else [line_integrand])
    if n == 0 or any(g.n != n for g in fields):
        raise ValueError("a field of n components needs every component, "
                         "and the line integrand, on T^n")
    if not abs(t) <= 1.0 + 1e-15:
        raise ValueError(f"flows are only taken for |t| <= 1, got {t}")
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    # np.max, as a NaN norm in any place must reach the gate
    at_most("(z1)", float(np.max([c.coeff_norm(r1) for c in p])), r1 * delta)
    real = all(c.real for c in p)
    M = grid_size(N_out, *(g.N for g in fields))
    powers = [g.eval_real_grid(M) for g in fields]   # L^{k-1} of each
    grids = powers[:n]
    sums = [t * g for g in powers]
    k, defect = 1, _sup(sums)
    while defect > TERM_TOL and k < MAX_TERMS:
        k += 1
        powers = [sum(pi * d for pi, d in zip(grids, _grid_gradient(g, M)))
                  for g in powers]
        terms = [t ** k / math.factorial(k) * g for g in powers]
        sums = [acc + term for acc, term in zip(sums, terms)]
        defect = _sup(terms)
    at_most("(lie)", defect, FLOW_DEFECT_TOL)
    integral = None if line_integrand is None else series_from_real_grid(
        sums[n], N_out, real=real and line_integrand.real)
    return FlowResult(_lift_from_grid(sums[:n], N_out, real), k, defect,
                      integral)


def compose_maps(stages, *, N_out):
    """The lift of the composite of the lifts `stages`, first-applied first.

    compose_maps((psi, phi)) is theta -> phi(psi(theta)).  The stages are
    applied in turn on one `grid_size` grid by the grid kernel and the
    periodic part of the composite is re-expanded once, at the degree bound
    N_out.
    """
    n, M = stages[0].n, grid_size(N_out, max(s.N for s in stages))
    U, _ = _walk(stages, functools.partial(taylor_on_grid, M=M),
                 [0.0] * n, None)
    return _lift_from_grid(U, N_out, all(s.real for s in stages))


class MapChain:
    """A tuple of lifts, first-applied first, read at scattered points.

    `apply` and `jacobian_det` read the stages at points given as one
    coordinate array per component, the arrays broadcasting together, by
    `_walk` with the point reader; `continue_walk` builds one for the stages
    it walks off the grid.  `to_single` collapses them, in one pass, into
    one serializable lift.  Everything else takes the tuple itself.
    """

    __slots__ = ("stages",)

    def __init__(self, stages):
        self.stages = tuple(stages)

    def apply(self, coords):
        """The image of the points whose coordinates `coords` holds, one
        array per component, as one array per component, each of the
        broadcast shape of the coordinates it depends on."""
        return _walk(self.stages, _read_points, list(coords), None)[0]

    def jacobian_det(self, coords):
        """(image, det): the image of the points whose coordinates `coords`
        holds, as `apply` gives it, and the determinant of the Jacobian
        there, from one `_walk` of the stages.  det is a scalar when every
        stage is a translation."""
        return _walk(self.stages, _read_points, list(coords), 1.0)

    def to_single(self, N_out):
        """The stages collapsed by `compose_maps` into one lift of degree
        N_out.  A lone stage is returned unchanged.
        """
        if len(self.stages) == 1:
            return self.stages[0]
        return compose_maps(self.stages, N_out=N_out)


def _is_translation(stage):
    """Whether every part of the lift is constant: theta -> theta + c."""
    return not any(p.dependent_axes() for p in stage.parts)


def grid_walk(stages, M, shift, det):
    """The lifts `stages`, first-applied first, at the M^n-point real grid
    + i shift, as (U, det): the image is theta + U, U one entry per
    component, and det is det times the Jacobian determinant of the
    composite there (None when det is None).  `det` and every returned
    entry are a scalar or grid values at the shape of the axes they depend
    on, which a caller broadcasts.

    The leading translations and the first stage with a non-constant part
    are walked on the grid (`_walk` with `taylor_on_grid`) from the scalar
    displacement i shift, so they are read by FFT, and `continue_walk`
    applies the later stages.  A component of theta_1 alone is an
    (M, 1, ..., 1) line, and a walk of translations alone leaves U and det
    scalars.
    """
    n = stages[0].n
    head = 1 + sum(1 for _ in itertools.takewhile(_is_translation, stages))
    U, det = _walk(stages[:head], functools.partial(taylor_on_grid, M=M),
                   [1j * shift] * n, det)
    return continue_walk(stages[head:], M, U, det)


def continue_walk(stages, M, U, det):
    """A finished walk (U, det) of the M^n-point grid, as `grid_walk`
    returns it, continued by the lifts `stages`, first-applied first.

    The stages see the image theta + U as scattered points and go through
    `MapChain.apply`, or `MapChain.jacobian_det` when det is wanted, one
    coordinate grid per component: the M-point axis theta_j, at the shape
    of that axis, plus U_j.  The returned U is the image less theta, an
    entry that the stages leave at zero the scalar 0.
    """
    if not stages:
        return U, det
    n = len(U)
    t = 2.0 * np.pi * np.arange(M) / M
    axes = [t.reshape((M,) + (1,) * (n - 1 - j)) for j in range(n)]
    chain = MapChain(stages)
    coords = [a + u for a, u in zip(axes, U)]
    if det is None:
        coords = chain.apply(coords)
    else:
        coords, chain_det = chain.jacobian_det(coords)
        det = det * chain_det
    U = [c - a for c, a in zip(coords, axes)]
    return [u if np.any(u) else 0.0 for u in U], det


@dataclasses.dataclass(frozen=True)
class MapInverse:
    map: TorusMapLift
    residual: float
    iterations: int


def invert_map(stages, r, N_out):
    """Inverse of the composite of the near-identity lifts `stages`,
    first-applied first, by fixed-point iteration, re-expanded at degree
    N_out.

    The inverse is theta + U on the grid.  Each iteration applies the stages
    in turn to theta + U by the grid kernel, giving theta + W, and sets
    U <- U - W: for one lift theta + f, the contraction U <- -f(theta + U).
    Requires the bound (nf) ||f||_r <= r/(4n) on the summed stage norms,
    which makes the iteration contract on the half-width strip.  The
    iteration runs on the M = grid_size(N_out, N) grid, N the largest stage
    degree.  The residual is the witness sup |phi(phi^{-1}(theta)) - theta|
    on a second grid, of witness_grid_size(N_out, N) + 1 points per axis:
    finer than the compute grid, so that it checks the inverse between the
    points it was computed on, by `grid_walk` of the round trip, and is
    sup |U|.
    """
    n, N = stages[0].n, max(s.N for s in stages)
    at_most("(nf)", sum(s.part_norm(r) for s in stages), r / (4.0 * n))
    M = grid_size(N_out, N)
    read = functools.partial(taylor_on_grid, M=M)
    U = [0.0] * n
    prev_delta = np.inf
    for its in range(1, INVERT_MAX_ITER + 1):
        W, _ = _walk(stages, read, U, None)
        U = [u - w for u, w in zip(U, W)]
        delta = _sup(W)
        if delta <= INVERT_TOL:
            break
        at_most("(expanding)", delta,
                max(prev_delta * (1.0 + 1e-12), 1e3 * INVERT_TOL))
        prev_delta = delta
    at_most("(inverse)", delta, INVERT_TOL)
    inv = _lift_from_grid(U, N_out, all(s.real for s in stages))
    M_w = witness_grid_size(N_out, N) + 1
    residual = _sup(grid_walk((inv, *stages), M_w, 0.0, None)[0])
    return MapInverse(inv, residual, its)
