"""Builders, model data and oracles for the tests.

None of these is on a computation path of the package: products, averages,
the round circle, the identity embedding, the ambient shear and the half
turn build test inputs, and the coefficient and profile distances and the
central-difference determinant check results against an independent route.
"""

import numpy as np

from torusnf.curves import CurveImmersion
from torusnf.pipeline import TorusEmbedding
from torusnf.series import (
    CHOP_FLOOR,
    PeriodicSeries,
    eval_many,
    grid_size,
    series_from_real_grid,
    translate,
)

# Coefficient distance under which `allclose` calls two series equal.
CLOSE_TOL = 1e-12
# Step of the central differences in `finite_difference_jacobian_det`.
FD_STEP = 1e-5
# Samples of `phase_profile_distance`, and the mean it accepts as zero.
PROFILE_GRID = 4096
PROFILE_MEAN_TOL = 1e-10


def theta_grid(n, M):
    """(M^n, n) array of uniform real grid points on [0, 2 pi)^n, the last
    axis fastest, each coordinate broadcast into one preallocated array."""
    t = 2.0 * np.pi * np.arange(M) / M
    out = np.empty((M,) * n + (n,))
    for j in range(n):
        out[..., j] = t.reshape((M,) + (1,) * (n - 1 - j))
    return out.reshape(-1, n)


def multiply(a, b, N_out=None):
    """Coefficient-level product (exact linear convolution, then truncation).

    The zero-padded FFT convolution of the two centred blocks has length
    (2Na+1)+(2Nb+1)-1 = 2(Na+Nb)+1 per axis, with frequency k at position
    k + Na + Nb, i.e. it is already a centred block of degree Na+Nb.
    """
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    Nc = a.N + b.N
    size = 2 * Nc + 1
    axes = tuple(range(a.n))
    fa = np.fft.fftn(a.coeffs, s=(size,) * a.n, axes=axes)
    fb = np.fft.fftn(b.coeffs, s=(size,) * a.n, axes=axes)
    conv = np.fft.ifftn(fa * fb, axes=axes)
    prod = PeriodicSeries(conv, real=a.real and b.real,
                          trunc_mass=a.trunc_mass + b.trunc_mass)
    if N_out is None or N_out >= Nc:
        return prod
    return prod.truncate(N_out)


def average(h, axes):
    """Zero all terms oscillating in any of the given axes ([.]_j operators)."""
    axes = [axes] if np.isscalar(axes) else list(axes)
    out = np.array(h.coeffs)
    for j in axes:
        if not 0 <= j < h.n:
            raise ValueError(f"axis {j} out of range")
        keep = np.zeros(2 * h.N + 1, dtype=bool)
        keep[h.N] = True
        shape = [1] * h.n
        shape[j] = 2 * h.N + 1
        out *= keep.reshape(shape)
    return PeriodicSeries(out, real=h.real, trunc_mass=h.trunc_mass)


def eval_points(h, pts):
    """h at an (m, n) array of complex points, by the direct sum."""
    return eval_many([h], pts)[0]


def at_points(chain, pts, det=False):
    """`chain.apply` at an (m, n) array of points, as an (m, n) array; with
    `det`, `chain.jacobian_det` there, as (image, det), det an (m,) array.
    Both methods take and return one coordinate array per component."""
    pts = np.asarray(pts, dtype=complex)
    if not det:
        return np.stack(chain.apply(list(pts.T)), axis=-1)
    image, jac = chain.jacobian_det(list(pts.T))
    return np.stack(image, axis=-1), np.broadcast_to(jac, pts.shape[:1])


def field_norm(p, r):
    """max_j ||p_j||_r of a field p, a tuple of series: the norm of the
    (z1) bound of `flow`."""
    return max(c.coeff_norm(r) for c in p)


def divergence(p):
    """sum_j d p_j / d theta_j of a field p, a tuple of series."""
    return sum(c.derivative(j) for j, c in enumerate(p))


def abs_max_coeff(h):
    return float(np.max(np.abs(h.coeffs)))


def coeff_distance(a, b):
    N = max(a.N, b.N)
    return float(np.max(np.abs(a.pad_to(N).coeffs - b.pad_to(N).coeffs)))


def allclose(a, b):
    """Whether the max coefficient distance is at or below CLOSE_TOL."""
    return coeff_distance(a, b) <= CLOSE_TOL


def finite_difference_jacobian_det(apply_fn, pts):
    """Central-difference det of an arbitrary point map, with step FD_STEP."""
    pts = np.asarray(pts, dtype=complex)
    m, n = pts.shape
    jac = np.empty((m, n, n), dtype=complex)
    for l in range(n):
        e = np.zeros(n)
        e[l] = FD_STEP
        jac[:, :, l] = (apply_fn(pts + e) - apply_fn(pts - e)) / (2.0 * FD_STEP)
    return np.linalg.det(jac)


def circle(radius=1.0, N=4):
    """The unit-speed round circle, f(e^{i t}) = -i radius e^{i t}."""
    return CurveImmersion(
        PeriodicSeries.from_terms(1, N, {(1,): -1j * radius}))


def identity_embedding(n, N=1, r0=0.5):
    """z -> z on the annulus of half-width r0, at degree bound N."""
    comps = [PeriodicSeries.from_terms(
        n, max(N, 1), {tuple(int(i == j) for i in range(n)): 1.0})
        for j in range(n)]
    return TorusEmbedding(tuple(comps), r0)


def postcompose_monomial_shear(emb, target, exponents, eps):
    """Apply the ambient unimodular shear w_target += eps prod w_j^{m_j}.

    The exponent map must not involve the target coordinate, which makes the
    ambient map triangular with unit Jacobian; images are unimodularly
    equivalent, leaving the invariants fixed.
    """
    exponents = dict(exponents)
    if target in exponents:
        raise ValueError("a shear cannot feed a coordinate into itself")
    n = emb.n
    N_out = emb.N * max(1, sum(abs(m) for m in exponents.values())) + 4
    M = grid_size(N_out)
    vals = np.ones((M,) * n, dtype=complex)
    for j, m in exponents.items():
        vals = vals * emb.components[j].eval_real_grid(M) ** m
    add = series_from_real_grid(vals, N_out).chop(CHOP_FLOOR)
    comps = list(emb.components)
    comps[target] = comps[target] + eps * add
    return TorusEmbedding(tuple(comps), emb.r0)


def half_turn_profile(k):
    """The equally valid representative k(t + pi) of the invariant profile."""
    return translate(k, [np.pi]).symmetrized()


def phase_profile_distance(k, k_hat, allow_half_turn=False):
    """Sup-grid distance between two one-variable phase profiles.

    Minimizes over the allowed reparametrizations: no shift, or additionally
    the half-turn theta_1 -> theta_1 + pi when `allow_half_turn` is set.
    Both profiles must have zero mean; the distance is sampled on
    PROFILE_GRID points.
    """
    for name, s in (("k", k), ("k_hat", k_hat)):
        if s.n != 1:
            raise ValueError(f"{name} must be a one-dimensional series")
        if abs(s.mean()) > PROFILE_MEAN_TOL:
            raise ValueError(f"{name} must have zero mean, got {s.mean():.3e}")
    N = max(k.N, k_hat.N)
    k, k_hat = k.pad_to(N), k_hat.pad_to(N)
    base = k.eval_real_grid(PROFILE_GRID)
    shifts = [0.0, np.pi] if allow_half_turn else [0.0]
    best = np.inf
    for s in shifts:
        shifted = translate(k_hat, [s]).eval_real_grid(PROFILE_GRID)
        best = min(best, float(np.max(np.abs(shifted - base))))
    return best
