"""Coefficient-level builders and oracles for the tests.

None of these is on a computation path of the package: products and
averages build test inputs, and the coefficient distances and the
central-difference determinant check results against an independent route.
"""

import numpy as np

from torusnf.series import PeriodicSeries, eval_many

# Coefficient distance under which `allclose` calls two series equal.
CLOSE_TOL = 1e-12
# Step of the central differences in `finite_difference_jacobian_det`.
FD_STEP = 1e-5


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
