"""Truncated multivariate Fourier series on the torus and its complex strips.

A series is a dense block of coefficients c[k], |k_j| <= N per axis, with the
convention

    h(theta) = sum_k c_k exp(i <k, theta>),  theta in C^n.

The same coefficient block doubles as Laurent data on the annulus
e^{-r} < |z_j| < e^r through z_j = e^{i theta_j} (Laurent exponent = Fourier
frequency), which is how the annulus-side modules reuse this engine.

Axes are 0-based throughout the package.  Values are immutable after
construction: every operation returns a new series, and coefficient arrays
are marked read-only so instances can be shared freely between threads.
"""

from __future__ import annotations

import numpy as np

from .errors import HypothesisViolation, NumericalFailure

# Absolute coefficient tolerances for the mean-zero and reality preconditions.
MEAN_TOL = 1e-12
REAL_TOL = 1e-12
# Round-off floor of computed coefficients: the per-coefficient chop of
# computed data and the l1 budget of the tail chop of computed maps.
CHOP_FLOOR = 1e-15
# Coefficient distance under which `allclose` calls two series equal.
CLOSE_TOL = 1e-12

# Oversampling factor for grid-based products, quotients and compositions.
GRID_MULT = 2
# A quotient is refused where the denominator's modulus drops below MIN_DEN.
MIN_DEN = 1e-8
# Points per block of off-grid evaluation, which bounds the memory of the
# per-block phase matrices and partial sums.
EVAL_CHUNK = 4096


class PeriodicSeries:
    """Truncated Fourier series on T^n with per-axis degree bound N."""

    __slots__ = ("n", "N", "coeffs", "real", "trunc_mass")

    def __init__(self, coeffs, real=False, trunc_mass=0.0):
        coeffs = np.array(coeffs, dtype=complex)
        if coeffs.ndim < 1:
            coeffs = coeffs.reshape((1,))
        side = coeffs.shape[0]
        if any(s != side for s in coeffs.shape):
            raise ValueError(f"coefficient block must be cubical, got {coeffs.shape}")
        if side % 2 != 1:
            raise ValueError(f"coefficient block side must be odd, got {side}")
        coeffs.setflags(write=False)
        self.n = coeffs.ndim
        self.N = (side - 1) // 2
        self.coeffs = coeffs
        self.real = bool(real)
        self.trunc_mass = float(trunc_mass)

    def __setattr__(self, name, value):
        if hasattr(self, "trunc_mass") and name in self.__slots__:
            raise AttributeError("PeriodicSeries is immutable")
        super().__setattr__(name, value)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zeros(cls, n, N, real=True):
        return cls(np.zeros((2 * N + 1,) * n, dtype=complex), real=real)

    @classmethod
    def constant(cls, n, N, value):
        c = np.zeros((2 * N + 1,) * n, dtype=complex)
        c[(N,) * n] = value
        return cls(c, real=abs(complex(value).imag) <= REAL_TOL)

    @classmethod
    def from_terms(cls, n, N, terms, real=None):
        """Build a series from a {multi-index tuple: coefficient} mapping."""
        c = np.zeros((2 * N + 1,) * n, dtype=complex)
        for k, v in terms.items():
            k = tuple(int(x) for x in (k if isinstance(k, (tuple, list)) else (k,)))
            if len(k) != n:
                raise ValueError(f"index {k} has wrong length for dimension {n}")
            if any(abs(x) > N for x in k):
                raise ValueError(f"index {k} exceeds degree bound {N}")
            c[tuple(x + N for x in k)] += v
        s = cls(c)
        if real is None:
            real = s.is_real_symmetric()
        return cls(c, real=real)

    # ------------------------------------------------------------------
    # coefficient access and structure

    def k_range(self):
        return np.arange(-self.N, self.N + 1)

    def coeff(self, k):
        k = tuple(int(x) for x in (k if isinstance(k, (tuple, list)) else (k,)))
        if any(abs(x) > self.N for x in k):
            return 0.0 + 0.0j
        return complex(self.coeffs[tuple(x + self.N for x in k)])

    def mean(self):
        """Full average [h] = constant Fourier coefficient."""
        return complex(self.coeffs[(self.N,) * self.n])

    def dependent_axes(self):
        """The axes some stored term oscillates in; () for a constant."""
        return tuple(j for j in range(self.n)
                     if np.any(np.delete(self.coeffs, self.N, axis=j)))

    def is_real_symmetric(self):
        flipped = np.conj(self.coeffs[(slice(None, None, -1),) * self.n])
        return bool(np.max(np.abs(self.coeffs - flipped)) <= REAL_TOL)

    def symmetrized(self):
        """Project onto the real-on-R^n subspace (c_{-k} = conj c_k)."""
        flipped = np.conj(self.coeffs[(slice(None, None, -1),) * self.n])
        return PeriodicSeries(0.5 * (self.coeffs + flipped), real=True,
                              trunc_mass=self.trunc_mass)

    def with_real_flag(self, real):
        return PeriodicSeries(self.coeffs, real=real, trunc_mass=self.trunc_mass)

    def pad_to(self, N):
        if N < self.N:
            raise ValueError("pad_to cannot shrink; use truncate")
        if N == self.N:
            return self
        c = np.zeros((2 * N + 1,) * self.n, dtype=complex)
        sl = tuple(slice(N - self.N, N + self.N + 1) for _ in range(self.n))
        c[sl] = self.coeffs
        return PeriodicSeries(c, real=self.real, trunc_mass=self.trunc_mass)

    def truncate(self, N):
        """Drop all coefficients with any |k_j| > N; dropped l1 mass is recorded."""
        if N >= self.N:
            return self.pad_to(N)
        sl = tuple(slice(self.N - N, self.N + N + 1) for _ in range(self.n))
        kept = self.coeffs[sl]
        dropped = float(np.abs(self.coeffs).sum() - np.abs(kept).sum())
        return PeriodicSeries(kept, real=self.real,
                              trunc_mass=self.trunc_mass + dropped)

    def chop(self, tol):
        """Zero coefficients at or below `tol` in modulus, then shrink the
        degree bound to the smallest block holding the survivors."""
        mask = np.abs(self.coeffs) > tol
        dropped = float(np.abs(self.coeffs[~mask]).sum())
        kept = np.where(mask, self.coeffs, 0.0)
        if not mask.any():
            return PeriodicSeries(np.zeros((1,) * self.n, dtype=complex),
                                  real=self.real,
                                  trunc_mass=self.trunc_mass + dropped)
        idx = np.argwhere(mask) - self.N
        need = int(np.max(np.abs(idx)))
        out = PeriodicSeries(kept, real=self.real,
                             trunc_mass=self.trunc_mass + dropped)
        return out.truncate(need)

    def chop_tail(self):
        """Zero the smallest coefficients for as long as their summed modulus
        stays at or below CHOP_FLOOR, and record that mass in `trunc_mass`.

        The result differs from the input by at most CHOP_FLOOR anywhere on
        the real torus.  The degree bound is kept, and so is the conjugate
        symmetry of a real series: a pair c_k, c_{-k} is dropped together or
        not at all.
        """
        mod = np.abs(self.coeffs)
        flat = mod.reshape(-1)
        order = np.argsort(flat, kind="stable")
        drop = np.empty(flat.size, dtype=bool)
        drop[order] = np.cumsum(flat[order]) <= CHOP_FLOOR
        drop = drop.reshape(mod.shape)
        if self.real:
            drop &= drop[(slice(None, None, -1),) * self.n]
        return PeriodicSeries(np.where(drop, 0.0, self.coeffs), real=self.real,
                              trunc_mass=self.trunc_mass + float(mod[drop].sum()))

    # ------------------------------------------------------------------
    # algebra

    def _binary(self, other, op):
        if isinstance(other, PeriodicSeries):
            if other.n != self.n:
                raise ValueError("dimension mismatch")
            N = max(self.N, other.N)
            a, b = self.pad_to(N), other.pad_to(N)
            return PeriodicSeries(op(a.coeffs, b.coeffs),
                                  real=self.real and other.real,
                                  trunc_mass=self.trunc_mass + other.trunc_mass)
        value = complex(other)
        c = np.array(self.coeffs)
        c[(self.N,) * self.n] = op(c[(self.N,) * self.n], value)
        return PeriodicSeries(c, real=self.real and abs(value.imag) <= REAL_TOL,
                              trunc_mass=self.trunc_mass)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return PeriodicSeries(-self.coeffs, real=self.real, trunc_mass=self.trunc_mass)

    def __mul__(self, scalar):
        scalar = complex(scalar)
        return PeriodicSeries(self.coeffs * scalar,
                              real=self.real and abs(scalar.imag) <= REAL_TOL,
                              trunc_mass=self.trunc_mass * abs(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        nz = int(np.count_nonzero(self.coeffs))
        return (f"PeriodicSeries(n={self.n}, N={self.N}, nonzero={nz}, "
                f"real={self.real})")

    # ------------------------------------------------------------------
    # evaluation

    def eval(self, theta):
        """Evaluate at a single point theta in C^n (exact over stored terms)."""
        theta = np.atleast_1d(np.asarray(theta, dtype=complex))
        if theta.shape != (self.n,):
            raise ValueError(f"expected point of length {self.n}, got {theta.shape}")
        return complex(self.eval_points(theta[None, :])[0])

    def eval_points(self, pts):
        """Evaluate at an (m, n) array of complex points."""
        return eval_many([self], pts)[0]

    def eval_real_grid(self, M):
        """Values on the uniform real grid theta_j = 2 pi m / M (exact FFT path)."""
        if M < 2 * self.N + 1:
            raise ValueError(f"grid of {M} points cannot resolve degree {self.N}")
        emb = np.zeros((M,) * self.n, dtype=complex)
        idx = np.ix_(*([self.k_range() % M] * self.n))
        emb[idx] = self.coeffs
        return np.fft.ifftn(emb) * (M ** self.n)

    # ------------------------------------------------------------------
    # averaging, splitting, calculus

    def average(self, axes):
        """Zero all terms oscillating in any of the given axes ([.]_j operators)."""
        axes = [axes] if np.isscalar(axes) else list(axes)
        out = np.array(self.coeffs)
        for j in axes:
            if not 0 <= j < self.n:
                raise ValueError(f"axis {j} out of range")
            keep = np.zeros(2 * self.N + 1, dtype=bool)
            keep[self.N] = True
            shape = [1] * self.n
            shape[j] = 2 * self.N + 1
            out *= keep.reshape(shape)
        return PeriodicSeries(out, real=self.real, trunc_mass=self.trunc_mass)

    def leading_axis_map(self):
        """For each stored index, the largest axis with k != 0 (-1 for k = 0)."""
        lead = np.full((2 * self.N + 1,) * self.n, -1, dtype=int)
        nz = self.k_range() != 0
        for j in range(self.n):
            shape = [1] * self.n
            shape[j] = 2 * self.N + 1
            lead = np.where(nz.reshape(shape), j, lead)
        return lead

    def triangular_split(self):
        """Split into n+1 pieces by the last axis a term oscillates in.

        parts[0] is the constant term; parts[p] (p >= 1) collects the terms
        whose largest oscillating axis is p-1, so it depends on axes
        0..p-1 only and has zero average along axis p-1.  The pieces sum to
        the original series coefficient-exactly.
        """
        lead = self.leading_axis_map()
        parts = []
        for p in range(self.n + 1):
            c = np.where(lead == p - 1, self.coeffs, 0.0)
            parts.append(PeriodicSeries(c, real=self.real))
        return parts

    def derivative(self, axis):
        """Partial derivative along one angle: c_k -> i k_axis c_k."""
        if not 0 <= axis < self.n:
            raise ValueError(f"axis {axis} out of range")
        shape = [1] * self.n
        shape[axis] = 2 * self.N + 1
        fac = (1j * self.k_range()).reshape(shape)
        return PeriodicSeries(self.coeffs * fac, real=self.real,
                              trunc_mass=self.trunc_mass)

    def antiderivative(self, axis):
        """The unique periodic antiderivative with zero average along the axis.

        Requires the input to have zero average along the axis (condition
        (i2)): every coefficient on the k_axis = 0 plane must vanish to
        within MEAN_TOL.
        """
        if not 0 <= axis < self.n:
            raise ValueError(f"axis {axis} out of range")
        plane = np.take(self.coeffs, self.N, axis=axis)
        worst = float(np.max(np.abs(plane))) if plane.size else 0.0
        if worst > MEAN_TOL:
            raise HypothesisViolation(
                "(i2)", f"axis-{axis} average must vanish, max residue {worst:.3e}")
        k = self.k_range().astype(complex)
        k[self.N] = 1.0  # avoid 0/0; plane is zeroed below
        shape = [1] * self.n
        shape[axis] = 2 * self.N + 1
        out = self.coeffs / (1j * k.reshape(shape))
        idx = [slice(None)] * self.n
        idx[axis] = self.N
        out[tuple(idx)] = 0.0
        return PeriodicSeries(out, real=self.real, trunc_mass=self.trunc_mass)

    def restrict_axes(self, last_axis, require_oscillating=None):
        """Keep only terms supported on axes 0..last_axis.

        With require_oscillating set, additionally drop the terms constant
        along that axis.  Used to re-impose triangular structure that holds
        exactly in the underlying algebra but may be blurred by grid
        round-off.
        """
        lead = self.leading_axis_map()
        c = np.where(lead <= last_axis, self.coeffs, 0.0)
        if require_oscillating is not None:
            idx = [slice(None)] * self.n
            idx[require_oscillating] = self.N
            c = np.array(c)
            c[tuple(idx)] = 0.0
        return PeriodicSeries(c, real=self.real, trunc_mass=self.trunc_mass)

    # ------------------------------------------------------------------
    # norms

    def coeff_norm(self, r):
        """Majorant sum_k |c_k| e^{r sum_j |k_j|} of the sup norm on S_r."""
        w = np.exp(r * np.abs(self.k_range()))
        v = np.abs(self.coeffs)
        for _ in range(self.n):
            v = np.tensordot(w, v, axes=(0, 0))
        return float(v)

    def abs_max_coeff(self):
        return float(np.max(np.abs(self.coeffs)))


# ----------------------------------------------------------------------
# grids and re-expansion


def phase_matrix(vals, N):
    """E[m, k] = exp(i k vals[m]) for k = -N..N.

    Computed by the integer-power recurrence from a single exp per point,
    which is several times faster than 2N+1 transcendental calls and
    accurate to a few ulps at the degrees used here.
    """
    vals = np.asarray(vals, dtype=complex)
    E = np.empty((vals.shape[0], 2 * N + 1), dtype=complex)
    E[:, N] = 1.0
    if N:
        base = np.exp(1j * vals)
        for j in range(1, N + 1):
            E[:, N + j] = E[:, N + j - 1] * base
        inv = 1.0 / base
        for j in range(1, N + 1):
            E[:, N - j] = E[:, N - j + 1] * inv
    return E


def eval_many(series_list, pts):
    """Evaluate several series of one shape at shared points.

    Each series is contracted only over the axes it depends on: its block is
    cut to the k = 0 plane of every other axis, so a constant (an identically
    zero series included) costs no contraction at all.  The per-axis phase
    matrices are built once per point chunk and reused for every series.
    Returns an array of shape (len(series_list), m).
    """
    series_list = list(series_list)
    first = series_list[0]
    n, N = first.n, first.N
    if any(s.n != n or s.N != N for s in series_list):
        raise ValueError("series must share dimension and degree; pad first")
    pts = np.asarray(pts, dtype=complex)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValueError(f"expected (m, {n}) points, got {pts.shape}")
    deps = [s.dependent_axes() for s in series_list]
    blocks = [s.coeffs[tuple(slice(None) if j in axes else N
                             for j in range(n))]
              for s, axes in zip(series_list, deps)]
    out = np.empty((len(series_list), pts.shape[0]), dtype=complex)
    for s0 in range(0, pts.shape[0], EVAL_CHUNK):
        block = pts[s0:s0 + EVAL_CHUNK]
        m = block.shape[0]
        mats = {j: phase_matrix(block[:, j], N) for j in set().union(*deps)}
        for i, (c, axes) in enumerate(zip(blocks, deps)):
            # one GEMM over the first axis, then per-point products over the
            # others, last axis first
            acc = np.tensordot(mats[axes[0]], c, axes=(1, 0)) if axes else c
            for j in axes[:0:-1]:
                acc = acc.reshape(m, -1, 2 * N + 1) @ mats[j][:, :, None]
            out[i, s0:s0 + m] = acc.reshape(-1)
    return out


def grid_size(N_out, *N_in):
    """Points per axis of a re-expansion grid.

    Oversamples the output degree by GRID_MULT and never drops below the
    alias-free size of any input degree that is sampled on the grid.
    """
    return max([GRID_MULT * (2 * N_out + 1)] + [2 * N + 1 for N in N_in])


def theta_grid(n, M):
    """(M^n, n) array of uniform real grid points on [0, 2 pi)^n."""
    t = 2.0 * np.pi * np.arange(M) / M
    mesh = np.meshgrid(*([t] * n), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def series_from_real_grid(values, N, real=False):
    """Fourier coefficients from samples on the uniform real grid.

    `values` must be an n-dimensional cube of M >= 2N+1 samples per axis.
    Frequencies outside the degree bound are dropped and their l1 mass is
    recorded on the result as `trunc_mass` (the aliasing/truncation report).
    """
    values = np.asarray(values, dtype=complex)
    n = values.ndim
    M = values.shape[0]
    if any(s != M for s in values.shape):
        raise ValueError(f"sample block must be cubical, got {values.shape}")
    if M < 2 * N + 1:
        raise ValueError(f"grid of {M} points cannot resolve degree {N}")
    full = np.fft.fftn(values) / values.size
    idx = np.ix_(*([np.arange(-N, N + 1) % M] * n))
    kept = full[idx]
    dropped = float(np.abs(full).sum() - np.abs(kept).sum())
    if real:
        flipped = np.conj(kept[(slice(None, None, -1),) * n])
        kept = 0.5 * (kept + flipped)
    return PeriodicSeries(kept, real=real, trunc_mass=dropped)


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


def divide(num, den, N_out=None):
    """Quotient via grid evaluation and re-expansion.

    The denominator must stay away from zero on the real grid (its modulus
    is checked against MIN_DEN).  Truncation mass is recorded on the
    result.
    """
    if num.n != den.n:
        raise ValueError("dimension mismatch")
    if N_out is None:
        N_out = num.N
    M = grid_size(N_out, num.N, den.N)
    dv = den.eval_real_grid(M)
    worst = float(np.min(np.abs(dv)))
    if worst < MIN_DEN:
        raise NumericalFailure(
            f"denominator modulus {worst:.3e} below {MIN_DEN:.1e} on grid")
    nv = num.eval_real_grid(M)
    return series_from_real_grid(nv / dv, N_out, real=num.real and den.real)


def translate(h, shift):
    """h(theta + shift) as an exact coefficient operation."""
    shift = np.asarray(shift, dtype=complex)
    if shift.shape != (h.n,):
        raise ValueError("shift must have one entry per axis")
    out = np.array(h.coeffs)
    k = h.k_range()
    for j in range(h.n):
        shape = [1] * h.n
        shape[j] = 2 * h.N + 1
        out *= np.exp(1j * k * shift[j]).reshape(shape)
    real = h.real and bool(np.max(np.abs(shift.imag)) <= REAL_TOL)
    return PeriodicSeries(out, real=real, trunc_mass=h.trunc_mass)


def pull_back_linear(h, A, N_out=None):
    """h(A theta) for an integer matrix A, as an exact coefficient re-indexing.

    The coefficient at k moves to A^T k.  The output degree defaults to the
    smallest bound containing all moved indices.
    """
    A = np.asarray(A, dtype=int)
    if A.shape != (h.n, h.n):
        raise ValueError("matrix shape must match series dimension")
    ks = np.stack(np.meshgrid(*([h.k_range()] * h.n), indexing="ij"),
                  axis=-1).reshape(-1, h.n)
    vals = h.coeffs.reshape(-1)
    nz = vals != 0.0
    ks, vals = ks[nz], vals[nz]
    moved = ks @ A
    need = int(np.max(np.abs(moved))) if moved.size else 0
    if N_out is None:
        N_out = need
    elif need > N_out:
        raise ValueError(f"degree bound {N_out} too small; need {need}")
    c = np.zeros((2 * N_out + 1,) * h.n, dtype=complex)
    np.add.at(c, tuple((moved + N_out).T), vals)
    return PeriodicSeries(c, real=h.real, trunc_mass=h.trunc_mass)


def extract_axis_line(h):
    """The terms of h with k_2 = ... = k_n = 0, as a series in theta_1."""
    line = np.array(h.coeffs[(slice(None),) + (h.N,) * (h.n - 1)])
    return PeriodicSeries(line, real=h.real, trunc_mass=h.trunc_mass)


def allclose(a, b):
    """Whether the max coefficient distance is at or below CLOSE_TOL."""
    return coeff_distance(a, b) <= CLOSE_TOL


def coeff_distance(a, b):
    N = max(a.N, b.N)
    return float(np.max(np.abs(a.pad_to(N).coeffs - b.pad_to(N).coeffs)))
