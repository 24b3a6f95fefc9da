"""Truncated multivariate Fourier series on the torus and its complex strips.

A series is a dense block of coefficients c[k], |k_j| <= N per axis, with the
convention

    h(theta) = sum_k c_k exp(i <k, theta>),  theta in C^n.

The same coefficient block doubles as Laurent data on the annulus
e^{-r} < |z_j| < e^r through z_j = e^{i theta_j} (Laurent exponent = Fourier
frequency), which is how the annulus-side modules reuse this engine.

Real data are transformed on half spectra.  A block that is exactly
Hermitian, c_{-k} = conj c_k bit for bit, is read on a grid through
`np.fft.irfftn`, and a real re-expansion goes through `np.fft.rfftn` and
comes back exactly Hermitian, so a real series stays on half spectra from
one grid to the next.  Complex data take the full complex transforms.

Axes are 0-based throughout the package.  Values are immutable after
construction: every operation returns a new series, and coefficient arrays
are marked read-only so instances can be shared freely between threads.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import above, at_most

# Absolute coefficient tolerances for the mean-zero and reality preconditions.
MEAN_TOL = 1e-12
REAL_TOL = 1e-12
# Round-off floor of computed coefficients: the per-coefficient chop of
# computed data and the l1 budget of the tail chop of computed maps.
CHOP_FLOOR = 1e-15

# A quotient is refused unless the denominator's modulus stays above MIN_DEN.
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
        """The axes some stored term oscillates in; () for a constant.

        One pass builds the nonzero mask; axis j is dependent when its
        k_j = 0 plane holds fewer nonzero terms than the whole block."""
        mask = self.coeffs != 0
        total = np.count_nonzero(mask)
        return tuple(j for j in range(self.n)
                     if np.count_nonzero(mask[(slice(None),) * j + (self.N,)])
                     < total)

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
        degree bound to the smallest block holding the survivors.  A NaN
        coefficient is not at or below `tol`, so it survives."""
        mask = ~(np.abs(self.coeffs) <= tol)
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

    def eval_real_grid(self, M):
        """Values on the uniform real grid theta_j = 2 pi m_j / M, at the
        shape of the axes the series depends on: M along each dependent axis
        and 1 along every other, so a constant comes back as a (1,)*n array.
        `series_from_real_grid` takes values at this shape as they are.
        Broadcast against (M,)*n, the array gives the value at every grid
        point; `np.broadcast_to` makes that cube as a view, with no copy,
        where one is needed (a re-index by `np.take`).

        Only the dependent axes are transformed: the block is cut to the
        k = 0 plane of every other axis, and that lower-dimensional block
        goes through one inverse FFT.  A constant costs no FFT at all.
        Exact for every M: on the grid exp(i k theta) = exp(i k' theta)
        whenever k = k' (mod M), so below the alias-free M = 2N + 1 such
        coefficients are added into one FFT bin; from there on every bin
        holds one coefficient and is assigned.  There, a cut block that is
        exactly Hermitian, c_{-k} = conj c_k bit for bit, has real values,
        and only its half k_last >= 0 goes through `np.fft.irfftn`; the
        values still come back complex.  The `real` flag is not read for this, as it holds only to
        within REAL_TOL.  No off-grid point is read here; scattered points
        go through `eval_many`.
        """
        axes = self.dependent_axes()
        vals = self.coeffs[tuple(slice(None) if j in axes else self.N
                                 for j in range(self.n))]
        if axes:
            d = len(axes)
            k = self.k_range() % M
            if M > 2 * self.N and _is_hermitian(vals):
                emb = np.zeros((M,) * (d - 1) + (M // 2 + 1,), dtype=complex)
                emb[np.ix_(*([k] * (d - 1)), k[self.N:])] = vals[..., self.N:]
                vals = np.fft.irfftn(emb, s=(M,) * d, axes=tuple(range(d)),
                                     norm="forward").astype(complex)
            else:
                emb = np.zeros((M,) * d, dtype=complex)
                idx = np.ix_(*([k] * d))
                if M > 2 * self.N:
                    emb[idx] = vals
                else:
                    np.add.at(emb, idx, vals)
                vals = np.fft.ifftn(emb) * (M ** d)
        return np.reshape(vals, [M if j in axes else 1 for j in range(self.n)])

    # ------------------------------------------------------------------
    # splitting and calculus

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
        at_most("(i2)", float(np.max(np.abs(plane))), MEAN_TOL)
        k = self.k_range().astype(complex)
        k[self.N] = 1.0  # avoid 0/0; plane is zeroed below
        shape = [1] * self.n
        shape[axis] = 2 * self.N + 1
        out = self.coeffs / (1j * k.reshape(shape))
        idx = [slice(None)] * self.n
        idx[axis] = self.N
        out[tuple(idx)] = 0.0
        return PeriodicSeries(out, real=self.real, trunc_mass=self.trunc_mass)

    def restrict_axes(self, axis):
        """Keep only the terms whose last oscillating axis is `axis`: they
        depend on axes 0..axis only and have zero average along `axis`.
        Used to re-impose triangular structure that holds exactly in the
        underlying algebra but may be blurred by grid round-off.
        """
        c = np.where(self.leading_axis_map() == axis, self.coeffs, 0.0)
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


def seven_smooth(m):
    """The smallest integer at or above m with no prime factor above 7."""
    while True:
        rest = m
        for p in (2, 3, 5, 7):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def grid_size(N_out, *N_in):
    """Points per axis of a compute grid: the smallest 7-smooth
    M >= max(3 N_out + 1, 2 N + 1 for N in N_in).

    This is the 3/2 dealiasing rule (Orszag 1971).  A product of two
    degree-N_out series has frequencies up to 2 N_out, which fold on the
    grid onto |k| >= M - 2 N_out > N_out, so its re-expansion at N_out
    keeps every coefficient exact; and every input of degree N sampled on
    the grid is alias-free.  M is rounded up because mixed-radix FFTs are
    fastest on sizes whose prime factors are all small: the bare bound is
    often a prime, and with numpy's FFT on one core a 61-point grid
    transforms two to three times as slowly as a 63 = 3^2 * 7 one at n = 2
    and 3.  Rounding only grows the grid, so it only lowers aliasing.
    """
    return seven_smooth(max([3 * N_out + 1] + [2 * N + 1 for N in N_in]))


def witness_grid_size(N_out, *N_in):
    """Points per axis of a residual witness grid: the smallest 7-smooth
    M >= max(4 N_out + 2, 2 N + 1 for N in N_in).

    A witness checks values the computation did not sample, so its grid
    is finer than the `grid_size` grid of the same degrees, about 4/3 of it
    per axis.
    """
    return seven_smooth(max([4 * N_out + 2] + [2 * N + 1 for N in N_in]))


def stacked_det(rows):
    """Determinants of an n x n matrix, given entry by entry, at m points.

    `rows[j][l]` is a complex array, or a scalar for an entry that is the
    same at every point; a zero scalar adds no term, so no (m, n, n) stack
    is built.  The arrays broadcast together, so a grid entry may keep the
    shape of the axes it depends on.  Laplace expansion along the rows: the
    minors on the last k rows, one per set of k columns, are built from
    those on the last k - 1 rows.  For the n <= 4 Jacobians here this is
    several times faster than `np.linalg.det`, which factors the matrices
    one by one, and agrees with it to round-off.  Returns an array of the
    broadcast shape of the entries, or a scalar when every entry is one.
    """
    n = len(rows)
    minors = {(c,): rows[n - 1][c] for c in range(n)}
    for size in range(2, n + 1):
        row = rows[n - size]
        below, minors = minors, {}
        for cols in itertools.combinations(range(n), size):
            out = 0
            for i, c in enumerate(cols):
                entry, minor = row[c], below[cols[:i] + cols[i + 1:]]
                if _is_zero(entry) or _is_zero(minor):
                    continue
                # out of place: a term may vary on more axes than out
                out = out - entry * minor if i % 2 else out + entry * minor
            minors[cols] = out
    return minors[tuple(range(n))]


def _is_hermitian(block):
    """Whether c_{-k} = conj c_k holds bit for bit on a centred block."""
    return bool(np.array_equal(
        block, np.conj(block[(slice(None, None, -1),) * block.ndim])))


def _is_zero(entry):
    return np.ndim(entry) == 0 and entry == 0


def series_from_real_grid(values, N, real=False):
    """Fourier coefficients from samples on the uniform real grid.

    `values` has the shape `eval_real_grid` gives: M >= 2N+1 samples along
    each axis the values depend on and 1 along every other.  Only the
    dependent axes are transformed, and their block is placed on the k = 0
    plane of the others, so a line of theta_1 costs M points, not M^n, and
    every coefficient off the dependent axes is exactly zero.  A (1,)*n
    array, a constant, is transformed as the M = 1 cube, whose one
    coefficient is placed at k = 0 for every N.
    Frequencies outside the degree bound are dropped and their l1 mass is
    recorded on the result as `trunc_mass` (the aliasing/truncation report).
    With `real`, the result is the Hermitian part of the spectrum, which is
    the spectrum of the real part of the values: that goes through
    `np.fft.rfftn`, the half k_last >= 0 is kept and the rest mirrored, so
    the block is exactly Hermitian.  Its dropped mass counts each column
    0 < k_last < M/2 of the half spectrum twice, once for its mirror.
    """
    values = np.asarray(values) if real else np.asarray(values, dtype=complex)
    n, M = values.ndim, max(values.shape)
    if any(s not in (1, M) for s in values.shape):
        raise ValueError(f"sample axes must have M or 1 points, got {values.shape}")
    if 1 < M < 2 * N + 1:
        raise ValueError(f"grid of {M} points cannot resolve degree {N}")
    axes = tuple(j for j in range(n) if values.shape[j] == M)
    d, K = len(axes), N if M > 1 else 0   # K: the degree of the block
    values = values.reshape((M,) * d)
    k = np.arange(-K, K + 1) % M
    out = np.zeros((2 * N + 1,) * n, dtype=complex)
    place = tuple(slice(N - K, N + K + 1) if j in axes else N for j in range(n))
    if not real:
        full = np.fft.fftn(values) / values.size
        out[place] = kept = full[np.ix_(*([k] * d))]
        return PeriodicSeries(out, trunc_mass=float(
            np.abs(full).sum() - np.abs(kept).sum()))
    half = np.fft.rfftn(values.real, axes=tuple(range(d)), norm="forward")
    mod = np.abs(half)
    total = mod.sum() + mod[..., 1:(M + 1) // 2].sum()
    kept = np.empty((2 * K + 1,) * d, dtype=complex)
    kept[..., K:] = half[np.ix_(*([k] * (d - 1)), k[K:])]
    flip = (slice(None, None, -1),) * d
    kept[..., :K] = np.conj(kept[flip][..., :K])
    # the k_last = 0 plane is Hermitian in the other axes up to round-off
    plane = kept[..., K]
    kept[..., K] = 0.5 * (plane + np.conj(plane[flip[1:]]))
    out[place] = kept
    return PeriodicSeries(out, real=True,
                          trunc_mass=float(total - np.abs(kept).sum()))


def divide(num, den, N_out):
    """Quotient via grid evaluation and re-expansion at degree N_out.

    The denominator must stay away from zero on the real grid (its modulus
    is checked against MIN_DEN).  Truncation mass is recorded on the
    result.
    """
    if num.n != den.n:
        raise ValueError("dimension mismatch")
    M = grid_size(N_out, num.N, den.N)
    dv = den.eval_real_grid(M)
    above("(denominator)", float(np.min(np.abs(dv))), MIN_DEN)
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


def unimodular_inverse(A):
    """The inverse of a unimodular integer matrix: the float inverse rounded,
    not truncated toward zero, and checked."""
    A = np.asarray(A, dtype=int)
    A_inv = np.rint(np.linalg.inv(A)).astype(int)
    if not np.array_equal(A_inv @ A, np.eye(len(A), dtype=int)):
        raise ValueError("the integer matrix is not unimodular")
    return A_inv


def pull_back_linear(h, A):
    """h(A theta) for an integer matrix A, as an exact coefficient re-indexing.

    The coefficient at k moves to A^T k.  The output degree is the smallest
    bound containing all moved indices.
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
    N = int(np.max(np.abs(moved))) if moved.size else 0
    c = np.zeros((2 * N + 1,) * h.n, dtype=complex)
    np.add.at(c, tuple((moved + N).T), vals)
    return PeriodicSeries(c, real=h.real, trunc_mass=h.trunc_mass)


def extract_axis_line(h):
    """The terms of h with k_2 = ... = k_n = 0, as a series in theta_1."""
    line = np.array(h.coeffs[(slice(None),) + (h.N,) * (h.n - 1)])
    return PeriodicSeries(line, real=h.real, trunc_mass=h.trunc_mass)

