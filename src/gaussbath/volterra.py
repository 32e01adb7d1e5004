"""Exact decoherence amplitude u(t) and time-local decay coefficients.

Solves u'(t) + i*omega0*u(t) + int_0^t f(t-s) u(s) ds = 0, u(0) = 1, where f
is the reservoir memory kernel.  The integration and its refinement happen
in the frame rotating at omega0 (v = exp(i*omega0*t) * u obeys the same
equation with the dressed kernel f(x)*exp(i*omega0*x) and no oscillatory
drift term), which removes the bare phase from the discretization error;
u is formed from v once, on the output grid.  The scheme is the
implicit trapezoid step v[n+1] = v[n] - (h/2) (I[n] + I[n+1]) on the
trapezoidal memory sum I[n], with I[0] = 0.  It is symmetric, so its error
is a series in even powers of the step (Linz, Analytical and Numerical
Methods for Volterra Equations, SIAM 1985), and it is linear in v[n+1].

``solve_amplitude`` halves the step until the estimated error of what it
returns is below ``tol``.  The ladder starts at half the output grid when
that has an even number of intervals.  A band-limited reservoir (an array
model, whose finite ``support`` and coupling g bound every eigenvalue's
distance from omega0 by Weyl's inequality) starts it lower, at M/2^s
steps: v is then band-limited by that bound Omega, 4-point interpolation
misses it by at most (5/128) (Omega H)^4 at step H, and s is the largest
one with 2^s dividing M that keeps this within tol/2 at the step of the
first pair's finer level.  The first pair of levels returns the Richardson
value v_fine + (v_fine - v_coarse)/3, the later ones the Romberg value that
also removes the h^4 term; each error estimate is the size of the last
term removed (see ``solve_amplitude``).  A value that passes on a level
coarser than the output grid is interpolated up to it, and its estimate
gains the measured interpolation miss.  A fig4b point (N = 200 ring,
M = 10000, tol 1e-3) integrates 625 + 1250 steps and lands 6.5e-7 from the
exact lattice amplitude, within its estimate 5.2e-4; the Ohmic family has
no finite support and keeps the start at M/2.

The memory term is a causal convolution of the kernel with the solution
computed so far.  It is accumulated by divide and conquer (Hairer, Lubich &
Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985) 532), written as one loop
over leaves of equal length L: once a block of leaves is solved, its
contribution to the next block of the same length is added in one product.
After leaf c, the block is its last 2^v leaves, where 2^v is the largest
power of two dividing c, so the blocks form a binary tree of 2^k leaves
without any recursion.  With 2^k the smallest power of two such that
128 2^k >= M, L is the smallest of the 5-smooth numbers 72, 75, 80, 81, 90,
96, 100, 108, 120, 125, 128 (those in (64, 128]) with L 2^k >= M; the last
leaf may be short.  A solve on M steps costs O(M log^2 M) instead of the
O(M^2) of a full history sum at every step.  There are three kinds of
product:

* Leaves solve their steps directly.  Inside a leaf the trapezoid steps
  are linear in the leaf's unknowns with coefficients that depend only on
  the lag, so every leaf is a unit lower-triangular Toeplitz system; the
  first one too, because the history starts at H[0] = -K[0]/2, which makes
  the leaf equation at step 0 the start I[0] = 0 (see _leaf_system).  The
  system's inverse, with the map from the known history to the right side
  folded in, is one L x (L + 1) matrix, and each leaf is one complex128
  BLAS matrix-vector product and two adds.  The matrix is *built* once per
  solve in np.clongdouble and rounded to complex128, and *applied* in
  complex128: built in float64, the reassociated recurrence drifts from the
  extended-precision step-by-step loop by up to about 2e-12 at M = 20000
  (6.3e-13 on the Ohmic eta = 1 kernel, 2.2e-12 on the N = 200 ring),
  built in extended precision by 3.9e-15 and 8.0e-16.  The platform's long
  double must therefore be 80-bit or wider, as it is on x86-64 Linux;
  where it is plain float64 (MSVC builds and Apple-silicon macOS, for
  example) the test suite fails on that precondition.
* Blocks of one leaf (after every odd-numbered leaf) add their terms by
  one complex128 BLAS matrix-vector product with an L x L Toeplitz panel of
  the kernel, built once per solve (100 kB at L = 80).
* Larger blocks add them by one FFT convolution at twice the block's
  length.  That length is L 2^(v+1), a 5-smooth number that numpy's FFT
  splits into its fast radices, and all blocks of one length share one
  kernel spectrum: a solve at M = 20000 (L = 80) transforms the kernel
  once at each of 320, 640, ..., 20480 points.

The time-local decay rate Gamma(t) and frequency shift Omega(t) follow from
Gamma + i*Omega = -u'(t)/u(t), estimated by finite differences of u on the
output grid, interpolated or not.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._ranges import check
from .spectra import memory_kernel

VALIDITY_FLOOR = 1e-8  # |u|^2 below this makes -u'/u numerically meaningless
# leaf lengths L: 5-smooth, so every FFT length L 2^k is one of numpy's fast ones
_LEAF_LENGTHS = (72, 75, 80, 81, 90, 96, 100, 108, 120, 125, 128)
_MAX_REFINEMENTS = 8  # halvings past the output grid before solve_amplitude gives up


class ConvergenceError(RuntimeError):
    """Step-halving refinement failed to reach the requested tolerance."""

    def __init__(self, message, error_estimate):
        super().__init__(message)
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class SystemMode:
    """Bare frequency of each (identical) local oscillator."""

    omega0: float

    def __post_init__(self):
        check(omega0=self.omega0)


@dataclass(frozen=True)
class TimeGrid:
    t_max: float
    steps: int

    def __post_init__(self):
        check(t_max=self.t_max, steps=self.steps)

    @property
    def dt(self):
        return self.t_max / self.steps

    def times(self):
        return self.dt * np.arange(self.steps + 1)


@dataclass(frozen=True, eq=False)
class AmplitudeTrajectory:
    """u on every point of ``grid``, with the finest step that produced it.

    ``dt_used`` is the step of the finest level the solver integrated.  It
    is finer than grid.dt after step halving, and coarser when a
    band-limited solve stopped below the output grid and interpolated u up
    to it.  ``error_estimate`` estimates the error of u, interpolation
    included; the lattice oracle reports its exact u with grid.dt and 0.
    """

    grid: TimeGrid
    u: np.ndarray = field(repr=False)
    dt_used: float
    error_estimate: float

    @property
    def times(self):
        return self.grid.times()


@dataclass(frozen=True, eq=False)
class DecayRateSeries:
    times: np.ndarray = field(repr=False)
    gamma: np.ndarray = field(repr=False)
    omega_shift: np.ndarray = field(repr=False)
    valid: np.ndarray = field(repr=False)


def _trapezoid_volterra(kernel, h):
    """Integrate v'(t) = -int_0^t kernel(t - s) v(s) ds with v(0) = 1.

    ``kernel`` holds the kernel sampled on the uniform grid j*h,
    j = 0 .. M; the returned array holds v on the same grid.

    v[1:] is solved leaf by leaf, v[lo:hi] with lo = 1, 1 + L, ... (see the
    module docstring).  Every leaf, the first included, solves its Toeplitz
    system through the folded matrix of _leaf_system and completes
    history[hi - 1] for the next leaf's first step.  After leaf c, the block
    of its last c & -c leaves adds its terms to the history of the same
    number of following steps.
    """
    kernel = np.ascontiguousarray(kernel, dtype=np.complex128)
    M = kernel.shape[0] - 1
    v = np.empty(M + 1, dtype=np.complex128)
    v[0] = 1.0
    # history[n] = H[n] = K[n]/2 + sum_{m=1}^{n-1} v[m] K[n - m], filled leaf
    # by leaf; H[0] = -K[0]/2 makes the leaf equation at step 0 the start
    # I[0] = 0 (see _leaf_system)
    history = 0.5 * kernel
    history[0] = -history[0]
    spectra = {}
    leaves = 1 << (-(-M // _LEAF_LENGTHS[-1]) - 1).bit_length()
    length = next(n for n in _LEAF_LENGTHS if n * leaves >= M)
    fold, drift = _leaf_system(kernel, h, min(length, M))
    panel = _toeplitz_panel(kernel, length)
    for count, lo in enumerate(range(1, M + 1, length), start=1):
        hi = min(lo + length, M + 1)
        step = fold[: hi - lo, : hi - lo + 1] @ history[lo - 1 : hi]
        step += v[lo - 1] * drift[: hi - lo]
        step += v[lo - 1]
        v[lo:hi] = step
        history[hi - 1] += np.dot(v[lo : hi - 1], kernel[hi - lo - 1 : 0 : -1])
        if hi > M:
            break
        size = length * (count & -count)
        end = min(hi + size, M + 1)
        if count & 1:
            # a block of one leaf: one BLAS product with the panel's leading rows
            history[hi:end] += panel[: end - hi] @ v[lo:hi]
        else:
            # kernel lags up to 2 size - 1 reach history[hi:end] without
            # wrapping round the circular product
            if size not in spectra:
                spectra[size] = np.fft.fft(kernel[: 2 * size], 2 * size)
            spectrum = np.fft.fft(v[hi - size : hi], 2 * size)
            spectrum *= spectra[size]
            history[hi:end] += np.fft.ifft(spectrum)[size : size + end - hi]
    return v


def _toeplitz_panel(kernel, size):
    """Toeplitz panel P[i, j] = K[size + i - j] of kernel lags 1 .. 2 size - 1.

    A leaf of ``size`` steps ending before step n adds its terms to
    history[n:n + r] as P[:r] @ v[n - size:n], r = size or fewer where the
    history ends.  Lags past M only meet history entries past M and are
    zero.  The panel is a contiguous copy, so that product is one BLAS call.
    """
    head = kernel[: 2 * size]
    lags = np.zeros(2 * size, dtype=np.complex128)
    lags[: head.shape[0]] = head
    windows = np.lib.stride_tricks.sliding_window_view(lags[1:], size)
    return windows[:, ::-1].copy()


def _series_inverse(a):
    """The first len(a) coefficients of 1/a(z), for a power series a with a[0] = 1.

    Newton doubling: if b is 1/a to m terms, b (1 - (a b - 1)) is 1/a to
    2 m terms, and a b - 1 has no terms below z^m.
    """
    b = np.ones(1, dtype=a.dtype)
    while b.shape[0] < a.shape[0]:
        m = min(2 * b.shape[0], a.shape[0])
        excess = np.convolve(a[:m], b)[b.shape[0] : m]
        b = np.concatenate([b, -np.convolve(b, excess)[: m - b.shape[0]]])
    return b


def _leaf_system(kernel, h, size):
    """The leaves' Toeplitz solve as one matrix product, built in extended precision.

    With K = kernel, k0 = K[0] and H[n] = K[n]/2 + sum_{m=1}^{n-1} v[m] K[n-m],
    the trapezoid rate at step n >= 1 is I[n] = h (H[n] + k0 v[n]/2), and
    one step v[j+1] = v[j] - (h/2) (I[j] + I[j+1]) reads
    v[j+1] - alpha v[j] + c (H[j] + H[j+1]) = 0, with
    alpha = (1 - c0 k0/2)/(1 + c0 k0/2) and c = c0/(1 + c0 k0/2), c0 = h^2/2.
    With H[0] = -k0/2 the same equation at j = 0 reads
    v[1] = v[0]/(1 + c0 k0/2) - c H[1], the step from I[0] = 0, so the first
    leaf is no different from the others.  Over v[lo:hi] the terms with
    m >= lo make a unit lower-triangular Toeplitz system whose first column
    is (1, -alpha + c K[1], c (K[d-1] + K[d]) for d >= 2).  Its inverse T is
    again lower-triangular Toeplitz, the series inverse of that column.  The
    right side is D @ known + alpha v[lo-1] e_0, where known = H[lo-1:hi]
    less the terms of the leaf itself and D is bidiagonal with -c on the
    diagonal and above it, so
    v[lo:hi] = G @ known + v[lo-1] (alpha T[:, 0] - 1) + v[lo-1] with G = T D.

    Returns G, contiguous and ``size`` x (``size`` + 1), and the drift
    alpha T[:, 0] - 1, whose leading L x (L + 1) block and L entries serve a
    leaf of length L <= ``size``.  Both are built in np.clongdouble and
    rounded to complex128, and the leaves apply them in complex128: the
    fold is the reassociated recurrence, and only building it needs the
    extra bits.  The drift is kept apart from the 1 it adds to v[lo-1], so
    that its rounding is relative to alpha T - 1, which vanishes with h, and
    not to 1.
    """
    k = kernel[:size].astype(np.clongdouble)
    half = np.longdouble(h) ** 2 / 4 * k[0]
    alpha = (1 - half) / (1 + half)
    c = np.longdouble(h) ** 2 / 2 / (1 + half)
    column = np.empty(size, dtype=np.clongdouble)
    column[0] = 1.0
    column[1:2] = c * k[1:2] - alpha
    column[2:] = c * (k[1:-1] + k[2:])
    first = _series_inverse(column)
    # G[i, k] = g[i - k + 1] for k >= 1, with g[0] = -c and
    # g[d + 1] = -c (T[d] + T[d + 1]); column 0 meets only the diagonal
    # of D, G[i, 0] = -c T[i]
    g = np.zeros(2 * size - 1, dtype=np.complex128)
    g[size - 1] = -c
    g[size:] = -c * (first[:-1] + first[1:])
    fold = np.empty((size, size + 1), dtype=np.complex128)
    fold[:, 0] = -c * first
    fold[:, 1:] = np.lib.stride_tricks.sliding_window_view(g, size)[:, ::-1]
    return fold, (alpha * first - 1).astype(np.complex128)


def _integrate(model, mode, t_max, steps):
    """Single fixed-step solve; returns v = exp(i omega0 t) u on ``steps`` intervals."""
    h = t_max / steps
    ts = h * np.arange(steps + 1)
    return _trapezoid_volterra(memory_kernel(model, ts) * np.exp(1j * mode.omega0 * ts), h)


def _midpoints(c):
    """Values half way between the samples of ``c`` by 4-point interpolation.

    Interior midpoints take (-c0 + 9 c1 + 9 c2 - c3)/16, the two outer ones
    the one-sided cubic through the four end samples.  The solver hands it
    9 samples or more: it interpolates only on ladders that start below the
    output grid, and those start at 8 intervals or more (``_start_depth``).
    """
    mid = np.empty(c.shape[0] - 1, dtype=c.dtype)
    mid[1:-1] = (9 * (c[1:-2] + c[2:-1]) - (c[:-3] + c[3:])) / 16
    mid[0] = (5 * c[0] + 15 * c[1] - 5 * c[2] + c[3]) / 16
    mid[-1] = (c[-4] - 5 * c[-3] + 15 * c[-2] + 5 * c[-1]) / 16
    return mid


def _refined(c):
    """``c`` with the 4-point midpoints of ``_midpoints`` interleaved: a grid of half the step."""
    fine = np.empty(2 * c.shape[0] - 1, dtype=c.dtype)
    fine[::2] = c
    fine[1::2] = _midpoints(c)
    return fine


def _band_radius(model, omega0):
    """A bound Omega on |E - omega0| over every eigenvalue E, or inf.

    An array model has a finite ``support`` [lo, hi], and the system
    couples with strength g to one array site, so by Weyl's bound every
    eigenvalue E of the single-excitation Hamiltonian satisfies
    |E - omega0| <= max(|lo - omega0|, |hi - omega0|) + g.  A model without
    a finite support (the Ohmic family) gives inf.  It only sets how deep
    the ladder starts (``_start_depth``).
    """
    support = getattr(model, "support", None)
    if support is None:
        return math.inf
    lo, hi = support
    return max(abs(lo - omega0), abs(hi - omega0)) + model.g


def _start_depth(steps, t_max, radius, tol):
    """s: the ladder starts at steps / 2^s.

    s = 0 for an odd number of output intervals and 1 for an even one.  For
    a band-limited v = exp(i omega0 t) u (``radius`` Omega finite), s grows
    while 2^s divides ``steps`` and the 4-point interpolation bound
    (5/128) (Omega H)^4 stays within tol/2, H the step of the level the first
    pair of the ladder ends on.  The start keeps at least 8 intervals, or
    all of them when ``steps`` < 8: an estimate taken on the few points of a
    coarser start can miss the error.
    """
    depth = 1 - steps % 2
    reach = (64 * tol / 5) ** 0.25  # (5/128) x^4 <= tol/2 for x <= reach
    while steps % (2 << depth) == 0 and radius * t_max * (1 << depth) / steps <= reach:
        depth += 1
    while depth and steps >> depth < 8:
        depth -= 1
    return depth


def solve_amplitude(model, mode, grid, tol=1e-5):
    """Solve the amplitude equation on ``grid`` with step-halving refinement.

    The trapezoid step's error is a series in even powers of dt, so each
    halving cuts its leading term fourfold and the next one sixteenfold.
    The ladder starts at M/2^s steps for M = grid.steps output intervals
    (see ``_start_depth``): s = 0 for an odd M, 1 for an even one, and more
    for a band-limited reservoir whose amplitude the 4-point rule
    interpolates within tol/2 from the coarser steps.  Level k integrates
    twice the steps of level k - 1; v_k is its solution v (the module
    docstring's frame) on its own grid or, once that is finer, on the
    output grid.  The first pair gives the Richardson value
    R_1 = v_1 + c/3 with c = v_1 - v_0, whose estimate is max|c|/3, the
    error of v_1 that R_1 removes.  From the second pair on,
    R_k = v_k + (v_k - v_(k-1))/3 and the solver takes the Romberg value
    S_k = R_k + (R_k - R_(k-1))/15 with the estimate max|R_k - R_(k-1)|/15,
    the error of R_k that S_k removes.  Each difference is taken on the
    coarser grid of its pair and carried to the finer one by 4-point
    interpolation (``_midpoints``), and each estimate is the maximum over
    the points every level shares.  A value on a grid coarser than the
    output grid is interpolated up to it the same way, and its estimate
    gains the interpolation term max|midpoints(v[::2]) - v[1::2]|, the
    4-point miss of v at twice its step.  The solver refines until the
    estimate is below ``tol``, at most to M 2^8 steps, and returns
    u = exp(-i omega0 t) v, formed once on the output grid from v projected
    onto the unit disk (v / max(|v|, 1)) when max|v| <= 1 + estimate; a
    larger overshoot, which the estimate does not explain, is left as is, with
    ``dt_used`` the finest dt, coarser than grid.dt when the ladder stopped
    below the output grid, and ``error_estimate`` that estimate.  A level
    whose change from the one before is not finite stops the refinement.
    """
    check(tol=tol)
    M = grid.steps
    depth = _start_depth(M, grid.t_max, _band_radius(model, mode.omega0), tol)
    base = M >> depth

    def level(steps):
        return _integrate(model, mode, grid.t_max, steps)[:: max(1, steps // M)]

    coarse = level(base)
    previous = None
    err = np.inf
    for k in range(1, _MAX_REFINEMENTS + depth + 1):
        steps = base << k
        fine = level(steps)
        ratio = 2 if steps <= M else 1  # output intervals per coarse one
        change = fine[::ratio] - coarse
        largest = float(np.abs(change[:: (change.shape[0] - 1) // base]).max())
        if not math.isfinite(largest):
            raise ConvergenceError(
                f"non-finite amplitude at {steps} steps (change {largest})",
                error_estimate=largest,
            )
        if ratio == 2:
            change = _refined(change)
        extrapolated = fine + change / 3
        if previous is None:
            value = extrapolated
            err = largest / 3
        else:
            romberg = extrapolated[::ratio] - previous
            err = float(np.abs(romberg[:: (romberg.shape[0] - 1) // base]).max()) / 15
            if ratio == 2:
                romberg = _refined(romberg)
            value = extrapolated + romberg / 15
        if value.shape[0] <= M:
            err += float(np.abs(_midpoints(value[::2]) - value[1::2]).max())
        if err < tol:
            while value.shape[0] <= M:
                value = _refined(value)
            # the exact |v| = |u| is at most 1: an overshoot the estimate
            # explains is projected onto the unit disk, which is convex, so no
            # value moves farther from it and one with |v| <= 1 keeps every
            # bit; a larger one is returned as is, for the physicality check
            mod = np.abs(value)
            if mod.max() <= 1.0 + err:
                value = value / np.maximum(mod, 1.0)
            return AmplitudeTrajectory(
                grid=grid,
                u=value * np.exp(-1j * mode.omega0 * grid.times()),
                dt_used=grid.t_max / steps,
                error_estimate=err,
            )
        coarse, previous = fine, extrapolated
    raise ConvergenceError(
        f"no convergence to tol={tol} after {_MAX_REFINEMENTS} halvings "
        f"(last error estimate {err:.3e})",
        error_estimate=err,
    )


def decay_rates(traj):
    """Gamma(t) and Omega(t) from Gamma + i*Omega = -u'(t)/u(t).

    u' is estimated by centered differences (second-order one-sided stencils
    at the endpoints).  Samples with |u|^2 below the validity floor are
    flagged invalid rather than dropped: ``valid`` is False there, and both
    Gamma and Omega are nan.
    """
    u = traj.u
    h = traj.grid.dt
    du = np.empty_like(u)
    du[1:-1] = (u[2:] - u[:-2]) / (2 * h)
    du[0] = (-3 * u[0] + 4 * u[1] - u[2]) / (2 * h)
    du[-1] = (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * h)
    valid = np.abs(u) ** 2 >= VALIDITY_FLOOR
    z = np.full(u.shape, complex(np.nan, np.nan))
    z[valid] = -du[valid] / u[valid]
    return DecayRateSeries(times=traj.times, gamma=z.real, omega_shift=z.imag, valid=valid)
