"""Reservoir spectral densities, their memory kernels and level-shift integrals.

Two reservoir families are supported:

* ``OhmicFamilySpectrum`` -- J(w) = eta * w * (w/omega_ref)**(n-1) * exp(-w/omega_c)
  on w >= 0, covering sub-Ohmic (n < 1), Ohmic (n = 1) and super-Ohmic (n > 1)
  couplings.
* ``CavityArraySpectrum`` -- a tight-binding band of cavities with dispersion
  eps_k = omega_C + 2*xi*cos(k) and band [omega_C - 2*xi, omega_C + 2*xi].
  Either the N -> infinity continuum, supported on the band, or a finite ring
  of N sites, whose distinct mode energies and weights form ``modes``,
  supported on its extreme energies (``support``).

The memory kernel is f(t) = int J(w) exp(-i w t) dw and the level-shift
integrals int J(w)/(w - E)**order dw feed the bound-mode analysis.  A finite
ring's kernel and level shifts are sums over ``modes``; inside the ring's
light cone (before an excitation can travel round the ring) the kernel
equals the continuum closed form to below double rounding, so the continuum
form is evaluated there instead.  Every kernel and level shift is a closed
form or an exact finite sum.
The special functions they need (J0, zeta(k) and the regularised upper
incomplete gamma function) are computed here.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._ranges import check


# 2 pi to the long double's precision: fl(2 pi) plus its float64 rounding error
_TWO_PI = np.longdouble(2 * math.pi) + np.longdouble(2.4492935982947064e-16)


class SupportError(ValueError):
    """Raised when an energy argument falls inside the spectral support."""


@dataclass(frozen=True)
class OhmicFamilySpectrum:
    """Ohmic-family reservoir. Frequencies are in units of the system frequency."""

    eta: float
    n: float
    omega_c: float
    omega_ref: float

    def __post_init__(self):
        check(eta=self.eta, n=self.n, omega_c=self.omega_c, omega_ref=self.omega_ref)


@dataclass(frozen=True)
class CavityArraySpectrum:
    """Coupled-cavity-array reservoir; ``sites=None`` selects the continuum."""

    g: float
    xi: float
    omega_C: float
    sites: int | None = None

    def __post_init__(self):
        check(g=self.g, xi=self.xi, omega_C=self.omega_C, N=self.sites)

    @property
    def band(self):
        return self.omega_C - 2 * self.xi, self.omega_C + 2 * self.xi

    @cached_property
    def support(self):
        """The band, or omega_C plus a ring's extreme mode offsets (inside the band for odd N)."""
        if self.sites is None:
            return self.band
        offsets, _ = self.modes
        return float(self.omega_C + offsets.min()), float(self.omega_C + offsets.max())

    @cached_property
    def modes(self):
        """A ring's distinct mode energies as (offsets, weights), cached read-only.

        The momenta +-2 pi m/N share eps_m = omega_C + 2 xi cos(2 pi m/N), so
        m = 0 .. N//2 covers them, weighted 1/N at m = 0 and m = N/2 and 2/N
        at each pair.  Each offset 2 xi cos(2 pi m/N) is rounded once from a
        long double cosine: float64 momenta put up to 1e-16 into it.
        """
        if self.sites is None:
            raise ValueError("modes requires a finite site count")
        N = self.sites
        m = np.arange(N // 2 + 1)
        offsets = (2 * self.xi * np.cos(_TWO_PI * m / N)).astype(float)
        weights = np.where((m == 0) | (2 * m == N), 1.0, 2.0) / N
        offsets.flags.writeable = weights.flags.writeable = False
        return offsets, weights


def _coupling_squared(model):
    """g^2 of an array model, which scales its kernel and level shifts."""
    try:
        return float(model.g) ** 2
    except OverflowError:
        raise ValueError(
            f"the array memory kernel or level shift overflows double precision "
            f"(g={model.g}, whose square exceeds the double range)"
        ) from None


_RING_TAIL_TOL = 1e-17  # ring-continuum gap below which the continuum form is used


def _ring_matches_continuum(model, t_max):
    """True when the ring kernel equals the continuum kernel on [0, t_max].

    Jacobi-Anger turns the ring's mode sum into
    g^2 exp(-i omega_C t) [J0(z) + 2 sum_{q>=1} (-i)^(qN) J_qN(z)], z = 2 xi t.
    With |J_nu(z)| <= (z/2)^nu / nu! and N >= 2 z, the q >= 1 tail is at most
    4 (z/2)^N / N! relative to g^2, which grows with z, so checking z_max
    bounds every earlier time.
    """
    z = 2 * model.xi * t_max
    if z == 0:
        return True
    N = model.sites
    if N < 2 * z:
        return False
    log_tail = math.log(4) + N * math.log(z / 2) - math.lgamma(N + 1)
    return log_tail < math.log(_RING_TAIL_TOL)


def _phase_table_sum(energies, weights, dt, count):
    """sum_m weights[m] exp(-i energies[m] j dt) for j = 0 .. count - 1.

    With j = a B + b, u[a, b] = sum_m outer[a, m] inner[b, m], where
    outer[a, m] = weights[m] exp(-i energies[m] a B dt) and
    inner[b, m] = exp(-i energies[m] b dt): 2 sqrt(count) exponentials per
    mode in place of count.  Each phase is formed and reduced mod 2 pi in
    np.longdouble, then rounded once to float64 for a complex128
    exponential, so it carries no float64 rounding of j dt.
    """
    rows = math.isqrt(count - 1) + 1  # B = ceil(sqrt(count))
    phase = np.longdouble(dt) * energies.astype(np.longdouble)

    def table(steps):
        angle = np.outer(steps, phase)
        angle -= _TWO_PI * np.rint(angle / _TWO_PI)
        return np.exp(-1j * angle.astype(np.float64))

    outer = weights * table(np.arange(0, count, rows))
    return (outer @ table(np.arange(rows)).T).ravel()[:count]


def _bessel_j0(z):
    """J0 at each z >= 0 of the float array ``z``, within about 1e-15.

    Below 25 the 64-node trapezoid rule of J0(z) = (1/pi) int_0^pi
    cos(z cos theta) dtheta, folded by symmetry onto the nodes
    cos(pi m/32), m = 0..16; its error is 2 |J_64(z)| < 1e-25.  From 25 on,
    Hankel's expansion sqrt(2/(pi z)) (P cos w - Q sin w) with w = z - pi/4
    and 12 terms in each of P and Q, whose coefficients a_k(0) follow from
    a_k/a_(k-1) = -(2k - 1)^2/(8k) (DLMF §10.17).
    """
    out = np.empty(z.shape)
    near = z < 25.0
    if near.any():
        x = z[near]
        # the end nodes cos 0 = 1 and cos(pi/2) = 0 take half weight
        total = (np.cos(x) + 1.0) / 2
        for node in np.cos(np.pi / 32 * np.arange(1, 16)):
            total += np.cos(x * node)
        out[near] = total / 16
    far = ~near
    if far.any():
        x = z[far]
        a = [1.0]
        for k in range(1, 24):
            a.append(-a[-1] * (2 * k - 1) ** 2 / (8 * k))
        # P = sum_j (-1)^j a_2j / z^2j and Q = sum_j (-1)^j a_(2j+1) / z^(2j+1),
        # by Horner's scheme in 1/z^2 from the smallest term
        w = 1 / (x * x)
        p = q = 0.0
        for j in range(11, -1, -1):
            p = p * w + (-1) ** j * a[2 * j]
            q = q * w + (-1) ** j * a[2 * j + 1]
        phase = x - math.pi / 4
        out[far] = np.sqrt(2 / (math.pi * x)) * (p * np.cos(phase) - q / x * np.sin(phase))
    return out


def memory_kernel(model, t):
    """Memory kernel f(t) = int J(w) exp(-i w t) dw, in closed form.

    Ohmic family: f(t) = eta * Gamma(n+1) * omega_c^2 * (omega_c/omega_ref)^(n-1)
    / (1 + i omega_c t)^(n+1).  Continuum array: g^2 * exp(-i omega_C t) *
    J0(2 xi t).  Finite array: the exact mode sum g^2 * exp(-i omega_C t) *
    sum_m w_m exp(-i o_m t) over the ring's ``modes`` (o_m, w_m), except
    when every requested time lies inside the ring's light cone; there the
    mode sum differs from the continuum form by at most 4 (xi t_max)^N / N!
    relative to g^2 (below 1e-17 where it is used), and the continuum form
    is returned.  On the solver's grid t_j = j dt the sum is one phase table
    (``_phase_table_sum``) at the exact times j dt, each within half an ulp
    of its float t_j; any other t sums the modes directly.  t must be finite
    and >= 0.
    """
    ts = np.asarray(t, dtype=float)
    # a nan turns the min into nan, which fails the comparison
    if not (ts.min(initial=0.0) >= 0 and ts.max(initial=0.0) < math.inf):
        raise ValueError("memory kernel is defined for finite t >= 0")
    if isinstance(model, OhmicFamilySpectrum):
        try:
            amp = (
                model.eta
                * math.gamma(model.n + 1)
                * model.omega_c**2
                * (model.omega_c / model.omega_ref) ** (model.n - 1)
            )
        except OverflowError:
            raise ValueError(
                f"the Ohmic memory kernel overflows double precision "
                f"(n={model.n}, omega_c={model.omega_c}, omega_ref={model.omega_ref})"
            ) from None
        out = amp / (1 + 1j * model.omega_c * ts) ** (model.n + 1)
    else:
        carrier = _coupling_squared(model) * np.exp(-1j * model.omega_C * ts)
        if model.sites is None or _ring_matches_continuum(model, ts.max(initial=0.0)):
            out = carrier * _bessel_j0(2 * model.xi * ts)
        else:
            # the band centre is factored out of the mode phases, so their
            # rounding grows with 2 xi t rather than with omega_C t
            offsets, weights = model.modes
            if ts.ndim == 1 and ts.size > 1 and np.array_equal(ts, ts[1] * np.arange(ts.size)):
                total = _phase_table_sum(offsets, weights, ts[1], ts.size)
            else:
                total = np.exp(-1j * np.multiply.outer(ts, offsets)) @ weights
            out = carrier * total
    return complex(out) if np.isscalar(t) else out


# x = -E/omega_c above which the continued fraction replaces the series
_FRACTION_FROM = 2.0


# ln Gamma(1 - nu) = euler*nu + sum_(k>=2) zeta(k) nu^k / k (DLMF §5.7) for
# |nu| <= 1/2: the coefficients zeta(k)/k, the double nearest zeta(k) divided
# by k, from k = 63 down to k = 2 for Horner's scheme
_LNGAMMA_TAYLOR = (
    0.015873015873015872, 0.016129032258064516, 0.01639344262295082,
    0.016666666666666666, 0.01694915254237288, 0.017241379310344827,
    0.017543859649122806, 0.017857142857142856, 0.01818181818181818,
    0.018518518518518517, 0.01886792452830189, 0.019230769230769235,
    0.019607843137254912, 0.020000000000000018, 0.02040816326530616,
    0.02083333333333341, 0.021276595744681003, 0.021739130434782917,
    0.022222222222222855, 0.02272727272727402, 0.023255813953491015,
    0.023809523809529224, 0.024390243902450117, 0.025000000000022737,
    0.025641025641072283, 0.02631578947377995, 0.027027027027223673,
    0.027777777778181998, 0.02857142857226011, 0.029411764707594344,
    0.030303030306558048, 0.03125000000727597, 0.03225806453115041,
    0.03333333336437758, 0.034482758684919304, 0.03571428584733336,
    0.037037037312989324, 0.03846153903467519, 0.04000000119214014,
    0.04166666915034121, 0.04347826605304026, 0.04545455629320467,
    0.04761907033014223, 0.05000004769810169, 0.05263167937961666,
    0.055555767627403614, 0.05882397865868458, 0.06250095514121304,
    0.06666870588242046, 0.07143294629536134, 0.0769325164113522,
    0.083353840546109, 0.09095401714582904, 0.10009945751278179,
    0.11133426586956469, 0.12550966952474304, 0.14404989676884614,
    0.16955717699740822, 0.207385551028674, 0.27058080842778454,
    0.40068563438653143, 0.8224670334241132,
)


def _series_constants(n):
    """n = m + nu with m an integer and |nu| <= 1/2, and c = (Gamma(1 - nu) - 1)/nu
    (Euler's constant at nu = 0), summed without the cancellation of
    Gamma(1 - nu) - 1."""
    m = round(n)
    nu = n - m
    euler = float(np.euler_gamma)
    if not nu:
        return m, nu, euler
    poly = 0.0
    for coef in _LNGAMMA_TAYLOR:
        poly = poly * nu + coef
    return m, nu, math.expm1(nu * (euler + nu * poly)) / nu


def _gamma_q(a, x):
    """The regularised upper incomplete gamma function Q(a, x) for
    1/2 <= a < 1 and 0 < x <= 2, as
    1 - x^a e^(-x)/Gamma(a) sum_(k>=0) x^k/(a (a+1) ... (a+k))
    (DLMF §8.2.4, §8.7.1); every term of the sum is positive."""
    term = total = 1.0 / a
    k = 0.0
    while term > 1e-17 * total:
        k += 1.0
        term *= x / (a + k)
        total += term
    return 1.0 - x**a * math.exp(-x) / math.gamma(a) * total


def _ohmic_shape(n, x, order):
    """int_0^inf e^(-xt) (1+t)^(-n-1) t^(order-1) dt for x > 0.

    Order 1 is F = e^x x^n Gamma(-n, x) (DLMF §8.6), order 2 is
    D = e^x x^(n-1) Gamma(1-n, x) - F.  Every term below is positive except
    in the x <= 2 series, whose cancellation costs a factor of about
    e^x (x + 1).
    """
    if x > _FRACTION_FROM:
        # r = x + 2/(1 + (2+n)/(x + 3/(1 + (3+n)/(x + ...)))) by modified
        # Lentz; it is the tail of the Legendre fraction for Gamma(-n, x)
        # (DLMF §8.9) rearranged so that F and D need no subtraction
        r = lentz_c = x
        lentz_d = 0.0
        k = 2.0
        while True:
            lentz_d = 1.0 / (1.0 + k * lentz_d)
            lentz_c = 1.0 + k / lentz_c
            r *= lentz_c * lentz_d
            a = k + n
            lentz_d = 1.0 / (x + a * lentz_d)
            lentz_c = x + a / lentz_c
            step = lentz_c * lentz_d
            r *= step
            if abs(step - 1.0) <= 1e-15:
                break
            k += 1.0
        tail = r + 1.0 + n
        F = 1.0 / (x + n + r / tail)
        return F if order == 1 else F * r / (tail * x)
    # F at -nu from the series of Gamma(-nu, x) (DLMF §8.7), with the
    # Gamma(-nu) and k = 0 terms combined so nothing diverges as nu -> 0
    m, nu, c = _series_constants(n)
    log_x = math.log(x)
    head = -math.expm1(nu * log_x) / nu if nu else -log_x
    series, term, j = 0.0, 1.0, 0
    while True:
        j += 1
        term *= -x / j
        series += term / (j - nu)
        if abs(term) <= 1e-17 * abs(series):
            break
    F = math.exp(x) * (head - x**nu * c - series)
    if m == 0:
        if order == 1:
            return F
        return math.exp(x) * x ** (nu - 1) * math.gamma(1 - nu) * _gamma_q(1 - nu, x) - F
    # Gamma(s-1, x) = (Gamma(s, x) - x^(s-1) e^(-x))/(s-1) (DLMF §8.8), taken
    # from s = -nu down to -n; step k scales the relative error by about
    # x/(k + nu), below 1 from k = 3 on, so long chains damp it
    for k in range(1, m + 1):
        previous, F = F, (1.0 - x * F) / (nu + k)
    return F if order == 1 else previous - F


def _ohmic_level_shift(model, E, order):
    """The Ohmic-family level shift at one Python float E <= 0."""
    # Python floats: the loops below run several times faster than on numpy scalars
    n, omega_c = float(model.n), float(model.omega_c)
    x = -E / omega_c
    try:
        scale = model.eta * model.omega_ref * (omega_c / model.omega_ref) ** n * math.gamma(n + 1)
        if x == 0:
            if order == 2 and n <= 1:
                raise ValueError(f"the order-2 level shift diverges at E=0 for n={n} <= 1")
            value = scale / n if order == 1 else scale / (n * (n - 1) * omega_c)
        else:
            value = scale * _ohmic_shape(n, x, order) / omega_c ** (order - 1)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(
            f"the Ohmic level shift at E={E} overflows double precision "
            f"(n={n}, omega_c={omega_c}, omega_ref={model.omega_ref})"
        )
    return value


def _continuum_level_shift(model, E, order):
    """The continuum band's level shift at one Python float E outside the band."""
    a = model.omega_C - E
    root = math.sqrt(a * a - 4 * model.xi**2)
    if order == 1:
        return math.copysign(_coupling_squared(model) / root, a)
    return _coupling_squared(model) * abs(a) / root**3


def _ring_level_shift(model, E, order):
    """A finite ring's level shift g^2 sum_m w_m/(eps_m - E)^order over its
    ``modes``, at a float E or at each E of a 1-d array: one row of mode
    terms per E, each summed like the single E's."""
    offsets, weights = model.modes
    terms = weights * (model.omega_C + offsets - np.asarray(E)[..., None]) ** (-float(order))
    return _coupling_squared(model) * np.sum(terms, axis=-1)


def _inside_support(model, E):
    """Whether a float E, or each E of an array, lies inside the support."""
    if isinstance(model, OhmicFamilySpectrum):
        # E = 0 is admitted: J vanishes at the origin fast enough for the
        # level-shift integrand to stay integrable, and the bound-mode
        # criterion is evaluated exactly there
        return E > 0
    lo, hi = model.support
    return (lo <= E) & (E <= hi)


def _check_energy(model, E):
    """Raise unless the float E is finite and outside the support."""
    if not math.isfinite(E):
        raise ValueError(f"E must be finite, got {E}")
    if _inside_support(model, E):
        if isinstance(model, OhmicFamilySpectrum):
            raise SupportError(f"E={E} lies inside the Ohmic-family support [0, inf)")
        lo, hi = model.support
        raise SupportError(f"E={E} lies inside the spectral support [{lo}, {hi}]")


def level_shift_integral(model, E, order=1):
    """int J(w)/(w - E)**order dw for E strictly outside the support.

    order=1 is the reservoir-induced level shift entering the bound-mode
    equation; order=2 yields the bound-mode residue denominator.  Ohmic
    family: closed form through incomplete gamma functions, within about
    3e-13 relative of 40-digit arithmetic; exact at E = 0, where order k is
    eta omega_ref^(1-n) Gamma(n+1-k) omega_c^(n+1-k).  Raises ValueError
    where the value overflows double precision and, for n <= 1, at order 2
    and E = 0, where the integral diverges.

    E is a scalar, which gives a float, or a 1-d array, which gives the
    array of the scalar calls' values, bit for bit; SupportError if any E
    lies inside the support.  A finite ring sums its modes for every E at
    once.  The closed forms take one E at a time, in Python floats, since
    numpy's array power can differ from Python's in the last bit.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    ohmic = isinstance(model, OhmicFamilySpectrum)
    ring = not ohmic and model.sites is not None
    closed_form = _ohmic_level_shift if ohmic else _continuum_level_shift
    if np.isscalar(E) or np.ndim(E) == 0:
        E = float(E)
        _check_energy(model, E)
        return float(_ring_level_shift(model, E, order)) if ring else closed_form(model, E, order)
    energies = np.asarray(E, dtype=float)
    if energies.ndim != 1:
        raise ValueError(f"E must be a scalar or a 1-d array, got shape {energies.shape}")
    bad = ~np.isfinite(energies) | _inside_support(model, energies)
    if bad.any():
        _check_energy(model, float(energies[bad][0]))  # raises, naming the first bad E
    if ring:
        return _ring_level_shift(model, energies, order)
    return np.array([closed_form(model, e, order) for e in energies.tolist()], dtype=float)
