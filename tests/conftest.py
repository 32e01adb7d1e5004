"""Shared independent oracles for the test suite.

These deliberately avoid the package's own formula paths: the covariance
oracle builds second moments directly from operator averages, and the
discord oracle minimizes the conditional entropy over an explicit scan of
Gaussian measurements.  The Volterra oracle is the direct trapezoid loop
that sums the full memory history at every step, O(M^2), against which the
solver's fast history sum is checked.  The ring-kernel oracle is the
finite ring's mode sum taken term by term over all N sites at every time,
in long double phases, against which the kernel's phase table, its direct
sum and its continuum shortcut inside the light cone are checked.  The
quadrature oracle is adaptive Gauss-Legendre integration of the spectral
density J(w) itself, against which the closed-form memory kernels and Ohmic
level shifts are checked; J is written out here, as the package has no
density of its own to borrow.  The Ohmic spectral oracle writes the n = 3
amplitude as its bound-mode pole plus a continuum integral over the
spectral function, with no time stepping, against which the Ohmic Volterra
solves are checked.  The per-state covariance route builds the 4x4
covariance matrix of one evolved state from its kernel coefficients, takes
its symplectic invariants by determinants and evaluates the generic
two-branch discord formula on them, against which the closed-form
trajectory measures are checked.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from gaussbath import (
    OhmicFamilySpectrum,
    PhysicalityError,
    SystemMode,
    find_bound_mode,
)
from gaussbath._ranges import check
from gaussbath.gaussian import AMPLITUDE_TOL


def moment_covariance(u, r):
    """Covariance matrix from the operator averages of the damped state.

    Each mode keeps <a+a> = |u|^2 sinh^2 r and the only cross moment is
    <a1 a2> = u^2 * (-sinh r cosh r); everything else vanishes at zero
    temperature.  Convention: sigma_ij = <dXi dXj + dXj dXi>, vacuum = 1.
    """
    diag = 1.0 + 2.0 * abs(u) ** 2 * np.sinh(r) ** 2
    w = -(complex(u) ** 2) * np.sinh(r) * np.cosh(r)
    block = 2.0 * np.array([[w.real, w.imag], [w.imag, -w.real]])
    sigma = np.zeros((4, 4))
    sigma[0, 0] = sigma[1, 1] = sigma[2, 2] = sigma[3, 3] = diag
    sigma[:2, 2:] = block
    sigma[2:, :2] = block.T
    return sigma


def entropy_of(nu):
    nu = np.asarray(nu, dtype=float)
    out = np.zeros_like(nu)
    ok = nu > 1 + 1e-14
    xp = (nu[ok] + 1) / 2
    xm = (nu[ok] - 1) / 2
    out[ok] = xp * np.log(xp) - xm * np.log(xm)
    return float(out) if out.ndim == 0 else out


def symplectic_eigs(sigma):
    """|eig(i Omega sigma)| pairs; generic route, no block formulas."""
    omega = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ])
    ev = np.abs(np.linalg.eigvals(1j * omega @ sigma))
    return np.sort(ev)[[0, 2]]  # each value appears twice


def brute_force_discord(sigma, n_lam=800, n_theta=24):
    """Gaussian discord by direct minimization over measurement seeds.

    Measurement on mode 2 with pure seed R(theta) diag(lam, 1/lam) R(theta)^T;
    the scan yields an upper bound on the conditional entropy infimum, i.e. a
    value >= the closed-form discord, tight to the scan resolution.
    """
    alpha1 = sigma[:2, :2]
    alpha2 = sigma[2:, 2:]
    gamma = sigma[:2, 2:]
    nus = symplectic_eigs(sigma)
    S_rho = entropy_of(nus[0]) + entropy_of(nus[1])
    S1 = entropy_of(np.sqrt(np.linalg.det(alpha1)))
    S2 = entropy_of(np.sqrt(np.linalg.det(alpha2)))
    mutual = S1 + S2 - S_rho
    theta = np.linspace(0.0, np.pi / 2, n_theta)
    lam = np.exp(np.linspace(np.log(1e-4), np.log(1e4), n_lam))
    c, s = np.cos(theta), np.sin(theta)
    R = np.moveaxis(np.array([[c, -s], [s, c]]), 2, 0)[:, None]  # (n_theta, 1, 2, 2)
    diag = np.zeros((n_lam, 2, 2))
    diag[:, 0, 0] = lam
    diag[:, 1, 1] = 1.0 / lam
    seed = R @ diag @ np.swapaxes(R, 2, 3)  # (n_theta, n_lam, 2, 2)
    cond = alpha1 - gamma @ np.linalg.inv(alpha2 + seed) @ gamma.T
    # the entropy increases with the determinant, so its minimum over the
    # scan is the entropy of the smallest clamped determinant
    det = np.maximum(np.linalg.det(cond), 1.0)
    best = entropy_of(np.sqrt(det.min()))
    classical = S1 - best
    return mutual - classical, mutual


def direct_trapezoid_volterra(kernel, h, dtype=np.complex128):
    """Integrate v'(t) = -int_0^t kernel(t - s) v(s) ds with v(0) = 1.

    The same implicit trapezoid step as ``gaussbath.volterra``,
    v[n+1] = v[n] - (h/2) (I[n] + I[n+1]) with I[0] = 0 and the trapezoid
    memory sum I[n] taken as a direct dot product over the whole past, in
    increment form: v[n] = v[n-1] - c (I[n-1]/h + H[n] + K[0] v[n-1]/2)
    with c = (h^2/2)/(1 + h^2 K[0]/4) and H[n] = I[n]/h - K[0] v[n]/2, so
    that the factor (1 - h^2 K[0]/4)/(1 + h^2 K[0]/4) of v[n-1] is never
    formed.  ``dtype=np.clongdouble`` runs the loop in extended precision.
    """
    kernel = np.asarray(kernel).astype(dtype)
    M = kernel.shape[0] - 1
    v = np.empty(M + 1, dtype=dtype)
    v[0] = 1.0
    half_k0 = kernel[0] / 2
    c = dtype(h) ** 2 / 2 / (1 + half_k0 * dtype(h) ** 2 / 2)
    memory = 0.0
    for n in range(1, M + 1):
        total = kernel[n] / 2 + (np.dot(v[1:n], kernel[n - 1 : 0 : -1]) if n > 1 else 0.0)
        v[n] = v[n - 1] - c * (memory + total + half_k0 * v[n - 1])
        memory = total + half_k0 * v[n]
    return v


def ring_mode_sum(model, ts):
    """Finite-ring memory kernel g^2/N sum_m exp(-i eps_m t), term by term.

    eps_m = omega_C + 2 xi cos(2 pi m / N) over all N sites, with no pairing
    of degenerate modes.  The common factor exp(-i omega_C t) is taken out
    of the sum and evaluated in float64 at the given t.  Each offset
    2 xi cos(2 pi m / N) and each phase (offset) t is formed in
    np.longdouble and reduced mod 2 pi there before its complex128
    exponential, so the sum carries neither the float64 rounding of the
    offsets nor that of the products (offset) t; a float64 sum had up to
    1.9e-14 g^2 of it at t = 2000.
    """
    ts = np.asarray(ts, dtype=float)
    two_pi = 2 * (np.longdouble(np.pi) + np.longdouble(1.2246467991473532e-16))
    offsets = 2 * np.longdouble(model.xi) * np.cos(two_pi * np.arange(model.sites) / model.sites)
    times = ts.reshape(-1).astype(np.longdouble)
    total = np.empty(times.shape, dtype=complex)
    for lo in range(0, len(times), 2048):
        angle = np.outer(times[lo : lo + 2048], offsets)
        angle -= two_pi * np.rint(angle / two_pi)
        total[lo : lo + 2048] = np.exp(-1j * angle.astype(float)).sum(axis=1) / model.sites
    carrier = np.exp(-1j * model.omega_C * ts)
    return model.g**2 * carrier * total.reshape(ts.shape)


_NODES, _WEIGHTS = leggauss(24)


def _panel(fun, lo, hi):
    x = 0.5 * (hi - lo) * _NODES + 0.5 * (hi + lo)
    return 0.5 * (hi - lo) * np.sum(_WEIGHTS * fun(x))


def adaptive_gauss(fun, a, b, abs_tol=1e-12, max_depth=48):
    """Integrate ``fun`` (vectorized, real or complex) over [a, b].

    Panels are bisected until the 24-point Gauss estimate of a panel agrees
    with the sum over its halves to the locally allotted tolerance.  The
    tolerance halves with each bisection, so one far below the rounding of
    the integral sends every panel to ``max_depth``: scale it to the value.
    """
    stack = [(a, b, _panel(fun, a, b), abs_tol, 0)]
    total = 0.0 + 0.0j
    while stack:
        lo, hi, whole, tol, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _panel(fun, lo, mid)
        right = _panel(fun, mid, hi)
        if abs(whole - (left + right)) < tol or depth >= max_depth:
            total += left + right
        else:
            stack.append((lo, mid, left, 0.5 * tol, depth + 1))
            stack.append((mid, hi, right, 0.5 * tol, depth + 1))
    if abs(total.imag) == 0.0:
        return total.real
    return total


def semi_infinite(fun, scale, abs_tol=1e-12, tail=50.0):
    """Integrate ``fun`` over [0, inf) via the mapping w = scale*s/(1-s).

    ``tail`` truncates the map at w = tail*scale, adequate whenever the
    integrand decays at least like exp(-w/scale) and peaks well below the
    cut (w^n exp(-w/scale) peaks at n*scale).
    """
    s_max = tail / (tail + 1.0)

    def mapped(s):
        w = scale * s / (1.0 - s)
        return fun(w) * scale / (1.0 - s) ** 2

    return adaptive_gauss(mapped, 0.0, s_max, abs_tol=abs_tol)


def evaluate_density(model, omega):
    """Spectral density J(omega), the quadrature oracles' integrand.

    Ohmic family: eta w (w/omega_ref)^(n-1) exp(-w/omega_c) on w >= 0, a
    ValueError for w < 0.  Array: the continuum band's
    g^2 / (pi sqrt(4 xi^2 - (w - omega_C)^2)), zero outside the band; a finite
    ring gives the continuum value.
    """
    w = np.asarray(omega, dtype=float)
    if isinstance(model, OhmicFamilySpectrum):
        if np.any(w < 0):
            raise ValueError("Ohmic-family density is defined for omega >= 0")
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(w > 0, w / model.omega_ref, 1.0)
            dens = model.eta * w * ratio ** (model.n - 1) * np.exp(-w / model.omega_c)
        dens = np.where(w > 0, dens, 0.0)
    else:
        disc = 4 * model.xi**2 - (w - model.omega_C) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = np.where(disc > 0, model.g**2 / (np.pi * np.sqrt(np.abs(disc))), 0.0)
    return float(dens) if np.isscalar(omega) else dens


def memory_kernel_quadrature(model, t, abs_tol=1e-13):
    """Memory kernel int J(w) exp(-i w t) dw by quadrature (continuum variants).

    Finite rings are exact sums already and have the lattice as their oracle.
    """
    if isinstance(model, OhmicFamilySpectrum):

        def integrand(w):
            return evaluate_density(model, w) * np.exp(-1j * w * t)

        return semi_infinite(integrand, model.omega_c, abs_tol=abs_tol)
    if model.sites is not None:
        raise ValueError("the quadrature oracle applies to the continuum variants only")

    # substitute w = omega_C + 2 xi cos(theta); the inverse-sqrt band-edge
    # singularities integrate out exactly
    def integrand(theta):
        w = model.omega_C + 2 * model.xi * np.cos(theta)
        return (model.g**2 / np.pi) * np.exp(-1j * w * t)

    return adaptive_gauss(integrand, 0.0, np.pi, abs_tol=abs_tol)


def ohmic_spectral_amplitude(eta, omega_c, omega0, times):
    """Exact n = 3, omega_ref = 1 Ohmic amplitude from its spectral form.

    u(t) = Z exp(-i E_b t) + int_0^(60 omega_c) D(w) exp(-i w t) dw
    (Zhang, Lo, Xiong, Tu & Nori, PRL 109, 170402 (2012)), with
    D = J / ((w - omega0 - Delta)^2 + pi^2 J^2), J = eta w^3 exp(-w/omega_c)
    and the principal-value level shift
    Delta(w) = eta (-(2 wc^3 + w wc^2 + w^2 wc) + w^3 exp(-w/wc) Ei(w/wc)).
    The continuum integral is taken by QUADPACK's Fourier weights; E_b and
    Z come from ``find_bound_mode``, so no Volterra step enters.  The cut at
    60 omega_c drops about 61 eta omega_c^2 exp(-60) of D, under 1e-23 for
    eta, omega_c <= 2.
    """
    from scipy.integrate import quad
    from scipy.special import expi

    def density(w):
        if w == 0.0:
            return 0.0  # J(0) = 0, and 0 * Ei(0) would be nan
        x = w / omega_c
        J = eta * w**3 * np.exp(-x)
        poly = 2 * omega_c**3 + w * omega_c**2 + w**2 * omega_c
        shift = eta * (w**3 * np.exp(-x) * expi(x) - poly)
        return J / ((w - omega0 - shift) ** 2 + (np.pi * J) ** 2)

    top = 60.0 * omega_c
    options = dict(epsabs=1e-13, epsrel=1e-12, limit=500)
    u = np.array([
        quad(density, 0.0, top, weight="cos", wvar=t, **options)[0]
        - 1j * quad(density, 0.0, top, weight="sin", wvar=t, **options)[0]
        for t in times
    ])
    bound = find_bound_mode(
        OhmicFamilySpectrum(eta=eta, n=3, omega_c=omega_c, omega_ref=1.0), SystemMode(omega0)
    )
    if bound.exists:
        u += bound.Z * np.exp(-1j * bound.E_b * np.asarray(times))
    return u, bound


# ---------------------------------------------------------------------------
# per-state covariance route: coefficients -> covariance -> invariants ->
# generic two-branch measures

VACUUM_EPS = 1e-12  # I2 - 1 below this means mode 2 is vacuum: product state
F_DOMAIN_TOL = 1e-6
DISCORD_CLAMP = 1e-9


@dataclass(frozen=True)
class EvolvedStateCoefficients:
    a: float
    b: complex
    c: float


@dataclass(frozen=True, eq=False)
class CovarianceMatrix4:
    """Symmetrized covariance matrix sigma_ij = <dXi dXj + dXj dXi>."""

    sigma: np.ndarray = field(repr=False)

    @classmethod
    def from_matrix(cls, sigma):
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (4, 4):
            raise ValueError("covariance matrix must be 4x4")
        if not np.allclose(sigma, sigma.T, atol=1e-12):
            raise ValueError("covariance matrix must be symmetric")
        return cls(sigma=sigma)


@dataclass(frozen=True)
class SymplecticData:
    I1: float
    I2: float
    I3: float
    I4: float
    delta: float
    nu_minus: float
    nu_plus: float


@dataclass(frozen=True)
class CorrelationMeasures:
    discord: float
    mutual_info: float
    classical: float
    log_neg: float
    branch: str


def entropy_f(x):
    """f(x) = ((x+1)/2) ln((x+1)/2) - ((x-1)/2) ln((x-1)/2), with f(1) = 0.

    Thermal-state von Neumann entropy of a symplectic eigenvalue.  Values in
    [1 - 1e-6, 1] are treated as 1 (roundoff at purity); smaller values raise.
    """
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 1.0 - F_DOMAIN_TOL):
        bad = float(xs[xs < 1.0 - F_DOMAIN_TOL].min())
        raise PhysicalityError(f"entropy argument {bad} below 1")
    xs = np.maximum(xs, 1.0)
    xp = 0.5 * (xs + 1.0)
    xm = 0.5 * (xs - 1.0)
    out = xp * np.log(xp) - np.where(xm > 0, xm * np.log(np.where(xm > 0, xm, 1.0)), 0.0)
    return float(out) if np.isscalar(x) else out


def evolved_coefficients(u, r):
    """Kernel coefficients (a, b, c) of the evolved two-mode state.

    a = 1 / (cosh^2 r * q),    b = -tanh r * u^2 / q,
    c = tanh^2 r * (1 - |u|^2) * |u|^2 / q,    q = 1 - tanh^2 r (1 - |u|^2)^2.
    """
    check(r=r)
    mod = abs(u)
    if mod > 1.0 + AMPLITUDE_TOL:
        raise PhysicalityError(f"|u| = {mod} exceeds 1 beyond tolerance")
    U = mod * mod
    th = np.tanh(r)
    q = 1.0 - th * th * (1.0 - U) ** 2
    a = 1.0 / (np.cosh(r) ** 2 * q)
    b = -th * complex(u) ** 2 / q
    c = th * th * (1.0 - U) * U / q
    return EvolvedStateCoefficients(a=float(a), b=complex(b), c=float(c))


def covariance_from_amplitude(u, r):
    """Covariance matrix of the evolved state (overall vacuum-=-identity scale).

    Diagonal entries are y(1+d)/(1-d)^2 and the cross block is
    (2 a / x) [[Re b, Im b], [Im b, -Re b]] with x = [(1-c)^2 - |b|^2]^2,
    y = a/(1-c), d = c + |b|^2/(1-c).
    """
    co = evolved_coefficients(u, r)
    babs2 = abs(co.b) ** 2
    x = ((1.0 - co.c) ** 2 - babs2) ** 2
    y = co.a / (1.0 - co.c)
    d = co.c + babs2 / (1.0 - co.c)
    diag = y * (1.0 + d) / (1.0 - d) ** 2
    o_re = 2.0 * co.a * co.b.real / x
    o_im = 2.0 * co.a * co.b.imag / x
    sigma = np.array(
        [
            [diag, 0.0, o_re, o_im],
            [0.0, diag, o_im, -o_re],
            [o_re, o_im, diag, 0.0],
            [o_im, -o_re, 0.0, diag],
        ]
    )
    cov = CovarianceMatrix4(sigma=sigma)
    data = symplectic_invariants(cov)
    if data.nu_minus < 1.0 - F_DOMAIN_TOL:
        raise PhysicalityError(f"nu_minus = {data.nu_minus} below 1")
    return cov


def symplectic_invariants(cov):
    """Block determinants and symplectic eigenvalues of a two-mode state."""
    s = cov.sigma
    I1 = float(np.linalg.det(s[:2, :2]))
    I2 = float(np.linalg.det(s[2:, 2:]))
    I3 = float(np.linalg.det(s[:2, 2:]))
    I4 = float(np.linalg.det(s))
    delta = I1 + I2 + 2.0 * I3
    disc = delta * delta - 4.0 * I4
    if disc < -1e-9:
        raise PhysicalityError(f"delta^2 - 4 I4 = {disc} is negative")
    root = np.sqrt(max(disc, 0.0))
    nu_minus = np.sqrt(0.5 * (delta - root))
    nu_plus = np.sqrt(0.5 * (delta + root))
    return SymplecticData(
        I1=I1, I2=I2, I3=I3, I4=I4, delta=delta,
        nu_minus=float(nu_minus), nu_plus=float(nu_plus),
    )


def top_branch_m(I1, I2, I3, I4):
    """The top expression of the discord's measurement term m, elementwise."""
    den = np.where(I2 - 1.0 >= VACUUM_EPS, (I2 - 1.0) ** 2, 1.0)
    inner_top = np.maximum(I3**2 + (I2 - 1.0) * (I4 - I1), 0.0)
    return (2.0 * I3**2 + (I2 - 1.0) * (I4 - I1) + 2.0 * np.abs(I3) * np.sqrt(inner_top)) / den


def _measures(I1, I2, I3, I4, nu_minus, nu_plus, nu_t):
    """Discord, mutual information, log-negativity and branch, elementwise.

    Takes scalars or arrays of the invariants, the symplectic eigenvalues
    and the smallest symplectic eigenvalue nu_t of the partial transpose.
    The discord D = f(sqrt(I2)) - f(nu-) - f(nu+) + f(sqrt(m)) is returned
    unclamped, so that each caller applies its own policy to negative
    roundoff.  The measurement term m takes the top expression when
    (I4 - I1 I2)^2 <= I3^2 (I2+1)(I1+I4), otherwise the bottom one, whose
    undetermined symbol C^2 is read as I3^2 (the reading consistent with the
    boundary).  Where mode 2 is vacuum (I2 - 1 < VACUUM_EPS) the state is a
    product: discord and mutual information are 0 and the branch is "top".
    """
    # as arrays, so that ~live below negates a numpy bool, not a Python one
    I1, I2, I3, I4, nu_minus, nu_plus, nu_t = map(
        np.asarray, (I1, I2, I3, I4, nu_minus, nu_plus, nu_t)
    )
    live = I2 - 1.0 >= VACUUM_EPS
    f1 = entropy_f(np.sqrt(I1))
    f2 = entropy_f(np.sqrt(I2))
    # grouped so that nu- = nu+ gives exactly 2 f(nu)
    f_nu = entropy_f(nu_minus) + entropy_f(nu_plus)

    top = (I4 - I1 * I2) ** 2 <= I3**2 * (I2 + 1.0) * (I1 + I4)
    m_top = top_branch_m(I1, I2, I3, I4)
    inner_bot = np.maximum(I3**4 + (I4 - I1 * I2) ** 2 - 2.0 * I3**2 * (I4 + I1 * I2), 0.0)
    m_bot = (I1 * I2 - I3**2 + I4 - np.sqrt(inner_bot)) / (2.0 * I2)
    fm = entropy_f(np.sqrt(np.maximum(np.where(top, m_top, m_bot), 1.0)))

    discord = np.where(live, f2 - f_nu + fm, 0.0)
    mutual = np.where(live, np.maximum(f1 + f2 - f_nu, 0.0), 0.0)
    log_neg = np.where(nu_t < 1.0 - 1e-12, -np.log(np.where(nu_t > 0, nu_t, 1.0)), 0.0)
    return discord, mutual, log_neg, np.where(top | ~live, "top", "bottom")


def correlation_measures(cov):
    """All correlation measures of one state in a single pass.

    Log-negativity is max(0, -ln nu~-) from the partial transpose,
    nu~-^2 = (delta~ - sqrt(delta~^2 - 4 I4))/2 with delta~ = I1+I2-2I3.
    A discord more negative than DISCORD_CLAMP raises; smaller negative
    roundoff is clamped to zero.
    """
    inv = symplectic_invariants(cov)
    dtil = inv.I1 + inv.I2 - 2.0 * inv.I3
    disc = dtil * dtil - 4.0 * inv.I4
    if disc < -1e-9:
        raise PhysicalityError(f"delta~^2 - 4 I4 = {disc} is negative")
    nu_t = np.sqrt(0.5 * (dtil - np.sqrt(max(disc, 0.0))))
    discord, mutual, log_neg, branch = _measures(
        inv.I1, inv.I2, inv.I3, inv.I4, inv.nu_minus, inv.nu_plus, nu_t
    )
    if discord < -DISCORD_CLAMP:
        raise PhysicalityError(f"discord {discord} more negative than roundoff allows")
    discord = max(float(discord), 0.0)
    mutual = float(mutual)
    return CorrelationMeasures(
        discord=discord,
        mutual_info=mutual,
        classical=mutual - discord,
        log_neg=float(log_neg),
        branch=str(branch),
    )


def gaussian_discord(cov):
    """Gaussian quantum discord D = f(sqrt(I2)) - f(nu-) - f(nu+) + f(sqrt(m)).

    Returns (discord, branch).  Tiny negative values within 1e-9 are clamped
    to zero; anything more negative raises.
    """
    cm = correlation_measures(cov)
    return cm.discord, cm.branch


def mutual_and_classical(cov):
    """Total correlations I = f(sqrt(I1)) + f(sqrt(I2)) - f(nu-) - f(nu+) and
    the classical share C = I - D.  Returns (mutual_info, classical)."""
    cm = correlation_measures(cov)
    return cm.mutual_info, cm.classical


def log_negativity(cov):
    """Gaussian logarithmic negativity max(0, -ln nu~-) of the partial transpose."""
    return correlation_measures(cov).log_neg
