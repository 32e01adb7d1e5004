"""Two-mode Gaussian state evolved under local decoherence, and its correlations.

Starting from the two-mode squeezed vacuum exp[r(a1 a2 - a1+ a2+)]|00>, local
zero-temperature decoherence with survival amplitude u(t) produces a Gaussian
state whose coherent-state kernel is fixed by three coefficients

    a = 1 / (cosh^2 r * q),    b = -tanh r * u^2 / q,
    c = tanh^2 r * (1 - |u|^2) * |u|^2 / q,    q = 1 - tanh^2 r (1 - |u|^2)^2.

The 4x4 covariance matrix (vacuum = identity, quadrature order x1 p1 x2 p2)
follows from these, and every correlation measure used here -- Gaussian
quantum discord, mutual information, classical correlation and logarithmic
negativity -- is a function of its symplectic invariants
I1 = det(alpha1), I2 = det(alpha2), I3 = det(gamma), I4 = det(sigma).
All entropic quantities are in nats.
"""

from dataclasses import dataclass, field

import numpy as np

from ._ranges import check

VACUUM_EPS = 1e-12  # I2 - 1 below this means mode 2 is vacuum: product state
F_DOMAIN_TOL = 1e-6
AMPLITUDE_TOL = 1e-8
DISCORD_CLAMP = 1e-9


class PhysicalityError(ValueError):
    """A state or intermediate quantity violates the uncertainty principle."""


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
    """Kernel coefficients (a, b, c) of the evolved two-mode state."""
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
    den = np.where(live, (I2 - 1.0) ** 2, 1.0)
    inner_top = np.maximum(I3**2 + (I2 - 1.0) * (I4 - I1), 0.0)
    m_top = (2.0 * I3**2 + (I2 - 1.0) * (I4 - I1) + 2.0 * np.abs(I3) * np.sqrt(inner_top)) / den
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


def measures_from_amplitude(u, r):
    """Vectorized correlation measures along an amplitude trajectory.

    Uses the closed-form invariants of the evolved-state family
    (I1 = I2 = A^2, I3 = -4|w|^2, I4 = (A^2 - 4|w|^2)^2, nu- = nu+ =
    sqrt(A^2 - 4|w|^2) and nu~- = A - 2|w|, with A = 1 + 2|u|^2 sinh^2 r and
    |w| = |u|^2 sinh r cosh r), which the per-sample covariance route
    reproduces entrywise.  Negative discord roundoff is clamped to zero.
    Returns a dict of arrays keyed like the CSV columns.
    """
    check(r=r)
    u = np.asarray(u, dtype=complex)
    U = np.abs(u) ** 2
    sh, ch = np.sinh(r), np.cosh(r)
    A = 1.0 + 2.0 * U * sh * sh
    wabs = U * sh * ch
    I1 = A * A
    I3 = -4.0 * wabs * wabs
    I4 = (A * A - 4.0 * wabs * wabs) ** 2
    nu = np.sqrt(A * A - 4.0 * wabs * wabs)
    discord, mutual, log_neg, branch = _measures(I1, I1, I3, I4, nu, nu, A - 2.0 * wabs)
    discord = np.maximum(discord, 0.0)
    return {
        "I1": I1,
        "I2": I1.copy(),
        "I3": I3,
        "I4": I4,
        "nu_minus": nu,
        "nu_plus": nu.copy(),
        "discord": discord,
        "mutual_info": mutual,
        "classical": mutual - discord,
        "log_neg": log_neg,
        "branch": branch,
    }
