"""Correlations of a two-mode squeezed state under local decoherence.

Starting from the two-mode squeezed vacuum exp[r(a1 a2 - a1+ a2+)]|00>, local
zero-temperature decoherence with survival amplitude u(t) produces a Gaussian
state fixed by U = |u|^2 and r alone.  With s = sinh r, c = cosh r,
A = 1 + 2 U s^2 and |w| = U s c, its symplectic invariants
(vacuum = 1) are

    I1 = I2 = A^2,    I3 = -4 |w|^2,    I4 = nu^4,    nu- = nu+ = nu,
    nu^2 = A^2 - 4 |w|^2 = 1 + 4 U s^2 (1 - U)

(nu and I4 are formed from the last form, in which nothing cancels), and
every correlation measure used here -- Gaussian quantum discord,
mutual information, classical correlation and logarithmic negativity --
has a closed form in U and r.  All entropic quantities are in nats.
"""

import numpy as np

from ._ranges import check

AMPLITUDE_TOL = 1e-8


class PhysicalityError(ValueError):
    """A state or intermediate quantity violates the uncertainty principle."""


def _entropy_1p(eps):
    """f(1 + eps) = log1p(h) + h log1p(1/h) with h = eps/2, f(1) = 0.

    f(x) = ((x+1)/2) ln((x+1)/2) - ((x-1)/2) ln((x-1)/2) is the von Neumann
    entropy of a thermal mode with symplectic eigenvalue x.  Written in
    h = (x - 1)/2 as a sum of two non-negative terms, nothing cancels at any
    h: it is within 2.3e-16 of 60-digit values over h in [1e-14, 1e14].  h
    is clamped at the smallest normal double inside 1/h, which keeps 1/h
    finite and leaves 0 at h = 0.
    """
    h = 0.5 * eps
    return np.log1p(h) + h * np.log1p(1.0 / np.maximum(h, np.finfo(float).tiny))


def measures_from_amplitude(u, r):
    """Vectorized correlation measures along an amplitude trajectory.

    Each measure is a closed form in eps = x - 1 of the symplectic
    eigenvalues x it involves, so that nothing cancels as |u| -> 0:

        eps_A  = A - 1       = 2 U s^2,
        eps_nu = nu - 1      = 4 U s^2 (1 - U) / (nu + 1),
        eps_m  = sqrt(m) - 1 = 4 U s^2 (1 - U) / (A + 1),

    discord D = f(1+eps_A) - 2 f(1+eps_nu) + f(1+eps_m), mutual information
    I = 2 f(1+eps_A) - 2 f(1+eps_nu), classical correlation I - D and
    log-negativity -ln(nu~-), with nu~- = A - 2|w| = (1 - U) + U e^-2r the
    smallest symplectic eigenvalue of the partial transpose, taken as
    -log1p(-2 U s e^-r) where 2 U s e^-r = U (1 - e^-2r) < 1/2.  m is the
    measurement term of the two-branch discord formula
    (Adesso & Datta, PRL 105, 030501 (2010)).  Its branch is always the top
    one on this family, because

        (I4 - I1 I2)^2 - I3^2 (I2 + 1)(I1 + I4) = -16 |w|^4 A^2 (nu^2 - 1)^2 <= 0,

    and there sqrt(m) = A - 4|w|^2 / (A + 1).  Negative discord roundoff is
    clamped to zero.  |u| up to 1 + AMPLITUDE_TOL counts as 1; a larger |u|
    raises PhysicalityError, and r above _ranges.R_MAX = 177.79, where the
    pure state's I1 = cosh(2r)^2 overflows, raises ValueError.

    Against 80-digit values for U in [1e-6, 1] and r up to 20, nu, I4 and
    log_neg are within 1e-15 relative and the discord within 1e-13; below
    U ~ 1e-6 the O(U ln U) terms of the discord and mutual information keep
    a 1e-16/U relative error.

    Returns a dict of arrays keyed like the CSV columns: I1, I3, I4,
    nu_minus, discord, mutual_info, classical and log_neg, with nu and I4
    formed from nu^2 = 1 + 4 U s^2 (1 - U) alone.  The columns I2, nu_plus
    and branch are I1, nu_minus and "top" on this family, and are not
    repeated.
    """
    check(r=r)
    u = np.asarray(u, dtype=complex)
    mod = np.abs(u)
    peak = float(mod.max(initial=0.0))
    if peak > 1.0 + AMPLITUDE_TOL:
        raise PhysicalityError(f"|u| = {peak!r} exceeds 1 beyond tolerance {AMPLITUDE_TOL}")
    U = np.minimum(mod**2, 1.0)
    sh, ch = np.sinh(r), np.cosh(r)
    eps_A = 2.0 * U * sh * sh
    A = 1.0 + eps_A
    wabs = U * sh * ch
    spread = 2.0 * eps_A * (1.0 - U)
    nu_sq = 1.0 + spread
    nu = np.sqrt(nu_sq)
    f_A = _entropy_1p(eps_A)
    f_nu = _entropy_1p(spread / (nu + 1.0))
    discord = np.maximum(f_A - 2.0 * f_nu + _entropy_1p(spread / (A + 1.0)), 0.0)
    mutual = 2.0 * (f_A - f_nu)
    # 1 - nu~- = U (1 - e^-2r): log1p of it where that is below 1/2, else the
    # log of nu~- = (1 - U) + U e^-2r, a sum of two non-negative terms
    gap = 2.0 * U * sh * np.exp(-r)
    nu_t = (1.0 - U) + U * np.exp(-2.0 * r)
    log_neg = -np.where(gap < 0.5, np.log1p(-np.minimum(gap, 0.5)), np.log(nu_t))
    return {
        "I1": A * A,
        "I3": -4.0 * wabs * wabs,
        "I4": nu_sq * nu_sq,
        "nu_minus": nu,
        "discord": discord,
        "mutual_info": mutual,
        "classical": mutual - discord,
        "log_neg": log_neg,
    }
