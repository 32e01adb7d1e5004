"""Correlations of a two-mode squeezed state under local decoherence.

Starting from the two-mode squeezed vacuum exp[r(a1 a2 - a1+ a2+)]|00>, local
zero-temperature decoherence with survival amplitude u(t) produces a Gaussian
state fixed by U = |u|^2 and r alone.  With s = sinh r, c = cosh r,
A = 1 + 2 U s^2 and |w| = U s c, its symplectic invariants
(vacuum = 1) are

    I1 = I2 = A^2,    I3 = -4 |w|^2,    I4 = nu^4,    nu- = nu+ = nu,
    nu^2 = A^2 - 4 |w|^2 = 1 + 4 U s^2 (1 - U),

and every correlation measure used here -- Gaussian quantum discord,
mutual information, classical correlation and logarithmic negativity --
has a closed form in U and r.  All entropic quantities are in nats.
"""

import numpy as np

from ._ranges import check

AMPLITUDE_TOL = 1e-8


class PhysicalityError(ValueError):
    """A state or intermediate quantity violates the uncertainty principle."""


def _entropy_1p(eps):
    """f(1 + eps) = (1 + eps/2) log1p(eps/2) - (eps/2) ln(eps/2), f(1) = 0.

    f(x) = ((x+1)/2) ln((x+1)/2) - ((x-1)/2) ln((x-1)/2) is the von Neumann
    entropy of a thermal mode with symplectic eigenvalue x; taking eps = x - 1
    as the argument keeps its relative accuracy as x approaches 1.
    """
    h = 0.5 * eps
    return (1.0 + h) * np.log1p(h) - h * np.log(np.where(h > 0, h, 1.0))


def measures_from_amplitude(u, r):
    """Vectorized correlation measures along an amplitude trajectory.

    Each measure is a closed form in eps = x - 1 of the symplectic
    eigenvalues x it involves, so that nothing cancels as |u| -> 0:

        eps_A  = A - 1       = 2 U s^2,
        eps_nu = nu - 1      = 4 U s^2 (1 - U) / (nu + 1),
        eps_m  = sqrt(m) - 1 = 4 U s^2 (1 - U) / (A + 1),

    discord D = f(1+eps_A) - 2 f(1+eps_nu) + f(1+eps_m), mutual information
    I = 2 f(1+eps_A) - 2 f(1+eps_nu), classical correlation I - D and
    log-negativity -ln(nu~-) = -log1p(-2 U s e^-r), with
    nu~- = A - 2|w| the smallest symplectic eigenvalue of the partial
    transpose.  m is the measurement term of the two-branch discord formula
    (Adesso & Datta, PRL 105, 030501 (2010)).  Its branch is always the top
    one on this family, because

        (I4 - I1 I2)^2 - I3^2 (I2 + 1)(I1 + I4) = -16 |w|^4 A^2 (nu^2 - 1)^2 <= 0,

    and there sqrt(m) = A - 4|w|^2 / (A + 1).  Negative discord roundoff is
    clamped to zero.  |u| up to 1 + AMPLITUDE_TOL counts as 1; a larger |u|
    raises PhysicalityError.  Returns a dict of arrays keyed like the CSV
    columns.
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
    I1 = A * A
    I3 = -4.0 * wabs * wabs
    I4 = (A * A - 4.0 * wabs * wabs) ** 2
    nu = np.sqrt(A * A - 4.0 * wabs * wabs)
    spread = 2.0 * eps_A * (1.0 - U)  # nu^2 - 1
    f_A = _entropy_1p(eps_A)
    f_nu = _entropy_1p(spread / (nu + 1.0))
    discord = np.maximum(f_A - 2.0 * f_nu + _entropy_1p(spread / (A + 1.0)), 0.0)
    mutual = 2.0 * (f_A - f_nu)
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
        "log_neg": -np.log1p(-2.0 * U * sh * np.exp(-r)),
        "branch": np.full(U.shape, "top"),
    }
