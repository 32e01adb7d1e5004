"""Bound modes of the coupled system-reservoir spectrum and their residues.

A discrete level outside the reservoir band solves y(E) = E with
y(E) = omega0 - int J(w)/(w - E) dw.  Its residue
Z = 1 / (1 + int J(w)/(w - E_b)^2 dw) is the pole weight of the amplitude,
so |u(t -> inf)|^2 -> Z^2: a bound mode freezes the late-time decoherence.
"""

from dataclasses import dataclass

import numpy as np

from ._ranges import check
from .spectra import OhmicFamilySpectrum, level_shift_integral

# a root stops at 4 ulp of itself: near a band edge h is steep, and an
# absolute stop there leaves an error in E_b that the residue Z magnifies
ROOT_RTOL = 4 * np.finfo(float).eps
# residues that agree to this relative accuracy tie, and the lower root is primary
RESIDUE_RTOL = 1e-10


@dataclass(frozen=True)
class BoundMode:
    exists: bool
    E_b: float | None = None
    Z: float | None = None
    # all out-of-band roots as (energy, residue), largest residue first;
    # tied residues (``RESIDUE_RTOL``) lowest energy first
    roots: tuple = ()


def spectral_function_y(model, mode, E):
    """y(E) = omega0 - int J(w)/(w - E) dw, defined outside the support; E is
    a scalar (float out) or a 1-d array, as for ``level_shift_integral``."""
    return mode.omega0 - level_shift_integral(model, E, order=1)


def _residue(model, E_b):
    return 1.0 / (1.0 + level_shift_integral(model, E_b, order=2))


def _bracket(h, edge, f_edge, unit):
    """Expand geometrically away from ``edge``, where h = ``f_edge``, until h
    changes sign: below it for unit < 0, above it for unit > 0.  Returns
    (lo, hi), lo <= hi.  The caller starts only walks that must end."""
    near, f_near = edge, f_edge
    span = 0.5 * unit
    while True:
        far = edge + span
        f_far = h(far)
        if f_far == 0.0:
            return far, far
        if np.sign(f_far) != np.sign(f_near):
            return (far, near) if unit < 0 else (near, far)
        near, f_near = far, f_far
        span *= 2


def _solve_root(model, h, lo, hi):
    """The root of h = y - E in the bracket (lo, hi) of ``_bracket``, where
    h(lo) > 0 > h(hi), by Newton's method on h' = -1 - int J/(w - E)^2 dw.

    Newton starts at the middle of the bracket, and every point it visits
    narrows the bracket by the sign of h there, so the loop ends.  A step
    that would leave the bracket is replaced by its bisection.  The root is
    returned once a Newton step or the bracket is within ``ROOT_RTOL`` of it.
    """
    E = (lo + hi) / 2
    while lo < hi:
        f = h(E)
        if f == 0.0:
            break
        if f > 0:
            lo = E
        else:
            hi = E
        step = f / (1.0 + level_shift_integral(model, E, order=2))
        E += step
        if abs(step) <= ROOT_RTOL * abs(E):
            break
        if not lo < E < hi:
            E = (lo + hi) / 2
        # a bracket of two adjacent floats has no midpoint but its ends
        if hi - lo <= ROOT_RTOL * abs(E) or E == lo or E == hi:
            break
    return E


def find_bound_mode(model, mode):
    """Locate every discrete root of y(E) = E outside the spectral support.

    Ohmic family: at most one root, on the negative axis when y(0) < 0.
    At y(0) = 0 the root is the band edge E_b = 0 itself, a bound mode with
    Z = 1/(1 + int J/w^2 dw) when that integral is finite (n > 1) and none
    when it diverges.  Array: both sides of the support are searched; when
    several roots exist the one with the largest residue is designated
    primary, and of two residues equal within ``RESIDUE_RTOL`` the lower root.
    """
    h = lambda E: spectral_function_y(model, mode, E) - E
    # each walk starts at edge and heads the way its unit points
    if isinstance(model, OhmicFamilySpectrum):
        starts = [(0.0, -model.omega_c)]
    else:
        # just outside the support the level-shift integral diverges, so h
        # has a definite sign there; start the walks a relative hair away
        unit, (lo, hi) = model.omega_C, model.support
        starts = [(lo - max(abs(lo), unit) * 1e-13, -unit), (hi + max(abs(hi), unit) * 1e-13, unit)]
    roots = []
    for edge, unit in starts:
        # dh/dE = -1 - int J/(w - E)^2 < 0 outside the support, and h -> +inf
        # far below it, -inf far above it: a side holds one root exactly
        # when h at the walk's start has the sign of unit
        f_edge = h(edge)
        if f_edge * unit > 0:
            E_b = _solve_root(model, h, *_bracket(h, edge, f_edge, unit))
            roots.append((float(E_b), _residue(model, E_b)))
        elif f_edge == 0.0:
            # a root on the edge itself is a bound mode when its residue's
            # integral int J/(w - E)^2 converges there (Ohmic n > 1)
            try:
                roots.append((float(edge), _residue(model, edge)))
            except ValueError:
                pass
    if not roots:
        return BoundMode(exists=False)
    # the walks found the roots lowest first
    if len(roots) == 2 and roots[1][1] > roots[0][1] * (1 + RESIDUE_RTOL):
        roots.reverse()
    E_b, Z = roots[0]
    return BoundMode(exists=True, E_b=E_b, Z=Z, roots=tuple(roots))


def superohmic_criterion(eta, omega_c, omega0):
    """Closed-form n = 3 existence test at omega_ref = omega0: a bound mode
    forms iff omega0 - 2*eta*omega_c^3/omega0^2 <= 0, at the band edge E = 0
    when it is 0.  Returns (exists, margin)."""
    check(eta=eta, omega_c=omega_c, omega0=omega0)
    if eta == 0:
        raise ValueError("the n = 3 criterion needs eta > 0, got 0")
    margin = omega0 - 2.0 * eta * omega_c**3 / omega0**2
    return margin <= 0.0, margin
