"""Exact single-excitation simulator of one system cavity coupled to an array.

One excitation shared by the system site and N array sites is a dense
(N+1) x (N+1) real symmetric eigenproblem, so the survival amplitude
u(t) = <sys| exp(-i H t) |sys> comes out exact for all times.  This is the
independent oracle for the Volterra solver and for the bound-mode finder.

On the grid t_j = j dt the amplitude is u_j = sum_m w_m exp(-i lambda_m j dt),
w_m the eigenvector weight on the system site.  ``exact_amplitude`` writes
j = a B + b with B = ceil(sqrt(M + 1)) and factors each phase as
exp(-i lambda_m a B dt) exp(-i lambda_m b dt): two tables of about
sqrt(M) rows each, and one complex128 matrix product gives every u_j.  That
is 2 sqrt(M) exponentials per mode in place of M.  The tables are built in
``np.clongdouble`` and rounded once to complex128, so each phase lambda_m j dt
is exact to the long double's 64-bit mantissa instead of carrying the
float64 rounding of t_j; u is within 2e-15 of an extended-precision direct
sum at t = j dt on the N = 200 ring to t = 500.  Like the Volterra solver's
leaf matrix, this needs a long double of 80 bits or more.
"""

import math

import numpy as np

from ._ranges import check
from .volterra import AmplitudeTrajectory


def build_chain(bath, mode, topology="ring"):
    """The (N+1) x (N+1) single-excitation Hamiltonian: system site 0, array sites 1..N.

    The system couples to array site 0 with strength g in both topologies;
    ``ring`` closes the array with an extra xi bond, matching the uniform
    g/sqrt(N) momentum-space coupling assumed by the finite-N memory kernel.
    """
    check(topology=topology)
    if bath.sites is None:
        raise ValueError("the lattice oracle needs a finite site count")
    N = bath.sites
    H = np.zeros((N + 1, N + 1))
    H[0, 0] = mode.omega0
    for j in range(1, N + 1):
        H[j, j] = bath.omega_C
    H[0, 1] = H[1, 0] = bath.g
    bonds = range(N) if topology == "ring" and N > 1 else range(N - 1)
    for j in bonds:
        a, b = 1 + j, 1 + (j + 1) % N
        H[a, b] += bath.xi
        H[b, a] += bath.xi
    return H


def _spectral_data(H):
    lam, V = np.linalg.eigh(H)
    return lam, V[0, :] ** 2


def _phase_table_sum(energies, weights, dt, count):
    """sum_m weights[m] exp(-i energies[m] j dt) for j = 0 .. count - 1.

    With j = a B + b, u[a, b] = sum_m outer[a, m] inner[b, m], where
    outer[a, m] = weights[m] exp(-i energies[m] a B dt) and
    inner[b, m] = exp(-i energies[m] b dt); both are built in np.clongdouble
    and rounded once to complex128.
    """
    rows = math.isqrt(count - 1) + 1  # B = ceil(sqrt(count))
    phase = np.longdouble(dt) * energies.astype(np.longdouble)
    inner = np.exp(-1j * np.outer(np.arange(rows), phase))
    outer = weights * np.exp(-1j * np.outer(np.arange(0, count, rows), phase))
    table = outer.astype(np.complex128) @ inner.astype(np.complex128).T
    return table.ravel()[:count]


def exact_amplitude(H, grid):
    """u(t_j) = sum_m |<sys|m>|^2 exp(-i lambda_m t_j) from full diagonalization,
    at t_j = j dt by the two-level phase table of the module docstring."""
    lam, weights = _spectral_data(H)
    # on a ring the reflection-odd modes have no weight on the system site
    visible = weights != 0
    u = _phase_table_sum(lam[visible], weights[visible], grid.dt, grid.steps + 1)
    return AmplitudeTrajectory(grid=grid, u=u, dt_used=grid.dt, error_estimate=0.0)


EDGE_MARGIN = 1e-9


def discrete_bound_modes(H):
    """Eigenpairs of the Hamiltonian H outside the spectrum of its bare array block H[1:, 1:].

    Returns (eigenvalue, weight) pairs with weight the squared eigenvector
    component on the system site; empty when no eigenvalue clears the
    block's extreme eigenvalues by more than ``EDGE_MARGIN``.  Those are the
    exact edges for either topology, inside the band for an open chain or
    an odd ring.
    """
    lam, weights = _spectral_data(H)
    block = np.linalg.eigvalsh(H[1:, 1:])
    outside = (lam < block[0] - EDGE_MARGIN) | (lam > block[-1] + EDGE_MARGIN)
    return [(float(l), float(w)) for l, w in zip(lam[outside], weights[outside])]
