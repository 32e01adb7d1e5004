"""Exact single-excitation simulator of one system cavity coupled to an array.

One excitation shared by the system site and N array sites is an
(N+1) x (N+1) real symmetric eigenproblem, so the survival amplitude
u(t) = <sys| exp(-i H t) |sys> comes out exact for all times.  This is the
independent oracle for the Volterra solver and for the bound-mode finder.

On a ring of N >= 3 sites whose system couples to array site 0 only, H
commutes with the reflection j -> -j (mod N) of the array, and the system
state is even under it.  The odd states never reach the system site, so
``_even_sector`` folds H's own entries into the real symmetric matrix on
the even states: the system, site 0, the pairs (|j> + |N-j>)/sqrt(2) and,
for an even N, site N/2.  That is floor(N/2) + 2 rows in place of N + 1
(102 in place of 201 at N = 200), with every eigenpair that carries weight
on the system site and every distinct ring energy.  An open chain and every
other H are diagonalised whole.

On the grid t_j = j dt the amplitude is u_j = sum_m w_m exp(-i lambda_m j dt),
w_m the eigenvector weight on the system site.  ``exact_amplitude`` sums it
with ``spectra._phase_table_sum``, the two-level phase table that also sums
a finite ring's memory kernel; only that routine is shared, and the
eigenpairs come from H alone.  u is within 1.7e-15 of an extended-precision
direct sum over the same eigenpairs at t = j dt on the N = 200 ring to
t = 1500.  Like the Volterra solver's leaf matrix, the table needs a long
double of 80 bits or more.
"""

import math

import numpy as np

from ._ranges import check
from .spectra import _phase_table_sum
from .volterra import AmplitudeTrajectory


def build_chain(bath, mode, topology="ring"):
    """The (N+1) x (N+1) single-excitation Hamiltonian: system site 0, array sites 1..N.

    The system couples to array site 0 with strength g in both topologies;
    ``ring`` closes the array with an extra xi bond, matching the uniform
    g/sqrt(N) momentum-space coupling assumed by the finite-N memory kernel.
    Every ring gets its closing bond: at N = 1 it is a self-bond, which puts
    the site at omega_C + 2 xi, the kernel's single mode energy.
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
    bonds = range(N) if topology == "ring" else range(N - 1)
    for j in bonds:
        a, b = 1 + j, 1 + (j + 1) % N
        H[a, b] += bath.xi
        H[b, a] += bath.xi
    return H


def _even_sector(H):
    """H on the reflection-even states of a ring (module docstring), or H itself.

    H folds when N >= 3, the system couples to array site 0 alone and the
    array block is unchanged by the shift j -> j + 1 and by the reflection
    j -> -j (mod N); an open chain, N <= 2 and any other H come back as they
    are.  The shift makes every distinct energy of the block an
    energy of its even states, so the folded block has the bare block's
    extreme eigenvalues.  The fold is Q^T H Q for the orthonormal columns
    of Q on the even states, summed from H's entries by index.
    """
    N = H.shape[0] - 1
    block = H[1:, 1:]
    if (N < 3 or H[0, 2:].any() or H[2:, 0].any()
            or not np.array_equal(block, np.roll(block, 1, axis=(0, 1)))
            or not np.array_equal(block[0, 1:], block[0, :0:-1])):
        return H
    sites = np.arange(N // 2 + 1)
    index = np.r_[0, 1 + sites]
    mirror = np.r_[0, 1 + -sites % N]
    paired = index != mirror
    columns = H[:, index] + H[:, mirror] * paired
    norm = np.where(paired, math.sqrt(0.5), 1.0)
    return (columns[index] + columns[mirror] * paired[:, None]) * np.outer(norm, norm)


def _spectral_data(H):
    """Eigenvalues of the real symmetric H and their weights on the system site (row 0)."""
    lam, V = np.linalg.eigh(H)
    return lam, V[0, :] ** 2


def exact_amplitude(H, grid):
    """u(t_j) = sum_m |<sys|m>|^2 exp(-i lambda_m t_j) from exact diagonalization
    (of the even sector on a ring), at t_j = j dt by the two-level phase
    table of the module docstring."""
    lam, weights = _spectral_data(_even_sector(H))
    # a mode without weight on the system site adds nothing to u
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
    an odd ring.  A ring is diagonalised on its even sector
    (``_even_sector``), whose array block holds every distinct ring energy
    and so the same edges.
    """
    sector = _even_sector(H)
    lam, weights = _spectral_data(sector)
    block = np.linalg.eigvalsh(sector[1:, 1:])
    outside = (lam < block[0] - EDGE_MARGIN) | (lam > block[-1] + EDGE_MARGIN)
    return [(float(l), float(w)) for l, w in zip(lam[outside], weights[outside])]
