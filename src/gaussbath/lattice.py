"""Exact single-excitation simulator of one system cavity coupled to an array.

One excitation shared by the system site and N array sites is a dense
(N+1) x (N+1) real symmetric eigenproblem, so the survival amplitude
u(t) = <sys| exp(-i H t) |sys> comes out exact for all times.  This is the
independent oracle for the Volterra solver and for the bound-mode finder.
"""

from dataclasses import dataclass, field

import numpy as np

from ._ranges import check
from .spectra import _mode_sum
from .volterra import AmplitudeTrajectory


@dataclass(frozen=True, eq=False)
class SingleExcitationChain:
    H: np.ndarray = field(repr=False)


def build_chain(bath, mode, topology="ring"):
    """Single-excitation Hamiltonian: system site 0, array sites 1..N.

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
    return SingleExcitationChain(H=H)


def _spectral_data(chain):
    lam, V = np.linalg.eigh(chain.H)
    return lam, V[0, :] ** 2


def exact_amplitude(chain, grid):
    """u(t_j) = sum_m |<sys|m>|^2 exp(-i lambda_m t_j) from full diagonalization."""
    lam, weights = _spectral_data(chain)
    u = _mode_sum(grid.times(), lam, weights)
    return AmplitudeTrajectory(grid=grid, u=u, dt_used=grid.dt, error_estimate=0.0)


EDGE_MARGIN = 1e-9


def discrete_bound_modes(chain):
    """Eigenpairs outside the spectrum of the bare array block H[1:, 1:].

    Returns (eigenvalue, weight) pairs with weight the squared eigenvector
    component on the system site; empty when no eigenvalue clears the
    block's extreme eigenvalues by more than ``EDGE_MARGIN``.  Those are the
    exact edges for either topology, inside the band for an open chain or
    an odd ring.
    """
    lam, weights = _spectral_data(chain)
    block = np.linalg.eigvalsh(chain.H[1:, 1:])
    outside = (lam < block[0] - EDGE_MARGIN) | (lam > block[-1] + EDGE_MARGIN)
    return [(float(l), float(w)) for l, w in zip(lam[outside], weights[outside])]
