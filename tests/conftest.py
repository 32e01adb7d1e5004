"""Shared independent oracles for the test suite.

These deliberately avoid the package's own formula paths: the covariance
oracle builds second moments directly from operator averages, and the
discord oracle minimizes the conditional entropy over an explicit scan of
Gaussian measurements.  The Volterra oracle is the direct Heun loop that
sums the full memory history at every step, O(M^2), against which the
solver's fast history sum is checked.  The ring-kernel oracle is the
finite ring's mode sum taken term by term at every time, against which the
kernel's continuum shortcut inside the light cone is checked.  The
quadrature oracle is adaptive Gauss-Legendre integration of the spectral
density itself, against which the closed-form memory kernels and Ohmic
level shifts are checked.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

from gaussbath import OhmicFamilySpectrum, evaluate_density


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
    best = np.inf
    for theta in np.linspace(0.0, np.pi / 2, n_theta):
        c, s = np.cos(theta), np.sin(theta)
        R = np.array([[c, -s], [s, c]])
        for lam in np.exp(np.linspace(np.log(1e-4), np.log(1e4), n_lam)):
            seed = R @ np.diag([lam, 1.0 / lam]) @ R.T
            cond = alpha1 - gamma @ np.linalg.inv(alpha2 + seed) @ gamma.T
            det = np.linalg.det(cond)
            if det < 1.0:
                det = 1.0
            val = entropy_of(np.sqrt(det))
            if val < best:
                best = val
    classical = S1 - best
    return mutual - classical, mutual


def direct_heun_volterra(kernel, h):
    """Integrate v'(t) = -int_0^t kernel(t - s) v(s) ds with v(0) = 1.

    The same Heun predictor-corrector as ``gaussbath.volterra``, with both
    history sums of each step taken as direct dot products over the whole
    past.
    """
    kernel = np.ascontiguousarray(kernel, dtype=np.complex128)
    M = kernel.shape[0] - 1
    v = np.empty(M + 1, dtype=np.complex128)
    v[0] = 1.0
    half_k0 = 0.5 * kernel[0]
    for j in range(M):
        if j == 0:
            rate = 0.0
        else:
            hist = np.dot(v[1:j], kernel[j - 1 : 0 : -1]) if j > 1 else 0.0
            rate = -h * (0.5 * kernel[j] * v[0] + hist + half_k0 * v[j])
        pred = v[j] + h * rate
        hist_next = np.dot(v[1 : j + 1], kernel[j:0:-1]) if j >= 1 else 0.0
        rate_next = -h * (0.5 * kernel[j + 1] * v[0] + hist_next + half_k0 * pred)
        v[j + 1] = v[j] + 0.5 * h * (rate + rate_next)
    return v


def ring_mode_sum(model, ts):
    """Finite-ring memory kernel g^2/N sum_m exp(-i eps_m t), term by term.

    eps_m = omega_C + 2 xi cos(2 pi m / N); the common factor
    exp(-i omega_C t) is taken out of the sum so that the rounding of the
    phases stays at the scale of 2 xi t.
    """
    ts = np.asarray(ts, dtype=float)
    k = 2 * np.pi * np.arange(model.sites) / model.sites
    terms = np.exp(-1j * np.outer(ts, 2 * model.xi * np.cos(k)))
    carrier = np.exp(-1j * model.omega_C * ts)
    return model.g**2 * carrier * terms.sum(axis=1) / model.sites


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
