"""Exact finite-lattice simulator and its role as dynamics oracle."""

import itertools

import numpy as np
import pytest

from gaussbath import (
    CavityArraySpectrum,
    ConvergenceError,
    SystemMode,
    TimeGrid,
    build_chain,
    decay_rates,
    discrete_bound_modes,
    exact_amplitude,
    find_bound_mode,
    solve_amplitude,
)
from gaussbath.lattice import _even_sector, _spectral_data
from gaussbath.volterra import _band_radius

SPEC_200 = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=200)
MODE_08 = SystemMode(omega0=0.8)

class TestBuildChain:
    def test_single_site_matrix(self):
        # a one-site ring closes on itself: its self-bond adds 2 xi on site,
        # the kernel's single mode energy omega_C + 2 xi
        spec = CavityArraySpectrum(g=0.3, xi=0.05, omega_C=1.0, sites=1)
        H = build_chain(spec, SystemMode(0.8), topology="open")
        assert np.array_equal(H, [[0.8, 0.3], [0.3, 1.0]])
        H = build_chain(spec, SystemMode(0.8), topology="ring")
        assert np.array_equal(H, [[0.8, 0.3], [0.3, 1.0 + 2 * 0.05]])
        assert H[1, 1] == spec.support[0] == spec.support[1]

    def test_decoupled_block_diagonal(self):
        spec = CavityArraySpectrum(g=0.0, xi=0.05, omega_C=1.0, sites=6)
        H = build_chain(spec, MODE_08)
        assert H[0, 1] == 0.0
        assert H[1, 0] == 0.0

    def test_array_block_spectrum_stays_in_band(self):
        H = build_chain(
            CavityArraySpectrum(g=0.0, xi=0.05, omega_C=1.0, sites=200), MODE_08
        )
        block = np.linalg.eigvalsh(H[1:, 1:])
        assert block.min() >= 0.9 - 1e-12
        assert block.max() <= 1.1 + 1e-12

    def test_open_vs_ring_bond_count(self):
        spec = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=8)
        ring = build_chain(spec, MODE_08, topology="ring")
        open_ = build_chain(spec, MODE_08, topology="open")
        assert ring[8, 1] == spec.xi
        assert open_[8, 1] == 0.0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            build_chain(SPEC_200, MODE_08, topology="torus")
        with pytest.raises(ValueError):
            build_chain(CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0), MODE_08)


class TestEvenSector:
    @pytest.mark.parametrize("g", [0.02, 0.0])
    @pytest.mark.parametrize("sites", [1, 2, 3, 4, 7, 8, 16, 200, 201])
    @pytest.mark.parametrize("topology", ["ring", "open"])
    def test_folded_eigenpairs_match_full_eigh(self, topology, sites, g):
        # measured at most 3 ulp of the largest |eigenvalue| apart, weights
        # 6.7e-16 and band edges 4 ulp; at a mid-band omega0 = 1 the weights
        # of N = 200 differ by 2.6e-14, a spread set by the level spacing
        H = build_chain(CavityArraySpectrum(g=g, xi=0.05, omega_C=1.0, sites=sites), MODE_08,
                        topology=topology)
        sector = _even_sector(H)
        if topology == "open" or sites <= 2:
            assert sector is H
            return
        assert sector.shape == (sites // 2 + 2,) * 2
        lam, weights = _spectral_data(H)
        lam_even, weights_even = _spectral_data(sector)
        full, even = weights != 0, weights_even != 0
        assert full.sum() == even.sum() == (1 if g == 0 else sites // 2 + 2)
        ulp = np.spacing(np.abs(lam).max())
        assert np.abs(lam[full] - lam_even[even]).max() <= 4 * ulp
        assert np.abs(weights[full] - weights_even[even]).max() <= 1e-15
        edges = np.linalg.eigvalsh(H[1:, 1:])[[0, -1]]
        assert np.abs(np.linalg.eigvalsh(sector[1:, 1:])[[0, -1]] - edges).max() <= 8 * ulp

    def test_reflection_without_the_shift_keeps_the_full_matrix(self):
        # a bond between array sites 1 and 7 of an N = 8 ring is
        # reflection-even, but puts the block's lowest energy, 0.495, on an
        # odd state: the even block's lowest is 0.913, so a fold would move
        # the band edge of discrete_bound_modes
        H = build_chain(CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=8), MODE_08)
        H[2, 8] = H[8, 2] = 0.5
        assert _even_sector(H) is H


def direct_mode_sum(H, grid):
    """sum_m w_m exp(-i lambda_m j dt) term by term in np.clongdouble, at the
    exact times j dt of the float64 step dt, over the oracle's own eigenpairs."""
    lam, weights = _spectral_data(_even_sector(H))
    visible = weights != 0  # a zero-weight mode adds exactly 0 to every term
    lam = lam[visible].astype(np.longdouble)
    weights = weights[visible].astype(np.longdouble)
    times = np.arange(grid.steps + 1, dtype=np.longdouble) * np.longdouble(grid.dt)
    out = np.empty(len(times), dtype=np.clongdouble)
    for lo in range(0, len(times), 4096):
        out[lo : lo + 4096] = np.exp(-1j * np.outer(times[lo : lo + 4096], lam)) @ weights
    return out


class TestExactAmplitude:
    @pytest.mark.parametrize("sites, topology, omega0, t_max, steps", [
        (8, "ring", 0.95, 2000.0, 40000),
        (7, "open", 0.95, 300.0, 3001),
        (200, "ring", 0.8, 500.0, 10000),
        (1, "ring", 0.8, 500.0, 10000),
        (200, "ring", 0.8, 1500.0, 30000),
    ], ids=["ring8", "open7", "fig4b", "single-site", "fig4b-past-light-cone"])
    def test_phase_table_matches_extended_precision_sum(self, sites, topology, omega0, t_max,
                                                        steps):
        # same eigenpairs, so this checks the sum alone: measured 6.2e-16,
        # 4.0e-16, 1.7e-15, 5.4e-16 and 1.7e-15; a float64 sum over the
        # float64 times t_j was 2.0e-13, 4.0e-14, 4.9e-14 and 5.0e-14 off
        bath = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=sites)
        H = build_chain(bath, SystemMode(omega0), topology=topology)
        grid = TimeGrid(t_max, steps)
        u = exact_amplitude(H, grid).u
        assert u.dtype == np.complex128 and u.shape == (steps + 1,)
        assert np.abs(u - direct_mode_sum(H, grid)).max() <= 1e-14

    def test_decoupled_free_phase(self):
        spec = CavityArraySpectrum(g=0.0, xi=0.05, omega_C=1.0, sites=20)
        grid = TimeGrid(40.0, 400)
        traj = exact_amplitude(build_chain(spec, MODE_08), grid)
        assert np.abs(traj.u - np.exp(-1j * 0.8 * grid.times())).max() < 1e-12

    def test_resonant_rabi_oscillation(self):
        spec = CavityArraySpectrum(g=0.25, xi=0.05, omega_C=1.0, sites=1)
        grid = TimeGrid(30.0, 600)
        traj = exact_amplitude(build_chain(spec, SystemMode(1.0), topology="open"), grid)
        expected = np.cos(0.25 * grid.times()) ** 2
        assert np.abs(np.abs(traj.u) ** 2 - expected).max() < 1e-12

    def test_probability_conservation(self):
        H = build_chain(SPEC_200, MODE_08)
        lam, V = np.linalg.eigh(H)
        for t in (0.0, 7.3, 151.0, 499.0):
            state = V @ (np.exp(-1j * lam * t) * V[0, :])
            assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-10

    def test_spectral_sum_rule(self):
        H = build_chain(SPEC_200, MODE_08)
        _, V = np.linalg.eigh(H)
        assert abs(np.sum(V[0, :] ** 2) - 1.0) < 1e-12


class TestDiscreteBoundModes:
    def test_decoupled_system_level(self):
        spec = CavityArraySpectrum(g=0.0, xi=0.05, omega_C=1.0, sites=50)
        modes = discrete_bound_modes(build_chain(spec, MODE_08))
        assert len(modes) == 1
        assert modes[0] == pytest.approx((0.8, 1.0), abs=1e-12)

    def test_detuned_dominant_mode_matches_root_finder(self):
        H = build_chain(SPEC_200, MODE_08)
        modes = discrete_bound_modes(H)
        dominant = max(modes, key=lambda m: m[1])
        assert dominant[0] == pytest.approx(0.7977, abs=1e-3)
        assert dominant[1] == pytest.approx(0.985, abs=2e-3)
        bm = find_bound_mode(SPEC_200, MODE_08)
        assert abs(dominant[0] - bm.E_b) <= 1e-3
        assert abs(dominant[1] - bm.Z) <= 5e-3

    def test_odd_ring_matches_root_finder_on_both_roots(self):
        # an odd ring's lowest mode, 0.909903, lies above the band edge 0.9;
        # the bound state at 0.907066 sits between the two
        spec = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=7)
        mode = SystemMode(0.95)
        modes = discrete_bound_modes(build_chain(spec, mode))
        bm = find_bound_mode(spec, mode)
        assert len(bm.roots) == len(modes) == 2
        for (E, Z), (E_lat, w_lat) in zip(sorted(bm.roots), sorted(modes)):
            assert abs(E - E_lat) <= 1e-9
            assert abs(Z - w_lat) <= 1e-7
        assert sorted(modes)[0][0] == pytest.approx(0.907066, abs=1e-6)

    @pytest.mark.parametrize("sites, omega0", [(16, 1.3), (200, 0.85)], ids=["ring16", "fig4a"])
    def test_root_finder_matches_lattice_to_full_precision(self, sites, omega0):
        # the roots stop at 4 ulp of themselves: measured 2.4e-13 and 6.6e-12
        # relative in Z; an absolute stop at 2e-12 in E left the small
        # residues 2.0e-8 and 8.3e-9 off, and E_b up to 6.6e-13
        spec = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=sites)
        mode = SystemMode(omega0)
        modes = sorted(discrete_bound_modes(build_chain(spec, mode)))
        bm = find_bound_mode(spec, mode)
        assert len(bm.roots) == len(modes) == 2
        for (E, Z), (E_lat, w_lat) in zip(sorted(bm.roots), modes):
            assert E == pytest.approx(E_lat, abs=1e-14)
            assert Z == pytest.approx(w_lat, rel=1e-10)

    def test_mid_band_has_no_dominant_mode(self):
        H = build_chain(SPEC_200, SystemMode(1.0))
        modes = discrete_bound_modes(H)
        assert all(w <= 0.5 for _, w in modes)


class TestOracleAgreement:
    def test_volterra_tracks_exact_through_band_traversal(self):
        # one half band-traversal time N/(4 xi) = 1000 for N = 200, xi = 0.05
        grid = TimeGrid(t_max=1000.0, steps=10000)
        exact = exact_amplitude(build_chain(SPEC_200, MODE_08), grid)
        solved = solve_amplitude(SPEC_200, MODE_08, grid, tol=1e-3)
        assert np.abs(solved.u - exact.u).max() < 1e-3

    @pytest.mark.parametrize(
        "sites, omega0, t_max, steps",
        [(8, 0.95, 200.0, 2000), (200, 0.8, 500.0, 10000)],
        ids=["ring8", "fig4b"],
    )
    def test_volterra_error_within_its_estimate(self, sites, omega0, t_max, steps):
        # the returned value is within its estimate and inside the 4-point
        # interpolation bound at the step it was interpolated from: measured
        # 1.5e-7 (N = 8, bound 1.3e-5) and 6.5e-7 (N = 200, bound 1.0e-5)
        bath = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=sites)
        mode, grid = SystemMode(omega0=omega0), TimeGrid(t_max=t_max, steps=steps)
        solved = solve_amplitude(bath, mode, grid, tol=1e-3)
        err = np.abs(solved.u - exact_amplitude(build_chain(bath, mode), grid).u).max()
        assert err < 5 / 128 * (_band_radius(bath, omega0) * solved.dt_used) ** 4
        assert err <= solved.error_estimate < 1e-3

    @pytest.mark.parametrize("tol", [1e-3, 1e-5])
    @pytest.mark.parametrize("omega0", [0.8, 1.0, 1.2], ids=["below", "inside", "above"])
    @pytest.mark.parametrize("g", [0.02, 0.3])
    @pytest.mark.parametrize("sites", [3, 4, 7, 8, 16, 200])
    def test_band_limited_start_within_its_estimate(self, sites, g, omega0, tol):
        # the ladder starts below the output grid and interpolates up to it;
        # the band [0.9, 1.1] holds every ring's support
        bath = CavityArraySpectrum(g=g, xi=0.05, omega_C=1.0, sites=sites)
        mode, grid = SystemMode(omega0=omega0), TimeGrid(t_max=200.0, steps=4000)
        solved = solve_amplitude(bath, mode, grid, tol=tol)
        err = np.abs(solved.u - exact_amplitude(build_chain(bath, mode), grid).u).max()
        assert err <= solved.error_estimate < tol
        assert np.abs(solved.u).max() <= 1 + 1e-8

    @pytest.mark.parametrize("sites", [1, 2, 3])
    def test_smallest_rings_match_the_lattice(self, sites):
        # every ring gets its closing bond, so the one-site lattice sits at
        # omega_C + 2 xi like the kernel's single mode; when it sat at omega_C
        # the two differed by 0.125 in |u|^2.  These rings revive to |u| = 1,
        # so at tol 1e-3 a solve may pass 1 by its error (1.3e-5 at N = 1,
        # g = 0.3, omega0 = 1, T = 200), which the test above rules out
        bath = CavityArraySpectrum(g=0.25, xi=0.05, omega_C=1.0, sites=sites)
        mode, grid = SystemMode(omega0=1.0), TimeGrid(t_max=30.0, steps=600)
        solved = solve_amplitude(bath, mode, grid, tol=1e-6)
        err = np.abs(solved.u - exact_amplitude(build_chain(bath, mode), grid).u).max()
        assert err <= solved.error_estimate < 1e-6

    @pytest.mark.parametrize("sites, g, omega0, t_max, steps, tol", itertools.product(
        (4, 8, 16), (0.02, 0.3), (0.5, 1.0), (5.0, 100.0), (2, 3, 4, 8, 10, 16), (1e-3, 1e-5)
    ))
    def test_short_grids_within_their_estimate(self, sites, g, omega0, t_max, steps, tol):
        # the ladder starts at 8 intervals or, below 8, at all of them; a
        # start at 1 left N = 8, g = 0.3, omega0 = 1, T = 100, M = 2 at
        # 2.0e-2 from the lattice with an estimate of 2.3e-4, and a start at
        # 4 or 5 left g = 0.02, omega0 = 1, T = 100, M = 8 and 10, tol 1e-3
        # up to 1.74x its estimate on N = 4, 8 and 16
        bath = CavityArraySpectrum(g=g, xi=0.05, omega_C=1.0, sites=sites)
        mode, grid = SystemMode(omega0=omega0), TimeGrid(t_max=t_max, steps=steps)
        try:
            solved = solve_amplitude(bath, mode, grid, tol=tol)
        except ConvergenceError:
            # 2^8 halvings of 4 or fewer intervals are too few for these
            assert (g, t_max, tol) == (0.3, 100.0, 1e-5) and steps <= 4
            return
        err = np.abs(solved.u - exact_amplitude(build_chain(bath, mode), grid).u).max()
        assert err <= tol
        assert err <= solved.error_estimate

    @pytest.mark.parametrize("omega0", [0.8, 1.0])
    def test_continuum_matches_large_ring_inside_its_light_cone(self, omega0):
        # up to t = 200 an excitation travels 2 xi t = 20 sites, a tenth of
        # the way round the N = 200 ring, whose kernel there is the continuum's
        continuum = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0)
        mode, grid = SystemMode(omega0=omega0), TimeGrid(t_max=200.0, steps=4000)
        solved = solve_amplitude(continuum, mode, grid, tol=1e-3)
        assert solved.dt_used > grid.dt
        exact = exact_amplitude(build_chain(SPEC_200, mode), grid).u
        assert np.abs(solved.u - exact).max() <= solved.error_estimate < 1e-3

    def test_decay_rates_match_exact_derivative(self):
        # Gamma + i Omega = -u'/u with u' = sum_m -i lambda_m w_m exp(-i lambda_m t);
        # the centred differences of the interpolated u miss by 4.3e-4 at most,
        # at t = 0 on the one-sided stencil
        grid = TimeGrid(t_max=500.0, steps=10000)
        rates = decay_rates(solve_amplitude(SPEC_200, MODE_08, grid, tol=1e-3))
        lam, V = np.linalg.eigh(build_chain(SPEC_200, MODE_08))
        phases = np.exp(-1j * np.outer(grid.times(), lam))
        weights = V[0, :] ** 2
        exact = -(phases @ (-1j * lam * weights)) / (phases @ weights)
        assert rates.valid.all()
        assert np.abs(rates.gamma + 1j * rates.omega_shift - exact).max() < 5e-4

    def test_late_time_plateau_matches_residue(self):
        grid = TimeGrid(t_max=500.0, steps=5000)
        exact = exact_amplitude(build_chain(SPEC_200, MODE_08), grid)
        late = np.abs(exact.u[grid.times() >= 400.0]) ** 2
        z2 = find_bound_mode(SPEC_200, MODE_08).Z ** 2
        assert late.mean() == pytest.approx(z2, rel=0.02)
