"""Bound-mode existence, energies, residues and the frozen-amplitude link."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from gaussbath import (
    BoundMode,
    CavityArraySpectrum,
    OhmicFamilySpectrum,
    SystemMode,
    TimeGrid,
    find_bound_mode,
    level_shift_integral,
    solve_amplitude,
    spectral_function_y,
    superohmic_criterion,
)
from gaussbath.boundmode import RESIDUE_RTOL

MODE = SystemMode(1.0)
ARRAY_CONT = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0)


def ohmic(eta, omega_c=1.0):
    return OhmicFamilySpectrum(eta=eta, n=3, omega_c=omega_c, omega_ref=1.0)


class TestSpectralFunction:
    def test_value_at_zero_matches_criterion_expression(self):
        for eta in (0.08, 0.5, 1.0):
            assert spectral_function_y(ohmic(eta), MODE, 0.0) == pytest.approx(
                1.0 - 2 * eta, rel=1e-10
            )

    def test_approaches_omega0_far_left(self):
        for model in (ohmic(1.0), ARRAY_CONT):
            assert spectral_function_y(model, MODE, -1e8) == pytest.approx(1.0, abs=1e-7)

    def test_array_below_band_value(self):
        y = spectral_function_y(ARRAY_CONT, SystemMode(0.8), 0.8)
        assert y == pytest.approx(0.8 - 2.3094e-3, abs=2e-7)

    def test_monotone_decreasing_left_of_support(self):
        Es = np.linspace(-4.0, 0.0, 60)
        ys = [spectral_function_y(ohmic(0.7), MODE, E) for E in Es]
        assert np.all(np.diff(ys) < 0)


class TestFindBoundMode:
    def test_subcritical_coupling_has_no_mode(self):
        assert not find_bound_mode(ohmic(0.08), MODE).exists

    def test_supercritical_coupling_forms_mode(self):
        bm = find_bound_mode(ohmic(1.0), MODE)
        assert bm.exists
        assert bm.E_b < 0
        residual = spectral_function_y(ohmic(1.0), MODE, bm.E_b) - bm.E_b
        assert abs(residual) <= 1e-10
        assert 0 < bm.Z <= 1

    def test_array_bound_mode_values(self):
        # independent route: solve E = w0 - g^2/sqrt((wC-E)^2 - 4 xi^2) directly
        mode = SystemMode(0.8)
        direct = brentq(
            lambda E: 0.8 - 0.0004 / np.sqrt((1.0 - E) ** 2 - 0.01) - E,
            0.5, 0.8999, rtol=1e-14,
        )
        bm = find_bound_mode(ARRAY_CONT, mode)
        assert bm.exists
        assert bm.E_b == pytest.approx(direct, abs=1e-9)
        assert bm.E_b == pytest.approx(0.7977, abs=1e-4)
        assert bm.Z == pytest.approx(0.985, abs=1e-3)

    def test_array_reports_secondary_root_above_band(self):
        # the 1d band edge always binds a (vanishing-weight) state; the
        # primary designation goes to the larger residue
        bm = find_bound_mode(ARRAY_CONT, SystemMode(0.8))
        assert len(bm.roots) == 2
        energies = sorted(E for E, _ in bm.roots)
        assert energies[0] == pytest.approx(bm.E_b)
        assert energies[1] > 1.1
        weights = sorted(Z for _, Z in bm.roots)
        assert weights[0] < 1e-3
        assert bm.Z == max(weights)

    def test_tied_residues_make_the_lower_root_primary(self):
        # at omega0 = omega_C the two roots mirror each other about the band
        # centre, and their residues agree to rounding (2e-12 relative on
        # the continuum, where rounding makes the upper one larger)
        for model in (ARRAY_CONT, CavityArraySpectrum(g=0.3, xi=0.2, omega_C=1.0, sites=8)):
            bm = find_bound_mode(model, MODE)
            (E_lo, Z_lo), (_, Z_hi) = sorted(bm.roots)
            assert Z_hi == pytest.approx(Z_lo, rel=RESIDUE_RTOL)
            assert bm.roots[0] == (bm.E_b, bm.Z) == (E_lo, Z_lo)
            assert E_lo < model.support[0]
        # a residue larger beyond the tie makes the upper root primary
        bm = find_bound_mode(ARRAY_CONT, SystemMode(1.2))
        assert bm.E_b > 1.1 and bm.Z > bm.roots[1][1] * (1 + RESIDUE_RTOL)

    def test_near_band_system_gives_tiny_residue(self):
        bm = find_bound_mode(ARRAY_CONT, SystemMode(0.95))
        assert bm.exists
        assert bm.Z**2 < 0.5  # no visible freezing for this detuning

    def test_exact_ohmic_threshold_has_no_mode(self):
        # y(0) = omega0 - eta Gamma(n) omega_c^n = 0 exactly; a walk that took
        # h(edge) = 0 for a sign change would return E_b = 0, where the n <= 1
        # order-2 shift diverges
        model = OhmicFamilySpectrum(eta=0.5, n=1, omega_c=1.0, omega_ref=1.0)
        assert spectral_function_y(model, SystemMode(0.5), 0.0) == 0.0
        assert find_bound_mode(model, SystemMode(0.5)) == BoundMode(exists=False)

    @pytest.mark.parametrize("n, eta, Z", [(3, 0.5, 2 / 3), (2, 1.0, 0.5)])
    def test_exact_ohmic_threshold_forms_band_edge_mode(self, n, eta, Z):
        # y(0) = 0 exactly and int J/w^2 dw = eta Gamma(n - 1) is finite for
        # n > 1: the amplitude freezes at Z = 1/(1 + eta Gamma(n - 1))
        model = OhmicFamilySpectrum(eta=eta, n=n, omega_c=1.0, omega_ref=1.0)
        assert spectral_function_y(model, MODE, 0.0) == 0.0
        bm = find_bound_mode(model, MODE)
        assert bm.exists and bm.E_b == 0.0
        assert bm.Z == pytest.approx(Z, rel=1e-15)
        assert bm.Z**2 == pytest.approx(Z**2, rel=1e-15)

    def test_finite_lattice_roots_stay_outside_mode_range(self):
        spec = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=200)
        eps = spec.omega_C + spec.modes[0]
        bm = find_bound_mode(spec, SystemMode(0.8))
        for E, _ in bm.roots:
            assert E < eps.min() or E > eps.max()

    def test_zero_coupling_walks_only_towards_the_bare_level(self):
        # h = omega0 - E: the start's sign rules out the side without a root,
        # and a bare level inside the band has none at all
        spec = CavityArraySpectrum(g=0.0, xi=0.05, omega_C=1.0)
        for omega0 in (0.8, 1.2):
            bm = find_bound_mode(spec, SystemMode(omega0))
            assert bm.roots == ((pytest.approx(omega0, rel=1e-12), 1.0),)
        assert not find_bound_mode(spec, SystemMode(1.0)).exists


class TestSuperohmicCriterion:
    def test_eta_threshold(self):
        assert superohmic_criterion(0.5 + 1e-6, 1.0, 1.0)[0]
        assert not superohmic_criterion(0.5 - 1e-6, 1.0, 1.0)[0]

    def test_cutoff_threshold(self):
        threshold = 6.25 ** (1 / 3)
        assert threshold == pytest.approx(1.8420, abs=1e-4)
        assert superohmic_criterion(0.08, 1.85, 1.0)[0]
        assert not superohmic_criterion(0.08, threshold - 1e-3, 1.0)[0]
        assert superohmic_criterion(0.08, threshold + 1e-3, 1.0)[0]

    @pytest.mark.parametrize("eta", [0.5 - 1e-9, 0.5, 0.5 + 1e-9])
    def test_criterion_and_root_finder_agree_at_the_threshold(self, eta):
        exists, margin = superohmic_criterion(eta, 1.0, 1.0)
        assert exists == (eta >= 0.5)
        assert exists == find_bound_mode(ohmic(eta), MODE).exists
        if eta == 0.5:
            assert margin == 0.0

    def test_margin_arithmetic(self):
        exists, margin = superohmic_criterion(0.08, 1.0, 1.0)
        assert not exists
        assert margin == pytest.approx(0.84, abs=1e-12)

    def test_agrees_with_root_finder_on_random_parameters(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            eta = rng.uniform(1e-3, 2.0)
            omega_c = rng.uniform(1e-2, 3.0)
            expected, _ = superohmic_criterion(eta, omega_c, 1.0)
            found = find_bound_mode(ohmic(eta, omega_c), MODE).exists
            assert found == expected

    def test_general_n_existence_matches_value_at_zero(self):
        # off the threshold y(0) = 0, a bound mode exists iff y(0) < 0, i.e.
        # omega0 < eta Gamma(n) omega_c^n / omega_ref^(n-1)
        rng = np.random.default_rng(11)
        for _ in range(200):
            eta = rng.uniform(1e-3, 2.0)
            n = rng.uniform(0.3, 5.0)
            omega_c = rng.uniform(1e-2, 3.0)
            omega_ref = rng.uniform(0.5, 2.0)
            model = OhmicFamilySpectrum(eta=eta, n=n, omega_c=omega_c, omega_ref=omega_ref)
            expected = 1.0 < eta * math.gamma(n) * omega_c**n / omega_ref ** (n - 1)
            bm = find_bound_mode(model, MODE)
            assert bm.exists == expected, (eta, n, omega_c, omega_ref)
            if bm.exists:
                assert bm.E_b < 0
                assert abs(spectral_function_y(model, MODE, bm.E_b) - bm.E_b) <= 1e-9 * max(
                    1.0, abs(bm.E_b)
                )

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(ValueError):
            superohmic_criterion(0.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "args",
        [(math.nan, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, -math.inf), (1.0, math.nan, 1.0)],
    )
    def test_rejects_nonfinite_arguments(self, args):
        with pytest.raises(ValueError, match="finite"):
            superohmic_criterion(*args)


class TestSteadyStateAmplitude:
    def test_zero_without_mode(self):
        assert not find_bound_mode(ohmic(0.08), MODE).exists

    def test_array_prediction_matches_dynamics(self):
        mode = SystemMode(0.8)
        z2 = find_bound_mode(ARRAY_CONT, mode).Z ** 2
        assert z2 == pytest.approx(0.971, abs=1e-3)
        spec = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=200)
        traj = solve_amplitude(spec, mode, TimeGrid(500.0, 5000), tol=1e-3)
        late = np.abs(traj.u[traj.times >= 400.0]) ** 2
        assert late.mean() == pytest.approx(z2, rel=0.02)

    def test_ohmic_prediction_matches_dynamics(self):
        model = ohmic(1.0)
        z2 = find_bound_mode(model, MODE).Z ** 2
        traj = solve_amplitude(model, MODE, TimeGrid(50.0, 2500), tol=1e-3)
        late = np.abs(traj.u[traj.times >= 30.0]) ** 2
        assert late.mean() == pytest.approx(z2, rel=0.02)

    def test_no_mode_amplitude_decays(self):
        # without a bound mode the survival probability empties out; near the
        # eta = 0.5 threshold the renormalized level drops to low frequencies
        # where J is tiny, so the asymptotic rate shrinks and the run is long
        for eta in (0.05, 0.1, 0.3):
            traj = solve_amplitude(ohmic(eta), MODE, TimeGrid(200.0, 8000), tol=1e-3)
            assert abs(traj.u[-1]) ** 2 < 1e-2

    def test_decoupling_limit_returns_unity(self):
        spec = CavityArraySpectrum(g=0.0, xi=0.05, omega_C=1.0)
        assert find_bound_mode(spec, SystemMode(0.8)).Z ** 2 == 1.0
        weak = CavityArraySpectrum(g=1e-4, xi=0.05, omega_C=1.0)
        assert find_bound_mode(weak, SystemMode(0.8)).Z ** 2 == pytest.approx(1.0, abs=1e-4)


class TestResidueDefinition:
    def test_residue_matches_level_shift_expression(self):
        bm = find_bound_mode(ohmic(1.0), MODE)
        expected = 1.0 / (1.0 + level_shift_integral(ohmic(1.0), bm.E_b, 2))
        assert bm.Z == pytest.approx(expected, rel=1e-12)
