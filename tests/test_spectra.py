"""Spectral densities, memory kernels and level-shift integrals."""

import math

import numpy as np
import pytest
from conftest import evaluate_density, memory_kernel_quadrature, ring_mode_sum, semi_infinite
from scipy.optimize import brentq
from scipy.special import gammaincc, j0, zeta

from gaussbath import (
    CavityArraySpectrum,
    OhmicFamilySpectrum,
    SupportError,
    SystemMode,
    level_shift_integral,
    memory_kernel,
    spectral_function_y,
)
from gaussbath.spectra import _LNGAMMA_TAYLOR, _bessel_j0, _gamma_q, _ring_matches_continuum

OHMIC = OhmicFamilySpectrum(eta=0.08, n=3, omega_c=1.0, omega_ref=1.0)
ARRAY_CONT = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=None)
ARRAY_200 = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=200)


class TestDensity:
    """J(w) of the quadrature oracle in conftest, which the kernel and level-shift checks integrate."""

    def test_superohmic_vanishes_at_zero(self):
        assert evaluate_density(OHMIC, 0.0) == 0.0

    def test_superohmic_peak_at_n_omega_c(self):
        # dJ/dw = 0 at w = n*omega_c for the exponential-cutoff family
        grid = np.linspace(0.0, 10.0, 200001)
        peak = grid[np.argmax(evaluate_density(OHMIC, grid))]
        assert abs(peak - 3.0) < 1e-4

    def test_array_band_center_density(self):
        # histogram oracle for the density of states of eps = wC + 2 xi cos(theta)
        theta = (np.arange(2_000_000) + 0.5) * (2 * np.pi / 2_000_000)
        eps = 1.0 + 2 * 0.05 * np.cos(theta)
        width = 1e-3
        frac = np.count_nonzero(np.abs(eps - 1.0) < width / 2) / len(eps)
        oracle = 0.02**2 * frac / width
        value = evaluate_density(ARRAY_CONT, 1.0)
        assert value == pytest.approx(0.02**2 / (2 * np.pi * 0.05), rel=1e-12)
        assert value == pytest.approx(oracle, rel=1e-3)

    def test_zero_outside_band(self):
        assert evaluate_density(ARRAY_CONT, 0.89) == 0.0
        assert evaluate_density(ARRAY_CONT, 1.11) == 0.0
        assert evaluate_density(ARRAY_200, 0.5) == 0.0

    def test_negative_omega_rejected_for_ohmic(self):
        with pytest.raises(ValueError):
            evaluate_density(OHMIC, -0.1)


class TestMemoryKernel:
    def test_ohmic_t0_value(self):
        # f(0) = int J = 6 eta wc^4 / wref^2 for n = 3
        assert memory_kernel(OHMIC, 0.0) == pytest.approx(0.48, rel=1e-12)

    def test_finite_array_t0_is_g_squared(self):
        for sites in (1, 7, 200):
            model = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=sites)
            assert memory_kernel(model, 0.0) == pytest.approx(0.02**2, abs=1e-18)

    def test_continuum_first_zero_from_quadrature(self):
        # |f| first vanishes at the first zero of J0(2 xi t); locate it by
        # bracketed root finding on the (real, demodulated) quadrature kernel
        def demodulated(t):
            val = memory_kernel_quadrature(ARRAY_CONT, t, abs_tol=1e-13)
            return (val * np.exp(1j * ARRAY_CONT.omega_C * t)).real

        root = brentq(demodulated, 20.0, 28.0, rtol=1e-12)
        assert root == pytest.approx(2.404825557695773 / (2 * 0.05), abs=1e-6)
        assert abs(memory_kernel(ARRAY_CONT, root)) < 1e-12

    def test_zeroth_moment_matches_density_integral(self):
        for model in (
            OHMIC,
            OhmicFamilySpectrum(eta=1.0, n=1.0, omega_c=0.7, omega_ref=1.3),
            OhmicFamilySpectrum(eta=0.4, n=0.5, omega_c=1.0, omega_ref=1.0),
        ):
            moment = semi_infinite(lambda w: evaluate_density(model, w), model.omega_c)
            assert memory_kernel(model, 0.0) == pytest.approx(moment, rel=1e-10)
        assert memory_kernel_quadrature(ARRAY_CONT, 0.0) == pytest.approx(
            0.02**2, rel=1e-10
        )

    @pytest.mark.parametrize(
        "model",
        [
            OHMIC,
            OhmicFamilySpectrum(eta=1.0, n=3, omega_c=1.0, omega_ref=1.0),
            OhmicFamilySpectrum(eta=0.5, n=1.0, omega_c=1.0, omega_ref=1.0),
            ARRAY_CONT,
        ],
    )
    def test_closed_form_matches_quadrature(self, model):
        # agreement to 1e-10 relative to the kernel scale f(0); pointwise
        # relative is ill-posed at kernel zeros and beyond the float64
        # cancellation floor of the oscillatory tail
        times = np.linspace(0.0, 50.0, 100)
        scale = abs(memory_kernel(model, 0.0))
        worst = max(
            abs(memory_kernel(model, t) - memory_kernel_quadrature(model, t, abs_tol=1e-12 * scale))
            for t in times
        )
        assert worst < 1e-10 * scale

    def test_finite_array_converges_to_continuum(self):
        # within t <= N/(8 xi) the ring sum matches the continuum kernel
        # superexponentially in N, so already N = 50 sits at the roundoff
        # floor; monotone decrease is asserted down to that floor
        xi = 0.05
        floor = 1e-13
        prev = None
        for sites in (50, 100, 200, 400):
            model = CavityArraySpectrum(g=0.02, xi=xi, omega_C=1.0, sites=sites)
            ts = np.linspace(0.0, sites / (8 * xi), 1500)
            dev = np.abs(ring_mode_sum(model, ts) - memory_kernel(ARRAY_CONT, ts)).max()
            if prev is not None:
                assert dev <= max(prev, floor)
            prev = dev
        assert prev < 1e-12

    @pytest.mark.parametrize("sites", [1, 4, 7, 16, 50, 200, 400])
    def test_ring_kernel_matches_mode_sum(self, sites):
        # the windows fall on both sides of the switch to the continuum form
        # (N=16 switches at t=10 only, N=400 keeps it up to t=2000), and N = 7
        # and 200 also run the solver's grid at T = 1500, M = 30000 through
        # the phase table (measured 7.6e-15 and 1.6e-15).  The geometric
        # times are off every grid t_j = j dt and take the direct sum, whose
        # float64 phases o_m t round by up to 0.5 ulp(2 xi t): 7e-15 at
        # t = 1000, where they stop, and 1.4e-14 at t = 2000
        model = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=sites)
        windows = [np.linspace(0.0, t_max, 4001) for t_max in (10.0, 100.0, 500.0, 2000.0)]
        windows.append(np.geomspace(1e-3, 1000.0, 4001))
        if sites in (7, 200):
            windows.append(1500.0 / 30000 * np.arange(30001))
        for ts in windows:
            dev = np.abs(memory_kernel(model, ts) - ring_mode_sum(model, ts)).max()
            assert dev <= 1e-14 * 0.02**2, (sites, ts[-1], dev)
        scalar = memory_kernel(model, 3.0)
        assert abs(scalar - ring_mode_sum(model, [3.0])[0]) <= 1e-14 * 0.02**2

    def test_ring_kernel_branch_choice(self):
        # fig4b ring (N=200, T=500) with its benchmark jitter stays inside the
        # light cone: the kernel is the continuum form, bit for bit
        ts = np.linspace(0.0, 500.0, 2001)
        for xi in (0.05 * (1 - 1e-6), 0.05, 0.05 * (1 + 1e-6)):
            ring = CavityArraySpectrum(g=0.02, xi=xi, omega_C=1.0, sites=200)
            cont = CavityArraySpectrum(g=0.02, xi=xi, omega_C=1.0, sites=None)
            assert _ring_matches_continuum(ring, 500.0)
            assert np.array_equal(memory_kernel(ring, ts), memory_kernel(cont, ts))
        # the small rings solved to T=200 see their recurrences: mode sum
        ts = np.linspace(0.0, 200.0, 2001)
        for sites in (4, 8, 16):
            ring = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=sites)
            assert not _ring_matches_continuum(ring, 200.0)
            gap = np.abs(memory_kernel(ring, ts) - memory_kernel(ARRAY_CONT, ts)).max()
            assert gap > 0.1 * 0.02**2

    def test_negative_time_rejected(self):
        # and non-finite times, which gave nan with a RuntimeWarning
        for model in (OHMIC, ARRAY_CONT, ARRAY_200):
            for t in (-1.0, math.nan, math.inf, [0.0, 600.0, math.inf]):
                with pytest.raises(ValueError, match="finite t >= 0"):
                    memory_kernel(model, t)

    def test_overflowing_exponent_is_a_value_error(self):
        # Gamma(n+1) overflows above n = 170.6
        model = OhmicFamilySpectrum(eta=1.0, n=171, omega_c=1.0, omega_ref=1.0)
        with pytest.raises(ValueError, match="n=171"):
            memory_kernel(model, 0.0)

    @pytest.mark.parametrize("sites", [None, 8], ids=["continuum", "ring8"])
    def test_overflowing_coupling_is_a_value_error(self, sites):
        # g^2 leaves the double range above g = 1.34e154
        model = CavityArraySpectrum(g=1e200, xi=0.05, omega_C=1.0, sites=sites)
        calls = (lambda: memory_kernel(model, [0.0, 1.0]), lambda: level_shift_integral(model, 0.0),
                 lambda: level_shift_integral(model, np.array([0.0, 2.0]), 2))
        for call in calls:
            with pytest.raises(ValueError, match=r"overflows double precision \(g=1e\+200"):
                call()


class TestSpecialFunctions:
    """The package's own J0, zeta table and incomplete gamma function,
    against scipy.special."""

    def test_j0_matches_scipy(self):
        # dense grids over [0, 4000], and the last few ulp on each side of
        # z = 25, where the trapezoid sum hands over to Hankel's expansion
        near_switch = 25.0 + np.arange(-8, 9) * np.spacing(25.0)
        z = np.concatenate([np.linspace(0.0, 50.0, 200_001), np.linspace(0.0, 4000.0, 800_001),
                            near_switch])
        assert np.abs(_bessel_j0(z) - j0(z)).max() <= 1e-15

    def test_lngamma_coefficients_are_zeta_over_k(self):
        assert _LNGAMMA_TAYLOR == tuple(float(zeta(k)) / k for k in range(63, 1, -1))

    def test_upper_incomplete_gamma_matches_scipy(self):
        # the order-2 Ohmic level shift takes Q(1 - n, x) for 0 < n <= 1/2, x <= 2
        for a in np.linspace(0.5, 1.0, 50, endpoint=False).tolist():
            for x in np.geomspace(1e-8, 2.0, 100).tolist():
                assert _gamma_q(a, x) == pytest.approx(gammaincc(a, x), rel=5e-14, abs=0)


class TestSupport:
    def test_continuum_support_is_the_band(self):
        assert ARRAY_CONT.support == ARRAY_CONT.band == (0.9, 1.1)

    def test_odd_ring_support_is_its_extreme_mode_energies(self):
        ring = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=7)
        eps = ring.omega_C + ring.modes[0]
        assert ring.support == (eps.min(), eps.max())
        assert ring.support[0] > ring.band[0] + 1e-3
        # the lower band edge lies outside an odd ring's support
        assert level_shift_integral(ring, 0.905, 1) > 0

    def test_mode_energies_built_once_and_read_only(self):
        ring = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=7)
        assert ring.modes is ring.modes
        for array in ring.modes:
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("sites", [1, 2, 3, 4, 7, 8, 200, 201])
    def test_modes_pair_the_ring_momenta(self, sites):
        ring = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=sites)
        offsets, weights = ring.modes
        assert ring.modes is ring.modes
        for array in (offsets, weights):
            with pytest.raises(ValueError):
                array[0] = 0.0
        # site m's momentum 2 pi m / N shares its energy with -2 pi m / N, so
        # the pair lists m = 0 .. N//2, each weighted by its share of the N
        # sites; the float64 momenta of ``full`` round its offsets by up to
        # 1.0e-16 at N = 200
        m = np.arange(sites)
        folded = np.minimum(m, sites - m)
        full = 2 * 0.05 * np.cos(2 * np.pi * m / sites)
        assert len(offsets) == sites // 2 + 1
        assert np.abs(offsets[folded] - full).max() <= 2e-16
        assert np.array_equal(weights, np.bincount(folded) / sites)
        assert abs(weights.sum() - 1.0) <= 4 * np.spacing(1.0)
        # the full ring's extreme energies: bit for bit for an even N, whose
        # band edges are 2 xi cos 0 and 2 xi cos pi; an odd N's lower edge may
        # move where the float64 momenta of its mirrored pair round apart, by
        # up to 3 ulp over N <= 400 and by at most one here
        eps = ring.omega_C + full
        assert ring.support[1] == eps.max()
        if sites % 2 == 0:
            assert ring.support[0] == eps.min()
        else:
            assert abs(ring.support[0] - eps.min()) <= np.spacing(eps.min())


class TestLevelShift:
    def test_ohmic_at_zero_matches_criterion_form(self):
        # int J/w dw = 2 eta wc^3 / wref^2 at n = 3
        for eta in (0.08, 0.5, 1.0):
            model = OhmicFamilySpectrum(eta=eta, n=3, omega_c=1.0, omega_ref=1.0)
            assert level_shift_integral(model, 0.0, 1) == pytest.approx(
                2 * eta, rel=1e-11
            )

    def test_array_below_band_closed_form(self):
        value = level_shift_integral(ARRAY_CONT, 0.8, 1)
        assert value == pytest.approx(0.0004 / np.sqrt(0.04 - 0.01), rel=1e-12)
        # discrete sum converges to the same value
        dense = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=10_000)
        assert level_shift_integral(dense, 0.8, 1) == pytest.approx(value, rel=1e-4)

    def test_vanishes_far_below(self):
        assert abs(level_shift_integral(OHMIC, -1e9, 1)) < 1e-9
        assert abs(level_shift_integral(ARRAY_CONT, -1e9, 1)) < 1e-9

    def test_order2_is_derivative_of_order1(self):
        # centered finite difference of the order-1 integral
        E, h = -0.7, 1e-5
        fd = (
            level_shift_integral(OHMIC, E + h, 1) - level_shift_integral(OHMIC, E - h, 1)
        ) / (2 * h)
        assert level_shift_integral(OHMIC, E, 2) == pytest.approx(fd, rel=1e-8)

    def test_array_order2_continuum_vs_discrete(self):
        dense = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=20_000)
        cont = level_shift_integral(ARRAY_CONT, 0.8, 2)
        assert level_shift_integral(dense, 0.8, 2) == pytest.approx(cont, rel=1e-4)

    def test_strictly_decreasing_in_E(self):
        for model in (OHMIC, ARRAY_CONT, ARRAY_200):
            upper = 0.0 if isinstance(model, OhmicFamilySpectrum) else 0.85
            Es = np.linspace(upper - 3.0, upper, 40)
            ys = [-level_shift_integral(model, E, 1) for E in Es]
            assert np.all(np.diff(ys) < 0)

    @pytest.mark.parametrize("n", [0.5, 1.0, 2.0, 2.5, 3.0, 5.5])
    @pytest.mark.parametrize("omega_c", [0.25, 1.0, 3.0])
    def test_ohmic_closed_form_matches_quadrature(self, n, omega_c):
        # the quadrature, not the closed form, sets the bound: asked for
        # 1e-10 relative, its panel-by-panel error estimate lets the total
        # drift to about 2e-10 on this grid
        model = OhmicFamilySpectrum(eta=0.7, n=n, omega_c=omega_c, omega_ref=1.3)
        for a in np.geomspace(1e-8, 3 * max(omega_c, 1.0), 9):
            for order in (1, 2):
                value = level_shift_integral(model, -a, order)
                oracle = semi_infinite(
                    lambda w: evaluate_density(model, w) / (w + a) ** order,
                    omega_c,
                    abs_tol=1e-10 * value,
                )
                assert value == pytest.approx(oracle, rel=1e-9), (a, order)

    @pytest.mark.parametrize("n", [0.5, 2.5, 5.5])
    def test_ohmic_exact_at_zero(self, n):
        # order k at E = 0 is eta omega_ref^(1-n) Gamma(n+1-k) omega_c^(n+1-k)
        eta, omega_c, omega_ref = 0.7, 3.0, 1.3
        model = OhmicFamilySpectrum(eta=eta, n=n, omega_c=omega_c, omega_ref=omega_ref)
        for order in (1, 2):
            if n + 1 - order <= 0:
                # J/w^2 ~ w^(n-2) is not integrable at the origin
                with pytest.raises(ValueError, match="diverges"):
                    level_shift_integral(model, 0.0, order)
                continue
            exact = eta * omega_ref ** (1 - n) * math.gamma(n + 1 - order) * omega_c ** (n + 1 - order)
            assert level_shift_integral(model, 0.0, order) == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("n", [0.5, 1.0, 3.0, 5.5])
    def test_ohmic_far_below_follows_moments(self, n):
        # for a = -E >> omega_c the level shifts tend to f(0)/a and f(0)/a^2,
        # f(0) = int J, with corrections of order omega_c/a = 1e-9; order 2
        # loses nothing to cancellation there
        model = OhmicFamilySpectrum(eta=0.7, n=n, omega_c=1.0, omega_ref=1.3)
        total = memory_kernel(model, 0.0).real
        a = 1e9
        second = level_shift_integral(model, -a, 2)
        assert math.isfinite(second) and second >= 0.0
        assert second == pytest.approx(total / a**2, rel=1e-7)
        assert level_shift_integral(model, -a, 1) == pytest.approx(total / a, rel=1e-7)

    @pytest.mark.parametrize(
        "n, E, first, second",
        [
            # orders 1 and 2, Gamma(n+1) U(k, k-n, -E), to 40 digits; the
            # first four rows take the series (-E <= 2), the first of them
            # with the incomplete-gamma start of n <= 1/2, the next two the
            # continued fraction
            (0.5, -0.5, 0.61029212098535003, 0.55186960893481597),
            (1.0, -1.5, 0.32761499606262557, 0.12064167322895738),
            (2.5, -1.9, 0.68722180723078707, 0.15767106243809449),
            (2.999, -0.7, 1.5302769792322358, 0.4742490425754929),
            (3.0, -2.5, 1.0074088049064985, 0.18370062920570341),
            (5.5, -12.0, 15.842510490383091, 0.88677868611168866),
            # large n: the integrand w^n e^(-w) peaks at w = n, far from the origin
            (8, -0.5, 4707.3239176196581, 615.49340046581163),
            (20, -0.5, 1.1853029916328657e17, 6.0617506585304932e15),
            (50, -0.5, 6.021388816148583e62, 1.2159360326067946e61),
            (100, -0.5, 9.2857263408742228e155, 9.3314363164273243e153),
        ],
    )
    def test_ohmic_matches_extended_precision(self, n, E, first, second):
        model = OhmicFamilySpectrum(eta=1.0, n=n, omega_c=1.0, omega_ref=1.0)
        assert level_shift_integral(model, E, 1) == pytest.approx(first, rel=3e-13)
        assert level_shift_integral(model, E, 2) == pytest.approx(second, rel=3e-13)

    @pytest.mark.parametrize("n, omega_c", [(200.0, 1.0), (171.0, 0.5), (150.0, 100.0)])
    def test_ohmic_overflow_is_a_value_error(self, n, omega_c):
        # Gamma(n+1) overflows above n = 170.6; (omega_c/omega_ref)^n can too
        model = OhmicFamilySpectrum(eta=1.0, n=n, omega_c=omega_c, omega_ref=1.0)
        for E in (0.0, -1e-8, -0.5, -1e3, -1e9):
            for order in (1, 2):
                with pytest.raises(ValueError, match="overflows double precision"):
                    level_shift_integral(model, E, order)

    def test_non_finite_energy_rejected(self):
        for model in (OHMIC, ARRAY_CONT, ARRAY_200):
            for E in (float("nan"), -float("inf")):
                with pytest.raises(ValueError, match="finite"):
                    level_shift_integral(model, E, 1)
                with pytest.raises(ValueError, match=f"finite, got {E}"):
                    level_shift_integral(model, np.array([-5.0, E, -4.0]), 1)

    def test_support_rejection(self):
        with pytest.raises(SupportError):
            level_shift_integral(OHMIC, 0.5, 1)
        for bad in (0.9, 1.0, 1.1):
            with pytest.raises(SupportError):
                level_shift_integral(ARRAY_CONT, bad, 1)
        lowest = ARRAY_200.omega_C + ARRAY_200.modes[0].min()
        with pytest.raises(SupportError):
            level_shift_integral(ARRAY_200, float(lowest), 1)

    @pytest.mark.parametrize("model", [OHMIC, ARRAY_CONT, ARRAY_200],
                             ids=["ohmic", "continuum", "ring200"])
    def test_array_with_an_energy_inside_the_support_is_rejected(self, model):
        inside = 0.5 if model is OHMIC else float(model.support[0])
        for order in (1, 2):
            with pytest.raises(SupportError, match=f"E={inside} lies inside"):
                level_shift_integral(model, np.array([-5.0, -4.0, inside, -3.0]), order)

    @pytest.mark.parametrize("model", [
        OhmicFamilySpectrum(eta=1.0, n=0.5, omega_c=1.0, omega_ref=1.0),
        OhmicFamilySpectrum(eta=0.5, n=1.0, omega_c=1.0, omega_ref=1.0),
        OHMIC,
        CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=7),
        CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=8),
        ARRAY_200,
        ARRAY_CONT,
    ], ids=["ohmic-n0.5", "ohmic-n1", "ohmic-n3", "ring7", "ring8", "ring200", "continuum"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_energy_array_matches_scalar_calls(self, model, order):
        # one call per array of energies, as modes samples y(E), gives the
        # scalar calls' values bit for bit, on both sides of an array's support
        if isinstance(model, OhmicFamilySpectrum):
            # order 2 diverges at E = 0 for n <= 1
            energies = np.linspace(-3.0, 0.0, 301)[: -1 if order == 2 and model.n <= 1 else None]
        else:
            lo, hi = model.support
            energies = np.concatenate([np.linspace(lo - 0.3, lo - 1e-9, 150),
                                       np.linspace(hi + 1e-9, hi + 0.3, 150)])
        values = level_shift_integral(model, energies, order)
        scalar = [level_shift_integral(model, E, order) for E in energies.tolist()]
        assert all(type(value) is float for value in scalar)
        assert values.dtype == float and np.array_equal(values, scalar)
        mode = SystemMode(omega0=0.9)
        ys = spectral_function_y(model, mode, energies)
        assert np.array_equal(ys, [spectral_function_y(model, mode, E) for E in energies])


class TestValidation:
    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            OhmicFamilySpectrum(eta=-0.1, n=3, omega_c=1.0, omega_ref=1.0)
        with pytest.raises(ValueError):
            OhmicFamilySpectrum(eta=0.1, n=0.0, omega_c=1.0, omega_ref=1.0)
        with pytest.raises(ValueError):
            CavityArraySpectrum(g=0.02, xi=0.6, omega_C=1.0)
        with pytest.raises(ValueError):
            CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=0)

    @pytest.mark.parametrize("sites", [2.5, 3.0, True, False, "4", np.float64(4.0)])
    def test_site_count_must_be_an_integer(self, sites):
        with pytest.raises(ValueError):
            CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=sites)

    def test_numpy_integer_site_count_accepted(self):
        model = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=np.int64(8))
        offsets, weights = model.modes
        assert len(offsets) == 5 and weights.sum() == 1.0

    def test_zero_coupling_is_allowed(self):
        # the decoupled limit is exercised by the dynamics contracts
        model = OhmicFamilySpectrum(eta=0.0, n=3, omega_c=1.0, omega_ref=1.0)
        assert memory_kernel(model, 1.0) == 0.0
        array = CavityArraySpectrum(g=0.0, xi=0.05, omega_C=1.0, sites=5)
        assert memory_kernel(array, 1.0) == 0.0
