"""Amplitude-equation solver and time-local decay coefficients."""

import contextlib
import functools
import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from conftest import direct_trapezoid_volterra, ohmic_spectral_amplitude

from gaussbath import (
    CavityArraySpectrum,
    ConvergenceError,
    OhmicFamilySpectrum,
    SystemMode,
    TimeGrid,
    decay_rates,
    solve_amplitude,
)
from gaussbath.spectra import memory_kernel
from gaussbath.volterra import _integrate, _leaf_system, _midpoints, _trapezoid_volterra

MODE = SystemMode(omega0=1.0)


def ohmic(eta, omega_c=1.0):
    return OhmicFamilySpectrum(eta=eta, n=3, omega_c=omega_c, omega_ref=1.0)


def dressed(model, omega0):
    """Kernel sampler in the frame rotating at omega0, as the solver sees it."""
    return lambda ts: memory_kernel(model, ts) * np.exp(1j * omega0 * ts)


@pytest.fixture
def integrated_steps(monkeypatch):
    """The step count of every fixed-step solve that solve_amplitude runs."""
    steps = []

    def counted(model, mode, t_max, n):
        steps.append(n)
        return _integrate(model, mode, t_max, n)

    monkeypatch.setattr("gaussbath.volterra._integrate", counted)
    return steps


class TestSolver:
    def test_free_evolution(self):
        grid = TimeGrid(t_max=30.0, steps=1500)
        traj = solve_amplitude(ohmic(0.0), MODE, grid, tol=1e-8)
        assert np.array_equal(traj.u, np.exp(-1j * MODE.omega0 * grid.times()))
        assert traj.error_estimate == 0.0

    @pytest.mark.parametrize("omega0", [0.8, 0.95])
    @pytest.mark.parametrize("steps", [2000, 10000])
    @pytest.mark.parametrize("sites", [200, None], ids=["ring200", "continuum"])
    def test_decoupled_array_is_the_bare_phase(self, sites, omega0, steps):
        # g = 0 leaves v = 1 on every level, so u is the bare phase formed
        # once on the output grid, bit for bit, with nothing to estimate
        bath = CavityArraySpectrum(g=0.0, xi=0.05, omega_C=1.0, sites=sites)
        grid = TimeGrid(t_max=500.0, steps=steps)
        traj = solve_amplitude(bath, SystemMode(omega0), grid, tol=1e-3)
        assert np.array_equal(traj.u, np.exp(-1j * omega0 * grid.times()))
        assert traj.error_estimate == 0.0

    def test_initial_value_is_exactly_one(self):
        traj = solve_amplitude(ohmic(0.3), MODE, TimeGrid(10.0, 500), tol=1e-4)
        assert traj.u[0] == 1.0 + 0.0j

    def test_reported_on_requested_grid(self):
        grid = TimeGrid(t_max=20.0, steps=400)
        traj = solve_amplitude(ohmic(0.3), MODE, grid, tol=1e-5)
        assert traj.u.shape == (401,)
        assert traj.dt_used < grid.dt
        assert traj.error_estimate < 1e-5

    def test_amplitude_never_exceeds_unity(self):
        for eta in (0.08, 0.5, 1.0):
            traj = solve_amplitude(ohmic(eta), MODE, TimeGrid(50.0, 2500), tol=1e-3)
            assert np.abs(traj.u).max() <= 1.0 + 1e-8

    def test_strong_coupling_plateau(self):
        # a formed bound mode freezes |u|^2 at a finite late-time value
        traj = solve_amplitude(ohmic(1.0), MODE, TimeGrid(50.0, 2500), tol=1e-3)
        late = np.abs(traj.u[traj.times >= 30.0]) ** 2
        assert late.mean() > 0.4
        assert late.std() / late.mean() < 1e-3

    def test_second_order_convergence(self):
        # halving dt must cut the error against a dt/8 reference by >= 3.5
        model, t_max = ohmic(0.5), 20.0
        ref = _integrate(model, MODE, t_max, 16000)
        err_h = np.abs(_integrate(model, MODE, t_max, 2000) - ref[::8]).max()
        err_h2 = np.abs(_integrate(model, MODE, t_max, 4000) - ref[::4]).max()
        assert err_h / err_h2 >= 3.5

    def test_constant_kernel_gives_cosine(self):
        # a constant kernel kappa turns the equation into v'' = -kappa v,
        # v(0) = 1, v'(0) = 0, so v = cos(sqrt(kappa) t); the loop's error
        # must shrink fourfold when the step halves
        t_max = 10.0
        for kappa, bound in ((1.0, 1e-4), (0.25 + 0.5j, 1e-3)):
            errs = []
            for M in (500, 1000):
                ts = np.linspace(0.0, t_max, M + 1)
                v = _trapezoid_volterra(np.full(M + 1, kappa, dtype=complex), t_max / M)
                errs.append(np.abs(v - np.cos(np.sqrt(kappa) * ts)).max())
            assert errs[1] < bound
            assert errs[0] / errs[1] >= 3.9

    @pytest.mark.parametrize(
        "kernel_of, t_max",
        [
            (dressed(OhmicFamilySpectrum(eta=1.0, n=3, omega_c=1.0, omega_ref=1.0), 1.0), 20.0),
            (dressed(CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0), 0.8), 500.0),
            (dressed(CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=4), 0.8), 500.0),
            (lambda ts: np.full(ts.shape, 0.25 + 0.5j), 10.0),
        ],
        ids=["ohmic", "continuum", "ring4", "constant"],
    )
    def test_fast_history_matches_direct_loop(self, kernel_of, t_max):
        # M spans one leaf (1 to 128), every leaf length L (72: 65, 129, 257,
        # 513, 1025, 2049, 4097; 75: 150, 298; 80: 2500, 2501; 81: 322;
        # 90: 176, 350; 96: 383, 384; 100: 100, 385; 108: 430; 120: 470;
        # 125: 1000; 128: 127, 128 and 128 2^k - 1, 128 2^k), the boundaries
        # 128 2^k +- 1 where the number of leaves doubles, short last leaves
        # (129, 298, 322, 350, 1023, 2049, 2501, 4095 and more), the switch
        # from the dense product to the FFT and several FFT levels
        for M in (1, 2, 63, 64, 65, 100, 127, 128, 129, 150, 176, 255, 256, 257,
                  298, 322, 350, 383, 384, 385, 430, 470, 511, 512, 513, 1000,
                  1023, 1024, 1025, 2047, 2048, 2049, 2500, 2501, 4095, 4096, 4097):
            kernel = kernel_of(np.linspace(0.0, t_max, M + 1))
            fast = _trapezoid_volterra(kernel, t_max / M)
            direct = direct_trapezoid_volterra(kernel, t_max / M)
            assert np.abs(fast - direct).max() < 1e-13, M

    def test_production_size_matches_direct_loop(self):
        # the depth the dressed eta = 1 Ohmic solve and the fig4b solve on
        # the N = 200 ring refine to in practice
        M = 20000
        ring = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=200)
        for kernel_of, t_max in ((dressed(ohmic(1.0), 1.0), 50.0), (dressed(ring, 0.8), 500.0)):
            kernel = kernel_of(np.linspace(0.0, t_max, M + 1))
            fast = _trapezoid_volterra(kernel, t_max / M)
            assert np.abs(fast - direct_trapezoid_volterra(kernel, t_max / M)).max() < 1e-13

    def test_production_size_matches_extended_loop(self):
        # the finest level of a fig4b point and a level of the eta = 1 Ohmic
        # ladder, against the direct loop in extended precision: the float64
        # leaves stay within 4.4e-15 of it, the float64 direct loop within
        # 4.3e-15
        M = 10000
        ring = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=200)
        for kernel_of, t_max in ((dressed(ohmic(1.0), 1.0), 50.0), (dressed(ring, 0.8), 500.0)):
            kernel = kernel_of(np.linspace(0.0, t_max, M + 1))
            fast = _trapezoid_volterra(kernel, t_max / M)
            exact = direct_trapezoid_volterra(kernel, t_max / M, np.clongdouble)
            assert np.abs(fast - exact).max() < 2e-14

    @pytest.mark.parametrize(
        "kernel_of, t_max",
        [
            (dressed(OhmicFamilySpectrum(eta=1.0, n=3, omega_c=1.0, omega_ref=1.0), 1.0), 0.05),
            (dressed(CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=200), 0.8), 0.5),
            (lambda ts: np.full(ts.shape, 0.25 + 0.5j), 0.1),
        ],
        ids=["ohmic", "ring", "constant"],
    )
    def test_single_step_is_the_closed_form(self, kernel_of, t_max):
        # M = 1 is one leaf of one step from I[0] = 0:
        # v[1] = (1 - (h^2/2) (K[1]/2)) / (1 + h^2 K[0]/4)
        kernel = kernel_of(np.array([0.0, t_max]))
        k = kernel.astype(np.clongdouble)
        h = np.longdouble(t_max)
        closed = (1 - h**2 / 2 * (k[1] / 2)) / (1 + h**2 * k[0] / 4)
        v = _trapezoid_volterra(kernel, t_max)
        assert v[0] == 1.0
        assert abs(v[1] - closed) <= 1e-16

    @pytest.mark.parametrize("lead", [1.0, 0.6 - 0.8j])
    def test_leaf_system_steps_the_recurrence(self, lead):
        # one leaf of 80 steps through the fold and the drift, applied in
        # complex128, against v[j+1] = alpha v[j] - c (H[j] + H[j+1]) stepped
        # in extended precision, H[j] taking the leaf's own terms as it goes;
        # |v| is near 1, so the bound is a few of its ulps
        L, h = 80, 0.05
        ring = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=200)
        kernel = dressed(ring, 0.8)(h * np.arange(L + 1))
        known = 0.5 * kernel[::-1] + 0.3j * np.cos(np.arange(L + 1.0))
        fold, drift = _leaf_system(kernel, h, L)
        assert fold.shape == (L, L + 1) and fold.flags.c_contiguous
        fast = fold @ known + lead * drift + lead

        k = kernel.astype(np.clongdouble)
        half = np.longdouble(h) ** 2 / 4 * k[0]
        alpha, c = (1 - half) / (1 + half), np.longdouble(h) ** 2 / 2 / (1 + half)
        v = np.zeros(L + 1, dtype=np.clongdouble)
        v[0] = lead
        total = known.astype(np.clongdouble)
        for j in range(L):
            total[j + 1] += np.dot(v[1 : j + 1], k[j:0:-1])
            v[j + 1] = alpha * v[j] - c * (total[j] + total[j + 1])
        assert np.abs(fast - v[1:]).max() < 4e-16

    def test_fft_lengths_double_level_by_level(self, monkeypatch):
        # equal leaves give every block on a level the same length, so the
        # solve transforms at one length per level: 2L, 4L, 8L, ...
        lengths = []
        fft = np.fft.fft

        def recording(a, n=None, *args, **kwargs):
            lengths.append(n)
            return fft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", recording)
        _trapezoid_volterra(np.full(20001, 1.0 + 0j), 0.01)
        ladder = sorted(set(lengths))
        assert len(ladder) > 1
        assert all(b == 2 * a for a, b in zip(ladder, ladder[1:])), ladder

    @pytest.mark.parametrize("k0_h2", [0.5, 1.0, 2.0])
    def test_stiff_kernel_matches_direct_loop(self, k0_h2):
        # k0 h^2 of order one puts the leaf system's alpha far from 1.  The
        # trapezoid step keeps |v| = 1 on a constant kernel, so rounding
        # builds up over the run: from M = 1000 on, the float64 FFT history
        # drifts by up to about 1.2e-12 and the float64 direct loop itself
        # by up to about 2e-13, so the solve is checked against the direct
        # loop in extended precision there
        h = 0.1
        for M, dtype, bound in ((65, np.complex128, 1e-13), (129, np.complex128, 1e-13),
                                (1000, np.clongdouble, 1e-11), (4097, np.clongdouble, 1e-11)):
            kernel = np.full(M + 1, k0_h2 / h**2, dtype=complex)
            fast = _trapezoid_volterra(kernel, h)
            assert np.abs(fast - direct_trapezoid_volterra(kernel, h, dtype)).max() < bound, M

    def test_long_double_is_extended_precision(self):
        # a platform precondition, not a fallback: the folded leaf matrix
        # is built in np.clongdouble once per solve and applied in complex128,
        # and so are the lattice oracle's two phase tables
        eps = np.finfo(np.longdouble).eps
        assert eps <= 1.1e-19, (
            "the Volterra leaf matrix must be built in an 80-bit or wider long "
            "double: built in float64 it drifts from the extended-precision "
            "direct loop by up to about 2e-12 at M = 20000 (6.3e-13 Ohmic, "
            "2.2e-12 on the N = 200 ring), built in extended precision and "
            "applied in float64 by 4e-15; this platform's np.longdouble has "
            f"eps {eps}"
        )

    def test_solve_leaves_no_reference_cycles(self):
        # a solve must free its arrays by reference counting alone
        gc.collect()
        gc.disable()
        try:
            _trapezoid_volterra(np.full(1001, 1.0 + 0j), 0.01)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_solve_keeps_no_buffers(self):
        # the Toeplitz panel, the folded leaf matrix and the kernel spectra
        # (0.86 MB together at M = 20000, 100 kB of it the L = 80 panel)
        # live for one solve only; the first solve fills numpy's
        # process-wide cache of FFT plans
        kernel = np.full(20001, 1.0 + 0j)
        _trapezoid_volterra(kernel, 0.01)
        tracemalloc.start()
        try:
            v = _trapezoid_volterra(kernel, 0.01)
            retained = tracemalloc.get_traced_memory()[0] - v.nbytes
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024

    def test_midpoints_are_exact_on_cubics(self):
        # the first Richardson pair carries its correction to the odd output
        # points by these 4-point rules, interior and one-sided
        x = np.arange(7.0)
        cubic = lambda x: 1 - 2j * x + 0.5 * x**2 - 0.25j * x**3
        assert np.abs(_midpoints(cubic(x)) - cubic(x[:-1] + 0.5)).max() < 1e-12

    def test_nonfinite_change_stops_refinement(self, integrated_steps):
        # finite parameters whose kernel overflows: the solve must stop at
        # the first level whose change is not finite
        model = OhmicFamilySpectrum(eta=1e300, n=3, omega_c=1e10, omega_ref=1.0)
        with pytest.raises(ConvergenceError) as exc, np.errstate(all="ignore"):
            solve_amplitude(model, MODE, TimeGrid(10.0, 100))
        assert not math.isfinite(exc.value.error_estimate)
        assert len(integrated_steps) <= 2

    def test_nonconvergence_raises_with_estimate(self):
        with pytest.raises(ConvergenceError) as exc:
            solve_amplitude(ohmic(1.0), MODE, TimeGrid(20.0, 64), tol=1e-14)
        assert exc.value.error_estimate > 0


ORACLE_TIMES = np.arange(51.0)  # every 50th point of TimeGrid(50, 2500)


@functools.cache
def spectral_oracle(eta, omega_c):
    return ohmic_spectral_amplitude(eta, omega_c, 1.0, ORACLE_TIMES)


class TestOhmicSpectralOracle:
    # eta = 0.5 is the exact threshold y(0) = 0: a band-edge pole at E = 0
    @pytest.mark.parametrize("tol", [1e-3, 1e-5])
    @pytest.mark.parametrize("eta, omega_c", [(1.0, 1.0), (0.08, 2.0), (0.3, 1.0), (0.5, 1.0)])
    def test_error_within_estimate(self, eta, omega_c, tol):
        exact, _ = spectral_oracle(eta, omega_c)
        traj = solve_amplitude(ohmic(eta, omega_c), MODE, TimeGrid(50.0, 2500), tol=tol)
        err = np.abs(traj.u[::50] - exact).max()
        assert err <= traj.error_estimate < tol

    @pytest.mark.parametrize("eta, omega_c", [(1.0, 1.0), (0.08, 2.0), (0.3, 1.0), (0.5, 1.0)])
    def test_oracle_starts_at_one(self, eta, omega_c):
        # the pole weight and the continuum integral sum to u(0) = 1
        exact, _ = spectral_oracle(eta, omega_c)
        assert abs(exact[0] - 1.0) < 1e-12

    @pytest.mark.parametrize("eta, omega_c", [(1.0, 1.0), (0.08, 2.0)])
    def test_late_plateau_is_squared_residue(self, eta, omega_c):
        # the continuum part decays like t^-4 (D ~ w^3 at w = 0): by t = 40
        # it moves |u|^2 off Z^2 by about 2e-6
        exact, bound = spectral_oracle(eta, omega_c)
        tail = 5e-6
        assert np.abs(np.abs(exact[40:]) ** 2 - bound.Z**2).max() < tail
        traj = solve_amplitude(ohmic(eta, omega_c), MODE, TimeGrid(50.0, 2500), tol=1e-5)
        late = np.abs(traj.u[traj.times >= 40.0]) ** 2
        assert np.abs(late - bound.Z**2).max() < tail + 2 * traj.error_estimate


# final steps of step halving stopped on the raw change between levels,
# fig1a (omega_c = 1) and fig1b (eta = 0.08) points, T = 50, 2500 steps,
# tol = 1e-3
PLAIN_HALVING_STEPS = {
    (0.05, 1.0): 5000,
    (0.35, 1.0): 10000,
    (0.5, 1.0): 20000,
    (1.0, 1.0): 40000,
    (0.08, 2.5): 80000,
    (0.08, 3.0): 160000,
}


class TestRefinementDepth:
    @pytest.mark.parametrize("eta, omega_c", [(1.0, 1.0), (0.08, 2.0)])
    def test_benchmark_points_stop_at_5000_steps(self, eta, omega_c):
        # the ladder 1250, 2500, 5000 stops on its first Romberg value
        traj = solve_amplitude(ohmic(eta, omega_c), MODE, TimeGrid(50.0, 2500), tol=1e-3)
        assert traj.dt_used == 50.0 / 5000

    @pytest.mark.parametrize("eta, omega_c", sorted(PLAIN_HALVING_STEPS))
    def test_never_deeper_than_plain_halving(self, eta, omega_c):
        traj = solve_amplitude(ohmic(eta, omega_c), MODE, TimeGrid(50.0, 2500), tol=1e-3)
        assert round(50.0 / traj.dt_used) <= PLAIN_HALVING_STEPS[eta, omega_c]

    @pytest.mark.parametrize("eta, omega_c", [(1.0, 1.0), (0.08, 2.0)])
    def test_benchmark_points_integrate_1250_2500_5000_steps(self, integrated_steps, eta, omega_c):
        # the Ohmic family has no finite support: its ladder starts at M/2
        solve_amplitude(ohmic(eta, omega_c), MODE, TimeGrid(50.0, 2500), tol=1e-3)
        assert integrated_steps == [1250, 2500, 5000]

    def test_fig4b_point_integrates_625_then_1250_steps(self, integrated_steps):
        # a band-limited ring starts at M/16 (16 is the largest power of two
        # dividing 10000) and stops on its first Richardson value, which is
        # interpolated up to the output grid
        ring = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=200)
        traj = solve_amplitude(ring, SystemMode(omega0=0.8), TimeGrid(500.0, 10000), tol=1e-3)
        assert integrated_steps == [625, 1250]
        assert traj.dt_used == 500.0 / 1250
        assert traj.u.shape == (10001,)

    def test_odd_steps_start_at_the_output_grid(self, integrated_steps):
        solve_amplitude(ohmic(1.0), MODE, TimeGrid(50.0, 2501), tol=1e-3)
        assert integrated_steps[:2] == [2501, 5002]

    def test_midpoints_get_nine_samples_or_more(self, monkeypatch):
        # a ladder interpolates only when it starts below the output grid,
        # at 8 intervals or more, so the 4-point rule always has its 4
        # samples: over short grids of the Ohmic, ring and continuum
        # families (some of which give up on tol 1e-5) the fewest it is
        # handed is 9
        sizes = []

        def recorded(c):
            sizes.append(c.shape[0])
            return _midpoints(c)

        monkeypatch.setattr("gaussbath.volterra._midpoints", recorded)
        baths = [ohmic(1.0)] + [
            CavityArraySpectrum(g=g, xi=0.05, omega_C=1.0, sites=sites)
            for g, sites in ((0.3, 8), (0.02, 200), (0.02, None))
        ]
        cases = itertools.product(baths, (2, 3, 4, 5, 6, 8, 10, 16), (5.0, 100.0), (1e-3, 1e-5))
        for bath, steps, t_max, tol in cases:
            with contextlib.suppress(ConvergenceError):
                solve_amplitude(bath, MODE, TimeGrid(t_max, steps), tol=tol)
        assert min(sizes) == 9

    @pytest.mark.parametrize("count", [2, 3])
    def test_smallest_grids_give_finite_amplitudes(self, integrated_steps, count):
        # TimeGrid admits two steps at least; below 8 the ladder starts at all of them
        traj = solve_amplitude(ohmic(0.3), MODE, TimeGrid(1.0, count), tol=1e-3)
        assert integrated_steps[0] == count
        assert traj.u.shape == (count + 1,)
        assert np.isfinite(traj.u).all()
        assert traj.u[0] == 1.0


class TestDecayRates:
    def test_free_evolution_rates(self):
        grid = TimeGrid(t_max=20.0, steps=2000)
        traj = solve_amplitude(ohmic(0.0), MODE, grid, tol=1e-8)
        rates = decay_rates(traj)
        assert rates.valid.all()
        # interior centered differences of a pure phase have no real part;
        # the one-sided endpoint stencils leave an O(dt^3) trace
        assert np.abs(rates.gamma[1:-1]).max() < 1e-12
        assert np.abs(rates.gamma).max() < grid.dt**3
        # finite differences bias Omega by at most omega0^3 dt^2 / 3
        # (endpoint stencils carry twice the centered-difference error)
        assert np.abs(rates.omega_shift - 1.0).max() < 0.4 * grid.dt**2

    def test_weak_coupling_rate_stays_positive(self):
        traj = solve_amplitude(ohmic(0.08), MODE, TimeGrid(100.0, 5000), tol=1e-4)
        rates = decay_rates(traj)
        g = rates.gamma[rates.valid]
        assert g.min() > -1e-6
        # tends to a positive constant: flat and positive at late valid times
        late = g[rates.times[rates.valid] > 60.0]
        assert late.min() > 0.01
        assert np.ptp(late) / late.mean() < 0.05

    def test_strong_coupling_rate_transiently_negative_then_zero(self):
        traj = solve_amplitude(ohmic(1.0), MODE, TimeGrid(50.0, 5000), tol=1e-3)
        rates = decay_rates(traj)
        g = rates.gamma[rates.valid]
        assert g.min() < -0.1
        assert abs(g[-1]) < 1e-3

    def test_validity_flags_near_total_decay(self):
        # by t ~ 200 the eta = 0.08 amplitude crosses the validity floor
        traj = solve_amplitude(ohmic(0.08), MODE, TimeGrid(220.0, 8800), tol=1e-3)
        rates = decay_rates(traj)
        assert not rates.valid.all()
        assert rates.valid[0]
        assert np.isnan(rates.gamma[~rates.valid]).all()

    def test_gamma_is_half_log_derivative_of_survival(self):
        # Gamma(t) = -d ln|u|^2 / dt / 2 within discretization error
        grid = TimeGrid(t_max=40.0, steps=4000)
        traj = solve_amplitude(ohmic(0.3), MODE, grid, tol=1e-5)
        rates = decay_rates(traj)
        log_u2 = np.log(np.abs(traj.u) ** 2)
        fd = np.gradient(log_u2, grid.dt)
        inner = slice(1, -1)
        assert np.abs(rates.gamma[inner] + 0.5 * fd[inner]).max() < 5 * grid.dt**2

    def test_reconstruction_identity(self):
        # exp(-int (Gamma + i Omega)) rebuilt by trapezoid reproduces u
        grid = TimeGrid(t_max=50.0, steps=5000)
        traj = solve_amplitude(ohmic(0.08), MODE, grid, tol=1e-5)
        rates = decay_rates(traj)
        z = rates.gamma + 1j * rates.omega_shift
        steps = 0.5 * grid.dt * (z[1:] + z[:-1])
        rebuilt = np.exp(-np.concatenate([[0.0], np.cumsum(steps)]))
        assert np.abs(rebuilt - traj.u).max() < 10 * grid.dt**2


class TestMarkovianReference:
    def test_weak_coupling_envelope(self):
        # |u|^2 tracks exp(-2 pi J(omega0) t) within 10% over one decade
        model = ohmic(0.005)
        gamma_m = np.pi * 0.005 * np.exp(-1.0)
        grid = TimeGrid(t_max=0.5 / gamma_m, steps=6000)
        traj = solve_amplitude(model, MODE, grid, tol=1e-4)
        envelope = np.exp(-2 * gamma_m * grid.times())
        dev = np.abs(np.abs(traj.u) ** 2 - envelope) / envelope
        assert dev.max() < 0.1


class TestGridValidation:
    def test_bad_grids_rejected(self):
        for t_max in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                TimeGrid(t_max=t_max, steps=100)
        with pytest.raises(ValueError):
            TimeGrid(t_max=1.0, steps=1)
        for steps in (2.5, 100.0, True, "100"):
            with pytest.raises(ValueError):
                TimeGrid(t_max=10.0, steps=steps)
        for omega0 in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                SystemMode(omega0=omega0)
        for tol in (0.0, math.nan):
            with pytest.raises(ValueError):
                solve_amplitude(ohmic(0.1), MODE, TimeGrid(1.0, 10), tol=tol)
        for build in (
            lambda: ohmic(math.nan),
            lambda: ohmic(0.1, omega_c=math.nan),
            lambda: CavityArraySpectrum(g=math.nan, xi=0.05, omega_C=1.0),
            lambda: CavityArraySpectrum(g=0.02, xi=math.nan, omega_C=1.0),
            lambda: CavityArraySpectrum(g=0.02, xi=0.05, omega_C=math.nan),
            lambda: ohmic(math.inf),
            lambda: OhmicFamilySpectrum(eta=0.1, n=math.inf, omega_c=1.0, omega_ref=1.0),
            lambda: ohmic(0.1, omega_c=math.inf),
            lambda: OhmicFamilySpectrum(eta=0.1, n=3, omega_c=1.0, omega_ref=math.inf),
            lambda: CavityArraySpectrum(g=math.inf, xi=0.05, omega_C=1.0),
            lambda: CavityArraySpectrum(g=0.02, xi=math.inf, omega_C=1.0),
            lambda: CavityArraySpectrum(g=0.02, xi=0.05, omega_C=math.inf),
            lambda: CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=2.5),
            lambda: CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=True),
        ):
            with pytest.raises(ValueError):
                build()
