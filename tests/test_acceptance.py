"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria 4 (its initial-value clause) and 8 encode qualitative claims of the
source analysis that are quantitatively unattainable for this model; they are
implemented exactly as stated and fail honestly, with the measured numbers
printed and the reasoning spelled out at the failing assertions.
"""

import time

import numpy as np
import pytest
from conftest import (
    covariance_from_amplitude,
    entropy_f,
    gaussian_discord,
    moment_covariance,
    symplectic_invariants,
)

from gaussbath import (
    CavityArraySpectrum,
    OhmicFamilySpectrum,
    SystemMode,
    TimeGrid,
    build_chain,
    decay_rates,
    exact_amplitude,
    find_bound_mode,
    measures_from_amplitude,
    solve_amplitude,
)
from gaussbath.scenario import parse_config, run_scenario

ARRAY = CavityArraySpectrum(g=0.02, xi=0.05, omega_C=1.0, sites=200)
MODE_08 = SystemMode(0.8)
MODE_1 = SystemMode(1.0)


def ohmic(eta, omega_c=1.0):
    return OhmicFamilySpectrum(eta=eta, n=3, omega_c=omega_c, omega_ref=1.0)


def report(num, name, ok, detail):
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def array_run():
    grid = TimeGrid(t_max=500.0, steps=10000)
    solved = solve_amplitude(ARRAY, MODE_08, grid, tol=1e-3)
    exact = exact_amplitude(build_chain(ARRAY, MODE_08), grid)
    return grid, solved, exact


@pytest.fixture(scope="module")
def weak_run():
    grid = TimeGrid(t_max=200.0, steps=8000)
    return grid, solve_amplitude(ohmic(0.08), MODE_1, grid, tol=1e-3)


@pytest.fixture(scope="module")
def strong_run():
    grid = TimeGrid(t_max=50.0, steps=5000)
    return grid, solve_amplitude(ohmic(1.0), MODE_1, grid, tol=1e-3)


def test_criterion_1_eta_threshold():
    start = time.perf_counter()
    below = find_bound_mode(ohmic(0.5 - 1e-6), MODE_1).exists
    above = find_bound_mode(ohmic(0.5 + 1e-6), MODE_1).exists
    elapsed = time.perf_counter() - start
    ok = (not below) and above and elapsed < 1.0
    report(1, "bound-mode threshold eta = 0.5 +- 1e-6", ok,
           f"exists(0.5-1e-6)={below}, exists(0.5+1e-6)={above}, {elapsed:.2f}s")
    assert not below
    assert above
    assert elapsed < 1.0


def test_criterion_2_cutoff_threshold():
    start = time.perf_counter()
    threshold = 6.25 ** (1.0 / 3.0)
    below = find_bound_mode(ohmic(0.08, threshold - 1e-3), MODE_1).exists
    above = find_bound_mode(ohmic(0.08, threshold + 1e-3), MODE_1).exists
    elapsed = time.perf_counter() - start
    ok = (not below) and above and elapsed < 1.0
    report(2, "bound-mode threshold omega_c = 6.25^(1/3) +- 1e-3", ok,
           f"threshold={threshold:.4f}, flip confirmed, {elapsed:.2f}s")
    assert not below
    assert above
    assert elapsed < 1.0


def test_criterion_3_oracle_agreement(array_run):
    start = time.perf_counter()
    _, solved, exact = array_run
    sup = float(np.abs(solved.u - exact.u).max())
    elapsed = time.perf_counter() - start
    ok = sup < 1e-3
    report(3, "Volterra vs exact lattice, N=200, t in [0, 500]", ok,
           f"sup|du|={sup:.2e} < 1e-3, fixture+check {elapsed:.1f}s")
    assert sup < 1e-3


def test_criterion_4_frozen_plateau(array_run):
    grid, solved, _ = array_run
    bm = find_bound_mode(ARRAY, MODE_08)
    z2 = bm.Z**2
    late = grid.times() >= 400.0
    u2_late = float((np.abs(solved.u[late]) ** 2).mean())

    meas = measures_from_amplitude(solved.u, 1.0)
    discord_late = float(meas["discord"][late].mean())
    frozen_state_discord = gaussian_discord(covariance_from_amplitude(np.sqrt(z2), 1.0))[0]
    discord_initial = float(meas["discord"][0])

    plateau_ok = abs(u2_late - z2) <= 0.02 * z2
    consistency_ok = abs(discord_late - frozen_state_discord) <= 0.02 * frozen_state_discord
    initial_ok = discord_late >= 0.95 * discord_initial
    report(4, "frozen plateau vs residue prediction", plateau_ok and consistency_ok and initial_ok,
           f"|u|^2_late={u2_late:.4f} vs Z^2={z2:.4f}; "
           f"D_late={discord_late:.4f} vs D(Z^2)={frozen_state_discord:.4f}; "
           f"D_late/D(0)={discord_late / discord_initial:.3f} vs required >= 0.95")
    assert plateau_ok
    assert consistency_ok
    # The residue prediction itself caps the frozen discord at
    # D(Z^2)/D(0) = 0.839 for these parameters: discord is log-steep in
    # |u|^2 at the pure state, so the 3% amplitude loss costs 16% of the
    # discord.  The stated bound is asserted verbatim regardless.
    assert initial_ok


def test_criterion_5_initial_state_exactness():
    cov = covariance_from_amplitude(1.0, 1.0)
    inv = symplectic_invariants(cov)
    meas = measures_from_amplitude(np.array([1.0 + 0j]), 1.0)
    checks = {
        "diag": (cov.sigma[0, 0], np.cosh(2.0), 1e-9),
        "cross": (cov.sigma[0, 2], -np.sinh(2.0), 1e-9),
        "discord": (meas["discord"][0], entropy_f(np.cosh(2.0)), 1e-6),
        "log_neg": (meas["log_neg"][0], 2.0, 1e-9),
        "nu_minus": (inv.nu_minus, 1.0, 1e-9),
        "nu_plus": (inv.nu_plus, 1.0, 1e-9),
    }
    ok = all(abs(got - want) <= tol for got, want, tol in checks.values())
    report(5, "initial two-mode squeezed state exactness", ok,
           ", ".join(f"{k} ok" for k in checks))
    for name, (got, want, tol) in checks.items():
        assert abs(got - want) <= tol, name


def test_criterion_6_decay_regimes(weak_run, strong_run):
    grid_w, traj_w = weak_run
    meas_w = measures_from_amplitude(traj_w.u, 1.0)
    rates_w = decay_rates(traj_w)
    final_discord = float(meas_w["discord"][-1])
    min_gamma = float(rates_w.gamma[rates_w.valid].min())

    grid_s, traj_s = strong_run
    meas_s = measures_from_amplitude(traj_s.u, 1.0)
    window = (grid_s.times() >= 30.0) & (grid_s.times() <= 50.0)
    disc_win = meas_s["discord"][window]
    rel_std = float(disc_win.std() / disc_win.mean())
    rates_s = decay_rates(traj_s)
    min_gamma_strong = float(rates_s.gamma[rates_s.valid].min())

    ok = (
        final_discord < 1e-2
        and min_gamma >= -1e-6
        and rel_std < 0.02
        and disc_win.mean() > 0.1
        and min_gamma_strong < 0
    )
    report(6, "weak decay vs frozen regime dynamics", ok,
           f"eta=0.08: D(200)={final_discord:.1e}, min Gamma={min_gamma:.1e}; "
           f"eta=1.0: <D>={disc_win.mean():.3f}, relstd={rel_std:.2e}, "
           f"min Gamma={min_gamma_strong:.2f}")
    assert final_discord < 1e-2
    assert min_gamma >= -1e-6
    assert rel_std < 0.02
    assert disc_win.mean() > 0.1
    assert min_gamma_strong < 0


def test_criterion_7_markovian_consistency():
    eta = 0.005
    gamma_m = np.pi * eta * np.exp(-1.0)
    grid = TimeGrid(t_max=1.0 / gamma_m, steps=20000)  # two e-folds of |u|^2
    traj = solve_amplitude(ohmic(eta), MODE_1, grid, tol=1e-4)
    envelope = np.exp(-2.0 * gamma_m * grid.times())
    dev = float((np.abs(np.abs(traj.u) ** 2 - envelope) / envelope).max())
    ok = dev < 0.1
    report(7, "weak-coupling golden-rule envelope", ok,
           f"max relative deviation {dev:.3f} < 0.1 over t <= {grid.t_max:.0f}")
    assert dev < 0.1


def test_criterion_8_robustness_ordering():
    traj = solve_amplitude(ohmic(0.3), MODE_1, TimeGrid(320.0, 8000), tol=1e-3)
    meas = measures_from_amplitude(traj.u, 1.0)
    t = traj.times
    assert meas["log_neg"].min() < 1e-3 and meas["discord"].min() < 1e-3
    t_logneg = float(t[np.argmax(meas["log_neg"] < 1e-3)])
    t_discord = float(t[np.argmax(meas["discord"] < 1e-3)])
    ok = t_logneg < t_discord
    report(8, "log-negativity crosses 1e-3 before discord", ok,
           f"t(log_neg<1e-3)={t_logneg:.1f}, t(discord<1e-3)={t_discord:.1f}")
    # Both measures depend on time only through |u(t)|^2; discord falls like
    # |u|^4 ln|u| against log-negativity's |u|^2, so discord reaches the
    # threshold at |u|^2 ~ 8.4e-3 while log-negativity needs ~1.2e-3.  The
    # stated ordering cannot occur for any decay profile.
    assert t_logneg < t_discord


def test_criterion_9_property_suite(array_run, weak_run, strong_run, tmp_path):
    rng = np.random.default_rng(17)
    worst_cov = 0.0
    worst_nu = 0.0
    worst_additivity = 0.0
    for _ in range(500):
        u = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        r = rng.uniform(0, 2)
        cov = covariance_from_amplitude(u, r)
        worst_cov = max(worst_cov, float(np.abs(cov.sigma - moment_covariance(u, r)).max()))
        inv = symplectic_invariants(cov)
        worst_nu = max(worst_nu, abs(inv.nu_minus * inv.nu_plus / np.sqrt(inv.I4) - 1.0))
        m = measures_from_amplitude(np.array([u]), r)
        worst_additivity = max(
            worst_additivity,
            abs(float(m["classical"][0]) + float(m["discord"][0]) - float(m["mutual_info"][0])),
        )
    assert worst_cov < 1e-10
    assert worst_nu < 1e-9
    assert worst_additivity < 1e-9

    # |u| <= 1 + 1e-8 across every solver run of this module
    overshoot = max(
        float(np.abs(run[1].u).max()) for run in (array_run[:2], weak_run, strong_run)
    )
    assert overshoot <= 1.0 + 1e-8

    # reconstruction of u from Gamma, Omega within 10*dt^2
    grid = TimeGrid(t_max=50.0, steps=5000)
    traj = solve_amplitude(ohmic(0.08), MODE_1, grid, tol=1e-5)
    rates = decay_rates(traj)
    z = rates.gamma + 1j * rates.omega_shift
    rebuilt = np.exp(-np.concatenate([[0.0], np.cumsum(0.5 * grid.dt * (z[1:] + z[:-1]))]))
    recon_err = float(np.abs(rebuilt - traj.u).max())
    assert recon_err < 10 * grid.dt**2

    # byte-identical CSV reruns
    cfg = parse_config("eta=0.2\nn=3\nomega_c=1.0\nr=1.0\nt_max=10\nsteps=500\ntol=1e-4\n")
    first = run_scenario(cfg)
    second = run_scenario(cfg)
    identical = first == second
    assert identical

    report(9, "property suite", True,
           f"moment oracle {worst_cov:.1e}; nu-nu+ vs sqrt(I4) {worst_nu:.1e}; "
           f"additivity {worst_additivity:.1e}; max|u|={overshoot:.9f}; "
           f"reconstruction {recon_err:.1e} < {10 * grid.dt**2:.1e}; CSV bytes identical")
