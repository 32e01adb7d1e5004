"""Correctness checks on a workload's CSV outputs, computed untimed.

The references are gaussbath's independent oracles: exact diagonalisation of
the finite ring (``lattice``) and the closed-form bound-mode existence
criteria of the Ohmic family.  Header strings and row counts are the CSV
contract from the README.
"""

import math

import numpy as np

from gaussbath.boundmode import superohmic_criterion
from gaussbath.lattice import build_chain, discrete_bound_modes, exact_amplitude
from gaussbath.spectra import CavityArraySpectrum
from gaussbath.volterra import SystemMode, TimeGrid

SOLVE_HEADER = ("t,u_re,u_im,u_abs2,gamma,omega_shift,I1,I2,I3,I4,nu_minus,nu_plus,"
                "discord,mutual_info,classical,log_neg,branch")
SWEEP_HEADER = "sweep_value,t,discord,u_abs2,log_neg"
MODES_HEADER = "E,y"
MODES_SAMPLES = {"ohmic": 301, "array": 300}
ABS2_SLACK = 1e-8  # the overshoot of |u| the acceptance suite allows
ORACLE_PIPELINE_TOL = 1e-12  # the oracle CSV against the lattice it prints
ROOT_TOL = 1e-9  # modes E_b against the lattice eigenvalue
RESIDUE_TOL = 1e-7  # modes Z against the lattice weight on the system site


def _ring(params):
    bath = CavityArraySpectrum(g=params["g"], xi=params["xi"], omega_C=params["omega_C"],
                               sites=params["N"])
    return build_chain(bath, SystemMode(omega0=params["omega0"]))


def _is_ring(params):
    return params["model"] == "array" and params.get("N") is not None


def _lattice_abs2(params):
    grid = TimeGrid(t_max=params["t_max"], steps=params["steps"])
    return np.abs(exact_amplitude(_ring(params), grid).u) ** 2


def _columns(rows, first, last):
    return np.array([row.split(",")[first:last] for row in rows], dtype=float).T


def _check_amplitude(point, lines, problems):
    """solve, oracle and sweep outputs; returns the lattice error of a
    finite-ring Volterra point, else None."""
    params = point["params"]
    rows = lines[1:]
    if len(rows) != params["steps"] + 1:
        problems.append(f"{len(rows)} rows, expected {params['steps'] + 1}")
        return None
    if point["command"] == "sweep":
        if lines[0] != SWEEP_HEADER:
            problems.append(f"header {lines[0]!r}")
            return None
        expected = repr(params[point["sweep"]])
        if any(not row.startswith(expected + ",") for row in rows):
            problems.append(f"sweep_value column differs from {expected}")
        discord, abs2, log_neg = _columns(rows, 2, 5)
        values = (discord, abs2, log_neg)
    else:
        if lines[0] != SOLVE_HEADER:
            problems.append(f"header {lines[0]!r}")
            return None
        u_re, u_im, abs2 = _columns(rows, 1, 4)
        values = (u_re, u_im, abs2)
        if np.max(np.abs(abs2 - (u_re**2 + u_im**2))) > 1e-12:
            problems.append("u_abs2 disagrees with u_re, u_im")
    if not all(np.all(np.isfinite(v)) for v in values):
        problems.append("non-finite values")
        return None
    if abs2.max() > 1.0 + ABS2_SLACK:
        problems.append(f"|u|^2 = {abs2.max()!r} > 1")
    if not _is_ring(params):
        return None
    err = float(np.max(np.abs(abs2 - _lattice_abs2(params))))
    if point["command"] == "oracle":
        if err > ORACLE_PIPELINE_TOL:
            problems.append(f"oracle CSV differs from the lattice by {err:.3e}")
        return None
    if err > params["tol"]:
        problems.append(f"lattice oracle error {err:.3e} > tol {params['tol']}")
    return err


def _ohmic_bound_mode_exists(params):
    eta, n, omega_c, omega0 = params["eta"], params["n"], params["omega_c"], params["omega0"]
    if n == 3:
        return superohmic_criterion(eta, omega_c, omega0)[0]
    # y(0) < 0 with omega_ref = omega0: omega0 < eta Gamma(n) omega_c^n / omega0^(n-1)
    return omega0 < eta * math.gamma(n) * omega_c**n / omega0 ** (n - 1)


def _check_modes(point, lines, problems):
    params = point["params"]
    if lines[0] != MODES_HEADER:
        problems.append(f"header {lines[0]!r}")
        return
    samples = [row for row in lines[1:] if not row.startswith("#")]
    if len(samples) != MODES_SAMPLES[params["model"]]:
        problems.append(f"{len(samples)} E,y samples")
    if not np.all(np.isfinite(_columns(samples, 0, 2))):
        problems.append("non-finite E,y samples")
    summary = dict(row[2:].split("=", 1) for row in lines[1:] if row.startswith("# "))
    exists = summary.get("exists") == "true"
    if params["model"] == "ohmic":
        if exists != _ohmic_bound_mode_exists(params):
            problems.append(f"exists={summary.get('exists')} contradicts the closed-form criterion")
        return
    if not _is_ring(params):
        return
    if "roots" in summary:
        roots = [tuple(map(float, item.split(":"))) for item in summary["roots"].split(";")]
    elif exists:
        roots = [(float(summary["E_b"]), float(summary["Z"]))]
    else:
        roots = []
    lattice = discrete_bound_modes(_ring(params))
    if len(roots) != len(lattice):
        problems.append(f"{len(roots)} bound modes, the lattice has {len(lattice)}")
        return
    for (E, Z), (E_lat, w_lat) in zip(sorted(roots), sorted(lattice)):
        if abs(E - E_lat) > ROOT_TOL or abs(Z - w_lat) > RESIDUE_TOL:
            problems.append(f"bound mode ({E!r}, {Z!r}) vs lattice ({E_lat!r}, {w_lat!r})")


def check_point(point):
    """Check one point's output file; returns (problems, lattice error or None)."""
    problems = []
    try:
        with open(point["out"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return [f"no output: {exc}"], None
    if not lines:
        return ["empty output"], None
    err = None
    try:
        if point["command"] == "modes":
            _check_modes(point, lines, problems)
        else:
            err = _check_amplitude(point, lines, problems)
    except (ValueError, KeyError, IndexError) as exc:
        problems.append(f"malformed output: {exc}")
    return problems, err
