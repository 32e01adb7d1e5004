"""Config parsing, CSV contracts, CLI exit codes and determinism."""

import argparse
import dataclasses
import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import entropy_f

import gaussbath
from gaussbath import (
    CavityArraySpectrum,
    ConfigError,
    ConvergenceError,
    OhmicFamilySpectrum,
    SystemMode,
    decay_rates,
    measures_from_amplitude,
    parse_config,
    serialize_config,
    spectral_function_y,
)
from gaussbath.cli import _build_parser, main
from gaussbath.scenario import (
    _CHUNK,
    CONFIG_KEYS,
    FIGURE_SPECS,
    ScenarioConfig,
    _mode_sample_energies,
    _mode_summary_lines,
    _solve,
    _table,
    _trajectory_rows,
    build_model,
    run_command,
    run_modes,
    run_scenario,
)

OHMIC_TEXT = "eta=0.08\nn=3\nomega_c=1.0\nr=1.0\nt_max=50\nsteps=5000\n"
ARRAY_TEXT = "g=0.02\nxi=0.05\nomega_C=1.0\nN=200\nomega0=0.8\n"
OPEN_CHAIN_TEXT = (
    "g=0.3\nxi=0.05\nomega_C=1.0\nN=8\nomega0=1.0\nt_max=5\nsteps=100\ntopology=open\n"
)


class TestParseConfig:
    def test_spec_example_is_valid(self):
        cfg = parse_config(OHMIC_TEXT)
        assert cfg.model == "ohmic"
        assert cfg.eta == 0.08
        assert cfg.steps == 5000

    def test_range_error_names_the_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("eta=-1\nn=3\nomega_c=1.0\n")
        assert any("eta" in problem for problem in exc.value.errors)
        # NaN and inf slip through the range checks, so they need their own
        for key, text in (
            ("eta", "eta=nan\nn=3\nomega_c=1.0\n"),
            ("t_max", OHMIC_TEXT + "t_max=inf\n"),
            ("tol", OHMIC_TEXT + "tol=nan\n"),
            ("xi", "g=0.02\nxi=nan\nN=200\n"),
            ("sweep point eta=nan", OHMIC_TEXT + "sweep=eta\nsweep_values=0.1,nan\n"),
        ):
            with pytest.raises(ConfigError) as exc:
                parse_config(text)
            assert any(key in problem and "finite" in problem for problem in exc.value.errors)
        # every sweep point meets the same range rules as a plain value
        for key, text in (
            ("r", OHMIC_TEXT + "sweep=r\nsweep_values=-1,1\n"),
            ("eta", OHMIC_TEXT + "sweep=eta\nsweep_values=0.1,-1\n"),
            ("omega0", OHMIC_TEXT + "sweep=omega0\nsweep_values=0\n"),
            ("n", OHMIC_TEXT + "sweep=n\nsweep_values=3,0\n"),
        ):
            with pytest.raises(ConfigError) as exc:
                parse_config(text)
            assert any(f"sweep point {key}=" in p and f"{key} must be" in p
                       for p in exc.value.errors)
            assert not any("omega_ref" in p for p in exc.value.errors)

    def test_all_errors_reported_not_just_first(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("eta=-1\nn=0\nomega_c=1.0\nbogus=3\nsteps=1\n")
        assert len(exc.value.errors) >= 4

    def test_later_keys_override_earlier(self):
        cfg = parse_config(OHMIC_TEXT + "eta=0.5\n")
        assert cfg.eta == 0.5

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# header\n\neta=0.1  # inline note\nn=3\nomega_c=2\n")
        assert cfg.eta == 0.1
        assert cfg.omega_c == 2.0

    def test_overrides_win(self):
        cfg = parse_config(OHMIC_TEXT, overrides={"eta": 0.3, "t_max": 10.0})
        assert cfg.eta == 0.3
        assert cfg.t_max == 10.0
        # text overrides, as the CLI passes them, are parsed like file values
        cfg = parse_config(OHMIC_TEXT, overrides={"eta": "0.3", "steps": "400", "N": None})
        assert (cfg.eta, cfg.steps) == (0.3, 400)

    def test_round_trip(self):
        for text in (
            OHMIC_TEXT,
            "model=array\ng=0.02\nxi=0.05\nomega_C=1.0\nN=200\nomega0=0.8\nt_max=500\nsteps=10000\n",
            "g=0.02\nxi=0.05\nN=continuum\nomega0=0.8\n",
            OHMIC_TEXT + "sweep=eta\nsweep_values=0.08,0.5,1.0\n",
        ):
            cfg = parse_config(text)
            assert parse_config(serialize_config(cfg)) == cfg
        # the canned figure configs hold numpy floats among their sweep values
        for _, cfg in FIGURE_SPECS.values():
            assert parse_config(serialize_config(cfg)) == cfg

    def test_key_table_lists_every_config_field(self):
        assert set(CONFIG_KEYS) == {field.name for field in dataclasses.fields(ScenarioConfig)}

    def test_outputs_is_not_a_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(OHMIC_TEXT + "outputs=discord\n")
        assert exc.value.errors == ["line 7: unknown key 'outputs'"]

    def test_mixed_model_keys_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("eta=0.1\nn=3\nomega_c=1\ng=0.02\nxi=0.05\n")

    def test_sweep_validation(self):
        with pytest.raises(ConfigError):
            parse_config(OHMIC_TEXT + "sweep=cabbage\nsweep_values=1,2\n")
        with pytest.raises(ConfigError):
            parse_config(OHMIC_TEXT + "sweep=eta\n")
        # sweep values without a swept key would be ignored by every command
        with pytest.raises(ConfigError) as exc:
            parse_config("eta=0.1\nn=3\nomega_c=1\nsweep_values=1,2\n")
        assert exc.value.errors == ["sweep_values requires sweep"]
        # unparsed or empty values are reported once, not also as missing
        for text in ("0.1,abc", ""):
            with pytest.raises(ConfigError) as exc:
                parse_config(OHMIC_TEXT + f"sweep=eta\nsweep_values={text}\n")
            assert exc.value.errors == [f"line 8: invalid value for 'sweep_values': {text!r}"]
        # a swept key of the other model would be ignored by the solve
        for text, key in (
            (OHMIC_TEXT + "sweep=g\nsweep_values=0.01,0.02\n", "g"),
            (ARRAY_TEXT + "sweep=eta\nsweep_values=0.1\n", "eta"),
        ):
            with pytest.raises(ConfigError) as exc:
                parse_config(text)
            assert any(f"sweep point {key}=" in p and "invalid for model" in p
                       for p in exc.value.errors)
        # the band cross-check holds at every swept xi and omega_C
        for text, bad in (
            (ARRAY_TEXT + "sweep=xi\nsweep_values=0.05,0.6\n", "xi=0.6"),
            (ARRAY_TEXT + "sweep=omega_C\nsweep_values=1.0,0.08\n", "omega_C=0.08"),
        ):
            with pytest.raises(ConfigError) as exc:
                parse_config(text)
            [problem] = exc.value.errors
            assert problem.startswith(f"sweep point {bad}: ") and "must exceed 2*xi" in problem
        # valid points still parse, and the base config's own errors are
        # not repeated once per point
        assert parse_config(ARRAY_TEXT + "sweep=omega0\nsweep_values=0.8,0.9\n").sweep == "omega0"
        with pytest.raises(ConfigError) as exc:
            parse_config(OHMIC_TEXT + "tol=-1\nsweep=eta\nsweep_values=0.1,0.2,0.3\n")
        assert exc.value.errors == ["tol must be > 0, got -1.0"]

    def test_nonfinite_sweep_value_is_reported_once(self):
        # the per-point range check covers every sweepable key, so a
        # non-finite value is one message, not also one about sweep_values
        with pytest.raises(ConfigError) as exc:
            parse_config(OHMIC_TEXT + "sweep=eta\nsweep_values=0.1,inf\n")
        assert exc.value.errors == ["sweep point eta=inf: eta must be finite, got inf"]


def _rows(blocks):
    """The row lines of the byte blocks of a ``run_*`` table."""
    return b"".join(blocks).decode().splitlines()


@pytest.fixture(scope="module")
def small_run():
    cfg = parse_config("eta=0.2\nn=3\nomega_c=1.0\nr=1.0\nt_max=10\nsteps=400\ntol=1e-4\n")
    header, blocks = run_scenario(cfg)
    return cfg, (header, _rows(blocks))


class TestSolveCsv:
    def test_header_contract(self, small_run):
        _, (header, rows) = small_run
        assert header == (
            "t,u_re,u_im,u_abs2,gamma,omega_shift,I1,I2,I3,I4,"
            "nu_minus,nu_plus,discord,mutual_info,classical,log_neg,branch"
        )
        assert len(rows) == 401

    def test_rows_parse_and_satisfy_identities(self, small_run):
        _, (header, rows) = small_run
        cols = header.split(",")
        for row in rows[:: 40]:
            fields = dict(zip(cols, row.split(",")))
            assert fields["branch"] in ("top", "bottom")
            disc = float(fields["discord"])
            mutual = float(fields["mutual_info"])
            classical = float(fields["classical"])
            assert abs(classical + disc - mutual) < 1e-9
            u2 = float(fields["u_re"]) ** 2 + float(fields["u_im"]) ** 2
            assert abs(u2 - float(fields["u_abs2"])) < 1e-12

    def test_byte_identical_reruns(self, small_run):
        cfg, (header, rows) = small_run
        first = run_scenario(cfg)
        assert run_scenario(cfg) == first
        assert (first[0], _rows(first[1])) == (header, rows)

    def test_initial_row_values(self, small_run):
        _, (header, rows) = small_run
        first = dict(zip(header.split(","), rows[0].split(",")))
        assert float(first["t"]) == 0.0
        assert float(first["u_re"]) == 1.0
        assert float(first["discord"]) == pytest.approx(entropy_f(math.cosh(2.0)), abs=1e-6)
        assert float(first["log_neg"]) == pytest.approx(2.0, abs=1e-9)

    def test_zero_coupling_discord_constant(self):
        cfg = parse_config("eta=0\nn=3\nomega_c=1.0\nr=0.8\nt_max=5\nsteps=200\ntol=1e-6\n")
        header, blocks = run_scenario(cfg)
        rows = _rows(blocks)
        idx = header.split(",").index("discord")
        values = np.array([float(row.split(",")[idx]) for row in rows])
        assert np.ptp(values) < 1e-12
        assert values[0] == pytest.approx(entropy_f(math.cosh(1.6)), abs=1e-9)

    def test_invalid_gamma_rows_carry_na_token(self):
        cfg = parse_config("eta=0.08\nn=3\nomega_c=1.0\nr=1\nt_max=230\nsteps=4600\ntol=1e-3\n")
        header, blocks = run_scenario(cfg)
        rows = _rows(blocks)
        cols = header.split(",")
        gi = cols.index("gamma")
        oi = cols.index("omega_shift")
        last = rows[-1].split(",")
        assert last[gi] == "NA"
        assert last[oi] == "NA"
        numeric = [row.split(",")[gi] for row in rows if row.split(",")[gi] != "NA"]
        assert numeric  # early samples are valid
        float(numeric[0])


def _expected_rows(columns, lead=(), tail=()):
    """Rows built cell by cell: the ``lead`` cells, repr(float(x)) of each
    column's cell (NA for a nan) and the ``tail`` cells, joined by commas."""
    return [",".join([*lead, *(repr(float(x)) if x == x else "NA" for x in row), *tail])
            for row in zip(*columns)]


class TestCsvText:
    def test_chunk_text_is_float_repr(self):
        values = [-0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e16, 1.0000000000000002,
                  0.1, 1 / 3, 2 / 3, 123456789.01234567, -9.876543210987654e-300,
                  math.pi, math.inf, -math.inf, math.nan]
        [block] = _table([np.array(values)])
        texts = _rows([block])
        # nan, the one mark of a value that is not available, is written NA
        assert texts == [repr(float(x)) for x in values[:-1]] + ["NA"]
        assert texts[0] == "-0.0" and texts[2] == "5e-324" and texts[5] == "1e+16"
        assert texts[-3:] == ["inf", "-inf", "NA"]
        rng = np.random.default_rng(11)
        for length in (_CHUNK - 1, _CHUNK, _CHUNK + 1):
            a = rng.standard_normal(length) * 10.0 ** rng.integers(-300, 300, length)
            b = rng.uniform(-1.0, 1.0, length)
            blocks = _table([a, b])
            sizes = [min(_CHUNK, length - lo) for lo in range(0, length, _CHUNK)]
            assert [block.count(b"\n") for block in blocks] == sizes
            assert all(block.endswith(b"\n") for block in blocks)
            assert _rows(blocks) == _expected_rows([a, b])
        # where repr switches between plain decimals and exponent notation
        switch = [1e-4, np.nextafter(1e-4, 0), 0.00010000000000000002, 5e-5, 1e15,
                  np.nextafter(1e16, 0), 9999999999999998.0, 1e16, 2.0**53]
        # a non-contiguous view, random bit patterns (every exponent) and
        # log-uniform values inside the plain-decimal range
        u = rng.standard_normal(_CHUNK + 7) + 1j * rng.standard_normal(_CHUNK + 7)
        bits = rng.integers(0, 2**64, 250_000, dtype=np.uint64, endpoint=False).view(float)
        bits = bits[np.isfinite(bits)][:200_000]
        plain = 10.0 ** rng.uniform(-4.0, 16.0, 250_000) * rng.choice([-1.0, 1.0], 250_000)
        plain = plain[(np.abs(plain) >= 1e-4) & (np.abs(plain) < 1e16)][:200_000]
        assert len(bits) == len(plain) == 200_000
        for array in (np.array(switch + [-x for x in switch]), u.real, bits, plain):
            assert _rows(_table([array])) == [repr(float(x)) for x in array]

    def test_odd_cells_anywhere_in_a_row_or_block(self):
        # cells whose repr is no plain decimal, and -0.0, in the first and the
        # last column, on both sides of a block edge, in every cell of the
        # first block and in none of the last
        odd = [-0.0, 5e-324, 1e-05, 1e16, math.inf, -math.inf, math.nan]
        rng = np.random.default_rng(5)
        columns = rng.uniform(1e-3, 1e3, (3, 3 * _CHUNK)) * rng.choice([-1.0, 1.0], (3, 3 * _CHUNK))
        columns[:, :_CHUNK] = np.resize(odd, (3, _CHUNK))
        mixed = np.arange(_CHUNK, 2 * _CHUNK)
        columns[0, mixed[::3]] = np.resize(odd, mixed[::3].size)
        columns[-1, mixed[::5]] = np.resize(odd[::-1], mixed[::5].size)
        for lead, tail in [((), ()), (("0.85",), ("top",)), (("1e-05", "x"), ())]:
            blocks = _table(columns, lead, tail)
            assert [block.count(b"\n") for block in blocks] == [_CHUNK] * 3
            assert _rows(blocks) == _expected_rows(columns, lead, tail)

    def test_rows_match_per_cell_repr(self):
        # 4601 rows: several full chunks and a partial one, with NA rates late on
        cfg = parse_config("eta=0.08\nn=3\nomega_c=1.0\nr=1\nt_max=230\nsteps=4600\ntol=1e-3\n")
        traj = _solve(cfg)
        rows = _rows(_trajectory_rows(cfg, traj))
        rates = decay_rates(traj)
        meas = measures_from_amplitude(traj.u, cfg.r)
        assert not rates.valid.all() and rates.valid.any()
        # I2 = I1 and nu_plus = nu_minus on this family, and the branch is top
        columns = [traj.times, traj.u.real, traj.u.imag, np.abs(traj.u) ** 2,
                   rates.gamma, rates.omega_shift,
                   *(meas[name] for name in ("I1", "I1", "I3", "I4", "nu_minus", "nu_minus",
                                             "discord", "mutual_info", "classical", "log_neg"))]
        assert len(rows) == len(traj.times) > 2 * _CHUNK
        for i, row in enumerate(rows):
            cells = [repr(float(col[i])) if col[i] == col[i] else "NA" for col in columns]
            # both rates, and only they, are NA exactly where they are not valid
            assert [j for j, cell in enumerate(cells) if cell == "NA"] == (
                [] if rates.valid[i] else [4, 5])
            assert row == ",".join([*cells, "top"])

    def test_sweep_rows_match_per_cell_repr(self, tmp_path):
        # 1201 rows per point, each led by the point's value
        cfg = parse_config("eta=0.08\nn=3\nomega_c=1.0\nr=1\nt_max=50\nsteps=1200\ntol=1e-3\n"
                           "sweep=eta\nsweep_values=0.08,1.0\n")
        header, rows, failures = _run_sweep(tmp_path, cfg)
        assert not failures
        assert header == "sweep_value,t,discord,u_abs2,log_neg"
        expected = []
        for tag, eta in [("0.08", 0.08), ("1.0", 1.0)]:
            point = dataclasses.replace(cfg, sweep=None, sweep_values=None, eta=eta)
            traj = _solve(point)
            meas = measures_from_amplitude(traj.u, point.r)
            columns = [traj.times, meas["discord"], np.abs(traj.u) ** 2, meas["log_neg"]]
            expected += _expected_rows(columns, lead=[tag])
        assert len(rows) == 2 * 1201
        assert rows == expected

    def test_modes_rows_match_per_cell_repr(self, tmp_path):
        # the layout of reproduce fig4a: each point's y(E) rows led by its
        # omega0, then its '#' summary lines, each naming the point
        _, cfg = FIGURE_SPECS["fig4a"]
        out = tmp_path / "modes.csv"
        assert run_command("modes", cfg, str(out)) == ([str(out)], [])
        header, *rows = out.read_text().splitlines()
        assert header == "omega0,E,y"
        expected = []
        for value in cfg.sweep_values:
            tag = repr(float(value))
            model = build_model(dataclasses.replace(cfg, sweep=None, sweep_values=None))
            mode = SystemMode(omega0=value)
            for grid in _mode_sample_energies(model):
                expected += _expected_rows([grid, spectral_function_y(model, mode, grid)], [tag])
            summary = _mode_summary_lines(model, mode)
            assert summary[0] == "# exists=true" and summary[-1].startswith("# lattice_modes=")
            expected += [f"# omega0={tag} {line[2:]}" for line in summary]
        assert rows == expected


def _run_sweep(tmp_path, cfg):
    """The ``sweep`` CSV of ``cfg`` as the runner writes it: (header, rows, failures)."""
    out = tmp_path / "sweep.csv"
    written, failures = run_command("sweep", cfg, str(out))
    assert written == [str(out)]
    header, *rows = out.read_text().splitlines()
    return header, rows, failures


class TestSweep:
    def test_single_point_sweep_matches_solve(self, tmp_path):
        base = "eta=0.2\nn=3\nomega_c=1.0\nr=1.0\nt_max=5\nsteps=200\ntol=1e-4\n"
        cfg = parse_config(base + "sweep=eta\nsweep_values=0.2\n")
        header, rows, failures = _run_sweep(tmp_path, cfg)
        assert not failures
        assert header == "sweep_value,t,discord,u_abs2,log_neg"
        solve_header, solve_blocks = run_scenario(parse_config(base))
        solve_rows = _rows(solve_blocks)
        cols = solve_header.split(",")
        di, ui, li = cols.index("discord"), cols.index("u_abs2"), cols.index("log_neg")
        assert len(rows) == len(solve_rows)
        for sweep_row, solve_row in zip(rows, solve_rows):
            s = sweep_row.split(",")
            v = solve_row.split(",")
            assert s[0] == "0.2"
            assert s[1] == v[0]
            assert s[2] == v[di]
            assert s[3] == v[ui]
            assert s[4] == v[li]

    def test_grid_identical_across_sweep_values(self, tmp_path):
        cfg = parse_config(
            "eta=0.1\nn=3\nomega_c=1.0\nt_max=5\nsteps=100\ntol=1e-3\n"
            "sweep=eta\nsweep_values=0.1,0.4\n"
        )
        _, rows, failures = _run_sweep(tmp_path, cfg)
        assert not failures
        groups = {}
        for row in rows:
            value, t, *_ = row.split(",")
            groups.setdefault(value, []).append(t)
        times = list(groups.values())
        assert times[0] == times[1]

    def test_decay_vs_frozen_dichotomy_across_threshold(self, tmp_path):
        # sweep straddling the eta = 0.5 bound-mode threshold: below it the
        # survival probability empties, above it it freezes near Z^2
        cfg = parse_config(
            "eta=0.08\nn=3\nomega_c=1.0\nr=1.0\nt_max=50\nsteps=2500\ntol=1e-3\n"
            "sweep=eta\nsweep_values=0.08,1.0\n"
        )
        _, rows, failures = _run_sweep(tmp_path, cfg)
        assert not failures
        final = {}
        for row in rows:
            value, t, _, u_abs2, _ = row.split(",")
            final[value] = float(u_abs2)  # last row per value wins
        assert final["0.08"] < 0.05
        assert final["1.0"] > 0.3

    def test_failed_point_recorded_and_others_kept(self, tmp_path):
        cfg = parse_config(
            "eta=0.1\nn=3\nomega_c=1.0\nt_max=20\nsteps=64\ntol=1e-14\n"
            "sweep=eta\nsweep_values=0.1\n"
        )
        header, rows, failures = _run_sweep(tmp_path, cfg)
        assert rows == []
        assert len(failures) == 1
        assert failures[0][0] == 0.1

    def test_overshooting_amplitude_is_a_failed_point(self, tmp_path, monkeypatch):
        from gaussbath import scenario

        solve = scenario.solve_amplitude

        def overshooting(*args, **kwargs):
            traj = solve(*args, **kwargs)
            return dataclasses.replace(traj, u=traj.u * (1.0 + 1e-6))

        monkeypatch.setattr(scenario, "solve_amplitude", overshooting)
        cfg = parse_config(
            "eta=0.1\nn=3\nomega_c=1.0\nt_max=5\nsteps=100\nsweep=eta\nsweep_values=0.1\n"
        )
        header, rows, failures = _run_sweep(tmp_path, cfg)
        assert rows == []
        [(value, message)] = failures
        assert value == 0.1
        assert message.startswith("|u| = 1.000001") and "exceeds 1" in message

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        # only numerical and input failures become failed sweep points, and
        # nothing is written until every point has run
        from gaussbath import scenario

        solve = scenario.solve_amplitude
        calls = []

        def broken_second(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise TypeError("broken solver")
            return solve(*args, **kwargs)

        monkeypatch.setattr(scenario, "solve_amplitude", broken_second)
        cfg = parse_config("eta=0.1\nn=3\nomega_c=1.0\nt_max=5\nsteps=100\n"
                           "sweep=eta\nsweep_values=0.1,0.2\n")
        out = tmp_path / "sweep.csv"
        with pytest.raises(TypeError, match="broken solver"):
            run_command("sweep", cfg, str(out))
        assert len(calls) == 2
        assert not out.exists()


class TestModes:
    def test_ohmic_summary_without_mode(self):
        cfg = parse_config("eta=0.08\nn=3\nomega_c=1.0\n")
        header, blocks = run_modes(cfg)
        rows = _rows(blocks)
        assert header == "E,y"
        summary = [row for row in rows if row.startswith("#")]
        assert "# exists=false" in summary
        margin = [s for s in summary if s.startswith("# superohmic_margin=")]
        assert float(margin[0].split("=")[1]) == pytest.approx(0.84, abs=1e-10)

    def test_ohmic_summary_with_mode(self):
        cfg = parse_config("eta=1.0\nn=3\nomega_c=1.0\n")
        rows = _rows(run_modes(cfg)[1])
        summary = {row.split("=")[0]: row.split("=")[1] for row in rows if row.startswith("#")}
        assert summary["# exists"] == "true"
        assert float(summary["# E_b"]) == pytest.approx(-0.58757, abs=1e-4)
        assert float(summary["# Z2"]) == pytest.approx(0.43387, abs=1e-4)

    def test_ohmic_n8_completes_with_exact_value_at_zero(self):
        # the adaptive quadrature this replaced never returned at n = 8
        cfg = parse_config("eta=1.0\nn=8\nomega_c=1.0\nomega_ref=1.0\n")
        rows = _rows(run_modes(cfg)[1])
        y0 = [float(row.split(",")[1]) for row in rows if row.startswith("0.0,")]
        assert y0 == [pytest.approx(1.0 - math.gamma(8), rel=1e-15)]
        assert "# exists=true" in rows

    def test_samples_stay_outside_support(self):
        cfg = parse_config("model=array\ng=0.02\nxi=0.05\nomega_C=1.0\nN=200\nomega0=0.8\n")
        rows = _rows(run_modes(cfg)[1])
        data = [row for row in rows if not row.startswith("#")]
        Es = np.array([float(row.split(",")[0]) for row in data])
        assert ((Es < 0.9) | (Es > 1.1)).all()
        summary = [row for row in rows if row.startswith("# lattice_modes=")]
        assert summary
        dominant = summary[0].split("=", 1)[1].split(";")[0]
        E_text, w_text = dominant.split(":")
        assert float(E_text) == pytest.approx(0.7977, abs=1e-3)
        assert float(w_text) == pytest.approx(0.985, abs=2e-3)


class TestCliEndToEnd:
    def test_solve_writes_deterministic_csv(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("eta=0.2\nn=3\nomega_c=1.0\nt_max=5\nsteps=100\ntol=1e-4\n")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["solve", "--config", str(config), "--out", str(out1)]) == 0
        assert main(["solve", "--config", str(config), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().startswith("t,u_re,u_im,u_abs2,gamma,")

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("eta=0.2\nn=3\nomega_c=1.0\nt_max=5\nsteps=100\ntol=1e-4\n")
        out = tmp_path / "r.csv"
        assert main(["solve", "--config", str(config), "--eta", "0.4", "--out", str(out)]) == 0
        # a run with the flag value inline produces identical bytes
        config2 = tmp_path / "run2.cfg"
        config2.write_text("eta=0.4\nn=3\nomega_c=1.0\nt_max=5\nsteps=100\ntol=1e-4\n")
        out2 = tmp_path / "r2.csv"
        assert main(["solve", "--config", str(config2), "--out", str(out2)]) == 0
        assert out.read_bytes() == out2.read_bytes()

    def test_cached_parser_carries_nothing_between_calls(self, tmp_path):
        # main reuses one parser per process; each call sees only its own
        # command and flags
        parser = _build_parser()
        assert _build_parser() is parser
        flagged = parser.parse_args(["solve", "--eta", "0.4", "--steps", "50", "--out", "a.csv"])
        assert (flagged.command, flagged.eta, flagged.steps, flagged.out) == (
            "solve", "0.4", "50", "a.csv"
        )
        plain = parser.parse_args(["modes", "--config", "run.cfg"])
        assert (plain.command, plain.config, plain.out) == ("modes", "run.cfg", None)
        assert all(getattr(plain, key) is None for key, (_, flag) in CONFIG_KEYS.items() if flag)
        config = tmp_path / "run.cfg"
        config.write_text("eta=0.2\nn=3\nomega_c=1.0\nt_max=5\nsteps=100\ntol=1e-4\n")
        first, again = tmp_path / "first.csv", tmp_path / "again.csv"
        assert main(["solve", "--config", str(config), "--out", str(first)]) == 0
        assert main(["modes", "--config", str(config), "--eta", "1.0", "--omega0", "1.5",
                     "--out", str(tmp_path / "modes.csv")]) == 0
        assert main(["solve", "--config", str(config), "--eta", "0.4", "--steps", "50",
                     "--out", str(tmp_path / "flagged.csv")]) == 0
        assert main(["solve", "--config", str(config), "--out", str(again)]) == 0
        assert again.read_bytes() == first.read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("eta=-1\nn=3\nomega_c=1.0\n")
        assert main(["solve", "--config", str(config)]) == 2
        assert "eta" in capsys.readouterr().err
        # a NaN flag is refused before any solve starts
        args = ["solve", "--eta", "nan", "--n", "3", "--omega-c", "1",
                "--tmax", "20", "--steps", "400", "--out", str(tmp_path / "nan.csv")]
        assert main(args) == 2
        assert "eta must be finite" in capsys.readouterr().err
        assert not (tmp_path / "nan.csv").exists()
        # zero coupling does not skip the band check: omega_C = 1 < 2 xi
        args = ["solve", "--g", "0", "--xi", "0.6", "--omega-cavity", "1",
                "--omega0", "0.8", "--out", str(tmp_path / "g0.csv")]
        assert main(args) == 2
        assert "must exceed 2*xi" in capsys.readouterr().err
        assert not (tmp_path / "g0.csv").exists()
        # an out-of-range sweep point is a config error, not a failed point
        config = tmp_path / "sweep.cfg"
        config.write_text(OHMIC_TEXT + "t_max=5\nsteps=100\nsweep=eta\nsweep_values=0.1,-1\n")
        args = ["sweep", "--config", str(config), "--out", str(tmp_path / "sweep.csv")]
        assert main(args) == 2
        assert "sweep point eta=-1.0: eta must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_overflowing_n_is_a_config_error(self, tmp_path, capsys):
        # Gamma(n+1) overflows above n = 170.6: modes and solve stop at the
        # config stage with exit 2 and write nothing
        for command in ("modes", "solve"):
            out = tmp_path / f"{command}.csv"
            args = [command, "--eta", "1.0", "--n", "200", "--omega-c", "1.0", "--out", str(out)]
            assert main(args) == 2
            assert "the Ohmic memory kernel overflows double precision (n=200.0," in (
                capsys.readouterr().err)
            assert not out.exists()
        config = tmp_path / "sweep.cfg"
        config.write_text("eta=1.0\nn=3\nomega_c=1.0\nsweep=n\nsweep_values=3,171\n")
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "s.csv")]) == 2
        assert ("sweep point n=171.0: the Ohmic memory kernel overflows double precision "
                "(n=171.0,") in capsys.readouterr().err
        # a problem of another key is reported next to the overflow, not instead of it
        args = ["solve", "--eta", "1.0", "--n", "200", "--omega-c", "1.0", "--tol", "-1",
                "--out", str(tmp_path / "tol.csv")]
        assert main(args) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: tol must be > 0, got -1.0",
            "config error: the Ohmic memory kernel overflows double precision "
            "(n=200.0, omega_c=1.0, omega_ref=1.0)",
        ]

    @pytest.mark.parametrize("argv, message", [
        # Gamma(151) is finite, (omega_c/omega_ref)^(n-1) = 1e596 is not
        (["--eta", "1", "--n", "150", "--omega-c", "100", "--omega-ref", "0.01"],
         "config error: the Ohmic memory kernel overflows double precision"),
        # every factor is finite, their product eta omega_c^3 Gamma(4) in the level shift is not
        (["--eta", "1e300", "--n", "3", "--omega-c", "1e10"],
         "config error: the Ohmic level shift at E=0.0 overflows double precision"),
        # g^2 overflows in the array kernel's carrier
        (["--model", "array", "--g", "1e200", "--xi", "0.05", "--sites", "8"],
         "config error: the array memory kernel or level shift overflows double precision"),
    ], ids=("power", "product", "array"))
    @pytest.mark.parametrize("command", ["solve", "modes"])
    def test_overflowing_kernel_is_a_config_error(self, tmp_path, capsys, command, argv, message):
        # the config stage asks spectra for the kernel at t = 0 and the level
        # shift at E = 0, so it refuses whatever overflows in the library
        out = tmp_path / "o.csv"
        assert main([command, *argv, "--tmax", "1", "--steps", "10", "--out", str(out)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("argv, lines", [
        (["--model", "ohmic", "--eta", "-1", "--n", "200", "--omega-c", "1"],
         ["config error: eta must be >= 0, got -1.0",
          "config error: the Ohmic memory kernel overflows double precision "
          "(n=200.0, omega_c=1.0, omega_ref=1.0)"]),
        (["--model", "array", "--g", "1e200", "--xi", "-1"],
         ["config error: xi must be > 0, got -1.0",
          "config error: the array memory kernel or level shift overflows double precision "
          "(g=1e+200, whose square exceeds the double range)"]),
        (["--model", "array", "--g", "1e200", "--xi", "0.6", "--sites", "0"],
         ["config error: N must be an integer >= 1, got 0",
          "config error: omega_C=1.0 must exceed 2*xi=1.2",
          "config error: the array memory kernel or level shift overflows double precision "
          "(g=1e+200, whose square exceeds the double range)"]),
        # without an overflow only the key out of range is reported
        (["--model", "ohmic", "--eta", "-1", "--n", "3", "--omega-c", "1"],
         ["config error: eta must be >= 0, got -1.0"]),
        (["--model", "array", "--g=-1e200", "--xi", "0.05"],
         ["config error: g must be >= 0, got -1e+200"]),
    ], ids=("ohmic", "array", "array-band", "ohmic-no-overflow", "array-bad-g"))
    def test_out_of_range_key_does_not_hide_an_overflow(self, tmp_path, capsys, argv, lines):
        out = tmp_path / "o.csv"
        assert main(["solve", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == lines
        assert not out.exists()

    def test_largest_squeezing_writes_finite_cells(self, tmp_path):
        # up to r = 177.79, where the pure state's I1 = cosh(2r)^2 would
        # overflow, every cell is finite; the pure state's log-negativity is 2r
        ohmic = ["--eta", "1", "--n", "3", "--omega-c", "1", "--tmax", "5", "--steps", "100"]
        out = tmp_path / "big.csv"
        for r, log_neg, discord in (("20", "40.0", 39.61370563888011),
                                    ("177.7", "355.4", 355.0137056388801)):
            assert main(["solve", *ohmic, "--r", r, "--out", str(out)]) == 0
            header, first, *rows = out.read_text().splitlines()
            cells = dict(zip(header.split(","), first.split(",")))
            assert cells["log_neg"] == log_neg
            assert float(cells["discord"]) == pytest.approx(discord, rel=1e-15)
            assert all(math.isfinite(float(x)) for row in rows for x in row.split(",")[:-1])

    def test_smallest_rings_solve(self, tmp_path, capsys):
        # 1- and 2-site rings revive to |u| = 1; a solve within its tolerance
        # of that is a solve, not an unphysical amplitude
        for sites in ("1", "2"):
            out = tmp_path / f"ring{sites}.csv"
            argv = ["solve", "--model", "array", "--g", "0.3", "--xi", "0.05", "--sites", sites,
                    "--tmax", "200", "--steps", "4000", "--tol", "1e-3", "--out", str(out)]
            assert main(argv) == 0
            assert capsys.readouterr().err == ""
            abs2 = [float(row.split(",")[3]) for row in out.read_text().splitlines()[1:]]
            assert len(abs2) == 4001 and max(abs2) <= 1.0 + 1e-15

    def test_overshoot_beyond_the_estimate_is_unphysical(self, tmp_path, capsys, monkeypatch):
        # an amplitude 1 % too large on every level converges with the same
        # estimate, 6.9e-4 here, so its overshoot of 1 % is not projected
        from gaussbath import volterra

        integrate = volterra._integrate
        monkeypatch.setattr(volterra, "_integrate", lambda *args: 1.01 * integrate(*args))
        out = tmp_path / "ring1.csv"
        argv = ["solve", "--model", "array", "--g", "0.3", "--xi", "0.05", "--sites", "1",
                "--tmax", "200", "--steps", "4000", "--tol", "1e-3", "--out", str(out)]
        assert main(argv) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("unphysical amplitude: |u| = 1.01")
        assert not out.exists()

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        config = tmp_path / "hard.cfg"
        config.write_text("eta=1.0\nn=3\nomega_c=1.0\nt_max=20\nsteps=64\ntol=1e-14\n")
        assert main(["solve", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 3
        assert "non-convergence" in capsys.readouterr().err

    def test_sweep_failure_manifest(self, tmp_path, capsys):
        # failed points leave the header-only CSV, one manifest line each and exit 3
        config = tmp_path / "hard.cfg"
        config.write_text("eta=0.1\nn=3\nomega_c=1.0\nt_max=20\nsteps=64\ntol=1e-14\n"
                          "sweep=eta\nsweep_values=0.1,0.2\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 3
        assert out.read_text() == "sweep_value,t,discord,u_abs2,log_neg\n"
        first, second = (tmp_path / "sweep.csv.failures").read_text().splitlines()
        assert first.startswith("0.1: no convergence")
        assert second.startswith("0.2: no convergence")
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [str(out)]
        assert captured.err.startswith("sweep point 0.1 failed: ")

    @pytest.mark.parametrize("command, solver", [("solve", "solve_amplitude"),
                                                 ("oracle", "exact_amplitude")])
    def test_unphysical_amplitude_exit_code(self, tmp_path, capsys, monkeypatch, command, solver):
        from gaussbath import scenario

        solve = getattr(scenario, solver)

        patched = []

        def overshooting(*args, **kwargs):
            traj = solve(*args, **kwargs)
            patched.append(dataclasses.replace(traj, u=traj.u * (1.0 + 1e-6)))
            return patched[-1]

        monkeypatch.setattr(scenario, solver, overshooting)
        out = tmp_path / "x.csv"
        code = main([
            command, "--model", "array", "--g", "0.02", "--xi", "0.05", "--omega-cavity", "1.0",
            "--sites", "8", "--omega0", "0.95", "--tmax", "5", "--steps", "100",
            "--out", str(out),
        ])
        assert code == 3
        [line] = capsys.readouterr().err.splitlines()
        [traj] = patched
        peak = float(np.abs(traj.u).max())
        assert peak == pytest.approx(1.000001, abs=1e-12)
        assert line.startswith(f"unphysical amplitude: |u| = {peak!r} exceeds 1")
        assert not out.exists()

    def test_oracle_subcommand(self, tmp_path):
        out = tmp_path / "oracle.csv"
        code = main([
            "oracle", "--model", "array", "--g", "0.02", "--xi", "0.05",
            "--omega-cavity", "1.0", "--sites", "50", "--omega0", "0.8",
            "--tmax", "20", "--steps", "200", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("t,u_re,u_im,u_abs2,")
        assert len(lines) == 202

    def test_oracle_sweep_writes_one_file_per_point(self, tmp_path, capsys):
        ring = ["--model", "array", "--g", "0.02", "--xi", "0.05", "--omega-cavity", "1.0",
                "--sites", "8", "--tmax", "5", "--steps", "100"]
        config = tmp_path / "sweep.cfg"
        config.write_text("sweep=omega0\nsweep_values=0.8,0.95\n")
        out = tmp_path / "oracle.csv"
        assert main(["oracle", "--config", str(config), *ring, "--out", str(out)]) == 0
        names = ["oracle_omega0_0.8.csv", "oracle_omega0_0.95.csv"]
        assert capsys.readouterr().out.splitlines() == [str(tmp_path / name) for name in names]
        assert not out.exists()
        for omega0, name in zip(("0.8", "0.95"), names):
            plain = tmp_path / f"plain_{omega0}.csv"
            assert main(["oracle", *ring, "--omega0", omega0, "--out", str(plain)]) == 0
            assert (tmp_path / name).read_bytes() == plain.read_bytes()

    def test_oracle_requires_finite_lattice(self, tmp_path, capsys):
        code = main([
            "oracle", "--model", "array", "--g", "0.02", "--xi", "0.05",
            "--omega0", "0.8", "--sites", "continuum",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert code == 2

    @pytest.mark.parametrize("command, text, message", [
        *((command, OPEN_CHAIN_TEXT, f"{command} supports only topology=ring, got 'open'; "
           "oracle is the only command that follows an open chain")
          for command in ("solve", "sweep", "modes")),
        # the oracle follows an open chain, but only of a finite array
        ("oracle", OHMIC_TEXT + "topology=open\n", "the oracle needs model=array with a finite N"),
    ], ids=("solve", "sweep", "modes", "oracle-ohmic"))
    def test_open_topology_is_a_config_error_outside_oracle(
        self, tmp_path, capsys, command, text, message
    ):
        # the spectral models know only the ring; an open chain would be
        # solved as a ring without notice
        config = tmp_path / "open.cfg"
        config.write_text(text + "sweep=omega0\nsweep_values=1.0\n")
        out = tmp_path / "o.csv"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
        assert not out.exists()
        assert not list(tmp_path.glob("o_*.csv"))

    def test_every_command_conflict_is_reported_at_once(self, tmp_path, capsys):
        # an open chain and no swept key: sweep cannot run it for two reasons
        config = tmp_path / "open.cfg"
        config.write_text(OPEN_CHAIN_TEXT)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: sweep supports only topology=ring, got 'open'; "
            "oracle is the only command that follows an open chain",
            "config error: sweep requires a sweep parameter (sweep=...)",
        ]
        assert not out.exists()

    def test_oracle_follows_open_topology(self, tmp_path):
        config = tmp_path / "open.cfg"
        config.write_text(OPEN_CHAIN_TEXT)
        ring, open_ = tmp_path / "ring.csv", tmp_path / "open.csv"
        assert main(["oracle", "--config", str(config), "--out", str(open_)]) == 0
        assert main(["oracle", "--config", str(config), "--topology", "ring",
                     "--out", str(ring)]) == 0
        assert len(open_.read_text().splitlines()) == 102
        assert open_.read_bytes() != ring.read_bytes()

    def test_modes_subcommand(self, tmp_path):
        out = tmp_path / "modes.csv"
        assert main(["modes", "--eta", "1.0", "--n", "3", "--omega-c", "1.0",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("E,y\n")
        assert "# exists=true" in text

    def test_unknown_figure_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--figure", "fig9z"])
        assert exc.value.code == 2

    def test_modes_at_the_exact_ohmic_threshold(self, tmp_path):
        # eta = 0.5 puts y(0) at 0 exactly; the amplitude freezes at 2/3
        out = tmp_path / "modes.csv"
        assert main(["modes", "--eta", "0.5", "--n", "3", "--omega-c", "1", "--out", str(out)]) == 0
        summary = [line for line in out.read_text().splitlines() if line.startswith("#")]
        assert summary == ["# exists=true", "# E_b=0.0", "# Z=0.6666666666666666",
                           "# Z2=0.4444444444444444", "# superohmic_margin=0.0"]

    def test_modes_at_zero_coupling(self, tmp_path):
        # the closed-form criterion needs eta > 0, so its margin line is left out
        out = tmp_path / "modes.csv"
        assert main(["modes", "--eta", "0", "--n", "3", "--omega-c", "1", "--out", str(out)]) == 0
        text = out.read_text()
        assert "# exists=false" in text
        assert "superohmic_margin" not in text

    @pytest.mark.parametrize("argv, model, omega0", [
        (["--model", "array", "--g", "1e7", "--xi", "0.05", "--omega-cavity", "1",
          "--sites", "continuum", "--omega0", "0.8"],
         CavityArraySpectrum(g=1e7, xi=0.05, omega_C=1.0), 0.8),
        (["--eta", "1e13", "--n", "1", "--omega-c", "1"],
         OhmicFamilySpectrum(eta=1e13, n=1.0, omega_c=1.0, omega_ref=1.0), 1.0),
    ])
    def test_modes_finds_far_roots(self, tmp_path, argv, model, omega0):
        # the roots lie near -1e7 and -3.2e6, millions of units from the support
        out = tmp_path / "modes.csv"
        assert main(["modes", *argv, "--out", str(out)]) == 0
        summary = dict(line[2:].split("=", 1) for line in out.read_text().splitlines()
                       if line.startswith("# "))
        assert summary["exists"] == "true"
        E_b = float(summary["E_b"])
        assert E_b < -1e6
        h = spectral_function_y(model, SystemMode(omega0), E_b) - E_b
        assert abs(h) < 1e-9 * abs(E_b)
        assert float(summary["Z2"]) == pytest.approx(0.25, rel=1e-6)

    def test_modes_margin_line_needs_omega_ref_equal_omega0(self, tmp_path):
        # the n = 3 margin assumes omega_ref = omega0; at omega_ref = 2 it
        # would read -1.0 beside exists=false
        out = tmp_path / "modes.csv"
        assert main(["modes", "--eta", "1", "--n", "3", "--omega-c", "1",
                     "--omega-ref", "2", "--out", str(out)]) == 0
        text = out.read_text()
        assert "# exists=false" in text
        assert "superohmic_margin" not in text

    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        out = tmp_path / "solve.csv"
        assert main(["solve", "--config", str(missing), "--out", str(out)]) == 2
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("config error: ") and str(missing) in err_lines[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--eta", "1", "--n", "3", "--omega-c", "1", "--tmax", "5", "--steps", "100"],
            ["reproduce", "--figure", "fig4a"],
        ],
        ids=["solve", "reproduce"],
    )
    def test_unwritable_output_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "x.csv"
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"cannot write output {str(out)!r}: {os.strerror(errno.ENOENT)}"
        ]
        assert captured.out == ""

    def test_bad_flag_value_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        base = ["solve", "--eta", "0.2", "--n", "3", "--omega-c", "1", "--out", str(out)]
        assert main([*base, "--steps", "2.5"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: invalid value for 'steps': '2.5'"
        ]
        # every bad flag is reported, not only the first
        assert main([*base, "--eta", "abc", "--steps", "2.5"]) == 2
        err_lines = capsys.readouterr().err.splitlines()
        assert err_lines[:2] == [
            "config error: invalid value for 'eta': 'abc'",
            "config error: invalid value for 'steps': '2.5'",
        ]
        assert main([*base, "--model", "foo"]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: model must be 'ohmic' or 'array'")
        assert not out.exists()

    def test_unparsed_value_is_reported_once(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        config = tmp_path / "run.cfg"
        config.write_text("eta=abc\nn=3\nomega_c=1\n")
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: line 1: invalid value for 'eta': 'abc'"
        ]
        assert main(["solve", "--eta", "abc", "--n", "3", "--omega-c", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: invalid value for 'eta': 'abc'"
        ]
        assert not out.exists()

    def test_flag_replaces_a_bad_file_value(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("eta=0.2\nn=3\nomega_c=1.0\nt_max=5\nsteps=2.5\ntol=1e-4\n")
        out = tmp_path / "r.csv"
        assert main(["solve", "--config", str(config), "--steps", "100", "--out", str(out)]) == 0

    def test_one_text_flag_per_flagged_key(self):
        parser = _build_parser()
        [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        expected = {key: [flag] for key, (_, flag) in CONFIG_KEYS.items() if flag is not None}
        expected.update(config=["--config"], out=["--out"])
        for name, sub in commands.choices.items():
            if name == "reproduce":
                continue
            actions = [a for a in sub._actions if a.dest != "help"]
            assert {a.dest: a.option_strings for a in actions} == expected
            assert len(actions) == len(expected)
            # conversion and range checks are the config parser's
            assert all(a.type is None and a.choices is None for a in actions)

    def test_reproduce_takes_no_model_flags(self, tmp_path):
        for extra in (["--eta", "5"], ["--config", str(tmp_path / "none.cfg")]):
            with pytest.raises(SystemExit) as exc:
                main(["reproduce", "--figure", "fig4a", *extra])
            assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def fig2a_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2a") / "fig2a.csv"
    assert main(["reproduce", "--figure", "fig2a", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def fig4a_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig4a") / "fig4a.csv"
    assert main(["reproduce", "--figure", "fig4a", "--out", str(out)]) == 0
    return out


def _lines(data):
    # compared as lists of byte lines: pytest diffs two long strings line by
    # line in quadratic time, but reports a list's first differing item
    return data.splitlines(keepends=True)


def _figure_config(tmp_path, figure):
    """The path of a config file holding ``figure``'s whole config, sweep included."""
    _, cfg = FIGURE_SPECS[figure]
    config = tmp_path / f"{figure}.cfg"
    config.write_text(serialize_config(cfg))
    return config


def _cli_point(tmp_path, figure, command, flags):
    """The CSV lines of a CLI run of ``figure``'s config without its sweep."""
    _, cfg = FIGURE_SPECS[figure]
    config = tmp_path / "base.cfg"
    config.write_text(serialize_config(dataclasses.replace(cfg, sweep=None, sweep_values=None)))
    out = tmp_path / f"{command}.csv"
    assert main([command, "--config", str(config), *flags, "--out", str(out)]) == 0
    return _lines(out.read_bytes())


class TestReproduce:
    def test_canned_configs_match_caption_values(self):
        specs = FIGURE_SPECS
        assert set(specs) == {
            "fig1a", "fig1b", "fig2a", "fig2b", "fig4a", "fig4b", "fig5a", "fig5b",
        }
        commands = {fig: command for fig, (command, _) in specs.items()}
        assert commands == {"fig1a": "sweep", "fig1b": "sweep", "fig2a": "solve", "fig2b": "solve",
                            "fig4a": "modes", "fig4b": "sweep", "fig5a": "solve", "fig5b": "solve"}
        cfgs = {fig: cfg for fig, (_, cfg) in specs.items()}
        # decay-rate / survival figures: eta in {0.08, 0.5, 1.0} at omega_c = omega0
        for fig in ("fig2a", "fig5a"):
            assert cfgs[fig].sweep == "eta"
            assert cfgs[fig].sweep_values == (0.08, 0.5, 1.0)
            assert cfgs[fig].omega_c == 1.0
            assert cfgs[fig].n == 3.0
        # cutoff family: omega_c in {1, 2, 3} omega0 at eta = 0.08
        for fig in ("fig2b", "fig5b"):
            assert cfgs[fig].sweep == "omega_c"
            assert cfgs[fig].sweep_values == (1.0, 2.0, 3.0)
            assert cfgs[fig].eta == 0.08
        # density plots: r = 1 and omega_c = omega0 in (a); eta = 0.08 in (b)
        assert cfgs["fig1a"].r == 1.0
        assert cfgs["fig1a"].omega_c == 1.0
        assert cfgs["fig1b"].eta == 0.08
        # cavity array: xi = 0.05, g = 0.02, N = 200; omega0/omega_C scan
        for fig in ("fig4a", "fig4b"):
            cfg = cfgs[fig]
            assert (cfg.g, cfg.xi, cfg.omega_C, cfg.N) == (0.02, 0.05, 1.0, 200)
            assert cfg.sweep == "omega0"
            assert cfg.sweep_values == (0.8, 0.85, 0.9, 0.95)

    def test_fig2a_caption_parameters(self, fig2a_out):
        for eta in ("0.08", "0.5", "1.0"):
            path = fig2a_out.parent / f"fig2a_eta_{eta}.csv"
            assert path.exists()
            lines = path.read_text().splitlines()
            assert lines[0].startswith("t,u_re")
            assert len(lines) == 2502  # t_max = 50, 2500 steps

    def test_fig2a_point_is_a_cli_solve(self, fig2a_out, tmp_path):
        expected = _lines((fig2a_out.parent / "fig2a_eta_0.5.csv").read_bytes())
        assert _cli_point(tmp_path, "fig2a", "solve", ["--eta", "0.5"]) == expected

    def test_fig2a_config_through_solve_is_the_figure(self, fig2a_out, tmp_path, capsys):
        # reproduce runs its figure's config through the figure's command
        capsys.readouterr()
        out = tmp_path / "fig2a.csv"
        assert main(["solve", "--config", str(_figure_config(tmp_path, "fig2a")),
                     "--out", str(out)]) == 0
        names = [f"fig2a_eta_{eta}.csv" for eta in ("0.08", "0.5", "1.0")]
        assert capsys.readouterr().out.splitlines() == [str(tmp_path / name) for name in names]
        for name in names:
            expected = _lines((fig2a_out.parent / name).read_bytes())
            assert _lines((tmp_path / name).read_bytes()) == expected

    def test_fig5b_writes_one_file_per_cutoff(self, tmp_path, capsys):
        out = tmp_path / "fig5b.csv"
        assert main(["reproduce", "--figure", "fig5b", "--out", str(out)]) == 0
        names = [f"fig5b_omega_c_{w}.csv" for w in ("1.0", "2.0", "3.0")]
        assert capsys.readouterr().out.splitlines() == [str(tmp_path / name) for name in names]
        assert sorted(path.name for path in tmp_path.iterdir()) == names

    def test_fig4a_existence_flags(self, fig4a_out):
        text = fig4a_out.read_text()
        assert text.startswith("omega0,E,y\n")
        # freezing dichotomy: sizable residue for 0.8/0.85, negligible above
        z2 = {}
        for line in text.splitlines():
            if line.startswith("# omega0=") and "Z2=" in line:
                key = line.split()[1].split("=")[1]
                z2[key] = float(line.split("Z2=")[1])
        assert z2["0.8"] > 0.5 and z2["0.85"] > 0.5
        assert z2["0.9"] < 0.5 and z2["0.95"] < 0.5

    def test_fig4a_config_through_modes_is_the_figure(self, fig4a_out, tmp_path):
        out = tmp_path / "modes.csv"
        assert main(["modes", "--config", str(_figure_config(tmp_path, "fig4a")),
                     "--out", str(out)]) == 0
        assert _lines(out.read_bytes()) == _lines(fig4a_out.read_bytes())

    def test_sweep_figure_keeps_the_points_around_a_failure(self, tmp_path, capsys, monkeypatch):
        from gaussbath import scenario

        solve = scenario.solve_amplitude

        def failing_at_0_9(model, mode, grid, **kwargs):
            if mode.omega0 == 0.9:
                raise ConvergenceError("no convergence (injected)", error_estimate=1.0)
            return solve(model, mode, grid, **kwargs)

        monkeypatch.setattr(scenario, "solve_amplitude", failing_at_0_9)
        out = tmp_path / "fig4b.csv"
        assert main(["reproduce", "--figure", "fig4b", "--out", str(out)]) == 3
        lines = out.read_text().splitlines()
        assert lines[0] == "sweep_value,t,discord,u_abs2,log_neg"
        assert len(lines) == 1 + 3 * 10001
        assert {line.split(",", 1)[0] for line in lines[1:]} == {"0.8", "0.85", "0.95"}
        failures = (tmp_path / "fig4b.csv.failures").read_text()
        assert failures == "0.9: no convergence (injected)\n"
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [str(out)]
        assert captured.err.splitlines() == ["sweep point 0.9 failed: no convergence (injected)"]

    def test_fig4a_block_is_a_cli_modes_run(self, fig4a_out, tmp_path):
        expected = [b"E,y\n"]
        for line in _lines(fig4a_out.read_bytes()):
            if line.startswith(b"0.85,"):
                expected.append(line.removeprefix(b"0.85,"))
            elif line.startswith(b"# omega0=0.85 "):
                expected.append(b"# " + line.removeprefix(b"# omega0=0.85 "))
        assert len(expected) > 300
        assert _cli_point(tmp_path, "fig4a", "modes", ["--omega0", "0.85"]) == expected


BLOCKED_SCIPY_RUN = """
import json, sys
sys.modules["scipy"] = None  # from here on, importing scipy or a submodule fails
import gaussbath, gaussbath.cli
# the CSV float writer is imported by the first formatted column, not here
assert "orjson" not in sys.modules
codes = [gaussbath.cli.main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(name for name in sys.modules if name.startswith("scipy."))
print(json.dumps([gaussbath.__file__, codes, loaded]))
"""


def _run_with_scipy_blocked(runs):
    """Run ``gaussbath.cli.main(argv)`` for each argv of ``runs`` in one
    fresh interpreter where importing scipy fails; returns the exit codes."""
    src = str(Path(gaussbath.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", BLOCKED_SCIPY_RUN, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    child_file, codes, loaded = json.loads(done.stdout.splitlines()[-1])  # main prints its paths first
    assert Path(child_file).parent == Path(gaussbath.__file__).parent
    assert loaded == [], done.stderr
    return codes

# one config per code path of the kernels and level shifts: the n = 0.5
# level shifts take the zeta table and, for the residue, the incomplete
# gamma function; the continuum and the ring inside its light cone take J0
BLOCKED_SCIPY_CONFIGS = {
    "ohmic3": "model=ohmic\neta=0.2\nn=3\nomega_c=1\nsweep=eta\nsweep_values=0.2,1.0\n",
    "ohmic05": "model=ohmic\neta=0.2\nn=0.5\nomega_c=1\nsweep=eta\nsweep_values=0.2,1.0\n",
    "continuum": "model=array\ng=0.02\nxi=0.05\nomega_C=1\nsweep=omega0\nsweep_values=0.8,1.0\n",
    "ring": "model=array\ng=0.02\nxi=0.05\nomega_C=1\nN=16\nsweep=omega0\nsweep_values=0.8,1.0\n",
}


def test_every_command_and_figure_runs_with_scipy_blocked(tmp_path):
    # scipy is a test dependency only; one child interpreter runs every
    # subcommand on each config above, and every distinct figure
    runs, expected = [], []
    for name, text in BLOCKED_SCIPY_CONFIGS.items():
        config = tmp_path / f"{name}.cfg"
        config.write_text(text + "omega0=0.8\nt_max=5\nsteps=100\ntol=1e-3\n")
        for command in ("solve", "sweep", "modes", "oracle"):
            runs.append([command, "--config", str(config),
                         "--out", str(tmp_path / f"{name}_{command}.csv")])
            # the lattice oracle takes only a finite ring
            expected.append(2 if command == "oracle" and name != "ring" else 0)
    # fig5a and fig5b are fig2a and fig2b
    for figure in ("fig1a", "fig1b", "fig2a", "fig2b", "fig4a", "fig4b"):
        runs.append(["reproduce", "--figure", figure, "--out", str(tmp_path / f"{figure}.csv")])
        expected.append(0)
    assert _run_with_scipy_blocked(runs) == expected


def test_ohmic_solve_never_imports_scipy(tmp_path):
    out = tmp_path / "solve.csv"
    argv = ["solve", "--eta", "0.2", "--n", "3", "--omega-c", "1", "--tmax", "5", "--steps", "100",
            "--out", str(out)]
    assert _run_with_scipy_blocked([argv]) == [0]
    assert out.read_text().startswith("t,u_re,")


def test_array_oracle_never_imports_scipy(tmp_path):
    # the lattice oracle and the config-stage overflow probe need no scipy
    out = tmp_path / "oracle.csv"
    argv = ["oracle", "--model", "array", "--g", "0.02", "--xi", "0.05", "--sites", "8",
            "--tmax", "5", "--steps", "100", "--out", str(out)]
    assert _run_with_scipy_blocked([argv]) == [0]
    assert out.read_text().startswith("t,u_re,")
