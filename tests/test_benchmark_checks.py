"""The benchmark's correctness checks still accept what the CLI writes.

``perfbench/checks.py`` compares every benchmark output with the lattice
oracle through ``build_chain``, ``exact_amplitude`` and
``discrete_bound_modes``.  A change to those functions or to the CSV layout
could break that check without any other test failing, and the benchmark
would then refuse every run.  These tests write small ring outputs through
``gaussbath.cli.main`` and check them as the benchmark does.
"""

import importlib.util
from pathlib import Path

import pytest

import gaussbath.cli
from gaussbath.scenario import CONFIG_KEYS

CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
RING = dict(model="array", g=0.02, xi=0.05, omega_C=1.0, N=8, omega0=0.95,
            t_max=20.0, steps=200, tol=1e-3)


def _check_point():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.check_point


def _run(tmp_path, command, sweep=None):
    """One benchmark point record, its output written by the CLI."""
    out = tmp_path / f"{command}.csv"
    argv = [command, "--out", str(out)]
    for key, value in RING.items():
        argv += [CONFIG_KEYS[key][1], str(value)]
    if sweep is not None:
        config = tmp_path / "sweep.cfg"
        config.write_text(f"sweep={sweep}\nsweep_values={RING[sweep]!r}\n")
        argv += ["--config", str(config)]
    assert gaussbath.cli.main(argv) == 0
    return {"command": command, "params": dict(RING), "sweep": sweep, "out": str(out)}


@pytest.mark.parametrize("command, sweep", [
    ("modes", None), ("oracle", None), ("solve", None), ("sweep", "omega0"),
])
def test_cli_outputs_pass_the_benchmark_checks(tmp_path, command, sweep):
    problems, err = _check_point()(_run(tmp_path, command, sweep))
    assert problems == []
    if command in ("solve", "sweep"):  # a finite-ring Volterra point has a lattice error
        assert 0 <= err < RING["tol"]


def test_checks_see_a_wrong_residue(tmp_path):
    # the guard means something only if the checks can fail: prefix the
    # first root's residue with a 1, so Z reads about 10 instead of 0.023
    point = _run(tmp_path, "modes")
    path = Path(point["out"])
    lines = path.read_text().splitlines()
    lines = [line.replace(":", ":1", 1) if line.startswith("# roots=") else line
             for line in lines]
    path.write_text("\n".join(lines) + "\n")
    problems, _ = _check_point()(point)
    assert len(problems) == 1 and problems[0].startswith("bound mode (")
