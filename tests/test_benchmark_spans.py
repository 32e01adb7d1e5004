"""The benchmark's tracer still sees every span it reports.

``perfbench/spans.py`` records per-layer times by replacing gaussbath's
functions with wrappers, found by module attribute.  A refactor that calls
them through another reference (a dispatch table built at import time, a
local alias) hides their spans and silently empties a layer of the
benchmark.  These tests run the CLI commands the benchmark runs under the
tracer and check that it found every target and recorded each command's
spans: one ``run_*`` span per point, also where a sweep config's points are
written into one file.
"""

import importlib.util
from pathlib import Path

import pytest

import gaussbath.cli

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
ARRAY = ["--model", "array", "--g", "0.02", "--xi", "0.05", "--omega-cavity", "1.0",
         "--sites", "8", "--omega0", "0.95", "--tmax", "5", "--steps", "100"]
OHMIC = ["--eta", "0.2", "--n", "3", "--omega-c", "1", "--tmax", "5", "--steps", "100"]


def _tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


@pytest.mark.parametrize("command, argv, span, points", [
    ("solve", OHMIC, "scenario.run_scenario", 1),
    ("sweep", None, "scenario.run_sweep", 2),
    ("modes", OHMIC, "scenario.run_modes", 1),
    ("oracle", ARRAY, "scenario.run_oracle", 1),
    ("modes", None, "scenario.run_modes", 2),
], ids=("solve", "sweep", "modes", "oracle", "modes-sweep"))
def test_tracer_records_each_command(tmp_path, command, argv, span, points):
    if argv is None:  # a two-value sweep, written into one file
        config = tmp_path / "sweep.cfg"
        config.write_text("eta=0.2\nn=3\nomega_c=1\nt_max=5\nsteps=100\n"
                          "sweep=eta\nsweep_values=0.1,0.2\n")
        argv = ["--config", str(config)]
    tracer = _tracer_class()()
    tracer.install()
    try:
        code = gaussbath.cli.main([command, *argv, "--out", str(tmp_path / "out.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.missing == []
    names = [name for name, *_ in tracer.spans]
    assert names.count("cli.main") == names.count("scenario.write_csv") == 1
    assert names.count(span) == points
