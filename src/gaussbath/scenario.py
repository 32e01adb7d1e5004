"""Scenario configuration, orchestration and deterministic CSV emission.

Configs are flat ``key=value`` text ('#' starts a comment, later keys
override earlier ones, CLI flags override file values).  All outputs are
plain CSV with a fixed column order and shortest round-trip float
formatting, so identical configs reproduce byte-identical files.  Float
columns are formatted in chunks of rows by ``orjson``'s shortest round-trip
writer, one call per column and chunk.  Where ``repr`` writes plain
decimals (0 and 1e-4 <= |x| < 1e16) both write the same shortest digits
the same way; the other cells, whose ``repr`` has an exponent or is not
finite, are written by ``repr(float(x))`` itself.  Every cell is therefore
exactly ``repr(float(x))``, except nan, the one mark of a value that is not
available, which is written ``NA``.

A run over several values of one key is a sweep: ``sweep=<key>`` and
``sweep_values=<v1,v2,...>``.  ``run_command`` runs any CLI command on any
config and is the one place that writes CSV files.  It lists every reason
the command cannot run the config before it runs anything, then runs a
sweep config one point at a time, into a file per point (``solve``,
``oracle``) or tagged into one file (``sweep``, ``modes``).  The canned
figures are (command, config) pairs handed to the same runner.
"""

import dataclasses
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ._ranges import problems
from .boundmode import find_bound_mode, spectral_function_y, superohmic_criterion
from .gaussian import measures_from_amplitude
from .lattice import build_chain, discrete_bound_modes, exact_amplitude
from .spectra import CavityArraySpectrum, OhmicFamilySpectrum, level_shift_integral, memory_kernel
from .volterra import ConvergenceError, SystemMode, TimeGrid, decay_rates, solve_amplitude

SOLVE_HEADER = (
    "t,u_re,u_im,u_abs2,gamma,omega_shift,I1,I2,I3,I4,nu_minus,nu_plus,"
    "discord,mutual_info,classical,log_neg,branch"
)
SWEEP_HEADER = "t,discord,u_abs2,log_neg"
NA = "NA"
# rows formatted at a time: bounds the Python floats and strings alive besides
# the joined rows, so formatting memory does not grow with the table
_CHUNK = 512

OHMIC_KEYS = {"eta", "n", "omega_c", "omega_ref"}
ARRAY_KEYS = {"g", "xi", "omega_C", "N"}
SWEEPABLE = ("eta", "n", "omega_c", "omega_ref", "g", "xi", "omega_C", "omega0", "r")


class ConfigError(Exception):
    """Carries the full list of configuration problems, not just the first."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _parse_sites(text):
    if text == "continuum":
        return None
    return int(text)


def _parse_values(text):
    values = tuple(float(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError("no sweep values")
    return values


def _key(flag, parse=float, default=None):
    """A config key: its default, the parser of its text and its CLI flag
    (None for the keys only a config file sets)."""
    return dataclasses.field(default=default, metadata={"parse": parse, "flag": flag})


@dataclass(frozen=True)
class ScenarioConfig:
    """One config; the fields are the config keys, in the order
    serialize_config writes them."""

    model: str = _key("--model", str, dataclasses.MISSING)
    eta: float | None = _key("--eta")
    n: float | None = _key("--n")
    omega_c: float | None = _key("--omega-c")
    omega_ref: float | None = _key("--omega-ref")
    g: float | None = _key("--g")
    xi: float | None = _key("--xi")
    omega_C: float | None = _key("--omega-cavity")
    N: int | None = _key("--sites", _parse_sites)
    omega0: float = _key("--omega0", default=1.0)
    r: float = _key("--r", default=1.0)
    t_max: float = _key("--tmax", default=50.0)
    steps: int = _key("--steps", int, 5000)
    tol: float = _key("--tol", default=1e-5)
    topology: str = _key("--topology", str, "ring")
    sweep: str | None = _key(None, str)
    sweep_values: tuple | None = _key(None, _parse_values)


# every config key -> (the parser of its text, its CLI flag)
CONFIG_KEYS = {
    field.name: (field.metadata["parse"], field.metadata["flag"])
    for field in dataclasses.fields(ScenarioConfig)
}


def parse_config(text, overrides=None):
    """Parse ``key=value`` text (plus optional override mapping) into a
    validated ScenarioConfig; raises ConfigError listing every problem.
    Overrides replace file values before conversion; one given as text is
    parsed like a file value, any other is taken as already typed."""
    errors = []
    raw = {}  # key -> (value, prefix of its error messages)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected key=value, got {line!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        raw[key] = (value, f"line {lineno}: ")
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in CONFIG_KEYS:
            errors.append(f"unknown key {key!r}")
            continue
        raw[key] = (value, "")
    values = {}
    for key, (value, where) in raw.items():
        try:
            values[key] = CONFIG_KEYS[key][0](value) if isinstance(value, str) else value
        except ValueError:
            errors.append(f"{where}invalid value for {key!r}: {value!r}")
    return _build_config(values, errors, given=raw.keys())


def _value_errors(values, model, complete):
    """Range, model-key and cross-key problems of one set of parameter values;
    for ``complete`` ones (model and required keys good) also an overflow that
    spectra finds in the memory kernel at t = 0 or the level shift at E = 0."""
    errors = []
    if model == "ohmic" and not ARRAY_KEYS.isdisjoint(values):
        errors.append("array keys (g, xi, omega_C, N) are invalid for model=ohmic")
    if model == "array" and not OHMIC_KEYS.isdisjoint(values):
        errors.append("Ohmic-family keys (eta, n, omega_c, omega_ref) are invalid for model=array")
    errors.extend(problems(values))
    if not complete:
        return errors
    try:
        spectrum = build_model(ScenarioConfig(**{**values, "model": model}))
    except ValueError:
        # a model key out of range, named above, must not hide an overflow of
        # the others: eta is a factor of the Ohmic kernel and level shift, so
        # its magnitude overflows as it does, and an array's g^2 overflows
        # whatever its band, probed on one whose level shift at E = 0 is g^2/sqrt(3)
        if model == "ohmic":
            stand_in = {"eta": abs(values["eta"])}
        else:
            stand_in = {"xi": 0.5, "omega_C": 2.0, "N": None}
        try:
            spectrum = build_model(ScenarioConfig(**{**values, **stand_in, "model": model}))
        except ValueError:
            return errors
    try:
        with np.errstate(all="ignore"):  # an overflow is reported, not warned of
            at_zero = [memory_kernel(spectrum, 0.0), level_shift_integral(spectrum, 0.0)]
    except ValueError as exc:
        return [*errors, str(exc)]
    if not np.isfinite(at_zero).all():
        errors.append(f"the {model} memory kernel or level shift overflows double precision")
    return errors


def _build_config(values, errors, given):
    """Check the converted ``values``; ``given`` also holds the keys whose
    text did not convert, already in ``errors``, so none reads as missing."""
    errors = list(errors)
    model = values.get("model")
    has_ohmic = not OHMIC_KEYS.isdisjoint(given)
    has_array = not ARRAY_KEYS.isdisjoint(given)
    if model is None:
        if has_ohmic and not has_array:
            model = "ohmic"
        elif has_array and not has_ohmic:
            model = "array"
        elif has_ohmic and has_array:
            errors.append("both Ohmic-family and array keys given; set model= explicitly")
        else:
            errors.append("no model parameters given")
    elif model not in ("ohmic", "array"):
        errors.append(f"model must be 'ohmic' or 'array', got {model!r}")

    required = {"ohmic": ("eta", "n", "omega_c"), "array": ("g", "xi")}.get(model, ())
    errors.extend(f"model={model} requires {key}" for key in required if key not in given)
    if model == "array":
        values.setdefault("omega_C", 1.0)
    complete = not errors
    base_errors = _value_errors(values, model, complete)
    errors.extend(base_errors)

    sweep = values.get("sweep")
    if sweep is not None and sweep not in SWEEPABLE:
        errors.append(f"sweep parameter must be one of {SWEEPABLE}, got {sweep!r}")
    if sweep is not None and "sweep_values" not in given:
        errors.append("sweep requires sweep_values")
    if sweep is None and "sweep_values" in given:
        errors.append("sweep_values requires sweep")
    if sweep in SWEEPABLE:
        # every sweep point is a config of its own: check it like one
        for value in values.get("sweep_values") or ():
            point_errors = _value_errors({**values, sweep: value}, model, complete)
            errors.extend(f"sweep point {sweep}={value!r}: {problem}"
                          for problem in point_errors if problem not in base_errors)

    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(**{**values, "model": model})


def _fmt(x):
    return repr(float(x))


def _config_text(value):
    if isinstance(value, tuple):
        return ",".join(map(_config_text, value))
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def serialize_config(cfg):
    """Canonical key=value rendering; parse_config(serialize_config(c)) == c."""
    lines = []
    for key in CONFIG_KEYS:
        value = getattr(cfg, key)
        if key == "N" and value is None and cfg.model == "array":
            value = "continuum"
        if value is None:
            continue
        lines.append(f"{key}={_config_text(value)}")
    return "\n".join(lines) + "\n"


def build_model(cfg):
    if cfg.model == "ohmic":
        omega_ref = cfg.omega_ref if cfg.omega_ref is not None else cfg.omega0
        return OhmicFamilySpectrum(eta=cfg.eta, n=cfg.n, omega_c=cfg.omega_c, omega_ref=omega_ref)
    return CavityArraySpectrum(g=cfg.g, xi=cfg.xi, omega_C=cfg.omega_C, sites=cfg.N)


def _solve(cfg):
    """The Volterra solve of one config (not a sweep)."""
    grid = TimeGrid(t_max=cfg.t_max, steps=cfg.steps)
    return solve_amplitude(build_model(cfg), SystemMode(omega0=cfg.omega0), grid, tol=cfg.tol)


def _float_texts(values):
    """repr(float(x)) of each entry of a float array, NA for a nan, as a
    list of strings.

    orjson writes the shortest round-trip digits of every finite double, and
    lays them out as repr does wherever repr writes no exponent: 0 and
    1e-4 <= |x| < 1e16, the same rule repr itself uses.  Outside that range
    (where orjson writes 1e16 for repr's 1e+16, 0.00001 for 1e-05 and null
    for nan or inf) the cells are overwritten by repr, or by NA for nan."""
    # imported on first use, so importing gaussbath.cli does not pay for it
    import orjson

    values = np.ascontiguousarray(values, dtype=float)
    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(",")
    size = np.abs(values)
    plain = (size >= 1e-4) & (size < 1e16) | (values == 0)
    for i in np.flatnonzero(~plain).tolist():
        x = float(values[i])
        texts[i] = repr(x) if x == x else NA  # nan alone is unequal to itself
    return texts


def _text_chunks(arrays):
    """Text of equal-length float arrays, _CHUNK rows at a time: yields one
    list of strings per array (see _float_texts) for each chunk of rows."""
    for lo in range(0, len(arrays[0]), _CHUNK):
        yield [_float_texts(a[lo : lo + _CHUNK]) for a in arrays]


def _trajectory_rows(cfg, traj):
    rates = decay_rates(traj)
    meas = measures_from_amplitude(traj.u, cfg.r)
    u = traj.u
    # on this state family I2 = I1, nu_plus = nu_minus and the discord branch
    # is always the top one, so I1 and nu are formatted once and written twice
    arrays = (
        traj.times, u.real, u.imag, np.abs(u) ** 2, rates.gamma, rates.omega_shift,
        meas["I1"], meas["I3"], meas["I4"], meas["nu_minus"],
        meas["discord"], meas["mutual_info"], meas["classical"], meas["log_neg"],
    )
    rows = []
    for t, re, im, abs2, gamma, shift, i1, i3, i4, nu, *measures in _text_chunks(arrays):
        cells = zip(t, re, im, abs2, gamma, shift, i1, i1, i3, i4, nu, nu, *measures, repeat("top"))
        rows.extend(map(",".join, cells))
    return rows


def run_scenario(cfg):
    """Solve one scenario; returns (header, row lines) for the solve CSV."""
    return SOLVE_HEADER, _trajectory_rows(cfg, _solve(cfg))


def run_oracle(cfg):
    """Exact finite-lattice amplitude pushed through the same CSV pipeline."""
    H = build_chain(build_model(cfg), SystemMode(omega0=cfg.omega0), topology=cfg.topology)
    traj = exact_amplitude(H, TimeGrid(t_max=cfg.t_max, steps=cfg.steps))
    return SOLVE_HEADER, _trajectory_rows(cfg, traj)


def _sweep_points(cfg):
    """Yield (value, config of that point) for each value of cfg's sweep.
    Values come as Python floats, whose repr in a failure line is their
    shortest digits also where a canned figure holds numpy floats."""
    for value in map(float, cfg.sweep_values):
        yield value, dataclasses.replace(cfg, sweep=None, sweep_values=None, **{cfg.sweep: value})


def run_sweep(cfg, *lead):
    """Discord, |u|^2 and log-negativity of one solve as (header, rows), rows led by ``lead``."""
    traj = _solve(cfg)
    meas = measures_from_amplitude(traj.u, cfg.r)
    arrays = (traj.times, meas["discord"], np.abs(traj.u) ** 2, meas["log_neg"])
    rows = []
    for columns in _text_chunks(arrays):
        rows.extend(map(",".join, zip(*map(repeat, lead), *columns)))
    return SWEEP_HEADER, rows


def _mode_summary_lines(model, mode):
    bm = find_bound_mode(model, mode)
    lines = [f"# exists={'true' if bm.exists else 'false'}"]
    if bm.exists:
        lines.append(f"# E_b={_fmt(bm.E_b)}")
        lines.append(f"# Z={_fmt(bm.Z)}")
        lines.append(f"# Z2={_fmt(bm.Z ** 2)}")
        if len(bm.roots) > 1:
            roots = ";".join(f"{_fmt(E)}:{_fmt(Z)}" for E, Z in bm.roots)
            lines.append(f"# roots={roots}")
    # the closed-form criterion needs eta > 0 and omega_ref = omega0
    ohmic = isinstance(model, OhmicFamilySpectrum)
    if ohmic and model.n == 3 and model.eta > 0 and model.omega_ref == mode.omega0:
        _, margin = superohmic_criterion(model.eta, model.omega_c, mode.omega0)
        lines.append(f"# superohmic_margin={_fmt(margin)}")
    if isinstance(model, CavityArraySpectrum) and model.sites is not None:
        modes = discrete_bound_modes(build_chain(model, mode))
        rendered = ";".join(f"{_fmt(E)}:{_fmt(w)}" for E, w in modes)
        lines.append(f"# lattice_modes={rendered}")
    return lines


_MODE_SAMPLES = 150  # y(E) samples per side of an array's support; 2n + 1 on E <= 0


def _mode_sample_energies(model):
    if isinstance(model, OhmicFamilySpectrum):
        span = 3.0 * max(model.omega_c, 1.0)
        return [np.linspace(-span, 0.0, 2 * _MODE_SAMPLES + 1)]
    lo, hi = model.support
    width = 6.0 * model.xi
    gap = 1e-9 * model.omega_C
    return [
        np.linspace(lo - width, lo - gap, _MODE_SAMPLES),
        np.linspace(hi + gap, hi + width, _MODE_SAMPLES),
    ]


def run_modes(cfg, *lead):
    """y(E) samples outside the support, led by ``lead``, and a bound-mode summary block."""
    model = build_model(cfg)
    mode = SystemMode(omega0=cfg.omega0)
    rows = []
    for grid in _mode_sample_energies(model):
        for energies, values in _text_chunks([grid, spectral_function_y(model, mode, grid)]):
            rows.extend(map(",".join, zip(*map(repeat, lead), energies, values)))
    rows.extend(_mode_summary_lines(model, mode))
    return "E,y", rows


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([header, *rows]) + "\n")


def run_command(command, cfg, out):
    """Run one CLI command on ``cfg`` and write its CSV output to ``out``;
    returns (written paths, failed sweep points as (value, message)).

    Every reason the command cannot run the config is raised first, as one
    ConfigError.  Given a sweep config, ``solve`` and ``oracle`` write one file
    per point, named after the stem of ``out`` and the swept key and value;
    ``sweep`` and ``modes`` write every point's rows, led by its value, into ``out``.
    """
    errors = []
    if command != "oracle" and cfg.topology != "ring":
        # the spectral models know only the ring
        errors.append(f"{command} supports only topology=ring, got {cfg.topology!r}; "
                      "oracle is the only command that follows an open chain")
    if command == "oracle" and (cfg.model != "array" or cfg.N is None):
        errors.append("the oracle needs model=array with a finite N")
    if command == "sweep" and cfg.sweep is None:
        errors.append("sweep requires a sweep parameter (sweep=...)")
    if errors:
        raise ConfigError(errors)
    runs = {"solve": run_scenario, "sweep": run_sweep, "oracle": run_oracle, "modes": run_modes}
    run = runs[command]
    if cfg.sweep is None:
        write_csv(out, *run(cfg))
        return [out], []
    if command in ("solve", "oracle"):
        stem = out.removesuffix(".csv")
        written = []
        for value, point in _sweep_points(cfg):
            path = f"{stem}_{cfg.sweep}_{_fmt(value)}.csv"
            write_csv(path, *run(point))
            written.append(path)
        return written, []
    # only sweep records a point that does not converge or is unphysical, and goes on
    recorded = (ConvergenceError, ValueError) if command == "sweep" else ()
    rows, failures = [], []
    for value, point in _sweep_points(cfg):
        tag = _fmt(value)
        try:
            # the tag is a cell of each row's own join, not a second copy of the row
            _, point_rows = run(point, tag)
        except recorded as exc:
            failures.append((value, str(exc)))
            continue
        if command == "modes":  # its '#' summary lines name the point too
            point_rows = [f"# {cfg.sweep}={tag} {r[2:]}" if r[0] == "#" else r for r in point_rows]
        rows += point_rows
    write_csv(out, "sweep_value," + SWEEP_HEADER if command == "sweep" else f"{cfg.sweep},E,y", rows)
    return [out], failures


# ---------------------------------------------------------------------------
# canned figure-reproduction scenarios (caption parameter values)

_OHMIC_BASE = dict(model="ohmic", n=3.0, omega_c=1.0, omega0=1.0, r=1.0,
                   t_max=50.0, steps=2500, tol=1e-3)
_ARRAY_BASE = dict(model="array", g=0.02, xi=0.05, omega_C=1.0, N=200, r=1.0)


# figure -> (command, config); a figure of several runs sweeps one key
FIGURE_SPECS = {
    "fig1a": ("sweep", ScenarioConfig(
        **_OHMIC_BASE, eta=0.05, sweep="eta",
        sweep_values=tuple(np.round(np.arange(1, 21) * 0.05, 2)))),
    "fig1b": ("sweep", ScenarioConfig(
        **_OHMIC_BASE, eta=0.08, sweep="omega_c",
        sweep_values=tuple(np.round(np.arange(1, 13) * 0.25, 2)))),
    "fig2a": ("solve", ScenarioConfig(
        **_OHMIC_BASE, eta=0.08, sweep="eta", sweep_values=(0.08, 0.5, 1.0))),
    "fig2b": ("solve", ScenarioConfig(
        **_OHMIC_BASE, eta=0.08, sweep="omega_c", sweep_values=(1.0, 2.0, 3.0))),
    "fig4a": ("modes", ScenarioConfig(
        **_ARRAY_BASE, omega0=0.8, sweep="omega0", sweep_values=(0.8, 0.85, 0.9, 0.95))),
    "fig4b": ("sweep", ScenarioConfig(
        **_ARRAY_BASE, omega0=0.8, t_max=500.0, steps=10000, tol=1e-3, sweep="omega0",
        sweep_values=(0.8, 0.85, 0.9, 0.95))),
}
# fig5a/fig5b plot |u(t)|^2 of the same runs as fig2a/fig2b
FIGURE_SPECS["fig5a"] = FIGURE_SPECS["fig2a"]
FIGURE_SPECS["fig5b"] = FIGURE_SPECS["fig2b"]
FIGURES = tuple(sorted(FIGURE_SPECS))
