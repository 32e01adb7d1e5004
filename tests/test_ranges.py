"""One rule set for every parameter range: the config and the library agree."""

import math

import numpy as np
import pytest

from gaussbath import (
    CavityArraySpectrum,
    ConfigError,
    OhmicFamilySpectrum,
    SystemMode,
    TimeGrid,
    build_chain,
    measures_from_amplitude,
    parse_config,
    solve_amplitude,
)

OHMIC = {"eta": 0.1, "n": 3.0, "omega_c": 1.0, "omega_ref": 1.0}
ARRAY = {"g": 0.02, "xi": 0.05, "omega_C": 1.0, "N": 8}


def _ohmic(**bad):
    return OhmicFamilySpectrum(**{**OHMIC, **bad})


def _array(**bad):
    params = {**ARRAY, **bad}
    params["sites"] = params.pop("N")
    return CavityArraySpectrum(**params)


def _solve(tol):
    return solve_amplitude(_ohmic(), SystemMode(1.0), TimeGrid(1.0, 10), tol=tol)


def _chain(topology):
    return build_chain(_array(), SystemMode(1.0), topology=topology)


# (config key, bad value, base config, library call that meets the same rule)
RULES = [
    ("eta", -1.0, OHMIC, lambda v: _ohmic(eta=v)),
    ("eta", math.nan, OHMIC, lambda v: _ohmic(eta=v)),
    ("n", 0.0, OHMIC, lambda v: _ohmic(n=v)),
    ("n", math.inf, OHMIC, lambda v: _ohmic(n=v)),
    ("omega_c", -2.0, OHMIC, lambda v: _ohmic(omega_c=v)),
    ("omega_ref", 0.0, OHMIC, lambda v: _ohmic(omega_ref=v)),
    ("g", -0.02, ARRAY, lambda v: _array(g=v)),
    ("g", math.inf, ARRAY, lambda v: _array(g=v)),
    ("xi", 0.0, ARRAY, lambda v: _array(xi=v)),
    ("omega_C", -1.0, ARRAY, lambda v: _array(omega_C=v)),
    ("omega_C", 0.08, ARRAY, lambda v: _array(omega_C=v)),  # below 2*xi
    ("N", 0, ARRAY, lambda v: _array(N=v)),
    ("N", 2.5, ARRAY, lambda v: _array(N=v)),
    ("N", True, ARRAY, lambda v: _array(N=v)),
    ("omega0", 0.0, OHMIC, lambda v: SystemMode(omega0=v)),
    ("omega0", math.nan, OHMIC, lambda v: SystemMode(omega0=v)),
    ("t_max", -1.0, OHMIC, lambda v: TimeGrid(t_max=v, steps=10)),
    ("t_max", math.inf, OHMIC, lambda v: TimeGrid(t_max=v, steps=10)),
    ("steps", 1, OHMIC, lambda v: TimeGrid(t_max=1.0, steps=v)),
    ("steps", 100.0, OHMIC, lambda v: TimeGrid(t_max=1.0, steps=v)),
    ("tol", -1.0, OHMIC, _solve),
    ("tol", math.nan, OHMIC, _solve),
    ("r", -1.0, OHMIC, lambda v: measures_from_amplitude(np.array([1.0, 0.5]), v)),
    ("r", math.inf, OHMIC, lambda v: measures_from_amplitude(np.array([1.0, 0.5]), v)),
    ("r", 177.8, OHMIC, lambda v: measures_from_amplitude(np.array([1.0, 0.5]), v)),
    ("topology", "torus", ARRAY, _chain),
]


@pytest.mark.parametrize(
    "key, bad, base, call", RULES, ids=[f"{key}={bad!r}" for key, bad, _, _ in RULES]
)
def test_config_and_library_report_the_same_message(key, bad, base, call):
    with pytest.raises(ValueError) as library:
        call(bad)
    with pytest.raises(ConfigError) as config:
        parse_config("", overrides={**base, key: bad})
    assert config.value.errors == [str(library.value)]
    assert key in str(library.value)


def test_non_integer_steps_and_sites_are_config_errors():
    with pytest.raises(ConfigError) as exc:
        parse_config("", overrides={"eta": 0.1, "n": 3, "omega_c": 1, "steps": 100.0, "t_max": 1.0})
    assert exc.value.errors == ["steps must be an integer >= 2, got 100.0"]
    with pytest.raises(ConfigError) as exc:
        parse_config("", overrides={"g": 0.02, "xi": 0.05, "N": 2.5})
    assert exc.value.errors == ["N must be an integer >= 1, got 2.5"]


def test_constructor_names_every_problem_at_once():
    with pytest.raises(ValueError) as exc:
        OhmicFamilySpectrum(eta=-1, n=0, omega_c=math.nan, omega_ref=1)
    message = str(exc.value)
    for problem in ("eta must be >= 0", "n must be > 0", "omega_c must be finite"):
        assert problem in message
