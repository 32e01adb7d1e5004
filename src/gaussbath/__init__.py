"""Non-Markovian decoherence of two-mode Gaussian states in structured baths.

The package solves the exact memory-kernel equation for the survival
amplitude u(t) of a cavity mode coupled to an Ohmic-family or coupled-cavity
reservoir, locates the bound (localized) modes responsible for frozen steady
states, and tracks Gaussian quantum discord and related correlation measures
of an initially two-mode squeezed state.
"""

from .boundmode import (
    BoundMode,
    find_bound_mode,
    spectral_function_y,
    superohmic_criterion,
)
from .gaussian import PhysicalityError, measures_from_amplitude
from .lattice import build_chain, discrete_bound_modes, exact_amplitude
from .scenario import ConfigError, ScenarioConfig, parse_config, serialize_config
from .spectra import (
    CavityArraySpectrum,
    OhmicFamilySpectrum,
    SupportError,
    level_shift_integral,
    memory_kernel,
)
from .volterra import (
    AmplitudeTrajectory,
    ConvergenceError,
    DecayRateSeries,
    SystemMode,
    TimeGrid,
    decay_rates,
    solve_amplitude,
)

__version__ = "0.1.0"
