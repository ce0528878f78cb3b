"""Synthesis of memory-element circuits from harmonic current spectra.

Given the harmonic content of the current a distorting load draws from a
sinusoidal supply, this package builds an equivalent shunt circuit of
memristive, meminductive and memcapacitive branches whose constitutive
relations are finite Chebyshev series, synthesizes the compensator that
cancels the non-active part of the current, and verifies both by time-domain
simulation.
"""

from .chebyshev import ChebyshevKind, ChebyshevSeries
from .elements import (
    ControlVariable,
    ElementKind,
    MemoryElement,
    RegularizedElement,
    default_gamma,
    element_from_dict,
    element_to_dict,
    inverse_meminductance_from_spectrum,
    memcapacitance_from_cosines,
    memductance_from_sines,
    needs_regularization,
    regularize,
    verify_series_consistency,
)
from .errors import NumericalError, ValidationError
from .harmonics import (
    HarmonicSpectrum,
    PowerSummary,
    SupplyVoltage,
    compute_powers,
    evaluate_waveform,
    fryze_split,
    project_waveform,
    spectrum_negate,
)
from .loads import (
    LoadKind,
    LoadModel,
    bridge_spectrum,
    default_n_max,
    motivating_spectrum,
    motivating_supply,
    rectifier_spectrum,
)
from .simulation import (
    BranchWaveforms,
    SimulationConfig,
    SimulationTrace,
    SupplyStates,
    TraceBranch,
    branch_current,
    hysteresis_loop,
    simulate,
    supply_states,
)
from .synthesis import (
    AssignmentPolicy,
    EvenSineRoute,
    LoadDecomposition,
    PolicyMode,
    VerificationReport,
    decompose_load,
    synthesize_conditioner,
    verify_decomposition,
)
from .textio import trace_to_csv

__version__ = "0.1.0"

__all__ = [
    "AssignmentPolicy",
    "BranchWaveforms",
    "ChebyshevKind",
    "ChebyshevSeries",
    "ControlVariable",
    "ElementKind",
    "EvenSineRoute",
    "HarmonicSpectrum",
    "LoadDecomposition",
    "LoadKind",
    "LoadModel",
    "MemoryElement",
    "NumericalError",
    "PolicyMode",
    "PowerSummary",
    "RegularizedElement",
    "SimulationConfig",
    "SimulationTrace",
    "SupplyStates",
    "SupplyVoltage",
    "TraceBranch",
    "ValidationError",
    "VerificationReport",
    "branch_current",
    "bridge_spectrum",
    "compute_powers",
    "decompose_load",
    "default_gamma",
    "default_n_max",
    "element_from_dict",
    "element_to_dict",
    "evaluate_waveform",
    "fryze_split",
    "hysteresis_loop",
    "inverse_meminductance_from_spectrum",
    "memcapacitance_from_cosines",
    "memductance_from_sines",
    "motivating_spectrum",
    "motivating_supply",
    "needs_regularization",
    "project_waveform",
    "rectifier_spectrum",
    "regularize",
    "simulate",
    "spectrum_negate",
    "supply_states",
    "synthesize_conditioner",
    "trace_to_csv",
    "verify_decomposition",
    "verify_series_consistency",
]
