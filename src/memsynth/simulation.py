"""Steady-state time-domain simulation of decomposed shunt branches.

The supply states are the closed forms of the steady state, sampled on a
uniform endpoint-exclusive grid (``t_k = k T / samples_per_period``), so
periodic averages reduce to plain means and full-period trapezoid integrals
are spectrally exact for the trigonometric polynomials handled here.

Branch currents are evaluated element by element:

* memristor       ``i = G_M(phi) u``
* meminductor     ``i = Gamma_M(sigma) phi``
* memcapacitor    ``q = C_M(phi) u``, ``i = C_M(phi) u' + u^2 dC_M/dphi``
  with the chain rule applied analytically (the derivative series is exact,
  and ``dphi/dt = u``); ``u'`` is the known closed-form cosine, never a
  numerical difference
* resistor u/R, inductor phi/L on the zero-mean flux, capacitor C u',
  dc source a constant

A memory element's series runs on its kind's control (``phi`` for the
flux, ``sigma`` for the time-integrated flux), and a memristor's or
meminductor's value multiplies the drive of its hysteresis loop; both facts
come from the kind's record in :data:`memsynth.elements.KINDS`.

Charge columns exist where a charge is defined without integrating the
current: the memcapacitor (q = C_M(phi) u) and the LTI capacitor (q = C u).
Every Chebyshev series of a simulation is evaluated in one shared pass
(:func:`memsynth.chebyshev.evaluate_many`), once per output: the
memcapacitor's ``C_M(phi)`` samples feed its current, its charge and the
trace's ``C_of_t`` column alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

import numpy as np

from .chebyshev import evaluate_many
from .elements import KINDS, ControlVariable, ElementKind, MemoryElement
from .errors import ValidationError
from .harmonics import SupplyVoltage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .synthesis import LoadDecomposition


#: largest ``periods * samples_per_period`` a simulation grid may hold; at
#: the limit every waveform array (t, u, phi, sigma, each branch) is 32 MiB
MAX_GRID_SAMPLES = 2**22

#: fewest samples per period a simulation grid may hold
MIN_SAMPLES_PER_PERIOD = 64

#: points of the constitutive curve that :func:`hysteresis_loop` draws
CONSTITUTIVE_POINTS = 1001


@dataclass(frozen=True)
class SimulationConfig:
    """Sampling plan for steady-state traces.

    The grid holds at most :data:`MAX_GRID_SAMPLES` samples, checked here,
    before anything is allocated.
    """

    periods: int = 2
    samples_per_period: int = 8192

    def __post_init__(self) -> None:
        if int(self.periods) != self.periods or self.periods < 1:
            raise ValidationError("periods must be a positive integer")
        spp = self.samples_per_period
        if int(spp) != spp or spp < MIN_SAMPLES_PER_PERIOD:
            raise ValidationError(f"samples_per_period must be an integer >= {MIN_SAMPLES_PER_PERIOD}")
        object.__setattr__(self, "periods", int(self.periods))
        object.__setattr__(self, "samples_per_period", int(self.samples_per_period))
        if self.periods * self.samples_per_period > MAX_GRID_SAMPLES:
            raise ValidationError(
                f"periods * samples_per_period = {self.periods * self.samples_per_period}"
                f" exceeds the grid limit of {MAX_GRID_SAMPLES} samples"
            )


@dataclass(frozen=True)
class SupplyStates:
    """Sampled supply voltage and its first and second time integrals."""

    supply: SupplyVoltage
    t: np.ndarray
    u: np.ndarray
    phi: np.ndarray
    sigma: np.ndarray


def supply_states(
    supply: SupplyVoltage, config: SimulationConfig, indices: Optional[np.ndarray] = None
) -> SupplyStates:
    """Sample u and the closed-form phi and sigma on the uniform grid of ``config``.

    ``indices`` picks grid samples ``k`` to take (``t_k = k dt``) instead of
    the whole grid; every sample is computed elementwise, so a picked one has
    the bits of its place in the whole grid.
    """
    if indices is None:
        indices = np.arange(config.periods * config.samples_per_period)
    dt = supply.period / config.samples_per_period
    t = indices * dt
    u = supply.voltage(t)
    phi = supply.flux(t)
    sigma = supply.integrated_flux(t)
    return SupplyStates(supply=supply, t=t, u=u, phi=phi, sigma=sigma)


def loop_indices(config: SimulationConfig) -> np.ndarray:
    """Grid samples of one closed period: 0 .. samples_per_period.

    Sample ``samples_per_period`` is t = T when the grid holds it, else
    (one period) it wraps around to sample 0.
    """
    return np.arange(config.samples_per_period + 1) % (config.periods * config.samples_per_period)


class BranchWaveforms(NamedTuple):
    """What one branch evaluation yields on a state grid."""

    current: np.ndarray
    #: q where it is defined without integrating i (capacitors), else None
    charge: Optional[np.ndarray] = None
    #: the memcapacitor's C_M(phi) samples, else None
    capacitance: Optional[np.ndarray] = None


def branch_series(element: MemoryElement, states: SupplyStates) -> list:
    """The (series, control) pairs whose samples :func:`branch_current` combines.

    A memory element's incremental series runs on its control's samples (phi
    for the flux, sigma for the time-integrated flux); a memcapacitor adds
    its derivative series.  A scalar kind has none.
    """
    if not element.is_memory:
        return []
    control = states.phi if element.control is ControlVariable.FLUX else states.sigma
    pairs = [(element.incremental, control)]
    if element.kind is ElementKind.MEMCAPACITOR:
        pairs.append((element.incremental.derivative(), control))
    return pairs


def branch_current(
    element: MemoryElement, states: SupplyStates, samples: Sequence[np.ndarray]
) -> BranchWaveforms:
    """Current, charge and capacitance (where defined) of one branch.

    ``samples`` are required: the values of the element's
    :func:`branch_series` on ``states``, in their order, as a pass of
    :func:`evaluate_many` shared with other branches gives them (none for a
    scalar kind).
    """
    supply = states.supply
    kind = element.kind
    if kind is ElementKind.DC_SOURCE:
        return BranchWaveforms(np.full_like(states.u, element.scalar_value))
    if kind is ElementKind.RESISTOR:
        return BranchWaveforms(states.u / element.scalar_value)
    if kind is ElementKind.INDUCTOR:
        phi = states.phi - states.phi.mean()  # no dc flux offset in steady state
        return BranchWaveforms(phi / element.scalar_value)
    if kind is ElementKind.CAPACITOR:
        du = supply.amplitude * supply.omega * np.cos(supply.omega * states.t)
        return BranchWaveforms(element.scalar_value * du, element.scalar_value * states.u)
    if kind is ElementKind.MEMCAPACITOR:
        cap, dcap = samples
        du = supply.amplitude * supply.omega * np.cos(supply.omega * states.t)
        current = cap * du + states.u * states.u * dcap
        return BranchWaveforms(current, cap * states.u, cap)
    # memristor G_M(phi) u, meminductor Gamma_M(sigma) phi: the value times the loop's drive
    return BranchWaveforms(samples[0] * getattr(states, KINDS[kind].loop[0]))


@dataclass(frozen=True)
class TraceBranch:
    label: str
    element: MemoryElement
    current: np.ndarray
    charge: Optional[np.ndarray] = None
    capacitance: Optional[np.ndarray] = None


@dataclass(frozen=True)
class SimulationTrace:
    """Per-branch steady-state waveforms plus their sum."""

    states: SupplyStates
    branches: tuple[TraceBranch, ...]
    i_total: np.ndarray


# a series whose argument leaves [-1, 1] by far overflows in Clenshaw; the
# writers refuse the non-finite samples that come of it (exit 3)
@np.errstate(over="ignore", invalid="ignore")
def simulate(decomposition: "LoadDecomposition", config: SimulationConfig) -> SimulationTrace:
    """Evaluate every branch of a decomposition on the state grid of ``config``.

    Every memory series of the network -- G(phi), Gamma(sigma), C(phi) and
    dC/dphi -- is sampled in one :func:`evaluate_many` pass.
    """
    states = supply_states(decomposition.supply, config)
    labelled = list(decomposition.branches())
    wanted = [branch_series(element, states) for _, element in labelled]
    samples = iter(evaluate_many([pair for pairs in wanted for pair in pairs]))
    branches = []
    total = np.zeros_like(states.u)
    for (label, element), pairs in zip(labelled, wanted):
        waves = branch_current(element, states, [next(samples) for _ in pairs])
        branches.append(TraceBranch(label, element, *waves))
        total = total + waves.current
    return SimulationTrace(states=states, branches=tuple(branches), i_total=total)


@np.errstate(over="ignore", invalid="ignore")
def hysteresis_loop(element: MemoryElement, states: SupplyStates) -> tuple:
    """The element's characteristic, drawn in one Clenshaw pass.

    Returns ``(drive, response, control, value)``.  The first two are the
    loop over exactly ``states``, named by the kind's ``loop`` in
    :data:`memsynth.elements.KINDS`: (u, i) for a memristor, (u, q) for a
    memcapacitor, (phi, i) for a meminductor.  For one closed period pass
    the states of :func:`loop_indices`, one period plus the closing sample,
    so start and end coincide up to roundoff.  The last two are the
    single-valued constitutive curve on :data:`CONSTITUTIVE_POINTS` controls
    over the steady-state range ``+-1/|scale|``; a scale that gives no
    finite range is refused with :class:`ValidationError`.
    """
    loop = KINDS[element.kind].loop
    if loop is None:
        raise ValidationError("hysteresis loops are defined for memory elements")
    series = element.constitutive
    scale = abs(series.scale)
    span = 1.0 / scale if scale else math.inf
    if not math.isfinite(span):
        raise ValidationError(f"constitutive scale {series.scale!r} gives no finite control range")
    if math.isfinite(2.0 / scale):
        control = np.linspace(-span, span, CONSTITUTIVE_POINTS)
    else:  # the step 2 * span of linspace would overflow
        control = span * np.linspace(-1.0, 1.0, CONSTITUTIVE_POINTS)
    drive = getattr(states, loop[0])
    if element.kind is ElementKind.MEMCAPACITOR:
        # q = C_M(phi) u needs no dC_M/dphi
        cap, value = evaluate_many([(element.incremental, states.phi), (series, control)])
        return drive, cap * states.u, control, value
    *samples, value = evaluate_many([*branch_series(element, states), (series, control)])
    return drive, branch_current(element, states, samples).current, control, value
