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

Charge columns exist where a charge is defined without integrating the
current: the memcapacitor (q = C_M(phi) u) and the LTI capacitor (q = C u).
Every Chebyshev series of a simulation is evaluated in one shared pass
(:func:`memsynth.chebyshev.evaluate_many`), once per output: the
memcapacitor's ``C_M(phi)`` samples feed its current, its charge and the
trace's ``C_of_t`` column alike.

CSV is written column by column (:func:`columns_to_csv`): every cell is the
shortest round-trip ``repr`` of its float64 sample.  orjson's compiled Ryu
formatter renders a whole chunk of a column at once (:func:`float_cells`);
only the cells whose layout differs from ``repr`` go through
``float.__repr__``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

import numpy as np
import orjson

from .chebyshev import evaluate_many
from .elements import ElementKind, MemoryElement
from .errors import NumericalError, ValidationError
from .harmonics import SupplyVoltage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .synthesis import LoadDecomposition


#: largest ``periods * samples_per_period`` a simulation grid may hold; at
#: the limit every waveform array (t, u, phi, sigma, each branch) is 32 MiB
MAX_GRID_SAMPLES = 2**22


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
        if int(self.samples_per_period) != self.samples_per_period or self.samples_per_period < 64:
            raise ValidationError("samples_per_period must be an integer >= 64")
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
    supply: SupplyVoltage,
    config: Optional[SimulationConfig] = None,
    indices: Optional[np.ndarray] = None,
) -> SupplyStates:
    """Sample u and the closed-form phi and sigma on the uniform grid of ``config``.

    ``indices`` picks grid samples ``k`` to take (``t_k = k dt``) instead of
    the whole grid; every sample is computed elementwise, so a picked one has
    the bits of its place in the whole grid.
    """
    config = config or SimulationConfig()
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
    """The (series, control) pairs whose samples :func:`branch_current` combines."""
    kind = element.kind
    if kind is ElementKind.MEMRISTOR:
        return [(element.incremental, states.phi)]
    if kind is ElementKind.MEMINDUCTOR:
        return [(element.incremental, states.sigma)]
    if kind is ElementKind.MEMCAPACITOR:
        series = element.incremental
        return [(series, states.phi), (series.derivative(), states.phi)]
    return []


def branch_current(
    element: MemoryElement, states: SupplyStates, samples: Optional[Sequence[np.ndarray]] = None
) -> BranchWaveforms:
    """Current, charge and capacitance (where defined) of one branch.

    ``samples`` are the values of the element's :func:`branch_series` on
    ``states``, taken from a pass shared with other branches; without them
    the branch runs its own pass.
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
    if samples is None:
        samples = evaluate_many(branch_series(element, states))
    if kind is ElementKind.MEMRISTOR:
        return BranchWaveforms(samples[0] * states.u)
    if kind is ElementKind.MEMINDUCTOR:
        return BranchWaveforms(samples[0] * states.phi)
    if kind is ElementKind.MEMCAPACITOR:
        cap, dcap = samples
        du = supply.amplitude * supply.omega * np.cos(supply.omega * states.t)
        current = cap * du + states.u * states.u * dcap
        return BranchWaveforms(current, cap * states.u, cap)
    raise ValidationError(f"unsupported element kind {kind!r}")


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

    @property
    def capacitance(self) -> Optional[np.ndarray]:
        """C_M(phi) of the memcapacitor branch, or None."""
        for branch in reversed(self.branches):
            if branch.element.kind is ElementKind.MEMCAPACITOR:
                return branch.capacitance
        return None

    @property
    def t(self) -> np.ndarray:
        return self.states.t

    @property
    def u(self) -> np.ndarray:
        return self.states.u


def simulate(
    decomposition: "LoadDecomposition", config: Optional[SimulationConfig] = None
) -> SimulationTrace:
    """Evaluate every branch of a decomposition on a fresh state grid.

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


def hysteresis_loop(element: MemoryElement, states: SupplyStates, *extra) -> tuple:
    """The element's characteristic loop, drawn over exactly ``states``.

    Returns (drive, response) pairs: (u, i) for a memristor, (u, q) for a
    memcapacitor, (phi, i) for a meminductor.  For one closed period pass
    the states of :func:`loop_indices`, one period plus the closing sample,
    so start and end coincide up to roundoff.  Each ``extra`` (series,
    control) pair is evaluated in the same Clenshaw pass as the loop, and
    its values follow drive and response in the result.
    """
    if not element.is_memory:
        raise ValidationError("hysteresis loops are defined for memory elements")
    if element.kind is ElementKind.MEMCAPACITOR:
        # q = C_M(phi) u needs no dC_M/dphi
        cap, *rest = evaluate_many([(element.incremental, states.phi), *extra])
        return (states.u, cap * states.u, *rest)
    pairs = branch_series(element, states)
    samples = evaluate_many([*pairs, *extra])
    current = branch_current(element, states, samples[: len(pairs)]).current
    drive = states.phi if element.kind is ElementKind.MEMINDUCTOR else states.u
    return (drive, current, *samples[len(pairs) :])


_GM_KINDS = (ElementKind.MEMRISTOR, ElementKind.RESISTOR)
_GAMMA_KINDS = (ElementKind.MEMINDUCTOR, ElementKind.INDUCTOR)
_CM_KINDS = (ElementKind.MEMCAPACITOR, ElementKind.CAPACITOR)

TRACE_HEADER = "t,u,phi,sigma,i_total,i_dc,i_GM,i_GammaM,i_CM,q_CM,C_of_t"

#: rows rendered at a time by :func:`columns_to_csv`; bounds the Python
#: floats and strings alive at once to one chunk's worth
CSV_CHUNK_ROWS = 1024


def repr_fallback(x: np.ndarray) -> np.ndarray:
    """Mask of the samples orjson lays out differently from ``float.__repr__``.

    For a nonzero magnitude in [1e-4, 1e16) both print the same shortest
    digits positionally (``0.0001``, ``9999999999999998.0``), and both print
    ``0.0`` and ``-0.0``.  Outside it ``repr`` switches to exponent form
    (``1e-05``, ``1e+16``) where orjson does not or spells it differently
    (``0.00009999999999999999``, ``1e16``), and orjson writes ``null`` for
    nan and the infinities.
    """
    mag = np.abs(x)
    return ~((mag >= 1e-4) & (mag < 1e16)) & (x != 0)


def float_cells(chunk: np.ndarray) -> list[str]:
    """``[repr(float(x)) for x in chunk]`` for a 1-D float64 array.

    orjson renders the whole chunk with compiled Ryu code; the cells that
    :func:`repr_fallback` picks are then rewritten by ``float.__repr__``.
    """
    chunk = np.ascontiguousarray(chunk, dtype=float)
    if not len(chunk):
        return []
    cells = orjson.dumps(chunk, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    fix = np.flatnonzero(repr_fallback(chunk))
    for k, x in zip(fix.tolist(), chunk[fix].tolist()):
        cells[k] = float.__repr__(x)
    return cells


def columns_to_csv(header: str, columns: Sequence[Optional[np.ndarray]]) -> str:
    """CSV text with one row per sample of equal-length float columns.

    A ``None`` column gives empty cells, so at least one column must be an
    array.  Every other cell is ``repr(float(column[k]))``, the shortest
    string that reads back as the same float64.  A column that holds a nan
    or an infinity raises :class:`NumericalError` before any text is made.
    """
    arrays = [None if col is None else np.asarray(col, dtype=float) for col in columns]
    lengths = {len(col) for col in arrays if col is not None}
    if len(lengths) != 1:
        raise ValueError("CSV columns must be arrays of one length, at least one of them")
    for k, col in enumerate(arrays):
        if col is not None and not np.isfinite(col).all():
            raise NumericalError(f"CSV column {k + 1} of {header!r} is not finite throughout")
    n = lengths.pop()
    chunks = [header]
    for start in range(0, n, CSV_CHUNK_ROWS):
        stop = start + CSV_CHUNK_ROWS
        cells = [repeat("") if col is None else float_cells(col[start:stop]) for col in arrays]
        chunks.append("\n".join(map(",".join, zip(*cells))))
    chunks.append("")
    return "\n".join(chunks)


def trace_to_csv(trace: SimulationTrace) -> str:
    """Render a trace with the fixed column layout.

    Branch families are summed into their columns (an LTI companion inductor
    lands in i_GammaM, a companion capacitor in i_CM) so every row satisfies
    i_total = i_dc + i_GM + i_GammaM + i_CM.  q_CM and C_of_t describe the
    memcapacitor element itself.  Families with no branch yield empty cells.
    """
    if not trace.branches:
        return TRACE_HEADER + "\n"

    def family(kinds) -> Optional[np.ndarray]:
        picked = [b.current for b in trace.branches if b.element.kind in kinds]
        if not picked:
            return None
        out = picked[0].copy()
        for extra in picked[1:]:
            out += extra
        return out

    q_cm = None
    for branch in trace.branches:
        if branch.element.kind is ElementKind.MEMCAPACITOR:
            q_cm = branch.charge
    columns = [trace.t, trace.u, trace.states.phi, trace.states.sigma, trace.i_total,
               family((ElementKind.DC_SOURCE,)), family(_GM_KINDS), family(_GAMMA_KINDS),
               family(_CM_KINDS), q_cm, trace.capacitance]
    return columns_to_csv(TRACE_HEADER, columns)
