"""Assignment of harmonic families to shunt branches, and conditioners.

``decompose_load`` splits a current spectrum into at most one branch per
slot:

* dc           -> ideal dc source
* sine terms   -> memristor (a lone positive fundamental collapses to an
                  LTI resistor; even sines may be routed to the meminductor)
* cosine terms -> memcapacitor, except odd cosines which go to the
                  meminductor under the inductive policy

The capacitive/inductive choice only moves terms between branches whose
reconstructed currents are identical, so the terminal waveform is policy
invariant.  Memcapacitor or meminductor branches that come out without a
linear term are regularized in place and their LTI companion appended.

``synthesize_conditioner`` builds the shunt network that cancels everything
but the active current: it negates the non-active part of the load current
and decomposes it.  Because the non-active spectrum never contains the
fundamental sine, a conditioner carries no active power; dc is deliberately
left untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .elements import (
    COEFF_DROP_TOLERANCE,
    ElementKind,
    MemoryElement,
    element_from_dict,
    element_to_dict,
    inverse_meminductance_from_spectrum,
    memcapacitance_from_cosines,
    memductance_from_sines,
    needs_regularization,
    regularize,
)
from .errors import ValidationError
from .harmonics import (
    HarmonicSpectrum,
    SupplyVoltage,
    _check_frequency,
    _real,
    evaluate_waveform,  # noqa: F401 - the benchmark tracer wraps it under this name
    fryze_split,
    project_waveform,
    spectrum_negate,
)
from .simulation import SimulationConfig, simulate


class PolicyMode(str, Enum):
    CAPACITIVE = "capacitive"
    INDUCTIVE = "inductive"
    AUTO = "auto"


class EvenSineRoute(str, Enum):
    MEMRISTOR = "memristor"
    MEMINDUCTOR = "meminductor"


@dataclass(frozen=True)
class AssignmentPolicy:
    """How ambiguous harmonic families are routed between branches."""

    mode: PolicyMode = PolicyMode.AUTO
    route_even_sines: EvenSineRoute = EvenSineRoute.MEMRISTOR

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", PolicyMode(self.mode))
        object.__setattr__(self, "route_even_sines", EvenSineRoute(self.route_even_sines))

    def resolve(self, spectrum: HarmonicSpectrum) -> PolicyMode:
        """Auto picks inductive exactly when the fundamental cosine is negative."""
        if self.mode is not PolicyMode.AUTO:
            return self.mode
        return PolicyMode.INDUCTIVE if spectrum.a(1) < 0.0 else PolicyMode.CAPACITIVE


DEFAULT_POLICY = AssignmentPolicy()


@dataclass(frozen=True)
class LoadDecomposition:
    """Parallel branch set reconstructing one current spectrum.

    The memristor slot holds an LTI resistor when the sine family collapses
    to a single positive fundamental.  Companions are the LTI partners added
    by regularization, in the order their elements were regularized.
    """

    supply: SupplyVoltage
    dc: Optional[MemoryElement] = None
    memristor: Optional[MemoryElement] = None
    meminductor: Optional[MemoryElement] = None
    memcapacitor: Optional[MemoryElement] = None
    companions: tuple[MemoryElement, ...] = ()

    def branches(self) -> list[tuple[str, MemoryElement]]:
        out: list[tuple[str, MemoryElement]] = []
        if self.dc is not None:
            out.append(("dc", self.dc))
        if self.memristor is not None:
            label = "resistor" if self.memristor.kind is ElementKind.RESISTOR else "memristor"
            out.append((label, self.memristor))
        if self.meminductor is not None:
            out.append(("meminductor", self.meminductor))
        if self.memcapacitor is not None:
            out.append(("memcapacitor", self.memcapacitor))
        for companion in self.companions:
            label = (
                "companion_inductor"
                if companion.kind is ElementKind.INDUCTOR
                else "companion_capacitor"
            )
            out.append((label, companion))
        return out

    @property
    def is_empty(self) -> bool:
        return not self.branches()

    def to_dict(self) -> dict:
        return {
            "supply": {"amplitude": self.supply.amplitude, "omega": self.supply.omega},
            "branches": [
                {"label": label, "element": element_to_dict(element)}
                for label, element in self.branches()
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "LoadDecomposition":
        try:
            supply = SupplyVoltage(
                _real(doc["supply"]["amplitude"], "supply amplitude"),
                _real(doc["supply"]["omega"], "supply omega"),
            )
            raw = [(b["label"], element_from_dict(b["element"])) for b in doc["branches"]]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad decomposition document: {exc}") from exc
        slots: dict[str, MemoryElement] = {}
        companions: list[MemoryElement] = []
        for label, element in raw:
            if label in ("companion_inductor", "companion_capacitor"):
                companions.append(element)
                continue
            slot = "memristor" if label == "resistor" else label
            if slot not in ("dc", "memristor", "meminductor", "memcapacitor"):
                raise ValidationError(f"unknown branch label {label!r}")
            if slot in slots:
                raise ValidationError(f"duplicate branch label {label!r}")
            slots[slot] = element
        return cls(
            supply=supply,
            dc=slots.get("dc"),
            memristor=slots.get("memristor"),
            meminductor=slots.get("meminductor"),
            memcapacitor=slots.get("memcapacitor"),
            companions=tuple(companions),
        )


def decompose_load(
    supply: SupplyVoltage,
    spectrum: HarmonicSpectrum,
    policy: AssignmentPolicy = DEFAULT_POLICY,
) -> LoadDecomposition:
    """Assign every spectral term to a realizable shunt branch."""
    _check_frequency(supply.omega, spectrum.omega)
    mode = policy.resolve(spectrum)

    sines = [(n, b) for n, b in enumerate(spectrum.sin, 1) if abs(b) >= COEFF_DROP_TOLERANCE]
    cosines = [(n, a) for n, a in enumerate(spectrum.cos, 1) if abs(a) >= COEFF_DROP_TOLERANCE]

    memristor_sines = sines
    meminductor_even_sines: list[tuple[int, float]] = []
    if policy.route_even_sines is EvenSineRoute.MEMINDUCTOR:
        memristor_sines = [(n, b) for n, b in sines if n % 2 == 1]
        meminductor_even_sines = [(n, b) for n, b in sines if n % 2 == 0]

    meminductor_odd_cosines: list[tuple[int, float]] = []
    memcap_cosines = cosines
    if mode is PolicyMode.INDUCTIVE:
        meminductor_odd_cosines = [(n, a) for n, a in cosines if n % 2 == 1]
        memcap_cosines = [(n, a) for n, a in cosines if n % 2 == 0]

    dc = None
    if abs(spectrum.dc) >= COEFF_DROP_TOLERANCE:
        dc = MemoryElement(kind=ElementKind.DC_SOURCE, scalar_value=spectrum.dc)

    memristor = None
    if memristor_sines:
        lone_fundamental = len(memristor_sines) == 1 and memristor_sines[0][0] == 1
        if lone_fundamental and memristor_sines[0][1] > 0.0:
            memristor = MemoryElement(
                kind=ElementKind.RESISTOR,
                scalar_value=supply.amplitude / memristor_sines[0][1],
            )
        else:
            memristor = memductance_from_sines(supply, memristor_sines)

    meminductor = None
    if meminductor_odd_cosines or meminductor_even_sines:
        meminductor = inverse_meminductance_from_spectrum(
            supply, meminductor_odd_cosines, meminductor_even_sines
        )

    memcapacitor = None
    if memcap_cosines:
        memcapacitor = memcapacitance_from_cosines(supply, memcap_cosines)

    companions: list[MemoryElement] = []
    if meminductor is not None and needs_regularization(meminductor):
        reg = regularize(meminductor, supply)
        meminductor, companions = reg.element, companions + [reg.companion]
    if memcapacitor is not None and needs_regularization(memcapacitor):
        reg = regularize(memcapacitor, supply)
        memcapacitor, companions = reg.element, companions + [reg.companion]

    return LoadDecomposition(
        supply=supply,
        dc=dc,
        memristor=memristor,
        meminductor=meminductor,
        memcapacitor=memcapacitor,
        companions=tuple(companions),
    )


def synthesize_conditioner(
    supply: SupplyVoltage,
    spectrum: HarmonicSpectrum,
    policy: AssignmentPolicy = DEFAULT_POLICY,
) -> LoadDecomposition:
    """Shunt network drawing the exact negative of the non-active current.

    The load keeps its dc component and its active (fundamental sine) part;
    everything else is cancelled, so the branch set contains no dc source and
    no lossy fundamental term and its average power is zero.
    """
    _, nonactive, _ = fryze_split(supply, spectrum)
    return decompose_load(supply, spectrum_negate(nonactive), policy)


@dataclass(frozen=True)
class VerificationReport:
    """Round-trip fidelity of a decomposition against its target spectrum."""

    rel_rms_error: float
    max_coefficient_error: float
    n_max: int
    samples_per_period: int


#: smallest verification grid, in samples per period
VERIFY_MIN_SAMPLES = 8192


def verification_grid(n_max: int) -> int:
    """Default verification grid: the smallest power of two >= max(8192, 4 n_max)."""
    need = max(VERIFY_MIN_SAMPLES, 4 * n_max)
    return 1 << (need - 1).bit_length()


def verify_decomposition(
    decomposition: LoadDecomposition,
    target: HarmonicSpectrum,
    config: Optional[SimulationConfig] = None,
) -> VerificationReport:
    """Simulate one period, re-project it, and compare against ``target``.

    Exactly one period is simulated, whatever ``config.periods`` says; the
    other fields of ``config`` are kept.  Without a config the grid is the
    smallest power of two holding max(8192, 4 n_max) samples, so any order
    can be verified; an explicit grid below 4 n_max samples is rejected.

    ``rel_rms_error`` is the waveform mismatch normalized by the target rms
    (absolute when the target is identically zero).  The coefficient error is
    the worst reconstructed Fourier coefficient, normalized by the largest
    target coefficient magnitude (or 1 for an empty target).
    """
    _check_frequency(decomposition.supply.omega, target.omega)
    n_max = max(target.n_max, 1)
    if config is None:
        config = SimulationConfig(periods=1, samples_per_period=verification_grid(n_max))
    spp = config.samples_per_period
    if spp < 4 * n_max:
        raise ValidationError("samples_per_period too small to resolve the target spectrum")
    current = simulate(decomposition, replace(config, periods=1)).i_total
    projected = project_waveform(current, target.omega, n_max)

    # rows (a, b) over orders 0..n_max; column 0 holds (dc, 0)
    wanted = np.zeros((2, n_max + 1))
    wanted[:, 1 : target.n_max + 1] = target.cos, target.sin
    wanted[0, 0] = target.dc
    got = np.array([(projected.dc, *projected.cos), (0.0, *projected.sin)])
    # target samples on the same endpoint-exclusive grid, by inverse real FFT
    half = (wanted[0] - 1j * wanted[1]) * (spp / 2.0)
    half[0] = target.dc * spp
    target_wave = np.fft.irfft(half, n=spp)
    target_rms = float(np.sqrt(np.mean(target_wave**2)))
    err_rms = float(np.sqrt(np.mean((current - target_wave) ** 2)))
    rel = err_rms / target_rms if target_rms > 0.0 else err_rms

    scale = float(np.max(np.abs(wanted))) or 1.0
    worst = float(np.max(np.abs(got - wanted)))
    return VerificationReport(
        rel_rms_error=rel,
        max_coefficient_error=worst / scale,
        n_max=n_max,
        samples_per_period=spp,
    )
