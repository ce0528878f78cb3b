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

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .elements import (
    COEFF_DROP_TOLERANCE,
    ElementKind,
    MemoryElement,
    _dense_terms,
    element_from_dict,
    element_to_dict,
    inverse_meminductance_from_spectrum,
    memcapacitance_from_cosines,
    memductance_from_sines,
    needs_regularization,
    orbit_scale,
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

    # negligible amplitudes count as zero; families are split by order parity
    cos = _dense_terms(spectrum.cos, "cosine amplitudes")
    sin = _dense_terms(spectrum.sin, "sine amplitudes")
    odd = np.arange(1, spectrum.n_max + 1) % 2 == 1
    zeros = np.zeros(spectrum.n_max)

    memristor_sin, meminductor_sin = sin, zeros
    if policy.route_even_sines is EvenSineRoute.MEMINDUCTOR:
        memristor_sin, meminductor_sin = np.where(odd, sin, 0.0), np.where(odd, 0.0, sin)
    memcap_cos, meminductor_cos = cos, zeros
    if mode is PolicyMode.INDUCTIVE:
        memcap_cos, meminductor_cos = np.where(odd, 0.0, cos), np.where(odd, cos, 0.0)

    dc = None
    if abs(spectrum.dc) >= COEFF_DROP_TOLERANCE:
        dc = MemoryElement(kind=ElementKind.DC_SOURCE, scalar_value=spectrum.dc)

    memristor = None
    if memristor_sin.any():
        if memristor_sin[0] > 0.0 and not memristor_sin[1:].any():
            memristor = MemoryElement(
                kind=ElementKind.RESISTOR,
                scalar_value=supply.amplitude / float(memristor_sin[0]),
            )
        else:
            memristor = memductance_from_sines(supply, memristor_sin)

    meminductor = None
    if meminductor_cos.any() or meminductor_sin.any():
        meminductor = inverse_meminductance_from_spectrum(supply, meminductor_cos, meminductor_sin)

    memcapacitor = None
    if memcap_cos.any():
        memcapacitor = memcapacitance_from_cosines(supply, memcap_cos)

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
    """Verification samples per period: the smallest power of two >= max(8192, 4 n_max)."""
    need = max(VERIFY_MIN_SAMPLES, 4 * n_max)
    return 1 << (need - 1).bit_length()


def _grid_samples(ab: np.ndarray, spp: int) -> np.ndarray:
    """Samples at ``t_k = k T / spp`` of the (a, b) rows over orders 0..top < spp/2.

    Column 0 holds (dc, 0); one inverse real FFT evaluates every order.
    """
    half = (ab[0] - 1j * ab[1]) * (spp / 2.0)
    half[0] = ab[0, 0] * spp
    return np.fft.irfft(half, n=spp)


def steady_state_current(decomposition: LoadDecomposition, spp: int) -> Optional[np.ndarray]:
    """Terminal current on the endpoint-exclusive grid of ``spp`` samples per period.

    On the steady-state orbit a memory element's argument ``scale * v`` is
    exactly ``cos(w t)`` (flux) or ``sin(w t)`` (time-integrated flux), and
    ``T_k(cos t) = cos(k t)``, ``U_k(cos t) sin t = sin((k+1) t)`` make its
    current a finite Fourier series in the incremental coefficients ``c_k``
    at orders ``m = k + 1``:

    * memristor ``A sum c_k sin(m w t)``;
    * memcapacitor ``A w sum m c_k cos(m w t)``;
    * meminductor ``-(A/w) sum c_k sin(m (pi/2 - w t))``.

    The series never reads ``scale``, so it stands for the element only when
    that scale is exactly :func:`orbit_scale` and the offset is 0.0.
    Otherwise, or when an order reaches ``spp/2``, the result is None and the
    current has to be simulated.
    """
    supply = decomposition.supply
    amp, w = supply.amplitude, supply.omega
    branches = [element for _, element in decomposition.branches()]
    top = 1
    for element in branches:
        if element.is_memory:
            series = element.incremental
            if series.offset != 0.0 or series.scale != orbit_scale(supply, element.control):
                return None
            top = max(top, len(series.coeffs))
    if 2 * top >= spp:
        return None

    ab = np.zeros((2, top + 1))
    for element in branches:
        kind, value = element.kind, element.scalar_value
        if kind is ElementKind.DC_SOURCE:
            ab[0, 0] += value
        elif kind is ElementKind.RESISTOR:
            ab[1, 1] += amp / value
        elif kind is ElementKind.INDUCTOR:
            ab[0, 1] -= amp / (w * value)
        elif kind is ElementKind.CAPACITOR:
            ab[0, 1] += value * amp * w
        else:
            c = np.array(element.incremental.coeffs)
            m = np.arange(1, len(c) + 1)
            if kind is ElementKind.MEMRISTOR:
                ab[1, m] += amp * c
            elif kind is ElementKind.MEMCAPACITOR:
                ab[0, m] += amp * w * m * c
            else:
                # -sin(m (pi/2 - t)) is (-1)^ceil(m/2) times cos(m t) at odd m
                # and times sin(m t) at even m
                ab[1 - m % 2, m] += (-1.0) ** ((m + 1) // 2) * (amp / w) * c
    return _grid_samples(ab, spp)


def verify_decomposition(
    decomposition: LoadDecomposition, target: HarmonicSpectrum
) -> VerificationReport:
    """Rebuild one period of the current, re-project it, and compare against ``target``.

    The grid is the :func:`verification_grid` of the target's order.  The
    current comes from :func:`steady_state_current`, or, for an element off
    the steady-state orbit, from :func:`simulate`.

    ``rel_rms_error`` is the waveform mismatch normalized by the target rms
    (absolute when the target is identically zero).  The coefficient error is
    the worst reconstructed Fourier coefficient, normalized by the largest
    target coefficient magnitude (or 1 for an empty target).
    """
    _check_frequency(decomposition.supply.omega, target.omega)
    n_max = max(target.n_max, 1)
    spp = verification_grid(n_max)
    current = steady_state_current(decomposition, spp)
    if current is None:
        config = SimulationConfig(periods=1, samples_per_period=spp)
        current = simulate(decomposition, config).i_total
    projected = project_waveform(current, target.omega, n_max)

    # rows (a, b) over orders 0..n_max; column 0 holds (dc, 0)
    wanted = np.zeros((2, n_max + 1))
    wanted[:, 1 : target.n_max + 1] = target.cos, target.sin
    wanted[0, 0] = target.dc
    got = np.array([(projected.dc, *projected.cos), (0.0, *projected.sin)])
    target_wave = _grid_samples(wanted, spp)
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
