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

A :class:`LoadDecomposition` holds its branches as one tuple in that slot
order, companions last; each kind's label and slot are its record in
:data:`memsynth.elements.KINDS`.  Its constructor is the one place the order
and the one-element-per-slot rule are checked, so every decomposition that
can be built writes a document that reads back equal.  Its verification
rows (:func:`steady_state_rows`) read each branch as a series of the
family its kind's ``column`` names.

``synthesize_conditioner`` builds the shunt network that cancels everything
but the active current: it negates the non-active part of the load current
and decomposes it.  Because the non-active spectrum never contains the
fundamental sine, a conditioner carries no active power; dc is deliberately
left untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .elements import (
    COEFF_DROP_TOLERANCE,
    COMPANION_SLOT,
    KINDS,
    ElementKind,
    MemoryElement,
    _dense_terms,
    check_series_consistency,
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
from .simulation import simulate  # noqa: F401 - the benchmark tracer wraps it under this name


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

    ``elements`` holds the branches in slot order (:data:`KINDS`): a dc
    source, a memristor (an LTI resistor when the sine family collapses to a
    single positive fundamental), a meminductor and a memcapacitor, each at
    most once, then the LTI companions added by regularization, in the order
    their elements were regularized.  A tuple out of slot order, or with a
    second element in one of the first four slots, is refused.
    """

    supply: SupplyVoltage
    elements: tuple[MemoryElement, ...] = ()

    def __post_init__(self) -> None:
        # a list would stay mutable past the check
        object.__setattr__(self, "elements", tuple(self.elements))
        last = -1
        for element in self.elements:
            label, slot = KINDS[element.kind][:2]
            if slot < last:
                raise ValidationError(f"branch {label!r} is out of slot order")
            if slot == last and slot != COMPANION_SLOT:
                raise ValidationError(f"duplicate branch label {label!r}")
            last = slot

    def branches(self) -> list[tuple[str, MemoryElement]]:
        return [(KINDS[element.kind].label, element) for element in self.elements]

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
        """Read a decomposition whose branches may come in any order.

        Each label must be its element's; the elements are stably sorted by
        slot, so companions keep their document order.
        """
        try:
            supply = SupplyVoltage(
                _real(doc["supply"]["amplitude"], "supply amplitude"),
                _real(doc["supply"]["omega"], "supply omega"),
            )
            raw = [(b["label"], element_from_dict(b["element"])) for b in doc["branches"]]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad decomposition document: {exc}") from exc
        for label, element in raw:
            expected = KINDS[element.kind].label
            if label != expected:
                raise ValidationError(
                    f"branch label {label!r} does not match its element kind"
                    f" {element.kind.value!r}, whose label is {expected!r}"
                )
        elements = sorted((element for _, element in raw), key=lambda e: KINDS[e.kind].slot)
        return cls(supply, tuple(elements))


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

    # a supply at the edge of the float64 range can over- or underflow a
    # series term; simulate would then reject the written element
    for element in (memristor, meminductor, memcapacitor):
        if element is not None and element.is_memory:
            check_series_consistency(
                element, f"{element.kind.value} on supply omega {supply.omega!r}"
            )

    elements = (dc, memristor, meminductor, memcapacitor, *companions)
    return LoadDecomposition(supply, tuple(e for e in elements if e is not None))


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


def verification_grid(order: int) -> int:
    """Verification samples per period for currents up to harmonic ``order``.

    The smallest power of two >= 4 order: every order then sits below a
    quarter of the grid, so none aliases and none reaches the Nyquist order.
    """
    return 1 << (4 * order - 1).bit_length()


@np.errstate(over="ignore", invalid="ignore")
def _grid_samples(ab: np.ndarray, spp: int) -> np.ndarray:
    """Samples at ``t_k = k T / spp`` of the (a, b) rows over orders 0..top < spp/2.

    Column 0 holds (dc, 0); one inverse real FFT evaluates every order.  A
    sum beyond the float64 range reads inf or nan, without a warning;
    projecting it is refused.
    """
    half = (ab[0] - 1j * ab[1]) * 0.5
    half[0] = ab[0, 0]
    # an unscaled inverse: a coefficient times spp/2 could overflow where
    # every sample is finite
    return np.fft.irfft(half, n=spp, norm="forward")


@np.errstate(over="ignore", invalid="ignore")
def steady_state_rows(decomposition: LoadDecomposition) -> np.ndarray:
    """(a, b) rows of the terminal current over orders 0..top; column 0 holds (dc, 0).

    On the steady-state orbit a memory element's argument ``scale * v`` is
    exactly ``cos(w t)`` (flux) or ``sin(w t)`` (time-integrated flux), and
    ``T_k(cos t) = cos(k t)``, ``U_k(cos t) sin t = sin((k+1) t)`` make its
    current a finite Fourier series in the incremental coefficients ``c_k``
    at orders ``m = k + 1``:

    * memristor ``A sum c_k sin(m w t)``;
    * memcapacitor ``A w sum m c_k cos(m w t)``;
    * meminductor ``-(A/w) sum c_k sin(m (pi/2 - w t))``.

    An LTI branch is the one-term series ``c_0`` of the family it shares
    with a memory kind (its ``column`` in :data:`KINDS`): ``1/R``,
    ``C`` or ``1/L``.  A dc source fills column 0.

    ``top`` is the longest memory series, at least 1.  The series never
    reads ``scale``, so it stands for the element only when that scale is
    exactly :func:`orbit_scale`; any other scale is refused.  A row beyond
    the float64 range reads inf, without a warning.
    """
    supply = decomposition.supply
    amp, w = supply.amplitude, supply.omega
    branches = decomposition.branches()
    top = 1
    for label, element in branches:
        if element.is_memory:
            series = element.incremental
            orbit = orbit_scale(supply, element.control)
            if series.scale != orbit:
                raise ValidationError(
                    f"{label} scale {series.scale!r} is off the steady-state orbit,"
                    f" whose scale is {orbit!r}"
                )
            top = max(top, len(series.coeffs))

    ab = np.zeros((2, top + 1))
    for _, element in branches:
        kind, value = element.kind, element.scalar_value
        if kind is ElementKind.DC_SOURCE:
            ab[0, 0] += value
            continue
        # an LTI branch is its family's one-term series at order 1: C, or 1/R
        # or 1/L, which are divided out below so a subnormal R or L cannot
        # overflow them
        c = element.incremental.coeffs if element.is_memory else value
        m = np.arange(1, len(c) + 1) if element.is_memory else 1
        family = KINDS[kind].column
        if family == "i_GM":
            row, gain = 1, amp
        elif family == "i_CM":
            row, gain = 0, amp * w * m
        else:
            # -sin(m (pi/2 - t)) is (-1)^ceil(m/2) times cos(m t) at odd m
            # and times sin(m t) at even m
            row, gain = 1 - m % 2, (-1.0) ** ((m + 1) // 2) * (amp / w)
        if kind in (ElementKind.RESISTOR, ElementKind.INDUCTOR):
            ab[row, m] += gain / value
        else:
            ab[row, m] += gain * c
    return ab


def verify_decomposition(
    decomposition: LoadDecomposition, target: HarmonicSpectrum
) -> VerificationReport:
    """Rebuild one period of the current, re-project it, and compare against ``target``.

    The current is sampled from :func:`steady_state_rows`, so an element off
    the steady-state orbit is refused.  The grid is the
    :func:`verification_grid` of the larger of the target's ``n_max`` and
    the rows' top order, so a term the target lacks can neither alias nor
    vanish on the grid.

    ``rel_rms_error`` is the waveform mismatch normalized by the target rms
    (absolute when the target is identically zero).  The coefficient error is
    the worst reconstructed Fourier coefficient, normalized by the largest
    target coefficient magnitude (or 1 for an empty target).
    """
    _check_frequency(decomposition.supply.omega, target.omega)
    n_max = max(target.n_max, 1)
    rows = steady_state_rows(decomposition)
    spp = verification_grid(max(n_max, rows.shape[1] - 1))

    # rows (a, b) over orders 0..n_max; column 0 holds (dc, 0)
    wanted = np.zeros((2, n_max + 1))
    wanted[:, 1 : target.n_max + 1] = target.cos, target.sin
    wanted[0, 0] = target.dc
    # everything in units of the largest target coefficient, so that neither
    # a sample, the FFT nor any square overflows
    scale = float(np.max(np.abs(wanted))) or 1.0
    wanted /= scale
    current = _grid_samples(rows / scale, spp)
    projected = project_waveform(current, target.omega, n_max)
    got = np.zeros((2, n_max + 1))
    got[:, 1:] = projected.cos, projected.sin
    got[0, 0] = projected.dc
    target_wave = _grid_samples(wanted, spp)
    target_rms = float(np.sqrt(np.mean(target_wave**2)))
    err_rms = float(np.sqrt(np.mean((current - target_wave) ** 2)))
    rel = err_rms / target_rms if target_rms > 0.0 else err_rms

    return VerificationReport(
        rel_rms_error=rel,
        max_coefficient_error=float(np.max(np.abs(got - wanted))),
        n_max=n_max,
        samples_per_period=spp,
    )
