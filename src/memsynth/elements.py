"""Memory circuit elements synthesized from harmonic current targets.

Three voltage-driven memory elements cover an arbitrary distorted current on
the supply ``u = A sin(w t)``:

* a memristor ``i = G_M(phi) u`` absorbs the sine terms.  Substituting
  ``cos(w t) = -(w/A) phi`` into the integrated charge turns it into a
  first-kind Chebyshev series in the flux, so the memductance is the matching
  second-kind series ``G_M(phi) = sum_n (b_n / A) U_{n-1}(-(w/A) phi)``;
* a meminductor ``i = Gamma_M(sigma) phi`` absorbs odd cosines and even
  sines.  Both families are polynomials in ``sin(w t) = -(w^2/A) sigma``,
  giving an inverse meminductance in the time-integrated flux with
  alternating signs fixed by ``T_n(sin) = +-[sin|cos](n t)``;
* a memcapacitor ``q = C_M(phi) u`` absorbs cosines,
  ``C_M(phi) = sum_n a_n / (n w A) U_{n-1}(-(w/A) phi)``.

Each element stores the incremental series (second kind: memductance,
inverse meminductance, capacitance) and the single-valued constitutive
series (first kind: charge vs flux, charge vs integrated flux, integrated
charge vs flux).  The two are linked exactly by term-wise differentiation,
and the constitutive series carries no T_0 component, which pins its free
integration constant to a zero time average over one period.

A series whose lowest (U_0) coefficient vanishes while higher ones do not
describes an incremental value with no linear part; such memcapacitors and
meminductors are not realizable with a single-valued constitutive curve and
are regularized by adding a linear term plus a shunt LTI companion that
cancels the added fundamental current exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .chebyshev import ChebyshevKind, ChebyshevSeries
from .errors import ValidationError
from .harmonics import SupplyVoltage, _real

#: synthesized coefficients below this magnitude are treated as zero
COEFF_DROP_TOLERANCE = 1e-15

#: largest deviation :func:`verify_series_consistency` may report for an
#: element read from a document, relative to its largest incremental
#: coefficient; memsynth's own elements stay within a few 1e-16
SERIES_CONSISTENCY_RTOL = 1e-12


class ElementKind(str, Enum):
    MEMRISTOR = "memristor"
    MEMINDUCTOR = "meminductor"
    MEMCAPACITOR = "memcapacitor"
    RESISTOR = "resistor"
    INDUCTOR = "inductor"
    CAPACITOR = "capacitor"
    DC_SOURCE = "dc_source"


class ControlVariable(str, Enum):
    FLUX = "flux"
    TIME_INTEGRATED_FLUX = "time_integrated_flux"


#: the memory kinds, each with the one control a voltage supply drives it by
CONTROL_OF_KIND = {
    ElementKind.MEMRISTOR: ControlVariable.FLUX,
    ElementKind.MEMCAPACITOR: ControlVariable.FLUX,
    ElementKind.MEMINDUCTOR: ControlVariable.TIME_INTEGRATED_FLUX,
}
LTI_KINDS = frozenset({ElementKind.RESISTOR, ElementKind.INDUCTOR, ElementKind.CAPACITOR})


@dataclass(frozen=True)
class MemoryElement:
    """One shunt branch: either a memory element or an LTI/dc scalar one.

    Memory kinds carry ``incremental`` (second-kind series, the state
    dependent G/Gamma/C value) and ``constitutive`` (first-kind series, its
    exact antiderivative) in the control variable of their kind: flux for
    memristors and memcapacitors, time-integrated flux for meminductors.
    LTI kinds carry only ``scalar_value`` (ohms, henry, farad, or amperes for
    a dc source).
    """

    kind: ElementKind
    control: Optional[ControlVariable] = None
    incremental: Optional[ChebyshevSeries] = None
    constitutive: Optional[ChebyshevSeries] = None
    scalar_value: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ElementKind(self.kind))
        if self.control is not None:
            object.__setattr__(self, "control", ControlVariable(self.control))
        if self.scalar_value is not None:
            object.__setattr__(self, "scalar_value", float(self.scalar_value))
        if self.kind in CONTROL_OF_KIND:
            if self.control is not CONTROL_OF_KIND[self.kind]:
                raise ValidationError(
                    f"{self.kind.value} needs control {CONTROL_OF_KIND[self.kind].value!r},"
                    f" got {getattr(self.control, 'value', None)!r}"
                )
            if self.incremental is None or self.incremental.kind is not ChebyshevKind.SECOND:
                raise ValidationError("memory element needs a second-kind incremental series")
            if self.constitutive is None or self.constitutive.kind is not ChebyshevKind.FIRST:
                raise ValidationError("memory element needs a first-kind constitutive series")
            if self.scalar_value is not None:
                raise ValidationError("memory element takes no scalar value")
        else:
            if self.incremental is not None or self.constitutive is not None:
                raise ValidationError(f"{self.kind.value} takes no series")
            if self.control is not None:
                raise ValidationError(f"{self.kind.value} takes no control variable")
            if self.scalar_value is None or not math.isfinite(self.scalar_value):
                raise ValidationError(f"{self.kind.value} needs a finite scalar value")
            if self.kind in LTI_KINDS and self.scalar_value <= 0.0:
                raise ValidationError(f"{self.kind.value} value must be positive")

    @property
    def is_memory(self) -> bool:
        return self.kind in CONTROL_OF_KIND


@dataclass(frozen=True)
class RegularizedElement:
    """A memory element with its linear term bumped plus the LTI companion."""

    element: MemoryElement
    companion: MemoryElement
    gamma: float


def _dense_terms(values, what: str) -> np.ndarray:
    """Finite amplitudes, order n at index n-1; those below COEFF_DROP_TOLERANCE become 0.0."""
    terms = np.array(values, dtype=float)
    if terms.ndim != 1:
        raise ValidationError(f"{what} must be a flat array of amplitudes")
    if not np.isfinite(terms).all():
        raise ValidationError(f"{what} must be finite")
    terms[np.abs(terms) < COEFF_DROP_TOLERANCE] = 0.0
    return terms


def _series(kind: ChebyshevKind, coeffs: np.ndarray, scale: float) -> ChebyshevSeries:
    """Series of ``coeffs`` less its trailing zeros (terms that under- or overflowed)."""
    top = len(coeffs)
    while top and coeffs[top - 1] == 0.0:
        top -= 1
    return ChebyshevSeries(kind, coeffs[:top].tolist(), scale)


def orbit_scale(supply: SupplyVoltage, control: ControlVariable) -> float:
    """The argument scale that puts a control's steady state on the unit circle.

    ``-(w/A) phi = cos(w t)`` for the flux and ``-(w^2/A) sigma = sin(w t)``
    for the time-integrated flux: every memory element the builders make
    carries this scale.
    """
    amp, w = supply.amplitude, supply.omega
    if control is ControlVariable.FLUX:
        return -w / amp
    return -(w * w) / amp


def _memory_element(
    supply: SupplyVoltage, kind: ElementKind, n: np.ndarray, inc: np.ndarray, con: np.ndarray
) -> MemoryElement:
    """Element whose U_{n-1} (incremental) and T_n (constitutive) terms are given at orders n.

    Every other coefficient is +0.0: the per-order arithmetic runs only at the
    nonzero orders, so no empty slot carries a -0.0.
    """
    control = CONTROL_OF_KIND[kind]
    scale = orbit_scale(supply, control)
    u = np.zeros(n[-1])
    u[n - 1] = inc
    t = np.zeros(n[-1] + 1)
    t[n] = con
    return MemoryElement(
        kind=kind,
        control=control,
        incremental=_series(ChebyshevKind.SECOND, u, scale),
        constitutive=_series(ChebyshevKind.FIRST, t, scale),
    )


def memductance_from_sines(supply: SupplyVoltage, sin) -> MemoryElement:
    """Flux-controlled memristor realizing ``i = sum b_n sin(n w t)``.

    ``sin[n-1]`` holds ``b_n``.  A single fundamental entry yields a constant
    memductance b_1/A, i.e. an LTI resistor of A/b_1.
    """
    b = _dense_terms(sin, "memductance sine terms")
    n = b.nonzero()[0] + 1
    if not n.size:
        raise ValidationError("memductance synthesis needs at least one sine term")
    amp, w = supply.amplitude, supply.omega
    b = b[n - 1]
    return _memory_element(supply, ElementKind.MEMRISTOR, n, b / amp, -b / (n * w))


def inverse_meminductance_from_spectrum(supply: SupplyVoltage, cos, sin) -> MemoryElement:
    """Meminductor ``i = Gamma_M(sigma) phi`` for odd cosines and even sines.

    ``cos[n-1]`` and ``sin[n-1]`` hold ``a_n`` and ``b_n``.  Those two
    harmonic families are exactly the ones expressible as polynomials in
    ``sin(w t)``; the alternating signs come from
    ``T_n(sin t) = (-1)^((n-1)/2) sin(n t)`` (odd n) and
    ``T_n(sin t) = (-1)^(n/2) cos(n t)`` (even n).
    """
    a = _dense_terms(cos, "meminductor cosine terms")
    b = _dense_terms(sin, "meminductor sine terms")
    if a[1::2].any() or b[::2].any():
        raise ValidationError("meminductor synthesis takes odd-order cosines and even-order sines")
    # the two families occupy alternate orders, so one array holds both
    c = np.zeros(max(len(a), len(b)))
    c[: len(a)] = a
    c[1 : len(b) : 2] = b[1::2]
    n = c.nonzero()[0] + 1
    if not n.size:
        raise ValidationError("meminductor synthesis needs at least one term")
    amp, w = supply.amplitude, supply.omega
    c = c[n - 1]
    # (-1)^ceil(n/2): the U_{n-1} sign for both families, negated for T_n
    sign = (-1.0) ** ((n + 1) // 2)
    return _memory_element(
        supply, ElementKind.MEMINDUCTOR, n, (w / amp) * sign * c, -sign * c / (n * w)
    )


def memcapacitance_from_cosines(supply: SupplyVoltage, cos) -> MemoryElement:
    """Flux-controlled memcapacitor ``q = C_M(phi) u`` for cosine terms.

    ``cos[n-1]`` holds ``a_n``.  The branch charge
    ``q = sum a_n/(n w) sin(n w t)`` divided by the supply voltage is a
    second-kind series in the flux because ``sin(n t)/sin(t) = U_{n-1}(cos t)``.
    """
    a = _dense_terms(cos, "memcapacitance cosine terms")
    n = a.nonzero()[0] + 1
    if not n.size:
        raise ValidationError("memcapacitance synthesis needs at least one cosine term")
    amp, w = supply.amplitude, supply.omega
    a = a[n - 1]
    return _memory_element(
        supply, ElementKind.MEMCAPACITOR, n, a / (n * w * amp), -a / (n * n * w * w)
    )


def needs_regularization(element: MemoryElement) -> bool:
    """True when the incremental series lacks its linear (U_0) term.

    Without that term the higher-order coefficients describe a value that
    averages to a sign-changing, purely nonlinear characteristic, so the
    constitutive curve cannot be realized single-valued on its own.
    """
    if not element.is_memory:
        return False
    coeffs = element.incremental.coeffs
    if not coeffs:
        return False
    head_zero = abs(coeffs[0]) < COEFF_DROP_TOLERANCE
    tail_nonzero = any(abs(c) >= COEFF_DROP_TOLERANCE for c in coeffs[1:])
    return head_zero and tail_nonzero


def default_gamma(element: MemoryElement, supply: SupplyVoltage) -> float:
    """Default regularization current amplitude, in amperes.

    Chosen so the added linear coefficient equals the summed magnitude of
    the higher-order incremental coefficients, keeping the regularized
    incremental value from being dominated by its sign-changing part on the
    steady-state control range.
    """
    if element.kind not in (ElementKind.MEMCAPACITOR, ElementKind.MEMINDUCTOR):
        raise ValidationError("default gamma applies to memcapacitors and meminductors")
    tail = sum(abs(c) for c in element.incremental.coeffs[1:])
    if element.kind is ElementKind.MEMCAPACITOR:
        return supply.omega * supply.amplitude * tail
    return (supply.amplitude / supply.omega) * tail


def regularize(
    element: MemoryElement, supply: SupplyVoltage, gamma: Optional[float] = None
) -> RegularizedElement:
    """Add a linear term of strength ``gamma`` and the cancelling companion.

    For a memcapacitor the linear term ``gamma/(w A)`` injects an extra
    fundamental current ``gamma cos(w t)``; the shunt inductor ``A/(w gamma)``
    draws its exact negative, so the branch pair is transparent to the
    terminal current.  The meminductor case adds ``w gamma / A`` and pairs
    with a shunt capacitor ``gamma/(w A)``.  Any positive gamma works; the
    default comes from :func:`default_gamma`.
    """
    if element.kind not in (ElementKind.MEMCAPACITOR, ElementKind.MEMINDUCTOR):
        raise ValidationError("only memcapacitors and meminductors are regularized")
    if not needs_regularization(element):
        raise ValidationError("element already has a linear term (or no series)")
    if gamma is None:
        gamma = default_gamma(element, supply)
    gamma = float(gamma)
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValidationError("gamma must be positive and finite")
    amp, w = supply.amplitude, supply.omega
    inc = list(element.incremental.coeffs)
    con = list(element.constitutive.coeffs)
    while len(con) < 2:
        con.append(0.0)
    if element.kind is ElementKind.MEMCAPACITOR:
        inc[0] += gamma / (w * amp)
        con[1] += -gamma / (w * w)
        companion = MemoryElement(
            kind=ElementKind.INDUCTOR, scalar_value=amp / (w * gamma)
        )
    else:
        inc[0] += w * gamma / amp
        con[1] += -gamma / w
        companion = MemoryElement(
            kind=ElementKind.CAPACITOR, scalar_value=gamma / (w * amp)
        )
    regular = MemoryElement(
        kind=element.kind,
        control=element.control,
        incremental=ChebyshevSeries(
            ChebyshevKind.SECOND, tuple(inc), scale=element.incremental.scale
        ),
        constitutive=ChebyshevSeries(
            ChebyshevKind.FIRST, tuple(con), scale=element.constitutive.scale
        ),
    )
    return RegularizedElement(element=regular, companion=companion, gamma=gamma)


def verify_series_consistency(element: MemoryElement) -> float:
    """Max deviation between the incremental series and d(constitutive)/dv."""
    if not element.is_memory:
        raise ValidationError("series consistency applies to memory elements")
    # the coefficients of differentiate_first_kind, k * c_k * scale in that order
    con = np.array(element.constitutive.coeffs)
    derived = np.arange(1, len(con)) * con[1:] * element.constitutive.scale
    inc = np.array(element.incremental.coeffs)
    width = max(len(derived), len(inc))
    gap = np.zeros(width)
    gap[: len(derived)] = derived
    gap[: len(inc)] -= inc
    return float(np.max(np.abs(gap), initial=0.0))


def element_to_dict(element: MemoryElement) -> dict:
    return {
        "kind": element.kind.value,
        "control": element.control.value if element.control else None,
        "scale": element.incremental.scale if element.incremental else None,
        "coeffs": list(element.incremental.coeffs) if element.incremental else None,
        "constitutive_coeffs": (
            list(element.constitutive.coeffs) if element.constitutive else None
        ),
        "scalar_value": element.scalar_value,
        "companion": None,
    }


def _coefficient_list(value, name: str) -> list:
    """A JSON list of float64-range numbers; strings, booleans and nested values are rejected."""
    if not isinstance(value, list):
        raise ValidationError(f"{name} must be a list of numbers, got {value!r}")
    # json yields exactly int and float for numbers; bool is its own type, and
    # an int may lie beyond float64, so any non-float entry goes through _real
    if set(map(type, value)) <= {float}:
        return value
    return [_real(c, f"{name} entries") for c in value]


def element_from_dict(doc: dict) -> MemoryElement:
    """Read an element back; malformed values are rejected, never coerced.

    A memory element's ``coeffs`` must be the derivative of its
    ``constitutive_coeffs`` to within :data:`SERIES_CONSISTENCY_RTOL` of its
    largest coefficient, so the incremental and constitutive series cannot
    describe two different elements.
    """
    try:
        kind = ElementKind(doc["kind"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad element kind: {exc}") from exc
    if kind in CONTROL_OF_KIND:
        try:
            scale = _real(doc["scale"], "scale")
            inc = _coefficient_list(doc["coeffs"], "coeffs")
            con = _coefficient_list(doc["constitutive_coeffs"], "constitutive_coeffs")
            control = ControlVariable(doc["control"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad memory element document: {exc}") from exc
        element = MemoryElement(
            kind=kind,
            control=control,
            incremental=ChebyshevSeries(ChebyshevKind.SECOND, inc, scale=scale),
            constitutive=ChebyshevSeries(ChebyshevKind.FIRST, con, scale=scale),
        )
        deviation = verify_series_consistency(element)
        bound = SERIES_CONSISTENCY_RTOL * max(map(abs, element.incremental.coeffs), default=0.0)
        if deviation > bound:
            raise ValidationError(
                f"{kind.value}: coeffs are not the derivative of constitutive_coeffs"
                f" (deviation {deviation:.3e} > {bound:.3e})"
            )
        return element
    if doc.get("scalar_value") is None:
        raise ValidationError(f"{kind.value} document needs scalar_value")
    return MemoryElement(kind=kind, scalar_value=_real(doc["scalar_value"], "scalar_value"))
