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
from typing import Iterable, Optional, Sequence

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


def _clean_coefficients(
    entries: Iterable[tuple[int, float]], what: str, parity: Optional[int] = None
) -> dict[int, float]:
    """Validate (n, value) pairs; drop negligible values; sort by order."""
    seen: dict[int, float] = {}
    for n, value in entries:
        order = int(n)
        if order != n or order < 1:
            raise ValidationError(f"{what}: harmonic order must be a positive integer")
        value = float(value)
        if not math.isfinite(value):
            raise ValidationError(f"{what}: amplitude at n={order} must be finite")
        if parity is not None and order % 2 != parity:
            expected = "odd" if parity else "even"
            raise ValidationError(f"{what}: n={order} is not {expected}")
        if order in seen:
            raise ValidationError(f"{what}: duplicate harmonic order {order}")
        if abs(value) >= COEFF_DROP_TOLERANCE:
            seen[order] = value
    return dict(sorted(seen.items()))


def _trimmed(values: list[float]) -> tuple[float, ...]:
    while values and values[-1] == 0.0:
        values.pop()
    return tuple(values)


def _sign_pow(k: int) -> float:
    return -1.0 if k & 1 else 1.0


def memductance_from_sines(
    supply: SupplyVoltage, sines: Sequence[tuple[int, float]]
) -> MemoryElement:
    """Flux-controlled memristor realizing ``i = sum b_n sin(n w t)``.

    A single fundamental entry yields a constant memductance b_1/A, i.e. an
    LTI resistor of A/b_1.
    """
    coeffs = _clean_coefficients(sines, "memductance sine terms")
    if not coeffs:
        raise ValidationError("memductance synthesis needs at least one sine term")
    amp, w = supply.amplitude, supply.omega
    n_top = max(coeffs)
    u = [0.0] * n_top
    t = [0.0] * (n_top + 1)
    for n, b in coeffs.items():
        u[n - 1] = b / amp
        t[n] = -b / (n * w)
    scale = -w / amp
    return MemoryElement(
        kind=ElementKind.MEMRISTOR,
        control=ControlVariable.FLUX,
        incremental=ChebyshevSeries(ChebyshevKind.SECOND, _trimmed(u), scale=scale),
        constitutive=ChebyshevSeries(ChebyshevKind.FIRST, _trimmed(t), scale=scale),
    )


def inverse_meminductance_from_spectrum(
    supply: SupplyVoltage,
    odd_cosines: Sequence[tuple[int, float]] = (),
    even_sines: Sequence[tuple[int, float]] = (),
) -> MemoryElement:
    """Meminductor ``i = Gamma_M(sigma) phi`` for odd cosines and even sines.

    Those two harmonic families are exactly the ones expressible as
    polynomials in ``sin(w t)``; the alternating signs come from
    ``T_n(sin t) = (-1)^((n-1)/2) sin(n t)`` (odd n) and
    ``T_n(sin t) = (-1)^(n/2) cos(n t)`` (even n).
    """
    odd = _clean_coefficients(odd_cosines, "meminductor odd cosine terms", parity=1)
    even = _clean_coefficients(even_sines, "meminductor even sine terms", parity=0)
    if not odd and not even:
        raise ValidationError("meminductor synthesis needs at least one term")
    amp, w = supply.amplitude, supply.omega
    n_top = max([*odd, *even])
    u = [0.0] * n_top
    t = [0.0] * (n_top + 1)
    for n, a in odd.items():
        u[n - 1] = (w / amp) * _sign_pow((n + 1) // 2) * a
        t[n] = _sign_pow((n - 1) // 2) * a / (n * w)
    for n, b in even.items():
        u[n - 1] = -(w / amp) * _sign_pow((n + 2) // 2) * b
        t[n] = -_sign_pow(n // 2) * b / (n * w)
    scale = -(w * w) / amp
    return MemoryElement(
        kind=ElementKind.MEMINDUCTOR,
        control=ControlVariable.TIME_INTEGRATED_FLUX,
        incremental=ChebyshevSeries(ChebyshevKind.SECOND, _trimmed(u), scale=scale),
        constitutive=ChebyshevSeries(ChebyshevKind.FIRST, _trimmed(t), scale=scale),
    )


def memcapacitance_from_cosines(
    supply: SupplyVoltage, cosines: Sequence[tuple[int, float]]
) -> MemoryElement:
    """Flux-controlled memcapacitor ``q = C_M(phi) u`` for cosine terms.

    The branch charge ``q = sum a_n/(n w) sin(n w t)`` divided by the supply
    voltage is a second-kind series in the flux because
    ``sin(n t)/sin(t) = U_{n-1}(cos t)``.
    """
    coeffs = _clean_coefficients(cosines, "memcapacitance cosine terms")
    if not coeffs:
        raise ValidationError("memcapacitance synthesis needs at least one cosine term")
    amp, w = supply.amplitude, supply.omega
    n_top = max(coeffs)
    u = [0.0] * n_top
    t = [0.0] * (n_top + 1)
    for n, a in coeffs.items():
        u[n - 1] = a / (n * w * amp)
        t[n] = -a / (n * n * w * w)
    scale = -w / amp
    return MemoryElement(
        kind=ElementKind.MEMCAPACITOR,
        control=ControlVariable.FLUX,
        incremental=ChebyshevSeries(ChebyshevKind.SECOND, _trimmed(u), scale=scale),
        constitutive=ChebyshevSeries(ChebyshevKind.FIRST, _trimmed(t), scale=scale),
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


def element_to_dict(element: MemoryElement, companion: Optional[MemoryElement] = None) -> dict:
    doc: dict = {
        "kind": element.kind.value,
        "control": element.control.value if element.control else None,
        "scale": element.incremental.scale if element.incremental else None,
        "coeffs": list(element.incremental.coeffs) if element.incremental else None,
        "constitutive_coeffs": (
            list(element.constitutive.coeffs) if element.constitutive else None
        ),
        "scalar_value": element.scalar_value,
        "companion": element_to_dict(companion) if companion else None,
    }
    return doc


def _coefficient_list(value, name: str) -> list:
    """A JSON list of numbers; strings, booleans and nested values are rejected."""
    if not isinstance(value, list):
        raise ValidationError(f"{name} must be a list of numbers, got {value!r}")
    # json yields exactly int and float for numbers; bool is its own type
    if not set(map(type, value)) <= {int, float}:
        bad = next(c for c in value if type(c) not in (int, float))
        raise ValidationError(f"{name} entries must be numbers, got {bad!r}")
    return value


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
