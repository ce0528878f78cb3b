"""Harmonic spectra of periodic currents drawn from a sinusoidal supply.

Conventions used throughout the package:

* the supply voltage is ``u(t) = A sin(w t)`` with amplitude ``A`` in volts
  and angular frequency ``w`` in rad/s;
* a current spectrum stores peak (not rms) amplitudes,

      i(t) = dc + sum_n [ a_n cos(n w t) + b_n sin(n w t) ],

  with a sparse, strictly increasing list of harmonic orders ``n >= 1``;
* the supply flux linkage is the integral of ``u`` with the periodic
  (zero-mean) constant of integration, ``phi(t) = -(A/w) cos(w t)``, and its
  time integral is ``sigma(t) = -(A/w^2) sin(w t)`` with ``sigma(0) = 0``.

Active power on such a supply is carried entirely by the fundamental
in-phase term: ``P = A b_1 / 2``.  Apparent power admits two conventions for
the dc term of the current rms (see ``compute_powers``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError

#: relative frequency mismatch tolerated between a supply and a spectrum
FREQUENCY_RTOL = 1e-12

#: dc weighting of the two apparent-power conventions.  "rms" counts the dc
#: component at full weight (the physically correct rms); "paper" folds it
#: into the half-weighted ac sum, reproducing the rectifier-literature
#: figure PF = b1 / sqrt(a0^2 + b1^2 + sum a_n^2).
PF_CONVENTIONS = {"rms": 1.0, "paper": 0.5}


@dataclass(frozen=True)
class SupplyVoltage:
    """Ideal sinusoidal source ``u(t) = amplitude * sin(omega t)``."""

    amplitude: float
    omega: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitude", float(self.amplitude))
        object.__setattr__(self, "omega", float(self.omega))
        if not (math.isfinite(self.amplitude) and self.amplitude > 0):
            raise ValidationError("supply amplitude must be positive and finite")
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValidationError("supply omega must be positive and finite")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega

    @property
    def rms(self) -> float:
        return self.amplitude / math.sqrt(2.0)

    def voltage(self, t):
        return self.amplitude * np.sin(self.omega * np.asarray(t, dtype=float))

    def flux(self, t):
        """Zero-mean flux linkage; flux(0) = -amplitude/omega."""
        w = self.omega
        return -(self.amplitude / w) * np.cos(w * np.asarray(t, dtype=float))

    def integrated_flux(self, t):
        """Time integral of flux with integrated_flux(0) = 0."""
        w = self.omega
        return -(self.amplitude / w**2) * np.sin(w * np.asarray(t, dtype=float))


class HarmonicTerm(NamedTuple):
    n: int
    a: float  # cosine amplitude, peak
    b: float  # sine amplitude, peak


@dataclass(frozen=True)
class HarmonicSpectrum:
    """Sparse trigonometric polynomial describing one periodic current."""

    omega: float
    dc: float = 0.0
    terms: tuple[HarmonicTerm, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "dc", float(self.dc))
        terms = tuple(HarmonicTerm(int(t[0]), float(t[1]), float(t[2])) for t in self.terms)
        object.__setattr__(self, "terms", terms)
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValidationError("spectrum omega must be positive and finite")
        if not math.isfinite(self.dc):
            raise ValidationError("dc component must be finite")
        last = 0
        for term in terms:
            if term.n <= last:
                raise ValidationError("harmonic orders must be strictly increasing and >= 1")
            if not (math.isfinite(term.a) and math.isfinite(term.b)):
                raise ValidationError("harmonic amplitudes must be finite")
            last = term.n

    @property
    def n_max(self) -> int:
        return self.terms[-1].n if self.terms else 0

    def a(self, n: int) -> float:
        for term in self.terms:
            if term.n == n:
                return term.a
        return 0.0

    def b(self, n: int) -> float:
        for term in self.terms:
            if term.n == n:
                return term.b
        return 0.0

    def to_dict(self) -> dict:
        return {
            "omega": self.omega,
            "dc": self.dc,
            "harmonics": [{"n": t.n, "a": t.a, "b": t.b} for t in self.terms],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "HarmonicSpectrum":
        try:
            omega = _real(doc["omega"], "omega")
            dc = _real(doc.get("dc", 0.0), "dc")
            harmonics = doc["harmonics"]
        except (TypeError, KeyError) as exc:
            raise ValidationError(f"spectrum document missing key: {exc}") from exc
        if not isinstance(harmonics, list):
            raise ValidationError("harmonics must be a list")
        try:
            terms = tuple(
                (_order(h["n"]), _real(h["a"], "a"), _real(h["b"], "b")) for h in harmonics
            )
        except (TypeError, KeyError) as exc:
            raise ValidationError("each harmonic needs keys n, a, b") from exc
        return cls(omega=omega, dc=dc, terms=terms)


def _real(value, name: str) -> float:
    """A JSON number; strings and booleans are rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return value


def _order(value) -> int:
    """A JSON integer harmonic order; 1.7, 2.0 and true are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"harmonic order n must be an integer, got {value!r}")
    return value


def _check_frequency(omega_left: float, omega_right: float) -> None:
    if not math.isclose(omega_left, omega_right, rel_tol=FREQUENCY_RTOL, abs_tol=0.0):
        raise ValidationError(
            f"frequency mismatch: {omega_left!r} vs {omega_right!r}"
        )


def evaluate_waveform(spectrum: HarmonicSpectrum, t):
    """Time-domain current of a spectrum at scalar or array times."""
    arr = np.asarray(t, dtype=float)
    theta = spectrum.omega * arr
    out = np.full_like(arr, spectrum.dc, dtype=float)
    for n, a, b in spectrum.terms:
        if a:
            out = out + a * np.cos(n * theta)
        if b:
            out = out + b * np.sin(n * theta)
    if arr.ndim == 0:
        return float(out)
    return out


def project_waveform(samples, omega: float, n_max: int) -> HarmonicSpectrum:
    """Trapezoid-rule Fourier analysis of one uniformly sampled period.

    ``samples[k]`` must be taken at ``t_k = k T / N`` for ``k = 0..N-1``
    (endpoint excluded; the periodic closure makes the composite trapezoid
    rule collapse to the plain mean).  Requires ``N >= 4 * n_max`` so every
    requested order is safely below the aliasing limit.

    The trapezoid sums ``(2/N) sum_k x_k cos(n theta_k)`` and
    ``(2/N) sum_k x_k sin(n theta_k)`` are the scaled real part and the
    negated scaled imaginary part of the discrete Fourier transform, so one
    real FFT computes all orders at O(N log N) cost.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1:
        raise ValidationError("samples must be a 1-D array covering one period")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("samples must be finite")
    n_max = int(n_max)
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    if arr.size < 4 * n_max:
        raise ValidationError(
            f"need at least {4 * n_max} samples for n_max={n_max}, got {arr.size}"
        )
    spectrum = np.fft.rfft(arr)[: n_max + 1] * (2.0 / arr.size)
    dc = float(spectrum[0].real) / 2.0
    terms = zip(range(1, n_max + 1), spectrum.real[1:].tolist(), (-spectrum.imag[1:]).tolist())
    return HarmonicSpectrum(omega=omega, dc=dc, terms=tuple(terms))


@dataclass(frozen=True)
class PowerSummary:
    """Power figures of one current spectrum on a sinusoidal supply."""

    active_power: float
    apparent_power: float
    power_factor: float
    rms_voltage: float
    rms_current: float
    convention: str = "rms"


def compute_powers(
    supply: SupplyVoltage, spectrum: HarmonicSpectrum, convention: str = "rms"
) -> PowerSummary:
    """Active power, apparent power and their ratio.

    ``convention`` selects how the dc component enters the current rms:
    "rms" weights dc^2 fully, "paper" halves it like an ac amplitude (see
    module docstring).  Active power is unaffected: P = A b1 / 2.
    """
    if convention not in PF_CONVENTIONS:
        raise ValidationError(f"unknown pf convention {convention!r}")
    _check_frequency(supply.omega, spectrum.omega)
    dc_weight = PF_CONVENTIONS[convention]
    active = supply.amplitude * spectrum.b(1) / 2.0
    ac_sum = sum(t.a * t.a + t.b * t.b for t in spectrum.terms)
    rms_i = math.sqrt(dc_weight * spectrum.dc**2 + 0.5 * ac_sum)
    apparent = supply.rms * rms_i
    pf = active / apparent if apparent > 0.0 else 0.0
    return PowerSummary(
        active_power=active,
        apparent_power=apparent,
        power_factor=pf,
        rms_voltage=supply.rms,
        rms_current=rms_i,
        convention=convention,
    )


def fryze_split(
    supply: SupplyVoltage, spectrum: HarmonicSpectrum
) -> tuple[HarmonicSpectrum, HarmonicSpectrum, float]:
    """Split a load current into active, non-active and dc parts.

    The active current is the minimal current carrying the full active power
    at unity displacement, i.e. the supply-shaped component
    ``i_a = (P / ||u||^2) u``; on ``u = A sin(w t)`` that is exactly the
    fundamental sine term.  The non-active remainder excludes dc, which is
    returned separately (a dc component is sourced, never compensated).
    """
    _check_frequency(supply.omega, spectrum.omega)
    b1 = spectrum.b(1)
    active_terms = ((HarmonicTerm(1, 0.0, b1),) if b1 != 0.0 else ())
    active = HarmonicSpectrum(spectrum.omega, 0.0, active_terms)
    residual = []
    for n, a, b in spectrum.terms:
        if n == 1:
            b = 0.0
        if a != 0.0 or b != 0.0:
            residual.append(HarmonicTerm(n, a, b))
    nonactive = HarmonicSpectrum(spectrum.omega, 0.0, tuple(residual))
    return active, nonactive, spectrum.dc


def spectrum_negate(spectrum: HarmonicSpectrum) -> HarmonicSpectrum:
    terms = tuple(HarmonicTerm(n, -a, -b) for n, a, b in spectrum.terms)
    return HarmonicSpectrum(spectrum.omega, -spectrum.dc, terms)


def spectrum_add(*spectra: HarmonicSpectrum) -> HarmonicSpectrum:
    """Coefficient-wise sum; all spectra must share one frequency."""
    if not spectra:
        raise ValidationError("spectrum_add needs at least one spectrum")
    omega = spectra[0].omega
    dc = 0.0
    acc: dict[int, list[float]] = {}
    for spec in spectra:
        _check_frequency(omega, spec.omega)
        dc += spec.dc
        for n, a, b in spec.terms:
            slot = acc.setdefault(n, [0.0, 0.0])
            slot[0] += a
            slot[1] += b
    terms = tuple(
        HarmonicTerm(n, ab[0], ab[1])
        for n, ab in sorted(acc.items())
        if ab[0] != 0.0 or ab[1] != 0.0
    )
    return HarmonicSpectrum(omega, dc, terms)
