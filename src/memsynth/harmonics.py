"""Harmonic spectra of periodic currents drawn from a sinusoidal supply.

Conventions used throughout the package:

* the supply voltage is ``u(t) = A sin(w t)`` with amplitude ``A`` in volts
  and angular frequency ``w`` in rad/s;
* a current spectrum stores peak (not rms) amplitudes,

      i(t) = dc + sum_n [ a_n cos(n w t) + b_n sin(n w t) ],

  stored densely: ``cos[n-1]`` holds ``a_n`` and ``sin[n-1]`` holds ``b_n``
  for every order ``n = 1..n_max``; sparse ``(n, a, b)`` triples exist only
  in the JSON form (``from_dict``, ``to_dict``);
* a spectrum holds its amplitudes once, as read-only float64 arrays,
  converted when it is built; ``==``, ``hash`` and ``repr`` read them as
  tuples of floats (:class:`~memsynth.errors.ArrayValue`);
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
from typing import Sequence

import numpy as np

from .errors import ArrayValue, ValidationError, finite_floats

#: relative frequency mismatch tolerated between a supply and a spectrum
FREQUENCY_RTOL = 1e-12

#: dc weighting of the two apparent-power conventions.  "rms" counts the dc
#: component at full weight (the physically correct rms); "paper" folds it
#: into the half-weighted ac sum, reproducing the rectifier-literature
#: figure PF = b1 / sqrt(a0^2 + b1^2 + sum a_n^2).
PF_CONVENTIONS = {"rms": 1.0, "paper": 0.5}

#: highest harmonic order a spectrum may hold (:func:`check_order_limit`): the
#: verification grid holds at most 2^22 samples and needs four per order
MAX_HARMONIC_ORDER = 2**20


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
        # the flux and integrated-flux amplitudes and the elements' argument scales
        amp, w = self.amplitude, self.omega
        w2 = w * w
        for ratio in (w / amp, w2 / amp, amp / w, amp / w2 if w2 else 0.0):
            if not (math.isfinite(ratio) and ratio != 0.0):
                raise ValidationError(
                    f"supply omega {w!r} and amplitude {amp!r} put w/A, w^2/A, A/w or A/w^2"
                    " outside the float64 range"
                )

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


@dataclass(frozen=True, eq=False, repr=False)
class HarmonicSpectrum(ArrayValue):
    """Dense trigonometric polynomial describing one periodic current.

    ``cos[n-1]`` and ``sin[n-1]`` are the peak amplitudes ``a_n`` and ``b_n``
    of order ``n``; the two arrays have one length, ``n_max``.  Any entry may
    be zero, the top order included.  ``cos`` and ``sin`` may be given as
    sequences or 1-D arrays; each is stored as a new read-only float64
    array, which ``==``, ``hash`` and ``repr`` read as a tuple of floats.
    """

    omega: float
    dc: float = 0.0
    cos: np.ndarray = ()
    sin: np.ndarray = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "dc", float(self.dc))
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValidationError("spectrum omega must be positive and finite")
        if not math.isfinite(self.dc):
            raise ValidationError("dc component must be finite")
        cos = finite_floats(self.cos, "cos amplitudes")
        sin = finite_floats(self.sin, "sin amplitudes")
        if cos.shape != sin.shape:
            raise ValidationError("cos and sin amplitudes must be of one length")
        cos.flags.writeable = sin.flags.writeable = False
        object.__setattr__(self, "cos", cos)
        object.__setattr__(self, "sin", sin)

    @classmethod
    def _scatter(
        cls, omega: float, dc: float, orders: np.ndarray, a: np.ndarray, b: np.ndarray
    ) -> "HarmonicSpectrum":
        """Spectrum with float64 amplitudes ``a`` and ``b`` at the rising ``orders``.

        Orders left out are zero.  The top order is held to
        :data:`MAX_HARMONIC_ORDER` before anything is allocated.
        """
        top = int(orders[-1]) if len(orders) else 0
        check_order_limit(top)
        cos, sin = np.zeros(top), np.zeros(top)
        cos[orders - 1] = a
        sin[orders - 1] = b
        return cls(omega, dc, cos, sin)

    @property
    def n_max(self) -> int:
        return len(self.cos)

    def a(self, n: int) -> float:
        """Cosine amplitude of order n; 0.0 outside 1..n_max."""
        return float(self.cos[n - 1]) if 1 <= n <= len(self.cos) else 0.0

    def b(self, n: int) -> float:
        """Sine amplitude of order n; 0.0 outside 1..n_max."""
        return float(self.sin[n - 1]) if 1 <= n <= len(self.sin) else 0.0

    def to_dict(self) -> dict:
        """Sparse JSON form: every order with a nonzero a or b, and order n_max."""
        top = self.n_max
        return {
            "omega": self.omega,
            "dc": self.dc,
            "harmonics": [
                {"n": n, "a": a, "b": b}
                for n, a, b in zip(range(1, top + 1), self.cos.tolist(), self.sin.tolist())
                if a or b or n == top
            ],
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
        # one type pass per column; orjson yields exactly int and float for
        # numbers (a float for integers of 2^64 and above), so anything else
        # goes through the per-harmonic checks, which name the first
        # offending value; typed columns reach the scatter as arrays, and the
        # spectrum's own finite_floats takes arrays without a second type pass
        try:
            n, a, b = ([h[key] for h in harmonics] for key in ("n", "a", "b"))
            typed = set(map(type, n)) <= {int} and set(map(type, a + b)) <= {float}
        except (TypeError, KeyError):
            typed = False
        if typed:
            return cls._scatter(omega, dc, _rising_orders(n), np.array(a), np.array(b))
        try:
            terms = [(_order(h["n"]), _real(h["a"], "a"), _real(h["b"], "b")) for h in harmonics]
        except (TypeError, KeyError) as exc:
            raise ValidationError("each harmonic needs keys n, a, b") from exc
        n, a, b = zip(*terms)  # an empty list took the typed path
        return cls._scatter(omega, dc, _rising_orders(n), np.array(a), np.array(b))


def _real(value, name: str) -> float:
    """A JSON number as a float; strings, booleans and out-of-range integers are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} must be a number within the float64 range") from None


def _order(value) -> int:
    """A harmonic order as JSON gives it, an int; 1.7, 2.0, true and numpy ints are rejected."""
    if type(value) is not int:
        raise ValidationError(f"harmonic order n must be an integer, got {value!r}")
    return value


def _rising_orders(orders: Sequence) -> np.ndarray:
    """Integer ``orders`` as an array, refused unless strictly increasing from at least 1.

    An order beyond int64 is refused here or by :func:`check_order_limit`;
    the column is then compared as Python ints.
    """
    try:
        column = np.array(orders, dtype=np.int64)
    except OverflowError:
        column = np.array(list(map(int, orders)), dtype=object)
    if len(column) and not (column[0] >= 1 and (column[1:] > column[:-1]).all()):
        raise ValidationError("harmonic orders must be strictly increasing and >= 1")
    return column


def check_order_limit(order: int) -> None:
    """Refuse a harmonic order above :data:`MAX_HARMONIC_ORDER`."""
    if order > MAX_HARMONIC_ORDER:
        raise ValidationError(f"harmonic order {order} exceeds the limit of {MAX_HARMONIC_ORDER}")


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
    for n, (a, b) in enumerate(zip(spectrum.cos.tolist(), spectrum.sin.tolist()), 1):
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
    arr = finite_floats(samples, "samples")
    n_max = int(n_max)
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    if arr.size < 4 * n_max:
        raise ValidationError(
            f"need at least {4 * n_max} samples for n_max={n_max}, got {arr.size}"
        )
    coeffs = np.fft.rfft(arr)[: n_max + 1] * (2.0 / arr.size)
    return HarmonicSpectrum(omega, coeffs[0].real / 2.0, coeffs.real[1:], -coeffs.imag[1:])


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
    module docstring).  Active power is unaffected: P = A b1 / 2.  A spectrum
    whose powers leave the float64 range raises :class:`ValidationError`.
    """
    if convention not in PF_CONVENTIONS:
        raise ValidationError(f"unknown pf convention {convention!r}")
    _check_frequency(supply.omega, spectrum.omega)
    dc_weight = PF_CONVENTIONS[convention]
    active = supply.amplitude * spectrum.b(1) / 2.0
    # squares by numpy, then the builtin sum over the list: the same
    # left-to-right order and bits as a scalar loop, so zero entries leave
    # it unchanged; a square past float64 reads inf and fails below
    a, b = spectrum.cos, spectrum.sin
    with np.errstate(over="ignore"):
        ac_sum = sum((a * a + b * b).tolist())
    try:
        rms_i = math.sqrt(dc_weight * spectrum.dc**2 + 0.5 * ac_sum)
    except OverflowError:  # a float ** raises where * would give inf
        rms_i = math.inf
    apparent = supply.rms * rms_i
    if not (math.isfinite(active) and math.isfinite(apparent)):
        raise ValidationError(
            f"the powers of this spectrum on supply amplitude {supply.amplitude!r}"
            " leave the float64 range"
        )
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
    first, sin = np.arange(spectrum.n_max) == 0, spectrum.sin
    active = HarmonicSpectrum(spectrum.omega, 0.0, np.zeros(len(sin)), np.where(first, sin, 0.0))
    nonactive = HarmonicSpectrum(spectrum.omega, 0.0, spectrum.cos, np.where(first, 0.0, sin))
    return active, nonactive, spectrum.dc


def spectrum_negate(spectrum: HarmonicSpectrum) -> HarmonicSpectrum:
    return HarmonicSpectrum(spectrum.omega, -spectrum.dc, -spectrum.cos, -spectrum.sin)

