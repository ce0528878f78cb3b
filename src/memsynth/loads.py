"""Built-in benchmark load spectra.

Three classic distorting loads exercise every branch type:

* ``motivating``: a three-term spectrum (fundamental cosine and sine plus a
  second-harmonic cosine) on a 230 V rms, 50 Hz supply;
* ``rectifier``: the half-wave rectified supply current
  ``i = max(0, A sin(w t)) / 1 ohm`` with dc A/pi, fundamental sine A/2 and
  even cosines ``-2A / (pi (n^2 - 1))``;
* ``bridge``: the phase-delayed square wave of an ideal line-commutated
  converter, odd harmonics ``-(4 I_dc / n pi) sin(n delta)`` (cosine part)
  and ``(4 I_dc / n pi) cos(n delta)`` (sine part), whose ideal power factor
  is ``(2 sqrt(2) / pi) cos(delta)``.

The rectifier and bridge are truncated at ``n_max``, :data:`DEFAULT_N_MAX`
unless given.  The highest order each would build (the largest even order
up to ``n_max`` for the rectifier, the largest odd one for the bridge) is
checked against :data:`~memsynth.harmonics.MAX_HARMONIC_ORDER` before
anything is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError
from .harmonics import HarmonicSpectrum, SupplyVoltage, check_order_limit

#: truncation order used when none is requested
DEFAULT_N_MAX = 199

MOTIVATING_AMPLITUDE = 230.0 * math.sqrt(2.0)
MOTIVATING_OMEGA = 100.0 * math.pi


def motivating_supply() -> SupplyVoltage:
    return SupplyVoltage(MOTIVATING_AMPLITUDE, MOTIVATING_OMEGA)


def motivating_spectrum() -> HarmonicSpectrum:
    """The fixed three-term example load: a1 = -100 sqrt2, b1 = 80 sqrt2, a2 = 50 sqrt2."""
    s2 = math.sqrt(2.0)
    return HarmonicSpectrum(
        omega=MOTIVATING_OMEGA,
        dc=0.0,
        cos=(-100.0 * s2, 50.0 * s2),
        sin=(80.0 * s2, 0.0),
    )


def rectifier_spectrum(
    amplitude: float, omega: float, n_max: int = DEFAULT_N_MAX
) -> HarmonicSpectrum:
    """Half-wave rectified sine through a unit resistance, truncated at n_max."""
    amplitude = float(amplitude)
    omega = float(omega)
    if not (math.isfinite(amplitude) and amplitude > 0):
        raise ValidationError("rectifier amplitude must be positive")
    n_max = int(n_max)
    if n_max < 2:
        raise ValidationError("rectifier spectrum needs n_max >= 2")
    top = n_max - n_max % 2  # the highest even order
    check_order_limit(top)
    cos = np.zeros(top)
    sin = np.zeros(top)
    sin[0] = amplitude / 2.0
    n = np.arange(2, top + 1, 2)
    cos[n - 1] = -2.0 * amplitude / (math.pi * (n * n - 1))
    return HarmonicSpectrum(omega, amplitude / math.pi, cos, sin)


def bridge_spectrum(
    i_dc: float, delta: float, omega: float, n_max: int = DEFAULT_N_MAX
) -> HarmonicSpectrum:
    """Square-wave line current of amplitude i_dc delayed by angle delta."""
    i_dc = float(i_dc)
    delta = float(delta)
    if not (math.isfinite(i_dc) and i_dc > 0):
        raise ValidationError("bridge dc-side current must be positive")
    if not (0.0 <= delta <= math.pi):
        raise ValidationError("bridge delay angle must lie in [0, pi]")
    n_max = int(n_max)
    if n_max < 1:
        raise ValidationError("bridge spectrum needs n_max >= 1")
    check_order_limit(n_max - 1 + n_max % 2)  # the highest odd order
    n = np.arange(1, n_max + 1, 2)
    # math.sin and math.cos, not np.sin and np.cos, whose last bits may differ
    angles = (n * delta).tolist()
    with np.errstate(invalid="ignore"):  # an infinite base times a zero is nan, as in floats
        base = 4.0 * i_dc / (n * math.pi)
        a = -base * np.array(list(map(math.sin, angles)))
        b = base * np.array(list(map(math.cos, angles)))
    kept = ~((np.abs(a) < 1e-15) & (np.abs(b) < 1e-15))  # a nan term is kept, and refused
    return HarmonicSpectrum._scatter(omega, 0.0, n[kept], a[kept], b[kept])


class LoadKind(str, Enum):
    MOTIVATING = "motivating"
    RECTIFIER = "rectifier"
    BRIDGE = "bridge"


@dataclass(frozen=True)
class LoadModel:
    """Parameter bundle the command line turns into supply + spectrum."""

    kind: LoadKind
    amplitude: float = MOTIVATING_AMPLITUDE
    omega: float = MOTIVATING_OMEGA
    n_max: int = DEFAULT_N_MAX
    i_dc: float = 1.0
    delta: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", LoadKind(self.kind))

    def supply(self) -> SupplyVoltage:
        if self.kind is LoadKind.MOTIVATING:
            return motivating_supply()
        return SupplyVoltage(self.amplitude, self.omega)

    def spectrum(self) -> HarmonicSpectrum:
        if self.kind is LoadKind.MOTIVATING:
            return motivating_spectrum()
        if self.kind is LoadKind.RECTIFIER:
            return rectifier_spectrum(self.amplitude, self.omega, self.n_max)
        return bridge_spectrum(self.i_dc, self.delta, self.omega, self.n_max)
