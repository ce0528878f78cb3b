"""Chebyshev series with an affine argument map.

A series stores coefficients against either the first-kind basis ``T_k`` or
the second-kind basis ``U_k`` together with a scalar ``scale``.  The value of
the series at a control variable ``v`` (a flux linkage, a charge, ...) is

    p(v) = offset + sum_k coeffs[k] * B_k(scale * v)

so ``scale`` maps the physical control onto the canonical argument
``x = scale * v``.  On a sinusoidal steady state the argument traces
``[-1, 1]``; evaluation outside that interval is permitted and simply
extrapolates the polynomial.

Evaluation uses Clenshaw's backward recurrence, which is backward stable for
both bases.  Derivatives stay inside the two bases: ``d/dx T_n = n U_{n-1}``
exactly, and a second-kind series is differentiated by first re-expressing it
in the first-kind basis (``U_n = 2(T_n + T_{n-2} + ...)``, lowest term once).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ValidationError


class ChebyshevKind(str, Enum):
    FIRST = "first"
    SECOND = "second"


def _clenshaw(coeffs: Sequence[float], x: np.ndarray, second_kind: bool) -> np.ndarray:
    # Three rotating buffers; each step computes (2x * b1) + c - b2 in that
    # order, so results match the textbook recurrence bit for bit.
    x2 = 2.0 * x
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    spare = np.empty_like(x)
    for c in coeffs[:0:-1]:
        np.multiply(x2, b1, out=spare)
        spare += c
        spare -= b2
        b1, b2, spare = spare, b1, b2
    c0 = coeffs[0] if len(coeffs) else 0.0
    if second_kind:
        return c0 + x2 * b1 - b2
    return c0 + x * b1 - b2


@dataclass(frozen=True)
class ChebyshevSeries:
    """Finite Chebyshev expansion with argument scaling.

    coeffs[k] multiplies T_k (first kind) or U_k (second kind).  An empty
    coefficient tuple is the zero series.
    """

    kind: ChebyshevKind
    coeffs: tuple[float, ...]
    scale: float = 1.0
    offset: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ChebyshevKind(self.kind))
        coeffs = tuple(float(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "offset", float(self.offset))
        if not all(np.isfinite(coeffs)):
            raise ValidationError("series coefficients must be finite")
        if not (np.isfinite(self.scale) and np.isfinite(self.offset)):
            raise ValidationError("scale and offset must be finite")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, v):
        """Series value at control value(s) ``v`` (scalar or array)."""
        arr = np.asarray(v, dtype=float)
        x = self.scale * arr
        out = self.offset + _clenshaw(self.coeffs, x, self.kind is ChebyshevKind.SECOND)
        if arr.ndim == 0:
            return float(out)
        return out

    def derivative(self) -> "ChebyshevSeries":
        """d/dv of the series, returned as a second-kind series."""
        if self.kind is ChebyshevKind.FIRST:
            return differentiate_first_kind(self)
        return differentiate_second_kind(self)


def differentiate_first_kind(series: ChebyshevSeries) -> ChebyshevSeries:
    """Differentiate a first-kind series with respect to its control.

    d/dv [offset + sum c_k T_k(s v)] = sum_{k>=1} k c_k s U_{k-1}(s v); the
    offset drops and the argument map is unchanged.
    """
    if series.kind is not ChebyshevKind.FIRST:
        raise ValidationError("expected a first-kind series")
    out = tuple(k * c * series.scale for k, c in enumerate(series.coeffs))[1:]
    return ChebyshevSeries(ChebyshevKind.SECOND, out, scale=series.scale)


def second_to_first_coeffs(coeffs: Sequence[float]) -> tuple[float, ...]:
    """Re-express sum c_k U_k as a first-kind coefficient vector."""
    # one slice-add per k keeps the ascending-k summation order of every out[j]
    out = np.zeros(len(coeffs))
    for k, c in enumerate(coeffs):
        out[k:0:-2] += 2.0 * c
        if k % 2 == 0:
            out[0] += c
    return tuple(out.tolist())


def differentiate_second_kind(series: ChebyshevSeries) -> ChebyshevSeries:
    """Differentiate a second-kind series with respect to its control."""
    if series.kind is not ChebyshevKind.SECOND:
        raise ValidationError("expected a second-kind series")
    first = second_to_first_coeffs(series.coeffs)
    out = tuple(k * c * series.scale for k, c in enumerate(first))[1:]
    return ChebyshevSeries(ChebyshevKind.SECOND, out, scale=series.scale)
