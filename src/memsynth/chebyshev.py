"""Chebyshev series with an affine argument map.

A series stores coefficients against either the first-kind basis ``T_k`` or
the second-kind basis ``U_k`` together with a scalar ``scale``.  The value of
the series at a control variable ``v`` (a flux linkage, a charge, ...) is

    p(v) = sum_k coeffs[k] * B_k(scale * v)

so ``scale`` maps the physical control onto the canonical argument
``x = scale * v``.  On a sinusoidal steady state the argument traces
``[-1, 1]``; evaluation outside that interval is permitted and simply
extrapolates the polynomial.

Evaluation uses Clenshaw's backward recurrence, which is backward stable for
both bases.  :func:`evaluate_many` runs it for several (series, control)
pairs at once: the controls lie end to end, so each backward step is one
multiply and one subtract over the whole run, and the step's coefficient is
added only to the stretches of series whose coefficient there is nonzero.
The synthesized elements hold one parity class of orders each, so half of
their coefficients are exactly zero and cost no add.  The run is processed
in blocks of at most :data:`CLENSHAW_BLOCK_POINTS` points, so the scratch
arrays do not grow with the number of series or points.

Skipping an exactly zero coefficient changes no output bit of
``0.0 + (plain recurrence)``, which is what every value is:

* adding ``-0.0`` is the identity;
* adding ``+0.0`` only turns a ``-0.0`` into ``+0.0``.  IEEE ``+ - *`` give
  equal values for operands of equal value, so a skip can flip the sign of a
  zero intermediate but never change a nonzero one;
* the last step adds ``+0.0``, which maps either zero to ``+0.0``;
* a series shorter than the longest one rests at a signed zero until its
  top coefficient ``c``, where ``2x * (+-0) + c - (+-0)`` is exactly ``c``.
  So trailing zero coefficients change nothing, and the pass starts at the
  highest nonzero coefficient of any series.

Derivatives stay inside the two bases: ``d/dx T_n = n U_{n-1}`` exactly, and
a second-kind series is differentiated by first re-expressing it in the
first-kind basis (``U_n = 2(T_n + T_{n-2} + ...)``, lowest term once).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import ArrayValue, NumericalError, ValidationError, finite_floats


class ChebyshevKind(str, Enum):
    FIRST = "first"
    SECOND = "second"


#: points per block of :func:`evaluate_many`; bounds its scratch arrays
CLENSHAW_BLOCK_POINTS = 16384


def evaluate_many(pairs: Sequence[tuple["ChebyshevSeries", object]]) -> list[np.ndarray]:
    """Values of every ``(series, control)`` pair, in one Clenshaw pass.

    Each result has the shape of its control (0-d for a scalar).  Every
    value equals ``0.0 +`` the plain recurrence run on its series alone, bit
    for bit; the module docstring gives the argument.
    """
    series = [s for s, _ in pairs]
    controls = [np.asarray(v, dtype=float) for _, v in pairs]
    flat = [v.ravel() for v in controls]
    bounds = [0, *accumulate(v.size for v in flat)]
    # (k, c_k) of the backward steps that add a coefficient (k = 0 is unused)
    nonzero = [np.flatnonzero(s.coeffs) for s in series]
    terms = [list(zip(k.tolist(), s.coeffs[k].tolist())) for s, k in zip(series, nonzero)]
    top = max((t[-1][0] + 1 for t in terms if t), default=0)
    out = np.empty(bounds[-1])
    for lo in range(0, len(out), CLENSHAW_BLOCK_POINTS):
        hi = min(lo + CLENSHAW_BLOCK_POINTS, len(out))
        # (series index, start and stop in the block, start in the control)
        pieces = [
            (j, max(a, lo) - lo, min(b, hi) - lo, max(a, lo) - a)
            for j, (a, b) in enumerate(zip(bounds, bounds[1:]))
            if a < hi and b > lo
        ]
        _clenshaw_block(out[lo:hi], pieces, series, flat, terms, top)
    return [
        out[a:b] if v.ndim == 1 else out[a:b].reshape(v.shape)
        for a, b, v in zip(bounds, bounds[1:], controls)
    ]


def _clenshaw_block(out, pieces, series, flat, terms, top) -> None:
    """Fill ``out``, one block of :func:`evaluate_many`'s run, piece by piece."""
    n = len(out)
    x = np.empty(n)
    for j, p, q, at in pieces:
        np.multiply(series[j].scale, flat[j][at : at + q - p], out=x[p:q])
    x2 = 2.0 * x
    bufs = [np.zeros(n), np.zeros(n), np.empty(n)]
    views = [[buf[p:q] for _, p, q, _ in pieces] for buf in bufs]
    adds: list[list[tuple[int, float]]] = [[] for _ in range(top)]
    for i, (j, *_) in enumerate(pieces):
        for k, c in terms[j]:
            adds[k].append((i, c))
    # each step computes (2x * b1) + c - b2 in that order, as the textbook
    # recurrence does; b1, b2 and the spare rotate through the three buffers
    b1, b2, spare = 0, 1, 2
    for k in range(top - 1, 0, -1):
        np.multiply(x2, bufs[b1], out=bufs[spare])
        row = views[spare]
        for i, c in adds[k]:
            row[i] += c
        np.subtract(bufs[spare], bufs[b2], out=bufs[spare])
        b1, b2, spare = spare, b1, b2
    for i, (j, p, q, _) in enumerate(pieces):
        s = series[j]
        o = out[p:q]
        arg = x2 if s.kind is ChebyshevKind.SECOND else x
        np.multiply(arg[p:q], views[b1][i], out=o)
        o += s.coeffs[0] if len(s.coeffs) else 0.0
        o -= views[b2][i]
        o += 0.0  # a -0.0 result reads +0.0


@dataclass(frozen=True, eq=False, repr=False)
class ChebyshevSeries(ArrayValue):
    """Finite Chebyshev expansion with argument scaling.

    coeffs[k] multiplies T_k (first kind) or U_k (second kind).  Empty
    coefficients are the zero series.  ``coeffs`` may be given as a
    sequence or a 1-D array; it is stored as a new read-only float64 array,
    which ``==``, ``hash`` and ``repr`` read as a tuple of floats.
    """

    kind: ChebyshevKind
    coeffs: np.ndarray
    scale: float = 1.0

    def __post_init__(self) -> None:
        if type(self.kind) is not ChebyshevKind:  # the Enum call costs ~1 us
            object.__setattr__(self, "kind", ChebyshevKind(self.kind))
        coeffs = finite_floats(self.coeffs, "series coefficients")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "scale", float(self.scale))
        if not math.isfinite(self.scale):
            raise ValidationError("scale must be finite")

    def evaluate(self, v):
        """Series value at control value(s) ``v`` (scalar or array)."""
        (out,) = evaluate_many([(self, v)])
        if out.ndim == 0:
            return float(out)
        return out

    def derivative(self) -> "ChebyshevSeries":
        """d/dv of the series, returned as a second-kind series.

        d/dv sum c_k T_k(s v) = sum_{k>=1} k c_k s U_{k-1}(s v), with the
        argument map unchanged; a second-kind series is first re-expressed
        in the first-kind basis.  Raises :class:`NumericalError` when a
        derivative coefficient leaves float64, as ``k c_k s`` can for a
        large scale: the input was valid, the result cannot be held.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            first = self.coeffs if self.kind is ChebyshevKind.FIRST else _second_to_first(self.coeffs)
            out = np.arange(len(first)) * first * self.scale
        if not np.isfinite(out).all():
            raise NumericalError("derivative coefficients are not finite in float64")
        return ChebyshevSeries(ChebyshevKind.SECOND, out[1:], scale=self.scale)


def _second_to_first(coeffs: np.ndarray) -> np.ndarray:
    """First-kind coefficients of ``sum coeffs[k] U_k``."""
    # one slice-add per k keeps the ascending-k summation order of every
    # out[j]; out starts at +0.0 and never holds -0.0, so skipping a zero
    # term is exact
    out = np.zeros(len(coeffs))
    (nonzero,) = coeffs.nonzero()
    for k, c in zip(nonzero.tolist(), coeffs[nonzero].tolist()):
        out[k:0:-2] += 2.0 * c
        if k % 2 == 0:
            out[0] += c
    return out
