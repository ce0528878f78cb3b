"""Shared exception types, and the one check every incoming float array passes.

:func:`finite_floats` is how the library takes a sequence of floats from a
caller: series coefficients, spectrum amplitudes, sampled waveforms.  What a
command writes is checked apart, in :mod:`memsynth.textio`, and refused with
:class:`NumericalError` rather than :class:`ValidationError`.
"""

import numpy as np


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class NumericalError(RuntimeError):
    """Raised when a numerical check fails beyond tolerance."""


def finite_floats(values, what: str) -> np.ndarray:
    """``values`` as a new, writable 1-D float64 array.

    Raises :class:`ValidationError` "<what> must be a flat (1-D) sequence"
    for any other shape and "<what> must be finite" for a nan or an inf.
    """
    array = np.array(values, dtype=float)
    if array.ndim != 1:
        raise ValidationError(f"{what} must be a flat (1-D) sequence")
    if not np.isfinite(array).all():
        raise ValidationError(f"{what} must be finite")
    return array
