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
    for any other shape, "<what> must be finite" for a nan or an inf, and
    two more when a value has no float64 form: "<what> must lie within the
    float64 range" for an integer beyond it, "<what> must be a flat (1-D)
    sequence of real numbers" for anything else numpy cannot convert (a
    complex, a ragged nest, a string that is not a number).
    """
    try:
        array = np.array(values, dtype=float)
    except OverflowError:
        raise ValidationError(f"{what} must lie within the float64 range") from None
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a flat (1-D) sequence of real numbers") from None
    if array.ndim != 1:
        raise ValidationError(f"{what} must be a flat (1-D) sequence")
    if not np.isfinite(array).all():
        raise ValidationError(f"{what} must be finite")
    return array
