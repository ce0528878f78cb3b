"""Shared exception types, the one check every incoming float array passes,
and the value semantics of the frozen classes that store such arrays.

:func:`finite_floats` is how the library takes a sequence of floats from a
caller: series coefficients, spectrum amplitudes, sampled waveforms.  What a
command writes is checked apart, in :mod:`memsynth.textio`, and refused with
:class:`NumericalError` rather than :class:`ValidationError`.
:class:`ArrayValue` lets a frozen class that stores such arrays compare,
hash, print and copy as one that stored tuples of floats would.
"""

from dataclasses import fields

import numpy as np


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class NumericalError(RuntimeError):
    """Raised when a numerical check fails beyond tolerance."""


#: entry types numpy would turn into floats that are not real numbers
_NOT_REAL = (str, bytes, bool, np.bool_)


def finite_floats(values, what: str) -> np.ndarray:
    """``values`` as a new, writable 1-D float64 array.

    Raises :class:`ValidationError` "<what> must be a flat (1-D) sequence"
    for any other shape, "<what> must be finite" for a nan or an inf, and
    two more when a value is not a float64 number: "<what> must lie within
    the float64 range" for an integer beyond it, "<what> must be a flat
    (1-D) sequence of real numbers" for anything else (a string, bytes or a
    boolean, Python or numpy, alone or among numbers; a complex; a ragged
    nest; an array whose dtype is not a float or an integer).
    """
    is_array = isinstance(values, np.ndarray)
    if is_array and values.dtype.kind not in "fiu":
        raise ValidationError(f"{what} must be a flat (1-D) sequence of real numbers")
    try:
        array = np.array(values, dtype=float)
    except OverflowError:
        raise ValidationError(f"{what} must lie within the float64 range") from None
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a flat (1-D) sequence of real numbers") from None
    if array.ndim != 1:
        raise ValidationError(f"{what} must be a flat (1-D) sequence")
    # numpy parses "1.5" and b"1" and takes True as 1.0, so the entries of a
    # sequence get one type pass
    types = set() if is_array else set(map(type, values))
    if not types <= {float, int} and any(issubclass(t, _NOT_REAL) for t in types):
        raise ValidationError(f"{what} must be a flat (1-D) sequence of real numbers")
    if not np.isfinite(array).all():
        raise ValidationError(f"{what} must be finite")
    return array


class ArrayValue:
    """Base of a frozen dataclass whose array fields are read-only float64 arrays.

    ``==``, ``hash`` and ``repr`` read each array as the tuple of its floats:
    equality is by value (``0.0 == -0.0``), and the text keeps every digit,
    as for a dataclass of tuples.  A copy or a pickle rebuilds the instance
    through ``__init__``, so its arrays are read-only too.  The subclass is
    declared ``@dataclass(frozen=True, eq=False, repr=False)``.
    """

    def _values(self) -> tuple:
        """The fields in order, each array as the tuple of its floats."""
        return tuple(
            tuple(value.tolist()) if isinstance(value, np.ndarray) else value
            for value in (getattr(self, f.name) for f in fields(self))
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        names = (f.name for f in fields(self))
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))
