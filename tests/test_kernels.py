"""Vector kernels pinned against the plain loops they replace.

The reference loops live here, not in the library.  Kernels that keep the
loop's arithmetic order must match it exactly; the FFT projection sums in a
different order and must match to a tolerance fixed by float64 round-off.
"""

import numpy as np
import pytest

from memsynth.chebyshev import (
    ChebyshevKind,
    ChebyshevSeries,
    _clenshaw,
    differentiate_first_kind,
    second_to_first_coeffs,
)
from memsynth.elements import ControlVariable, ElementKind, MemoryElement, verify_series_consistency
from memsynth.errors import ValidationError
from memsynth.harmonics import project_waveform


def _direct_projection(samples, n_max):
    """(dc, a[1..n], b[1..n]) by explicit trapezoid sums of cos and sin."""
    theta = 2.0 * np.pi * np.arange(samples.size) / samples.size
    a = [2.0 * float(samples @ np.cos(n * theta)) / samples.size for n in range(1, n_max + 1)]
    b = [2.0 * float(samples @ np.sin(n * theta)) / samples.size for n in range(1, n_max + 1)]
    return float(samples.mean()), np.array(a), np.array(b)


def _reference_second_to_first(coeffs):
    out = [0.0] * len(coeffs)
    for k, c in enumerate(coeffs):
        for j in range(k, 0, -2):
            out[j] += 2.0 * c
        if k % 2 == 0:
            out[0] += c
    return tuple(out)


def _reference_clenshaw(coeffs, x, second_kind):
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    for c in coeffs[:0:-1]:
        b1, b2 = c + 2.0 * x * b1 - b2, b1
    c0 = coeffs[0] if len(coeffs) else 0.0
    if second_kind:
        return c0 + 2.0 * x * b1 - b2
    return c0 + x * b1 - b2


@pytest.mark.parametrize("n_max, samples", [(1, 64), (1, 4), (199, 8192), (199, 796), (50, 200)])
def test_fft_projection_matches_direct_sums(n_max, samples):
    rng = np.random.default_rng(n_max * 1000 + samples)
    wave = rng.normal(size=samples) * 3.0 + 0.7
    got = project_waveform(wave, 2.0, n_max)
    dc, a, b = _direct_projection(wave, n_max)
    tol = 1e-12 * float(np.max(np.abs(wave)))
    assert got.n_max == len(got.cos) == len(got.sin) == n_max
    assert abs(got.dc - dc) <= tol
    assert np.max(np.abs(np.array(got.cos) - a)) <= tol
    assert np.max(np.abs(np.array(got.sin) - b)) <= tol


def test_fft_projection_keeps_its_guards():
    with pytest.raises(ValidationError, match="at least 800"):
        project_waveform(np.zeros(799), 1.0, 200)
    with pytest.raises(ValidationError, match="n_max"):
        project_waveform(np.zeros(64), 1.0, 0)
    with pytest.raises(ValidationError, match="1-D"):
        project_waveform(np.zeros((8, 8)), 1.0, 1)
    with pytest.raises(ValidationError, match="finite"):
        project_waveform(np.array([0.0, 1.0, np.inf, 0.0]), 1.0, 1)


def test_second_to_first_matches_double_loop_exactly():
    rng = np.random.default_rng(3)
    for length in list(range(6)) + list(rng.integers(0, 301, size=30)):
        coeffs = tuple(rng.uniform(-5.0, 5.0, size=int(length)).tolist())
        assert second_to_first_coeffs(coeffs) == _reference_second_to_first(coeffs)


@pytest.mark.parametrize("second_kind", [False, True])
@pytest.mark.parametrize("degree", [0, 1, 2, 7, 300])
def test_clenshaw_matches_tuple_rotation_exactly(second_kind, degree):
    rng = np.random.default_rng(degree + 17 * second_kind)
    coeffs = tuple(rng.uniform(-1.0, 1.0, size=degree + 1).tolist())
    x = rng.uniform(-1.2, 1.2, size=513)
    got = _clenshaw(coeffs, x, second_kind)
    want = _reference_clenshaw(coeffs, x, second_kind)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("second_kind", [False, True])
def test_clenshaw_scalar_and_empty_inputs(second_kind):
    coeffs = (0.5, -1.25, 2.0, 0.75)
    x = np.asarray(0.3)
    assert _clenshaw(coeffs, x, second_kind) == _reference_clenshaw(coeffs, x, second_kind)
    grid = np.linspace(-1.0, 1.0, 9)
    assert np.array_equal(_clenshaw((), grid, second_kind), np.zeros(9))


def _reference_series_consistency(element):
    derived = differentiate_first_kind(element.constitutive).coeffs
    inc = element.incremental.coeffs
    width = max(len(derived), len(inc))
    derived = derived + (0.0,) * (width - len(derived))
    inc = inc + (0.0,) * (width - len(inc))
    return max((abs(x - y) for x, y in zip(derived, inc)), default=0.0)


@pytest.mark.parametrize("n_inc, n_con", [(0, 0), (0, 1), (0, 3), (1, 0), (3, 2), (5, 6), (400, 401)])
def test_series_consistency_matches_the_series_loop_exactly(n_inc, n_con):
    rng = np.random.default_rng(n_inc * 1000 + n_con)
    element = MemoryElement(
        kind=ElementKind.MEMCAPACITOR,
        control=ControlVariable.FLUX,
        incremental=ChebyshevSeries(ChebyshevKind.SECOND, tuple(rng.normal(size=n_inc)), -0.37),
        constitutive=ChebyshevSeries(ChebyshevKind.FIRST, tuple(rng.normal(size=n_con)), -0.37),
    )
    assert verify_series_consistency(element) == _reference_series_consistency(element)
