"""Chebyshev series pinned against trig identities, numpy, and closed forms."""

import math

import numpy as np
import pytest

from memsynth.chebyshev import (
    ChebyshevKind,
    ChebyshevSeries,
    differentiate_first_kind,
    differentiate_second_kind,
    second_to_first_coeffs,
)
from memsynth.errors import ValidationError

from chebyshev_identities import chebyshev_identity_suite


def test_first_kind_spot_value():
    t2 = ChebyshevSeries(ChebyshevKind.FIRST, (0.0, 0.0, 1.0))
    # T2(x) = 2x^2 - 1
    assert t2.evaluate(0.25) == pytest.approx(-0.875, abs=1e-15)


def test_second_kind_spot_value():
    u3 = ChebyshevSeries(ChebyshevKind.SECOND, (0.0, 0.0, 0.0, 1.0))
    # U3(x) = 8x^3 - 4x
    assert u3.evaluate(0.5) == pytest.approx(-1.0, abs=1e-14)


def test_scaled_u1_matches_two_cosine():
    amp = 230.0 * math.sqrt(2.0)
    w = 100.0 * math.pi
    series = ChebyshevSeries(ChebyshevKind.SECOND, (0.0, 1.0), scale=-w / amp)
    t = np.linspace(0.0, 0.02, 257)
    phi = -(amp / w) * np.cos(w * t)
    # U1(cos) = 2 cos
    assert np.allclose(series.evaluate(phi), 2.0 * np.cos(w * t), atol=1e-12)


def test_first_kind_matches_numpy_chebval():
    rng = np.random.default_rng(7)
    coeffs = tuple(rng.uniform(-2.0, 2.0, size=9))
    series = ChebyshevSeries(ChebyshevKind.FIRST, coeffs, scale=0.8, offset=0.3)
    x = rng.uniform(-1.5, 1.5, size=64)
    expected = 0.3 + np.polynomial.chebyshev.chebval(0.8 * x, list(coeffs))
    assert np.allclose(series.evaluate(x), expected, rtol=1e-12, atol=1e-12)


def _naive_eval(coeffs, x, second_kind):
    total = np.zeros_like(x)
    p_prev = np.ones_like(x)
    p_cur = 2.0 * x if second_kind else x.copy()
    for k, c in enumerate(coeffs):
        p = p_prev if k == 0 else p_cur
        total = total + c * p
        if k >= 1:
            p_cur, p_prev = 2.0 * x * p_cur - p_prev, p_cur
    return total


@pytest.mark.parametrize("kind", [ChebyshevKind.FIRST, ChebyshevKind.SECOND])
def test_clenshaw_matches_naive_recurrence_degree_200(kind):
    rng = np.random.default_rng(11)
    coeffs = tuple(rng.uniform(-1.0, 1.0, size=201))
    series = ChebyshevSeries(kind, coeffs)
    x = rng.uniform(-1.5, 1.5, size=200)
    got = series.evaluate(x)
    want = _naive_eval(coeffs, x, kind is ChebyshevKind.SECOND)
    denom = np.maximum(np.abs(want), 1.0)
    assert np.max(np.abs(got - want) / denom) <= 1e-13


def test_empty_series_evaluates_to_offset():
    zero = ChebyshevSeries(ChebyshevKind.FIRST, ())
    assert zero.evaluate(3.7) == 0.0
    shifted = ChebyshevSeries(ChebyshevKind.SECOND, (), offset=2.5)
    assert shifted.evaluate(-1.0) == 2.5


def test_scalar_and_array_evaluate_agree():
    series = ChebyshevSeries(ChebyshevKind.SECOND, (1.0, -0.5, 0.25), scale=1.3)
    xs = [-0.7, 0.0, 0.4]
    vec = series.evaluate(np.array(xs))
    for x, v in zip(xs, vec):
        out = series.evaluate(x)
        assert isinstance(out, float)
        assert out == pytest.approx(v, rel=1e-15)


def test_first_kind_derivative_coefficients_exact():
    s = -0.37
    series = ChebyshevSeries(ChebyshevKind.FIRST, (1.5, -2.0, 0.25, 3.0), scale=s, offset=9.9)
    d = series.derivative()
    assert d.kind is ChebyshevKind.SECOND
    assert d.scale == s
    # d/dv T_k(s v) = k s U_{k-1}(s v); the offset drops
    assert d.coeffs == (1.0 * -2.0 * s, 2.0 * 0.25 * s, 3.0 * 3.0 * s)
    assert d.offset == 0.0


def test_derivative_of_line_is_constant():
    series = ChebyshevSeries(ChebyshevKind.FIRST, (0.0, 4.0), scale=2.0)
    d = differentiate_first_kind(series)
    assert d.coeffs == (8.0,)


def test_derivative_of_constant_is_zero_series():
    series = ChebyshevSeries(ChebyshevKind.FIRST, (5.0,), scale=3.0)
    assert differentiate_first_kind(series).coeffs == ()


@pytest.mark.parametrize("kind", [ChebyshevKind.FIRST, ChebyshevKind.SECOND])
def test_derivative_matches_central_difference(kind):
    rng = np.random.default_rng(23)
    series = ChebyshevSeries(kind, tuple(rng.uniform(-1.0, 1.0, size=7)), scale=-1.7)
    d = series.derivative()
    h = 1e-6
    for v in (-0.5, -0.1, 0.2, 0.55):
        fd = (series.evaluate(v + h) - series.evaluate(v - h)) / (2.0 * h)
        assert d.evaluate(v) == pytest.approx(fd, rel=1e-6)


def test_second_to_first_conversion_by_evaluation():
    rng = np.random.default_rng(31)
    coeffs = tuple(rng.uniform(-1.0, 1.0, size=12))
    u_series = ChebyshevSeries(ChebyshevKind.SECOND, coeffs)
    t_series = ChebyshevSeries(ChebyshevKind.FIRST, second_to_first_coeffs(coeffs))
    x = np.linspace(-1.0, 1.0, 401)
    assert np.allclose(u_series.evaluate(x), t_series.evaluate(x), atol=1e-12)


def test_differentiate_second_kind_wrong_input_kind():
    t = ChebyshevSeries(ChebyshevKind.FIRST, (0.0, 1.0))
    with pytest.raises(ValidationError):
        differentiate_second_kind(t)
    u = ChebyshevSeries(ChebyshevKind.SECOND, (0.0, 1.0))
    with pytest.raises(ValidationError):
        differentiate_first_kind(u)


def test_identity_suite_small_orders():
    report = chebyshev_identity_suite(10, grid_points=1000)
    assert report.max_error <= 1e-12
    assert report.max_error == max(
        report.max_error_first_kind, report.max_error_second_kind
    )
    assert report.n_max == 10
    assert report.grid_points == 1000


def test_identity_suite_validation():
    with pytest.raises(ValidationError):
        chebyshev_identity_suite(0)
    with pytest.raises(ValidationError):
        chebyshev_identity_suite(5, grid_points=1)


def test_series_rejects_nonfinite():
    with pytest.raises(ValidationError):
        ChebyshevSeries(ChebyshevKind.FIRST, (1.0, float("nan")))
    with pytest.raises(ValidationError):
        ChebyshevSeries(ChebyshevKind.FIRST, (1.0,), scale=float("inf"))
