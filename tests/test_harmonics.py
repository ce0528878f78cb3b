"""Spectra, waveforms, Fourier projection, powers, and the Fryze split."""

import copy
import math
import re

import numpy as np
import pytest

from memsynth.errors import ValidationError
from memsynth.harmonics import (
    MAX_HARMONIC_ORDER,
    HarmonicSpectrum,
    SupplyVoltage,
    _check_frequency,
    compute_powers,
    evaluate_waveform,
    fryze_split,
    project_waveform,
    spectrum_negate,
)
from memsynth.loads import (
    MOTIVATING_AMPLITUDE,
    MOTIVATING_OMEGA,
    bridge_spectrum,
    motivating_spectrum,
    motivating_supply,
    rectifier_spectrum,
)

from entry_paths import sparse_spectrum

SQRT2 = math.sqrt(2.0)


def test_supply_basic_quantities():
    supply = motivating_supply()
    assert supply.amplitude == pytest.approx(230.0 * SQRT2)
    assert supply.period == pytest.approx(0.02)
    assert supply.rms == pytest.approx(230.0)
    assert float(supply.voltage(0.005)) == pytest.approx(supply.amplitude)
    assert float(supply.flux(0.0)) == pytest.approx(-supply.amplitude / supply.omega)
    assert float(supply.integrated_flux(0.0)) == 0.0


def test_supply_validation():
    with pytest.raises(ValidationError):
        SupplyVoltage(0.0, 1.0)
    with pytest.raises(ValidationError):
        SupplyVoltage(1.0, -2.0)


@pytest.mark.parametrize("amplitude, omega", [
    (1.0, 1e155),     # w^2 overflows: w^2/A inf, A/w^2 zero
    (1e-300, 1e10),   # w/A overflows
    (1e300, 1e-10),   # A/w overflows
    (1e10, 1e-160),   # A/w^2 overflows
    (1e-10, 1e-170),  # w^2 underflows to zero
])
def test_supply_rejects_scales_outside_float64(amplitude, omega):
    with pytest.raises(ValidationError, match="outside the float64 range"):
        SupplyVoltage(amplitude, omega)


def test_supply_accepts_extreme_but_finite_scales():
    # w^2 = 1e308 and A/w^2 = 1e-308 (subnormal, nonzero) are still representable
    supply = SupplyVoltage(1.0, 1e154)
    assert float(supply.integrated_flux(supply.period / 4.0)) == pytest.approx(-1e-308)


def test_spectrum_lookup_and_nmax():
    spec = motivating_spectrum()
    assert spec.n_max == 2
    assert spec.a(1) == pytest.approx(-100.0 * SQRT2)
    assert spec.b(1) == pytest.approx(80.0 * SQRT2)
    assert spec.a(2) == pytest.approx(50.0 * SQRT2)
    assert spec.b(2) == 0.0
    assert spec.a(3) == 0.0


def test_spectrum_validation():
    with pytest.raises(ValidationError):
        HarmonicSpectrum(omega=-1.0)
    with pytest.raises(ValidationError):
        sparse_spectrum(1.0, 0.0, ((0, 1.0, 0.0),))
    with pytest.raises(ValidationError):
        sparse_spectrum(1.0, 0.0, ((2, 1.0, 0.0), (1, 0.0, 1.0)))
    with pytest.raises(ValidationError):
        HarmonicSpectrum(omega=1.0, cos=(float("nan"),), sin=(0.0,))
    with pytest.raises(ValidationError):
        HarmonicSpectrum(omega=1.0, cos=(1.0, 2.0), sin=(0.0,))
    with pytest.raises(ValidationError):
        HarmonicSpectrum(omega=1.0, cos=((1.0,),), sin=((0.0,),))
    with pytest.raises(ValidationError, match="sin amplitudes must be a flat"):
        HarmonicSpectrum(omega=1.0, cos=(1.0,), sin=((0.0,),))
    with pytest.raises(ValidationError):
        HarmonicSpectrum(omega=1.0, cos=(0.0,), sin=(float("inf"),))


def test_spectrum_dict_round_trip():
    spec = rectifier_spectrum(3.0, MOTIVATING_OMEGA, n_max=8)
    again = HarmonicSpectrum.from_dict(spec.to_dict())
    assert again == spec
    # zero orders are left out of the document, except the top one
    top_zero = sparse_spectrum(1.0, 0.5, ((2, 1.0, 0.0), (3, 0.0, 0.0), (5, 0.0, 0.0)))
    assert [h["n"] for h in top_zero.to_dict()["harmonics"]] == [2, 5]
    assert HarmonicSpectrum.from_dict(top_zero.to_dict()) == top_zero
    assert top_zero.n_max == 5


def test_spectrum_from_dict_bounds_the_order_before_allocating():
    doc = {"omega": 1.0, "harmonics": [{"n": MAX_HARMONIC_ORDER + 1, "a": 1.0, "b": 0.0}]}
    with pytest.raises(ValidationError, match="exceeds"):
        HarmonicSpectrum.from_dict(doc)
    doc["harmonics"][0]["n"] = 10**18
    with pytest.raises(ValidationError, match="exceeds"):
        HarmonicSpectrum.from_dict(doc)


def test_no_harmonics_is_the_zero_spectrum():
    spec = sparse_spectrum(2.0, 0.5, [])
    assert (spec.n_max, spec.cos.tolist(), spec.sin.tolist(), spec.dc) == (0, [], [], 0.5)
    assert spec.cos.shape == spec.sin.shape == (0,)


def test_a_spectrum_takes_the_order_limit_itself():
    spec = sparse_spectrum(1.0, 0.0, [(3, 0.5, 0.0), (MAX_HARMONIC_ORDER, 1.0, -2.0)])
    assert spec.n_max == MAX_HARMONIC_ORDER
    assert (spec.a(3), spec.a(MAX_HARMONIC_ORDER), spec.b(MAX_HARMONIC_ORDER)) == (0.5, 1.0, -2.0)
    assert np.count_nonzero(spec.cos) == 2 and np.count_nonzero(spec.sin) == 1


def test_integer_amplitudes_read_as_floats():
    spec = sparse_spectrum(1.0, 0, [(1, 3, -4), (3, 0, 2)])
    assert spec.cos.tolist() == [3.0, 0.0, 0.0] and spec.sin.tolist() == [-4.0, 0.0, 2.0]
    assert type(spec.dc) is float and spec.cos.dtype == spec.sin.dtype == np.float64


def test_a_falling_order_is_refused_before_one_past_the_limit():
    terms = [(MAX_HARMONIC_ORDER + 5, 1.0, 0.0), (3, 1.0, 0.0)]
    with pytest.raises(ValidationError, match="strictly increasing"):
        sparse_spectrum(1.0, 0.0, terms)
    with pytest.raises(ValidationError, match=f"order {MAX_HARMONIC_ORDER + 5} exceeds"):
        sparse_spectrum(1.0, 0.0, terms[:1])


@pytest.mark.parametrize("order", [True, False, 2.0, 1.5, "1", None, np.True_])
def test_an_order_that_is_not_an_integer_is_refused(order):
    with pytest.raises(
        ValidationError, match=re.escape(f"harmonic order n must be an integer, got {order!r}")
    ):
        sparse_spectrum(1.0, 0.0, [(order, 1.0, 0.0)])


_RISING = "harmonic orders must be strictly increasing and >= 1"


def _exceeds(order):
    return f"harmonic order {order} exceeds the limit of {MAX_HARMONIC_ORDER}"


def _spectrum_doc(orders):
    return {"omega": 1.0, "harmonics": [{"n": n, "a": 1.0, "b": 0.0} for n in orders]}


@pytest.mark.parametrize("orders, message", [
    ([0], _RISING),
    ([-1], _RISING),
    ([3, 3], _RISING),
    ([5, 2], _RISING),
    ([MAX_HARMONIC_ORDER + 1], _exceeds(MAX_HARMONIC_ORDER + 1)),
    # a falling order is refused before the limit is checked
    ([MAX_HARMONIC_ORDER + 1, 2], _RISING),
    # orders beyond int64 are compared exactly, with no OverflowError
    ([2**63], _exceeds(2**63)),
    ([2**64], _exceeds(2**64)),
    ([-(2**70)], _RISING),
    ([2, -(2**70)], _RISING),
    ([2**70, 2**71], _exceeds(2**71)),
    ([2**70 + 1, 2**70], _RISING),
    ([2**70, 2**70], _RISING),
    ([2**70, 5], _RISING),
], ids=lambda value: str(value)[:40])
def test_an_order_out_of_range_is_refused_with_its_message(orders, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        HarmonicSpectrum.from_dict(_spectrum_doc(orders))


def test_from_dict_scatters_its_columns():
    doc = _spectrum_doc([2, 5, 6])
    doc["harmonics"][1].update(a=-0.0, b=1e-300)
    spec = HarmonicSpectrum.from_dict(doc)
    assert spec.cos.tolist() == [0.0, 1.0, 0.0, 0.0, -0.0, 1.0]
    assert math.copysign(1.0, spec.cos[4]) == -1.0
    assert spec.sin.tolist() == [0.0, 0.0, 0.0, 0.0, 1e-300, 0.0]
    assert not spec.cos.flags.writeable and not spec.sin.flags.writeable


@pytest.mark.parametrize("term, message", [
    ((1, 10**400, 0.0), "cos amplitudes must lie within the float64 range"),
    ((1, 0.0, -(10**400)), "sin amplitudes must lie within the float64 range"),
    ((1, "one", 0.0), "cos amplitudes must be a flat (1-D) sequence of real numbers"),
    ((1, 0.0, 1j), "sin amplitudes must be a flat (1-D) sequence of real numbers"),
    ((1, "1.5", 0.0), "cos amplitudes must be a flat (1-D) sequence of real numbers"),
    ((1, 0.0, b"1"), "sin amplitudes must be a flat (1-D) sequence of real numbers"),
    ((1, True, 0.0), "cos amplitudes must be a flat (1-D) sequence of real numbers"),
    ((2, 0.0, True), "sin amplitudes must be a flat (1-D) sequence of real numbers"),
    ((2, np.True_, 0.0), "cos amplitudes must be a flat (1-D) sequence of real numbers"),
    ((2, 0.0, np.str_("2")), "sin amplitudes must be a flat (1-D) sequence of real numbers"),
], ids=["huge-cos", "huge-sin", "string", "complex", "numeric-string", "bytes", "bool",
        "bool-among-floats", "numpy-bool", "numpy-string"])
def test_the_constructor_refuses_amplitudes_with_no_float64_form(term, message):
    n, a, b = term
    cos, sin = [0.0] * (n - 1) + [a], [0.0] * (n - 1) + [b]
    with pytest.raises(ValidationError, match=re.escape(message)):
        HarmonicSpectrum(1.0, 0.0, cos, sin)


def test_spectrum_from_dict_validation():
    with pytest.raises(ValidationError):
        HarmonicSpectrum.from_dict({"omega": 1.0})
    with pytest.raises(ValidationError):
        HarmonicSpectrum.from_dict({"omega": 1.0, "harmonics": [{"n": 1, "a": 0.0}]})


_GOOD_DOC = {"omega": 1.0, "dc": 0.5, "harmonics": [{"n": 1, "a": 0.0, "b": 2}]}


def _with(key, value):
    doc = copy.deepcopy(_GOOD_DOC)
    (doc if key in ("omega", "dc") else doc["harmonics"][0])[key] = value
    return doc


def test_spectrum_from_dict_accepts_json_integers():
    spec = HarmonicSpectrum.from_dict(_GOOD_DOC)
    assert (spec.cos.tolist(), spec.sin.tolist()) == ([0.0], [2.0])
    assert spec.dc == 0.5


@pytest.mark.parametrize("value", [1.7, 1.0, True, "1", None])
def test_spectrum_from_dict_rejects_non_integer_order(value):
    with pytest.raises(ValidationError, match="integer"):
        HarmonicSpectrum.from_dict(_with("n", value))


@pytest.mark.parametrize("key", ["a", "b", "omega", "dc"])
@pytest.mark.parametrize("value", ["2", True, False, None, [1.0]])
def test_spectrum_from_dict_rejects_non_numbers(key, value):
    with pytest.raises(ValidationError, match="number"):
        HarmonicSpectrum.from_dict(_with(key, value))


@pytest.mark.parametrize("harmonics", [{}, "", {"n": 1, "a": 0.0, "b": 1.0}, [[1, 0.0, 1.0]]])
def test_spectrum_from_dict_rejects_malformed_harmonics(harmonics):
    with pytest.raises(ValidationError):
        HarmonicSpectrum.from_dict({"omega": 1.0, "harmonics": harmonics})


def test_evaluate_pure_sine():
    spec = sparse_spectrum(1.0, 0.0, ((1, 0.0, 1.0),))
    assert evaluate_waveform(spec, math.pi / 2.0) == pytest.approx(1.0)


def test_evaluate_motivating_at_zero():
    # at t=0 every sine vanishes, so the value is the sum of the cosine
    # amplitudes a1 + a2 = -50*sqrt(2)
    value = evaluate_waveform(motivating_spectrum(), 0.0)
    assert value == pytest.approx(-50.0 * SQRT2, rel=1e-12)
    assert value == pytest.approx(-70.71067811865476, rel=1e-12)


def test_evaluate_array_shape():
    t = np.linspace(0.0, 0.02, 50)
    out = evaluate_waveform(motivating_spectrum(), t)
    assert out.shape == (50,)


def test_project_pure_sine():
    omega = MOTIVATING_OMEGA
    n = 256
    t = np.arange(n) * (2.0 * math.pi / omega) / n
    spec = project_waveform(2.0 * np.sin(omega * t), omega, 4)
    assert spec.dc == pytest.approx(0.0, abs=1e-12)
    assert spec.b(1) == pytest.approx(2.0, rel=1e-9)
    assert spec.a(1) == pytest.approx(0.0, abs=1e-12)


def test_project_recovers_motivating_coefficients():
    spec = motivating_spectrum()
    n = 1024
    t = np.arange(n) * (2.0 * math.pi / spec.omega) / n
    rec = project_waveform(evaluate_waveform(spec, t), spec.omega, 4)
    assert rec.a(1) == pytest.approx(spec.a(1), rel=1e-9)
    assert rec.b(1) == pytest.approx(spec.b(1), rel=1e-9)
    assert rec.a(2) == pytest.approx(spec.a(2), rel=1e-9)


def test_project_half_wave_samples():
    # sampling the true rectified wave, not its truncated series
    amp, omega = 1.0, MOTIVATING_OMEGA
    n = 8192
    t = np.arange(n) * (2.0 * math.pi / omega) / n
    wave = np.maximum(0.0, amp * np.sin(omega * t))
    rec = project_waveform(wave, omega, 4)
    assert rec.dc == pytest.approx(amp / math.pi, abs=1e-6)
    assert rec.b(1) == pytest.approx(amp / 2.0, abs=1e-6)
    assert rec.a(2) == pytest.approx(-2.0 * amp / (3.0 * math.pi), abs=1e-6)


def test_project_round_trip_random_spectrum():
    rng = np.random.default_rng(42)
    omega = MOTIVATING_OMEGA
    orders = sorted(rng.choice(np.arange(1, 200), size=40, replace=False))
    terms = tuple((int(n), rng.uniform(-10, 10), rng.uniform(-10, 10)) for n in orders)
    spec = sparse_spectrum(omega, rng.uniform(-5, 5), terms)
    n = 4 * 199
    t = np.arange(n) * (2.0 * math.pi / omega) / n
    rec = project_waveform(evaluate_waveform(spec, t), omega, 199)
    scale = max(abs(c) for term in terms for c in term[1:])
    assert abs(rec.dc - spec.dc) <= 1e-9 * scale
    for n_ord in range(1, 200):
        assert abs(rec.a(n_ord) - spec.a(n_ord)) <= 1e-9 * scale
        assert abs(rec.b(n_ord) - spec.b(n_ord)) <= 1e-9 * scale


def test_project_sample_count_guard():
    with pytest.raises(ValidationError):
        project_waveform(np.zeros(100), 1.0, 26)
    with pytest.raises(ValidationError):
        project_waveform(np.zeros((10, 10)), 1.0, 2)
    with pytest.raises(ValidationError):
        project_waveform(np.full(64, np.nan), 1.0, 1)


def test_powers_motivating_frozen_values():
    summary = compute_powers(motivating_supply(), motivating_spectrum())
    assert summary.active_power == pytest.approx(18400.0, rel=1e-12)
    assert summary.apparent_power == pytest.approx(31619.772295195296, rel=1e-12)
    assert summary.power_factor == pytest.approx(0.5819143739626463, rel=1e-12)
    assert summary.rms_voltage == pytest.approx(230.0)
    assert summary.apparent_power >= abs(summary.active_power)


def test_powers_purely_active_unity_pf():
    supply = SupplyVoltage(10.0, 1.0)
    spec = sparse_spectrum(1.0, 0.0, ((1, 0.0, 4.0),))
    assert compute_powers(supply, spec).power_factor == pytest.approx(1.0, abs=1e-15)


def test_powers_dc_weighting_conventions():
    supply = SupplyVoltage(10.0, 1.0)
    spec = sparse_spectrum(1.0, 3.0, ((1, 0.0, 4.0),))
    rms = compute_powers(supply, spec, "rms")
    paper = compute_powers(supply, spec, "paper")
    assert rms.rms_current == pytest.approx(math.sqrt(9.0 + 8.0), rel=1e-12)
    assert paper.rms_current == pytest.approx(math.sqrt(4.5 + 8.0), rel=1e-12)
    assert rms.active_power == paper.active_power == pytest.approx(20.0)
    with pytest.raises(ValidationError):
        compute_powers(supply, spec, "median")


def test_powers_bridge_delta_zero_matches_formula():
    supply = SupplyVoltage(1.0, MOTIVATING_OMEGA)
    spec = bridge_spectrum(1.0, 0.0, MOTIVATING_OMEGA, n_max=199)
    pf = compute_powers(supply, spec).power_factor
    target = 2.0 * SQRT2 / math.pi
    assert abs(pf - target) / target <= 5e-3


def test_powers_frequency_mismatch():
    supply = SupplyVoltage(1.0, 100.0)
    spec = sparse_spectrum(101.0, 0.0, ((1, 0.0, 1.0),))
    with pytest.raises(ValidationError):
        compute_powers(supply, spec)


def test_parseval_rms_convention():
    # waveform rms over one period must equal the spectral rms with the dc
    # term fully weighted
    supply = SupplyVoltage(1.0, MOTIVATING_OMEGA)
    spec = rectifier_spectrum(1.0, MOTIVATING_OMEGA, n_max=40)
    n = 10_000
    t = np.arange(n) * supply.period / n
    wave_rms = float(np.sqrt(np.mean(evaluate_waveform(spec, t) ** 2)))
    summary = compute_powers(supply, spec)
    assert wave_rms == pytest.approx(summary.rms_current, rel=1e-6)


def test_fryze_split_motivating():
    supply = motivating_supply()
    spec = motivating_spectrum()
    active, nonactive, dc = fryze_split(supply, spec)
    assert dc == 0.0
    assert active.cos.tolist() == [0.0, 0.0]
    assert active.sin.tolist() == [80.0 * SQRT2, 0.0]
    assert nonactive.b(1) == 0.0
    assert nonactive.a(1) == pytest.approx(-100.0 * SQRT2)
    assert nonactive.a(2) == pytest.approx(50.0 * SQRT2)
    # the split carries all the power in the active part
    assert compute_powers(supply, active).power_factor == pytest.approx(1.0)
    assert compute_powers(supply, nonactive).active_power == 0.0


def test_fryze_split_rectifier_reports_dc():
    supply = SupplyVoltage(1.0, MOTIVATING_OMEGA)
    spec = rectifier_spectrum(1.0, MOTIVATING_OMEGA, n_max=10)
    active, nonactive, dc = fryze_split(supply, spec)
    assert dc == pytest.approx(1.0 / math.pi)
    assert active.b(1) == pytest.approx(0.5)
    assert nonactive.dc == 0.0
    assert not any(nonactive.sin)


def test_fryze_split_purely_active():
    supply = SupplyVoltage(10.0, 1.0)
    spec = sparse_spectrum(1.0, 0.0, ((1, 0.0, 4.0),))
    active, nonactive, dc = fryze_split(supply, spec)
    assert active == spec
    assert not any(nonactive.cos.tolist() + nonactive.sin.tolist())
    assert dc == 0.0


def test_fryze_orthogonality():
    supply = SupplyVoltage(1.0, MOTIVATING_OMEGA)
    spec = bridge_spectrum(2.0, math.pi / 5.0, MOTIVATING_OMEGA, n_max=99)
    active, nonactive, _ = fryze_split(supply, spec)
    n = 4096
    t = np.arange(n) * supply.period / n
    wa = evaluate_waveform(active, t)
    wn = evaluate_waveform(nonactive, t)
    rms = math.sqrt(float(np.mean(wa**2)) * float(np.mean(wn**2)))
    assert abs(float(np.mean(wa * wn))) <= 1e-12 * rms


def spectrum_add(*spectra):
    """Coefficient-wise sum; all spectra must share one frequency."""
    omega = spectra[0].omega
    top = max(spec.n_max for spec in spectra)
    dc = 0.0
    cos = np.zeros(top)
    sin = np.zeros(top)
    for spec in spectra:
        _check_frequency(omega, spec.omega)
        dc += spec.dc
        cos[: spec.n_max] += spec.cos
        sin[: spec.n_max] += spec.sin
    return HarmonicSpectrum(omega, dc, cos, sin)


def test_spectrum_negate_and_add():
    spec = motivating_spectrum()
    neg = spectrum_negate(spec)
    assert neg.a(2) == pytest.approx(-50.0 * SQRT2)
    cancelled = spectrum_add(spec, neg)
    assert not any(cancelled.cos.tolist() + cancelled.sin.tolist())
    assert cancelled.dc == 0.0
    active, nonactive, dc = fryze_split(motivating_supply(), spec)
    rebuilt = spectrum_add(
        active, nonactive, HarmonicSpectrum(spec.omega, dc=dc)
    )
    assert rebuilt == spec


def test_spectrum_add_frequency_mismatch():
    a = sparse_spectrum(1.0, 0.0, ((1, 1.0, 0.0),))
    b = sparse_spectrum(2.0, 0.0, ((1, 1.0, 0.0),))
    with pytest.raises(ValidationError):
        spectrum_add(a, b)


def test_pf_bounds_random_spectra():
    rng = np.random.default_rng(5)
    supply = SupplyVoltage(100.0, MOTIVATING_OMEGA)
    for _ in range(50):
        orders = sorted(rng.choice(np.arange(1, 30), size=6, replace=False))
        terms = []
        for n in orders:
            b = abs(rng.uniform(0, 5)) if n == 1 else rng.uniform(-5, 5)
            terms.append((int(n), rng.uniform(-5, 5), b))
        spec = sparse_spectrum(MOTIVATING_OMEGA, rng.uniform(-3, 3), terms)
        summary = compute_powers(supply, spec)
        assert 0.0 <= summary.power_factor <= 1.0
        assert summary.apparent_power >= abs(summary.active_power)
