"""Benchmark load spectra: closed-form coefficients and truncation quality."""

import math
import tracemalloc

import numpy as np
import pytest

from memsynth.errors import ValidationError
from memsynth.harmonics import (
    MAX_HARMONIC_ORDER,
    compute_powers,
    evaluate_waveform,
)
from memsynth.loads import (
    MOTIVATING_AMPLITUDE,
    MOTIVATING_OMEGA,
    LoadKind,
    LoadModel,
    bridge_spectrum,
    motivating_spectrum,
    motivating_supply,
    rectifier_spectrum,
)

from entry_paths import sparse_spectrum

OMEGA = MOTIVATING_OMEGA
PERIOD = 2.0 * math.pi / OMEGA


def test_motivating_fixtures():
    supply = motivating_supply()
    assert supply.amplitude == pytest.approx(230.0 * math.sqrt(2.0), rel=1e-15)
    assert supply.omega == pytest.approx(100.0 * math.pi, rel=1e-15)
    assert supply.rms == pytest.approx(230.0, rel=1e-12)
    spec = motivating_spectrum()
    s2 = math.sqrt(2.0)
    assert spec.dc == 0.0
    assert spec.a(1) == -100.0 * s2
    assert spec.b(1) == 80.0 * s2
    assert spec.a(2) == 50.0 * s2
    assert spec.b(2) == 0.0
    assert spec.n_max == 2


def test_rectifier_coefficients():
    amp = 10.0
    spec = rectifier_spectrum(amp, OMEGA, n_max=5)
    assert spec.dc == pytest.approx(amp / math.pi, rel=1e-15)
    assert spec.b(1) == amp / 2.0
    assert spec.a(2) == pytest.approx(-2.0 * amp / (3.0 * math.pi), rel=1e-15)
    assert spec.a(4) == pytest.approx(-2.0 * amp / (15.0 * math.pi), rel=1e-15)
    # no odd cosines and nothing above the requested truncation
    assert spec.a(1) == 0.0
    assert spec.a(3) == 0.0
    assert spec.a(5) == 0.0
    assert spec.n_max == 4


def test_rectifier_validation():
    with pytest.raises(ValidationError):
        rectifier_spectrum(0.0, OMEGA, n_max=10)
    with pytest.raises(ValidationError):
        rectifier_spectrum(-5.0, OMEGA, n_max=10)
    with pytest.raises(ValidationError):
        rectifier_spectrum(1.0, OMEGA, n_max=1)
    # the highest even order at or below n_max is checked before anything is allocated
    assert rectifier_spectrum(1.0, OMEGA, MAX_HARMONIC_ORDER + 1).n_max == MAX_HARMONIC_ORDER
    with pytest.raises(ValidationError, match=f"order {MAX_HARMONIC_ORDER + 2} exceeds the limit"):
        rectifier_spectrum(1.0, OMEGA, n_max=MAX_HARMONIC_ORDER + 3)
    with pytest.raises(ValidationError, match="exceeds the limit"):
        rectifier_spectrum(1.0, OMEGA, n_max=10**18)


def test_rectifier_converges_to_half_wave():
    spec = rectifier_spectrum(1.0, OMEGA, n_max=40)
    peak = evaluate_waveform(spec, PERIOD / 4.0)
    assert peak == pytest.approx(0.9998108667723493, rel=1e-12)

    t = np.arange(8192) * PERIOD / 8192
    true = np.maximum(np.sin(OMEGA * t), 0.0)
    for n_max, bound in ((20, 4e-3), (199, 3e-4)):
        wave = evaluate_waveform(rectifier_spectrum(1.0, OMEGA, n_max), t)
        rel = float(np.sqrt(np.mean((wave - true) ** 2)) / np.sqrt(np.mean(true**2)))
        assert rel <= bound


def test_bridge_coefficients_frozen():
    spec = bridge_spectrum(1.0, math.pi / 3.0, OMEGA, n_max=9)
    assert spec.a(1) == pytest.approx(-1.1026577908435842, rel=1e-15)
    assert spec.b(1) == pytest.approx(0.6366197723675815, rel=1e-15)
    assert spec.b(3) == pytest.approx(-0.4244131815783876, rel=1e-15)
    assert spec.a(2) == 0.0 and spec.b(2) == 0.0
    assert spec.a(4) == 0.0 and spec.b(4) == 0.0


def test_bridge_zero_delay_is_square_wave_sines():
    spec = bridge_spectrum(2.0, 0.0, OMEGA, n_max=9)
    for n in (1, 3, 5, 7, 9):
        assert spec.a(n) == 0.0
        assert spec.b(n) == pytest.approx(8.0 / (n * math.pi), rel=1e-15)


def test_bridge_validation():
    with pytest.raises(ValidationError):
        bridge_spectrum(0.0, 0.0, OMEGA)
    with pytest.raises(ValidationError):
        bridge_spectrum(1.0, -0.1, OMEGA)
    with pytest.raises(ValidationError):
        bridge_spectrum(1.0, math.pi + 0.1, OMEGA)
    with pytest.raises(ValidationError):
        bridge_spectrum(1.0, 0.0, OMEGA, n_max=0)
    # the highest odd order at or below n_max is checked before anything is allocated
    with pytest.raises(ValidationError, match=f"order {MAX_HARMONIC_ORDER + 1} exceeds the limit"):
        bridge_spectrum(1.0, 0.0, OMEGA, n_max=MAX_HARMONIC_ORDER + 2)
    with pytest.raises(ValidationError, match="exceeds the limit"):
        bridge_spectrum(1.0, 0.0, OMEGA, n_max=10**18)


def _bridge_by_loop(i_dc, delta, omega, n_max):
    """The bridge spectrum built term by term in floats: the reference for its numpy build."""
    terms = []
    for n in range(1, n_max + 1, 2):
        base = 4.0 * i_dc / (n * math.pi)
        a = -base * math.sin(n * delta)
        b = base * math.cos(n * delta)
        if abs(a) < 1e-15 and abs(b) < 1e-15:
            continue
        terms.append((n, a, b))
    return sparse_spectrum(omega, 0.0, terms)


@pytest.mark.parametrize("i_dc, delta, n_max", [
    (1.0, 0.0, 1), (2.0, 0.0, 1910), (7.3, 0.61, 1001), (3.0, 2.9, 199), (1.5, math.pi, 8),
    (1.0, math.pi / 2, 9), (19.9, 1.234, 2**14),
    # terms below 1e-15 are left out, and a top order left out shortens n_max
    (1e-15, 0.0, 9), (3e-15, 0.7, 31), (1e-300, 0.3, 9),
])
def test_bridge_matches_the_term_loop_bit_for_bit(i_dc, delta, n_max):
    spec = bridge_spectrum(i_dc, delta, OMEGA, n_max)
    reference = _bridge_by_loop(i_dc, delta, OMEGA, n_max)
    assert spec.n_max == reference.n_max
    assert spec.cos.tobytes() == reference.cos.tobytes()
    assert spec.sin.tobytes() == reference.sin.tobytes()


def test_bridge_with_an_infinite_term_is_refused_without_a_warning():
    # 4 i_dc overflows, and inf * sin(0) is nan: refused as the term loop refuses it
    for build in (bridge_spectrum, _bridge_by_loop):
        with pytest.raises(ValidationError, match="cos amplitudes must be finite"):
            build(1e308, 0.0, OMEGA, 5)


def test_bridge_power_factor_near_ideal():
    supply = motivating_supply()
    delta = math.pi / 4.0
    spec = bridge_spectrum(5.0, delta, OMEGA, n_max=199)
    pf = compute_powers(supply, spec).power_factor
    ideal = (2.0 * math.sqrt(2.0) / math.pi) * math.cos(delta)
    assert abs(pf - ideal) <= 0.005 * ideal


def test_a_large_spectrum_holds_each_amplitude_once():
    # 2^18 orders: two float64 arrays are 4 MiB; a second copy of either
    # form (float tuples take 8 bytes a pointer plus 24 a float) breaks 8 MiB
    tracemalloc.start()
    try:
        spectrum = bridge_spectrum(1.0, 0.0, OMEGA, 2**18)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spectrum.n_max == 2**18 - 1
    assert held < 8 * 2**20


def test_load_model_dispatch():
    model = LoadModel(kind="rectifier", amplitude=2.0, omega=50.0, n_max=6)
    assert model.kind is LoadKind.RECTIFIER
    assert model.spectrum() == rectifier_spectrum(2.0, 50.0, 6)
    assert model.supply().amplitude == 2.0

    bridge = LoadModel(kind=LoadKind.BRIDGE, i_dc=3.0, delta=0.5, n_max=7)
    assert bridge.spectrum() == bridge_spectrum(3.0, 0.5, MOTIVATING_OMEGA, 7)

    # the fixed example ignores whatever supply parameters were passed
    fixed = LoadModel(kind="motivating", amplitude=1.0, omega=1.0)
    assert fixed.supply().amplitude == MOTIVATING_AMPLITUDE
    assert fixed.spectrum() == motivating_spectrum()

    with pytest.raises(ValueError):
        LoadModel(kind="battery")
