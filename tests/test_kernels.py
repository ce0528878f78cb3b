"""Vector kernels pinned against the plain loops they replace.

The reference loops live here, not in the library.  Kernels that keep the
loop's arithmetic order must match it exactly; the FFT projection and the
verification's steady-state current (one inverse FFT against Clenshaw
simulation) sum in a different order and must match to a tolerance fixed by
float64 round-off.
"""

import math

import numpy as np
import pytest
from hypothesis import given

from memsynth.chebyshev import (
    ChebyshevKind,
    ChebyshevSeries,
    _clenshaw,
    differentiate_first_kind,
    second_to_first_coeffs,
)
from memsynth.elements import (
    COEFF_DROP_TOLERANCE,
    ControlVariable,
    ElementKind,
    MemoryElement,
    inverse_meminductance_from_spectrum,
    memcapacitance_from_cosines,
    memductance_from_sines,
    needs_regularization,
    regularize,
    verify_series_consistency,
)
from memsynth.errors import ValidationError
from memsynth.harmonics import SupplyVoltage, fryze_split, project_waveform, spectrum_negate
from memsynth.loads import LoadKind, LoadModel
from memsynth.synthesis import (
    AssignmentPolicy,
    EvenSineRoute,
    LoadDecomposition,
    PolicyMode,
    decompose_load,
    steady_state_current,
    synthesize_conditioner,
    verification_grid,
)
from memsynth.simulation import SimulationConfig, simulate

from test_properties import SETTINGS, loads


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


# The sparse (n, value) element builders the dense ones replaced, and the
# routing of decompose_load that fed them.


def _reference_clean(entries, what, parity=None):
    seen = {}
    for n, value in entries:
        order = int(n)
        if order != n or order < 1:
            raise ValidationError(f"{what}: harmonic order must be a positive integer")
        value = float(value)
        if not math.isfinite(value):
            raise ValidationError(f"{what}: amplitude at n={order} must be finite")
        if parity is not None and order % 2 != parity:
            raise ValidationError(f"{what}: n={order} has the wrong parity")
        if order in seen:
            raise ValidationError(f"{what}: duplicate harmonic order {order}")
        if abs(value) >= COEFF_DROP_TOLERANCE:
            seen[order] = value
    return dict(sorted(seen.items()))


def _reference_trimmed(values):
    while values and values[-1] == 0.0:
        values.pop()
    return tuple(values)


def _sign_pow(k):
    return -1.0 if k & 1 else 1.0


def _reference_element(kind, u, t, scale):
    return MemoryElement(
        kind=kind,
        control=(ControlVariable.TIME_INTEGRATED_FLUX if kind is ElementKind.MEMINDUCTOR
                 else ControlVariable.FLUX),
        incremental=ChebyshevSeries(ChebyshevKind.SECOND, _reference_trimmed(u), scale=scale),
        constitutive=ChebyshevSeries(ChebyshevKind.FIRST, _reference_trimmed(t), scale=scale),
    )


def _reference_memductance(supply, sines):
    coeffs = _reference_clean(sines, "memductance sine terms")
    if not coeffs:
        raise ValidationError("memductance synthesis needs at least one sine term")
    amp, w = supply.amplitude, supply.omega
    n_top = max(coeffs)
    u = [0.0] * n_top
    t = [0.0] * (n_top + 1)
    for n, b in coeffs.items():
        u[n - 1] = b / amp
        t[n] = -b / (n * w)
    return _reference_element(ElementKind.MEMRISTOR, u, t, -w / amp)


def _reference_meminductance(supply, odd_cosines=(), even_sines=()):
    odd = _reference_clean(odd_cosines, "meminductor odd cosine terms", parity=1)
    even = _reference_clean(even_sines, "meminductor even sine terms", parity=0)
    if not odd and not even:
        raise ValidationError("meminductor synthesis needs at least one term")
    amp, w = supply.amplitude, supply.omega
    n_top = max([*odd, *even])
    u = [0.0] * n_top
    t = [0.0] * (n_top + 1)
    for n, a in odd.items():
        u[n - 1] = (w / amp) * _sign_pow((n + 1) // 2) * a
        t[n] = _sign_pow((n - 1) // 2) * a / (n * w)
    for n, b in even.items():
        u[n - 1] = -(w / amp) * _sign_pow((n + 2) // 2) * b
        t[n] = -_sign_pow(n // 2) * b / (n * w)
    return _reference_element(ElementKind.MEMINDUCTOR, u, t, -(w * w) / amp)


def _reference_memcapacitance(supply, cosines):
    coeffs = _reference_clean(cosines, "memcapacitance cosine terms")
    if not coeffs:
        raise ValidationError("memcapacitance synthesis needs at least one cosine term")
    amp, w = supply.amplitude, supply.omega
    n_top = max(coeffs)
    u = [0.0] * n_top
    t = [0.0] * (n_top + 1)
    for n, a in coeffs.items():
        u[n - 1] = a / (n * w * amp)
        t[n] = -a / (n * n * w * w)
    return _reference_element(ElementKind.MEMCAPACITOR, u, t, -w / amp)


def _reference_decompose(supply, spectrum, policy):
    mode = policy.resolve(spectrum)
    tol = COEFF_DROP_TOLERANCE
    sines = [(n, b) for n, b in enumerate(spectrum.sin, 1) if abs(b) >= tol]
    cosines = [(n, a) for n, a in enumerate(spectrum.cos, 1) if abs(a) >= tol]
    memristor_sines, even_sines = sines, []
    if policy.route_even_sines is EvenSineRoute.MEMINDUCTOR:
        memristor_sines = [(n, b) for n, b in sines if n % 2 == 1]
        even_sines = [(n, b) for n, b in sines if n % 2 == 0]
    odd_cosines, memcap_cosines = [], cosines
    if mode is PolicyMode.INDUCTIVE:
        odd_cosines = [(n, a) for n, a in cosines if n % 2 == 1]
        memcap_cosines = [(n, a) for n, a in cosines if n % 2 == 0]

    dc = memristor = meminductor = memcapacitor = None
    if abs(spectrum.dc) >= tol:
        dc = MemoryElement(kind=ElementKind.DC_SOURCE, scalar_value=spectrum.dc)
    if memristor_sines:
        lone_fundamental = len(memristor_sines) == 1 and memristor_sines[0][0] == 1
        if lone_fundamental and memristor_sines[0][1] > 0.0:
            memristor = MemoryElement(
                kind=ElementKind.RESISTOR, scalar_value=supply.amplitude / memristor_sines[0][1]
            )
        else:
            memristor = _reference_memductance(supply, memristor_sines)
    if odd_cosines or even_sines:
        meminductor = _reference_meminductance(supply, odd_cosines, even_sines)
    if memcap_cosines:
        memcapacitor = _reference_memcapacitance(supply, memcap_cosines)
    companions = []
    if meminductor is not None and needs_regularization(meminductor):
        reg = regularize(meminductor, supply)
        meminductor, companions = reg.element, companions + [reg.companion]
    if memcapacitor is not None and needs_regularization(memcapacitor):
        reg = regularize(memcapacitor, supply)
        memcapacitor, companions = reg.element, companions + [reg.companion]
    return LoadDecomposition(supply, dc, memristor, meminductor, memcapacitor, tuple(companions))


def _assert_same_element(got, want):
    """Equal coefficients, scales and scalars, and equal signs on every zero."""
    assert got == want
    for attr in ("incremental", "constitutive"):
        if getattr(want, attr) is not None:
            got_coeffs, want_coeffs = getattr(got, attr).coeffs, getattr(want, attr).coeffs
            assert np.array_equal(np.signbit(got_coeffs), np.signbit(want_coeffs)), attr


def _assert_same_decompositions(supply, spectrum):
    _, nonactive, _ = fryze_split(supply, spectrum)
    for mode in PolicyMode:
        for route in EvenSineRoute:
            policy = AssignmentPolicy(mode=mode, route_even_sines=route)
            for got, want in [
                (decompose_load(supply, spectrum, policy),
                 _reference_decompose(supply, spectrum, policy)),
                (synthesize_conditioner(supply, spectrum, policy),
                 _reference_decompose(supply, spectrum_negate(nonactive), policy)),
            ]:
                assert got == want, (mode, route)
                for (_, element), (_, reference) in zip(got.branches(), want.branches()):
                    _assert_same_element(element, reference)


#: the loads tests/test_golden.py pins the CLI outputs of
GOLDEN_LOADS = {
    "motivating": LoadModel(LoadKind.MOTIVATING),
    "rectifier-199": LoadModel(LoadKind.RECTIFIER, n_max=199),
    "rectifier-1100": LoadModel(LoadKind.RECTIFIER, n_max=1100),
    "bridge-199": LoadModel(LoadKind.BRIDGE, delta=0.4, n_max=199),
    "bridge-1100": LoadModel(LoadKind.BRIDGE, delta=0.4, n_max=1100),
}


@pytest.mark.parametrize("load", sorted(GOLDEN_LOADS))
def test_decompose_load_matches_the_sparse_reference_on_golden_loads(load):
    model = GOLDEN_LOADS[load]
    _assert_same_decompositions(model.supply(), model.spectrum())


@SETTINGS
@given(loads())
def test_decompose_load_matches_the_sparse_reference(load):
    _assert_same_decompositions(*load)


def _assert_spectral_current_matches_clenshaw(supply, spectrum):
    _, nonactive, _ = fryze_split(supply, spectrum)
    spp = verification_grid(max(spectrum.n_max, 1))
    for mode in PolicyMode:
        for route in EvenSineRoute:
            policy = AssignmentPolicy(mode=mode, route_even_sines=route)
            for network in (decompose_load(supply, spectrum, policy),
                            synthesize_conditioner(supply, spectrum, policy)):
                got = steady_state_current(network, spp)
                want = simulate(network, SimulationConfig(1, spp)).i_total
                tol = 1e-12 * float(np.max(np.abs(want)))
                assert np.max(np.abs(got - want)) <= tol, (mode, route)


@pytest.mark.parametrize("load", sorted(GOLDEN_LOADS))
def test_spectral_current_matches_clenshaw_on_golden_loads(load):
    model = GOLDEN_LOADS[load]
    _assert_spectral_current_matches_clenshaw(model.supply(), model.spectrum())


@SETTINGS
@given(loads())
def test_spectral_current_matches_clenshaw(load):
    _assert_spectral_current_matches_clenshaw(*load)


def _sparse(dense, orders):
    return [(n, dense[n - 1]) for n in orders]


def _built(build):
    try:
        return build()
    except ValidationError:
        return None


@pytest.mark.parametrize("seed", range(20))
def test_dense_builders_match_the_sparse_reference(seed):
    rng = np.random.default_rng(seed)
    supply = SupplyVoltage(float(rng.uniform(1.0, 1000.0)), float(rng.uniform(1.0, 1000.0)))
    size = int(rng.integers(1, 80))
    # zero, -0.0 and negligible entries among the amplitudes, the top order included
    cos, sin = rng.uniform(-10.0, 10.0, size=(2, size)) * rng.choice(
        [0.0, -0.0, 1e-16, 1.0, 1.0, 1.0], size=(2, size)
    )
    orders = range(1, size + 1)
    odd_cos, even_sin = cos.copy(), sin.copy()
    odd_cos[1::2] = even_sin[::2] = 0.0
    for build, reference in [
        (lambda: memductance_from_sines(supply, sin),
         lambda: _reference_memductance(supply, _sparse(sin, orders))),
        (lambda: memcapacitance_from_cosines(supply, cos),
         lambda: _reference_memcapacitance(supply, _sparse(cos, orders))),
        (lambda: inverse_meminductance_from_spectrum(supply, odd_cos, even_sin),
         lambda: _reference_meminductance(
             supply, _sparse(odd_cos, orders[::2]), _sparse(even_sin, orders[1::2]))),
    ]:
        got, want = _built(build), _built(reference)
        if want is None:
            assert got is None
        else:
            _assert_same_element(got, want)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_dense_builders_trim_terms_that_overflowed_like_the_reference():
    # omega^2 = 1e308 is a valid supply, but n^2 omega^2 overflows from n = 2
    # on (numpy warns, Python floats did not), so every T_n term
    # -a_n/(n^2 omega^2) is -0.0 and both builders drop them
    supply = SupplyVoltage(1.0, 1e154)
    got = memcapacitance_from_cosines(supply, [0.0, 0.0, 2.0, 0.0, 1.0])
    _assert_same_element(got, _reference_memcapacitance(supply, [(3, 2.0), (5, 1.0)]))
    assert got.constitutive.coeffs == ()
