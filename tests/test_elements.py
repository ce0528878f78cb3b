"""Element synthesis: reconstruction oracles, controls, and regularization.

Each builder is checked against the raw trigonometric target it is supposed
to realize, sampled over one period; tolerances are far below the 1e-9
round-trip budget the package promises.
"""

import math

import numpy as np
import pytest

from memsynth.chebyshev import ChebyshevKind, ChebyshevSeries
from memsynth.elements import (
    ControlVariable,
    ElementKind,
    MemoryElement,
    default_gamma,
    element_from_dict,
    element_to_dict,
    inverse_meminductance_from_spectrum,
    memcapacitance_from_cosines,
    memductance_from_sines,
    needs_regularization,
    regularize,
    verify_series_consistency,
)
from memsynth.errors import ValidationError
from memsynth.harmonics import SupplyVoltage

AMP = 230.0 * math.sqrt(2.0)
OMEGA = 100.0 * math.pi
SUPPLY = SupplyVoltage(AMP, OMEGA)


def _grid(n=4096):
    t = np.arange(n) * (2.0 * math.pi / OMEGA) / n
    u = AMP * np.sin(OMEGA * t)
    phi = -(AMP / OMEGA) * np.cos(OMEGA * t)
    sigma = -(AMP / OMEGA**2) * np.sin(OMEGA * t)
    return t, u, phi, sigma


def _rel_rms(err, ref):
    return float(np.sqrt(np.mean(err**2)) / np.sqrt(np.mean(ref**2)))


def _sum(amplitudes, wave):
    """sum_n amplitudes[n-1] * wave(n)"""
    return sum(x * wave(n) for n, x in enumerate(amplitudes, 1) if x)


def test_memristor_reconstructs_sine_series():
    rng = np.random.default_rng(101)
    sines = np.zeros(50)
    sines[rng.choice(50, size=30, replace=False)] = rng.uniform(-10, 10, size=30)
    element = memductance_from_sines(SUPPLY, sines)
    t, u, phi, _ = _grid()
    target = _sum(sines, lambda n: np.sin(n * OMEGA * t))
    got = element.incremental.evaluate(phi) * u
    assert _rel_rms(got - target, target) <= 1e-12


def test_memristor_constitutive_is_integrated_charge():
    sines = [3.0, -1.5, 0.0, 0.0, 0.25]
    element = memductance_from_sines(SUPPLY, sines)
    t, _, phi, _ = _grid()
    # q(t) = -sum b_n/(n w) cos(n w t), zero-average constant of integration
    target = _sum(sines, lambda n: -np.cos(n * OMEGA * t) / (n * OMEGA))
    got = element.constitutive.evaluate(phi)
    assert np.max(np.abs(got - target)) <= 1e-12


def test_meminductor_reconstructs_mixed_series():
    rng = np.random.default_rng(103)
    odd, even = np.zeros(49), np.zeros(50)
    odd[[0, 2, 6, 18, 48]] = rng.uniform(-10, 10, size=5)
    even[[1, 3, 11, 49]] = rng.uniform(-10, 10, size=4)
    element = inverse_meminductance_from_spectrum(SUPPLY, odd, even)
    t, _, phi, sigma = _grid()
    target = _sum(odd, lambda n: np.cos(n * OMEGA * t))
    target = target + _sum(even, lambda n: np.sin(n * OMEGA * t))
    got = element.incremental.evaluate(sigma) * phi
    assert _rel_rms(got - target, target) <= 1e-12
    assert element.control is ControlVariable.TIME_INTEGRATED_FLUX


def test_memcapacitor_reconstructs_charge():
    rng = np.random.default_rng(107)
    cosines = np.zeros(50)
    cosines[rng.choice(50, size=25, replace=False)] = rng.uniform(-10, 10, size=25)
    element = memcapacitance_from_cosines(SUPPLY, cosines)
    t, u, phi, _ = _grid()
    # branch charge q = sum a_n/(n w) sin(n w t); the current is d/dt of it
    q_target = _sum(cosines, lambda n: np.sin(n * OMEGA * t) / (n * OMEGA))
    q_got = element.incremental.evaluate(phi) * u
    assert _rel_rms(q_got - q_target, q_target) <= 1e-12


def test_builders_reject_bad_terms():
    with pytest.raises(ValidationError, match="at least one"):
        memductance_from_sines(SUPPLY, [])
    with pytest.raises(ValidationError, match="finite"):
        memductance_from_sines(SUPPLY, [1.0, float("inf")])
    with pytest.raises(ValidationError, match="finite"):
        memcapacitance_from_cosines(SUPPLY, [float("nan")])
    with pytest.raises(ValidationError, match="at least one"):
        memductance_from_sines(SUPPLY, [0.0, 0.0, 1e-18])  # everything negligible
    with pytest.raises(ValidationError, match="flat"):
        memductance_from_sines(SUPPLY, [[1.0, 2.0]])
    with pytest.raises(ValidationError, match="odd-order cosines"):
        inverse_meminductance_from_spectrum(SUPPLY, [0.0, 1.0], [])  # an even cosine
    with pytest.raises(ValidationError, match="odd-order cosines"):
        inverse_meminductance_from_spectrum(SUPPLY, [], [0.0, 0.0, 1.0])  # an odd sine
    with pytest.raises(ValidationError, match="finite"):
        inverse_meminductance_from_spectrum(SUPPLY, [float("-inf")], [])
    with pytest.raises(ValidationError, match="at least one"):
        inverse_meminductance_from_spectrum(SUPPLY, [], [])
    with pytest.raises(ValidationError, match="at least one"):
        memcapacitance_from_cosines(SUPPLY, [])
    # a negligible entry counts as zero, whatever its order
    assert inverse_meminductance_from_spectrum(SUPPLY, [1.0, 1e-18], [1e-18]) == (
        inverse_meminductance_from_spectrum(SUPPLY, [1.0], [])
    )


@pytest.mark.parametrize(
    "builder",
    [
        lambda: memductance_from_sines(SUPPLY, [2.0, 0.0, 0.0, -3.0]),
        lambda: inverse_meminductance_from_spectrum(SUPPLY, [2.0, 0.0, 1.0], [0.0, -0.5]),
        lambda: memcapacitance_from_cosines(SUPPLY, [2.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.1]),
    ],
)
def test_incremental_is_derivative_of_constitutive(builder):
    element = builder()
    assert verify_series_consistency(element) <= 1e-12
    # the constitutive series has no T0 term: its time average vanishes
    assert element.constitutive.coeffs[0] == 0.0
    _, _, phi, sigma = _grid()
    control = phi if element.control is ControlVariable.FLUX else sigma
    values = element.constitutive.evaluate(control)
    assert abs(float(np.mean(values))) <= 1e-12 * float(np.max(np.abs(values)))


def test_series_consistency_rejects_lti():
    resistor = MemoryElement(kind=ElementKind.RESISTOR, scalar_value=2.0)
    with pytest.raises(ValidationError):
        verify_series_consistency(resistor)


def test_memory_element_validation():
    series_u = ChebyshevSeries(ChebyshevKind.SECOND, (1.0,))
    series_t = ChebyshevSeries(ChebyshevKind.FIRST, (0.0, 1.0))
    with pytest.raises(ValidationError):
        MemoryElement(kind=ElementKind.MEMRISTOR, incremental=series_u, constitutive=series_t)
    with pytest.raises(ValidationError):
        MemoryElement(
            kind=ElementKind.MEMRISTOR,
            control=ControlVariable.FLUX,
            incremental=series_t,  # wrong kind
            constitutive=series_t,
        )
    with pytest.raises(ValidationError):
        MemoryElement(kind=ElementKind.RESISTOR, scalar_value=-1.0)
    with pytest.raises(ValidationError):
        MemoryElement(kind=ElementKind.RESISTOR, incremental=series_u, scalar_value=1.0)
    with pytest.raises(ValidationError):
        MemoryElement(kind=ElementKind.DC_SOURCE)
    # dc sources may be negative, LTI values may not
    assert MemoryElement(kind=ElementKind.DC_SOURCE, scalar_value=-3.0).scalar_value == -3.0


@pytest.mark.parametrize(
    "kind, control",
    [
        (ElementKind.MEMRISTOR, ControlVariable.TIME_INTEGRATED_FLUX),
        (ElementKind.MEMCAPACITOR, ControlVariable.TIME_INTEGRATED_FLUX),
        (ElementKind.MEMINDUCTOR, ControlVariable.FLUX),
        (ElementKind.MEMRISTOR, None),
    ],
)
def test_memory_element_rejects_mismatched_control(kind, control):
    series_u = ChebyshevSeries(ChebyshevKind.SECOND, (1.0,))
    series_t = ChebyshevSeries(ChebyshevKind.FIRST, (0.0, 1.0))
    with pytest.raises(ValidationError, match="needs control"):
        MemoryElement(kind=kind, control=control, incremental=series_u, constitutive=series_t)
    doc = element_to_dict(memcapacitance_from_cosines(SUPPLY, [2.0]))
    doc["control"] = "charge"  # no charge-controlled element exists
    with pytest.raises(ValidationError):
        element_from_dict(doc)


def test_needs_regularization():
    lone_second = memcapacitance_from_cosines(SUPPLY, [0.0, 5.0])
    assert needs_regularization(lone_second)
    with_linear = memcapacitance_from_cosines(SUPPLY, [2.0, 5.0])
    assert not needs_regularization(with_linear)
    zero = MemoryElement(
        kind=ElementKind.MEMCAPACITOR,
        control=ControlVariable.FLUX,
        incremental=ChebyshevSeries(ChebyshevKind.SECOND, ()),
        constitutive=ChebyshevSeries(ChebyshevKind.FIRST, ()),
    )
    assert not needs_regularization(zero)
    assert not needs_regularization(MemoryElement(kind=ElementKind.RESISTOR, scalar_value=1.0))


def test_default_gamma_values():
    element = memcapacitance_from_cosines(SUPPLY, [0.0, 5.0, 0.0, -1.0])
    tail = sum(abs(c) for c in element.incremental.coeffs[1:])
    assert default_gamma(element, SUPPLY) == pytest.approx(OMEGA * AMP * tail, rel=1e-15)

    inductor = inverse_meminductance_from_spectrum(SUPPLY, [0.0, 0.0, 2.0], [])
    tail = sum(abs(c) for c in inductor.incremental.coeffs[1:])
    assert default_gamma(inductor, SUPPLY) == pytest.approx((AMP / OMEGA) * tail, rel=1e-15)

    with pytest.raises(ValidationError):
        default_gamma(memductance_from_sines(SUPPLY, [0.0, 1.0]), SUPPLY)


def test_regularize_memcapacitor_exact_bookkeeping():
    element = memcapacitance_from_cosines(SUPPLY, [0.0, 5.0])
    gamma = 7.5
    reg = regularize(element, SUPPLY, gamma)
    assert reg.gamma == gamma
    assert reg.companion.kind is ElementKind.INDUCTOR
    assert reg.companion.scalar_value == AMP / (OMEGA * gamma)
    # U0 grows by gamma/(w A); T1 by -gamma/w^2; everything else untouched
    assert reg.element.incremental.coeffs[0] == pytest.approx(gamma / (OMEGA * AMP), rel=1e-15)
    assert reg.element.incremental.coeffs[1:] == element.incremental.coeffs[1:]
    assert reg.element.constitutive.coeffs[1] == pytest.approx(-gamma / OMEGA**2, rel=1e-15)
    assert verify_series_consistency(reg.element) <= 1e-15


def test_regularize_meminductor_companion():
    element = inverse_meminductance_from_spectrum(SUPPLY, [0.0, 0.0, 4.0], [])
    assert needs_regularization(element)
    reg = regularize(element, SUPPLY)
    assert reg.companion.kind is ElementKind.CAPACITOR
    assert reg.companion.scalar_value == pytest.approx(reg.gamma / (OMEGA * AMP), rel=1e-15)
    assert reg.element.incremental.coeffs[0] == pytest.approx(
        OMEGA * reg.gamma / AMP, rel=1e-15
    )


def test_regularized_pair_cancels_in_current():
    # the linear term injects gamma*cos(wt); the companion draws its negative
    element = memcapacitance_from_cosines(SUPPLY, [0.0, 5.0, 0.0, 0.0, 0.0, 1.0])
    reg = regularize(element, SUPPLY)
    from memsynth.simulation import SimulationConfig, branch_current, supply_states

    states = supply_states(SUPPLY, SimulationConfig(periods=1, samples_per_period=2048))
    i_raw, _, _ = branch_current(element, states)
    i_reg, _, _ = branch_current(reg.element, states)
    i_comp, _, _ = branch_current(reg.companion, states)
    residue = i_reg + i_comp - i_raw
    assert float(np.sqrt(np.mean(residue**2))) <= 1e-9 * reg.gamma


def test_regularize_guards():
    fine = memcapacitance_from_cosines(SUPPLY, [2.0, 5.0])
    with pytest.raises(ValidationError):
        regularize(fine, SUPPLY)  # already has its linear term
    lone = memcapacitance_from_cosines(SUPPLY, [0.0, 5.0])
    with pytest.raises(ValidationError):
        regularize(lone, SUPPLY, gamma=0.0)
    with pytest.raises(ValidationError):
        regularize(lone, SUPPLY, gamma=-1.0)
    with pytest.raises(ValidationError):
        regularize(memductance_from_sines(SUPPLY, [0.0, 1.0]), SUPPLY)


def test_element_dict_round_trip_memory():
    element = memcapacitance_from_cosines(SUPPLY, [2.0, -1.0])
    doc = element_to_dict(element)
    assert doc["kind"] == "memcapacitor"
    assert doc["companion"] is None
    assert element_from_dict(doc) == element


def test_element_dict_round_trip_lti():
    resistor = MemoryElement(kind=ElementKind.RESISTOR, scalar_value=2.0)
    doc = element_to_dict(resistor)
    assert doc["scalar_value"] == 2.0
    assert doc["companion"] is None
    assert element_from_dict(doc) == resistor


def test_element_from_dict_validation():
    with pytest.raises(ValidationError):
        element_from_dict({"kind": "flux_capacitor"})
    with pytest.raises(ValidationError):
        element_from_dict({"kind": "memristor"})
    with pytest.raises(ValidationError):
        element_from_dict({"kind": "resistor"})


@pytest.mark.parametrize(
    "key, value",
    [("coeffs", "12"), ("coeffs", (1.0, 2.0)), ("coeffs", [1.0, None]), ("coeffs", [False]),
     ("constitutive_coeffs", "012"), ("constitutive_coeffs", [0.0, "1"]),
     ("scale", "2"), ("scale", True), ("scale", None), ("scale", [2.0]),
     ("coeffs", [1e-4, 10**400]), ("constitutive_coeffs", [0.0, -(10**400)]),
     ("scale", -(10**400))],
)
def test_element_from_dict_rejects_non_numeric_series_values(key, value):
    doc = element_to_dict(memcapacitance_from_cosines(SUPPLY, [2.0, -1.0]))
    doc[key] = value
    with pytest.raises(ValidationError, match="must be"):
        element_from_dict(doc)


@pytest.mark.parametrize("value", [True, False, "2", [2.0], 10**400])
def test_element_from_dict_rejects_non_numeric_scalar_value(value):
    with pytest.raises(ValidationError, match="scalar_value must be a number"):
        element_from_dict({"kind": "resistor", "scalar_value": value})
    assert element_from_dict({"kind": "resistor", "scalar_value": 2}).scalar_value == 2.0


@pytest.mark.parametrize(
    "builder",
    [
        lambda: memductance_from_sines(SUPPLY, [2.0, 0.0, 0.0, -3.0]),
        lambda: inverse_meminductance_from_spectrum(SUPPLY, [2.0, 0.0, 1.0], [0.0, -0.5]),
        lambda: memcapacitance_from_cosines(SUPPLY, [2.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.1]),
        lambda: regularize(memcapacitance_from_cosines(SUPPLY, [0.0, 5.0]), SUPPLY).element,
    ],
)
def test_element_from_dict_rejects_inconsistent_series(builder):
    element = builder()
    doc = element_to_dict(element)
    top = max(map(abs, element.incremental.coeffs))
    k = max(range(1, len(doc["constitutive_coeffs"])),
            key=lambda j: abs(doc["constitutive_coeffs"][j] * j))
    # nudge one constitutive coefficient so its derivative moves by `rel * top`,
    # a tenth and ten times the 1e-12 tolerance
    for rel, accepted in [(1e-13, True), (1e-11, False)]:
        nudged = dict(doc, constitutive_coeffs=list(doc["constitutive_coeffs"]))
        nudged["constitutive_coeffs"][k] += rel * top / (k * abs(element.incremental.scale))
        if accepted:
            read = element_from_dict(nudged)
            assert read.constitutive.coeffs[k] != element.constitutive.coeffs[k]
        else:
            with pytest.raises(ValidationError, match="not the derivative"):
                element_from_dict(nudged)
    # a constitutive series for an element the incremental series does not describe
    doc["coeffs"] = doc["coeffs"] + [doc["coeffs"][0]]
    with pytest.raises(ValidationError, match="not the derivative"):
        element_from_dict(doc)


def test_element_from_dict_checks_an_empty_incremental_series():
    doc = element_to_dict(memcapacitance_from_cosines(SUPPLY, [2.0]))
    doc["coeffs"] = []
    with pytest.raises(ValidationError, match="not the derivative"):
        element_from_dict(doc)
    doc["constitutive_coeffs"] = [3.0]  # only the integration constant: derivative zero
    assert element_from_dict(doc).incremental.coeffs == ()
