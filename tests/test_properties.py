"""Property-based checks of the paper's invariants over random sparse spectra.

Spectra have up to eight harmonics of order <= 60, some amplitudes exactly
zero (sometimes the whole top order), and a random dc term; supplies have a
random amplitude and frequency.  Each property is one of the invariants the
decomposition promises: exact JSON round trips, a terminal current that does
not depend on the assignment policy, a round-trip verification that holds for
every policy, a lossless conditioner, the power factor after compensation, and
transparent regularization.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsynth.elements import (
    element_from_dict,
    element_to_dict,
    inverse_meminductance_from_spectrum,
    memcapacitance_from_cosines,
    needs_regularization,
    regularize,
)
from memsynth.harmonics import (
    HarmonicSpectrum,
    SupplyVoltage,
    compute_powers,
    evaluate_waveform,
    fryze_split,
    spectrum_negate,
)
from memsynth.simulation import SimulationConfig, branch_current, simulate, supply_states
from memsynth.synthesis import (
    AssignmentPolicy,
    EvenSineRoute,
    LoadDecomposition,
    PolicyMode,
    decompose_load,
    synthesize_conditioner,
    verify_decomposition,
)

MAX_ORDER = 60
#: one period at four samples per order of the highest order drawn
GRID = SimulationConfig(periods=1, samples_per_period=256)
SETTINGS = settings(max_examples=40, deadline=None)

amplitudes = st.floats(-10.0, 10.0).map(lambda x: 0.0 if abs(x) < 1e-3 else x)


@st.composite
def supplies(draw):
    return SupplyVoltage(draw(st.floats(1.0, 1000.0)), draw(st.floats(1.0, 1000.0)))


@st.composite
def spectra(draw, omega):
    orders = draw(st.lists(st.integers(1, MAX_ORDER), max_size=8, unique=True))
    terms = [(n, draw(amplitudes), draw(amplitudes)) for n in sorted(orders)]
    if terms and draw(st.booleans()):
        terms[-1] = (terms[-1][0], 0.0, 0.0)  # an all-zero top order
    return HarmonicSpectrum.from_terms(omega, draw(amplitudes), terms)


@st.composite
def loads(draw):
    supply = draw(supplies())
    return supply, draw(spectra(supply.omega))


def _scale(spectrum):
    return 1.0 + abs(spectrum.dc) + sum(map(abs, spectrum.cos + spectrum.sin))


@SETTINGS
@given(loads())
def test_json_round_trip_is_exact(load):
    _, spectrum = load
    doc = json.loads(json.dumps(spectrum.to_dict()))
    again = HarmonicSpectrum.from_dict(doc)
    assert again == spectrum
    assert again.n_max == spectrum.n_max
    assert [h["n"] for h in doc["harmonics"]] == [
        n for n in range(1, spectrum.n_max + 1)
        if spectrum.a(n) or spectrum.b(n) or n == spectrum.n_max
    ]


@SETTINGS
@given(loads())
def test_decomposition_documents_read_back_exactly(load):
    # every element memsynth writes passes the reader's series consistency check
    supply, spectrum = load
    for mode in PolicyMode:
        for route in EvenSineRoute:
            policy = AssignmentPolicy(mode=mode, route_even_sines=route)
            for network in (decompose_load(supply, spectrum, policy),
                            synthesize_conditioner(supply, spectrum, policy)):
                doc = json.loads(json.dumps(network.to_dict()))
                assert LoadDecomposition.from_dict(doc) == network


@SETTINGS
@given(loads())
def test_terminal_current_is_policy_and_route_invariant(load):
    supply, spectrum = load
    target = evaluate_waveform(spectrum, supply_states(supply, GRID).t)
    tol = 1e-9 * _scale(spectrum)
    for mode in PolicyMode:
        for route in EvenSineRoute:
            policy = AssignmentPolicy(mode=mode, route_even_sines=route)
            current = simulate(decompose_load(supply, spectrum, policy), GRID).i_total
            assert np.max(np.abs(current - target)) <= tol, (mode, route)


@SETTINGS
@given(loads())
def test_verification_holds_on_every_policy_and_route(load):
    supply, spectrum = load
    _, nonactive, _ = fryze_split(supply, spectrum)
    cancelled = spectrum_negate(nonactive)
    for mode in PolicyMode:
        for route in EvenSineRoute:
            policy = AssignmentPolicy(mode=mode, route_even_sines=route)
            for network, target in ((decompose_load(supply, spectrum, policy), spectrum),
                                    (synthesize_conditioner(supply, spectrum, policy), cancelled)):
                report = verify_decomposition(network, target)
                assert report.rel_rms_error <= 1e-12, (mode, route)
                assert report.max_coefficient_error <= 1e-12, (mode, route)


@SETTINGS
@given(loads())
def test_conditioner_draws_no_average_power(load):
    supply, spectrum = load
    conditioner = synthesize_conditioner(supply, spectrum)
    assert conditioner.dc is None
    trace = simulate(conditioner, GRID)
    rms_i = float(np.sqrt(np.mean(trace.i_total**2)))
    assert abs(float(np.mean(trace.u * trace.i_total))) <= 1e-9 * supply.rms * (1.0 + rms_i)


@SETTINGS
@given(loads())
def test_compensated_power_factor(load):
    supply, spectrum = load
    b1, dc = spectrum.b(1), spectrum.dc
    if 2.0 * dc**2 + b1**2 == 0.0:
        return  # no current is left after compensation, so no power factor
    expected = b1 / math.sqrt(2.0 * dc**2 + b1**2)

    active, _, _ = fryze_split(supply, spectrum)
    compensated = HarmonicSpectrum(spectrum.omega, dc, active.cos, active.sin)
    assert compute_powers(supply, compensated).power_factor == pytest.approx(
        expected, rel=1e-12, abs=1e-15
    )

    # the same figure from the load current plus the conditioner's, sampled
    trace = simulate(synthesize_conditioner(supply, spectrum), GRID)
    current = evaluate_waveform(spectrum, trace.t) + trace.i_total
    active_power = float(np.mean(trace.u * current))
    apparent = float(np.sqrt(np.mean(trace.u**2) * np.mean(current**2)))
    assert active_power / apparent == pytest.approx(expected, abs=1e-9)


@st.composite
def unregularized(draw):
    """A memcapacitor or meminductor whose series lacks its linear term."""
    supply = draw(supplies())
    orders = draw(st.lists(st.integers(2, MAX_ORDER), min_size=1, max_size=6, unique=True))
    amplitudes = np.zeros(MAX_ORDER)
    for n in orders:
        amplitudes[n - 1] = draw(st.floats(0.01, 10.0)) * draw(st.sampled_from((-1.0, 1.0)))
    if draw(st.booleans()):
        return supply, memcapacitance_from_cosines(supply, amplitudes)
    odd = np.arange(1, MAX_ORDER + 1) % 2 == 1
    odd_cosines, even_sines = np.where(odd, amplitudes, 0.0), np.where(odd, 0.0, amplitudes)
    return supply, inverse_meminductance_from_spectrum(supply, odd_cosines, even_sines)


@SETTINGS
@given(unregularized(), st.one_of(st.none(), st.floats(1e-3, 1e3)))
def test_regularization_is_transparent(drawn, gamma):
    supply, element = drawn
    assert needs_regularization(element)
    reg = regularize(element, supply, gamma)
    assert element_from_dict(json.loads(json.dumps(element_to_dict(reg.element)))) == reg.element
    states = supply_states(supply, GRID)
    raw = branch_current(element, states).current
    pair = sum(branch_current(e, states).current for e in (reg.element, reg.companion))
    # the pair adds gamma cos(w t) in the element and takes it off in the companion
    assert np.max(np.abs(pair - raw)) <= 1e-9 * (float(np.max(np.abs(raw))) + reg.gamma)
