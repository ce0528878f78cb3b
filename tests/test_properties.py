"""Property-based checks of the paper's invariants over random sparse spectra.

Spectra have up to eight harmonics of order <= 60, some amplitudes exactly
zero (sometimes the whole top order), and a random dc term; supplies have a
random amplitude and frequency.  Each property is one of the invariants the
decomposition promises: exact JSON round trips, a terminal current that does
not depend on the assignment policy, a verification that holds for every
policy and gives the figures of sampling the currents and projecting them
back, a lossless conditioner, the power factor after compensation, and
transparent regularization.  Two more assemble built elements in slot order:
every decomposition the constructor accepts reads back exactly, and one out of
slot order or with a second element in a slot is refused.  Three more draw
wide spectra, amplitudes up to 1e308 and zeros of either sign: one holds the
array-based power and Fryze code to the tuple-based forms it replaced, bit for
bit; one keeps a spectrum's arrays read-only and its ``==``, ``hash`` and
``repr`` those of tuples of floats; one keeps copies and pickles of spectra
and series read-only and equal.
"""

import copy
import dataclasses
import json
import math
import pickle
import struct

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsynth.chebyshev import ChebyshevKind, ChebyshevSeries
from memsynth.elements import (
    COMPANION_SLOT,
    KINDS,
    ElementKind,
    MemoryElement,
    element_from_dict,
    element_to_dict,
    inverse_meminductance_from_spectrum,
    memcapacitance_from_cosines,
    memductance_from_sines,
    needs_regularization,
    regularize,
)
from memsynth.errors import ValidationError
from memsynth.harmonics import (
    MAX_HARMONIC_ORDER,
    PF_CONVENTIONS,
    HarmonicSpectrum,
    SupplyVoltage,
    compute_powers,
    evaluate_waveform,
    fryze_split,
    spectrum_negate,
)
from memsynth.simulation import SimulationConfig, simulate, supply_states
from memsynth.synthesis import (
    AssignmentPolicy,
    EvenSineRoute,
    LoadDecomposition,
    PolicyMode,
    decompose_load,
    synthesize_conditioner,
    verification_grid,
    verify_decomposition,
)
from memsynth.textio import dump_json

from entry_paths import own_branch_current
from trace_branches import in_slot
from verify_reference import round_trip_figures

MAX_ORDER = 60
#: one period at four samples per order of the highest order drawn
GRID = SimulationConfig(periods=1, samples_per_period=256)
SETTINGS = settings(max_examples=40, deadline=None)

amplitudes = st.floats(-10.0, 10.0).map(lambda x: 0.0 if abs(x) < 1e-3 else x)


@st.composite
def supplies(draw):
    return SupplyVoltage(draw(st.floats(1.0, 1000.0)), draw(st.floats(1.0, 1000.0)))


def read_spectrum(doc):
    """``doc`` read the way a command reads a spectrum file: JSON text, then ``from_dict``."""
    return HarmonicSpectrum.from_dict(orjson.loads(orjson.dumps(doc)))


@st.composite
def spectra(draw, omega):
    orders = draw(st.lists(st.integers(1, MAX_ORDER), max_size=8, unique=True))
    harmonics = [{"n": n, "a": draw(amplitudes), "b": draw(amplitudes)} for n in sorted(orders)]
    if harmonics and draw(st.booleans()):
        harmonics[-1].update(a=0.0, b=0.0)  # an all-zero top order
    return read_spectrum({"omega": omega, "dc": draw(amplitudes), "harmonics": harmonics})


@st.composite
def loads(draw):
    supply = draw(supplies())
    return supply, draw(spectra(supply.omega))


def _scale(spectrum):
    return 1.0 + abs(spectrum.dc) + sum(map(abs, spectrum.cos.tolist() + spectrum.sin.tolist()))


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


#: what a JSON number may hold as an amplitude: integers, and every finite
#: float, zeros of either sign, subnormals and +-1e308 among them
json_numbers = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from((0.0, -0.0, 5e-324, -2.2e-308, 1e308, -1e308)),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def spectrum_documents(draw):
    """Sparse spectrum documents: rising orders up to a few hundred, and
    sometimes the order limit itself as the top one."""
    orders = sorted(draw(st.lists(st.integers(1, 300), max_size=8, unique=True)))
    if draw(st.integers(0, 7)) == 0:
        orders.append(MAX_HARMONIC_ORDER)
    harmonics = [{"n": n, "a": draw(json_numbers), "b": draw(json_numbers)} for n in orders]
    return {"omega": draw(st.floats(1e-3, 1e6)), "dc": draw(json_numbers), "harmonics": harmonics}


@SETTINGS
@given(spectrum_documents())
def test_a_spectrum_document_reads_as_its_dense_scatter(doc):
    spectrum = read_spectrum(doc)
    top = doc["harmonics"][-1]["n"] if doc["harmonics"] else 0
    cos, sin = np.zeros(top), np.zeros(top)
    for h in doc["harmonics"]:
        cos[h["n"] - 1], sin[h["n"] - 1] = float(h["a"]), float(h["b"])
    assert spectrum.omega == doc["omega"]
    # bytes, not ==, so that the sign of every zero counts
    assert np.float64(spectrum.dc).tobytes() == np.float64(float(doc["dc"])).tobytes()
    assert spectrum.cos.tobytes() == cos.tobytes()
    assert spectrum.sin.tobytes() == sin.tobytes()


_RISING = "harmonic orders must be strictly increasing and >= 1"
_TEXT = st.text(st.characters(codec="utf-8"), max_size=3)
#: JSON values that are not numbers
_NOT_NUMBERS = st.one_of(
    st.booleans(), _TEXT, st.none(), st.lists(st.integers(-9, 9), max_size=2),
    st.dictionaries(_TEXT, st.integers(-9, 9), max_size=2),
)


@st.composite
def faulty_spectrum_documents(draw):
    """A spectrum document with one fault, and the message that refuses it."""
    doc = draw(spectrum_documents().filter(lambda doc: doc["harmonics"]))
    harmonics = doc["harmonics"]
    i = draw(st.integers(0, len(harmonics) - 1))
    fault = draw(st.sampled_from((
        "order type", "amplitude type", "missing key", "not a dict",
        "repeated", "falling", "zero", "negative", "above the limit",
    )))
    if fault == "order type":
        value = draw(st.one_of(st.floats(allow_nan=False, allow_infinity=False), _NOT_NUMBERS))
        harmonics[i]["n"] = value
        return doc, f"harmonic order n must be an integer, got {value!r}"
    if fault == "amplitude type":
        key, value = draw(st.sampled_from("ab")), draw(_NOT_NUMBERS)
        harmonics[i][key] = value
        return doc, f"{key} must be a number, got {value!r}"
    if fault == "missing key":
        del harmonics[i][draw(st.sampled_from("nab"))]
        return doc, "each harmonic needs keys n, a, b"
    if fault == "not a dict":
        h = harmonics[i]
        harmonics[i] = draw(st.sampled_from(([h["n"], h["a"], h["b"]], "n", h["n"], None)))
        return doc, "each harmonic needs keys n, a, b"
    if fault == "repeated":
        harmonics.insert(i, dict(harmonics[i]))
    elif fault == "falling":  # or repeated, after an order of 1
        order = draw(st.integers(1, max(1, harmonics[i]["n"] - 1)))
        harmonics.insert(i + 1, {"n": order, "a": 1.0, "b": 0.0})
    elif fault == "zero":
        harmonics[0]["n"] = 0
    elif fault == "negative":
        harmonics[i]["n"] = draw(st.integers(-(2**63), -1))
    else:
        order = draw(st.integers(MAX_HARMONIC_ORDER + 1, 2**63 - 1))
        harmonics[-1]["n"] = order
        return doc, f"harmonic order {order} exceeds the limit of {MAX_HARMONIC_ORDER}"
    return doc, _RISING


@SETTINGS
@given(faulty_spectrum_documents())
def test_a_spectrum_document_with_one_fault_is_refused_with_its_message(drawn):
    doc, message = drawn
    with pytest.raises(ValidationError) as refused:
        read_spectrum(doc)
    assert str(refused.value) == message


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
                doc = json.loads(json.dumps(network.to_dict(), default=np.ndarray.tolist))
                assert LoadDecomposition.from_dict(doc) == network


nonzero = st.floats(0.01, 10.0).flatmap(lambda x: st.sampled_from((x, -x)))
dense_terms = st.lists(nonzero, min_size=1, max_size=8).map(np.array)
positive = st.floats(1e-3, 1e3)


@st.composite
def built_decompositions(draw):
    """Built elements in slot order: each of the dc, memristor (or resistor),
    meminductor and memcapacitor slots full or empty, then 0-2 companions."""
    supply = draw(supplies())
    elements = []
    if draw(st.booleans()):
        elements.append(MemoryElement(kind=ElementKind.DC_SOURCE, scalar_value=draw(amplitudes)))
    if draw(st.booleans()):
        elements.append(
            MemoryElement(kind=ElementKind.RESISTOR, scalar_value=draw(positive))
            if draw(st.booleans()) else memductance_from_sines(supply, draw(dense_terms))
        )
    if draw(st.booleans()):
        terms = draw(dense_terms)
        odd = np.arange(1, len(terms) + 1) % 2 == 1
        elements.append(inverse_meminductance_from_spectrum(
            supply, np.where(odd, terms, 0.0), np.where(odd, 0.0, terms)
        ))
    if draw(st.booleans()):
        elements.append(memcapacitance_from_cosines(supply, draw(dense_terms)))
    lti = st.sampled_from((ElementKind.INDUCTOR, ElementKind.CAPACITOR))
    for kind in draw(st.lists(lti, max_size=2)):
        elements.append(MemoryElement(kind=kind, scalar_value=draw(positive)))
    return LoadDecomposition(supply, tuple(elements))


@SETTINGS
@given(built_decompositions())
def test_every_built_decomposition_reads_back_exactly(decomposition):
    text = dump_json(decomposition.to_dict())
    again = LoadDecomposition.from_dict(orjson.loads(text))
    assert again == decomposition
    assert dump_json(again.to_dict()) == text


@SETTINGS
@given(built_decompositions())
def test_no_decomposition_breaks_slot_order_or_doubles_a_slot(decomposition):
    supply, elements = decomposition.supply, decomposition.elements
    for i, (first, second) in enumerate(zip(elements, elements[1:])):
        if KINDS[first.kind].slot != KINDS[second.kind].slot:
            swapped = (*elements[:i], second, first, *elements[i + 2:])
            with pytest.raises(ValidationError, match="out of slot order"):
                LoadDecomposition(supply, swapped)
    for i, element in enumerate(elements):
        label, slot = KINDS[element.kind][:2]
        doubled = (*elements[: i + 1], element, *elements[i + 1:])
        if slot == COMPANION_SLOT:
            assert LoadDecomposition(supply, doubled).elements == doubled
        else:
            with pytest.raises(ValidationError, match=f"duplicate branch label {label!r}"):
                LoadDecomposition(supply, doubled)


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
                top = max((len(element.incremental.coeffs)
                           for _, element in network.branches() if element.is_memory), default=1)
                # decompose_load builds no series longer than the target's order
                assert top <= max(target.n_max, 1), (mode, route)
                grid = verification_grid(max(target.n_max, top))
                assert report.samples_per_period == grid, (mode, route)


def _with_spurious_memristor(network, order, amplitude):
    """``network`` with its memristor slot holding one sine term of ``order`` alone."""
    sines = np.zeros(order)
    sines[-1] = amplitude
    spurious = memductance_from_sines(network.supply, sines)
    slot = KINDS[spurious.kind].slot
    kept = [e for e in network.elements if KINDS[e.kind].slot != slot]
    elements = sorted([*kept, spurious], key=lambda e: KINDS[e.kind].slot)
    return LoadDecomposition(network.supply, tuple(elements))


def _both_figures(network, target):
    """The reports of ``verify_decomposition`` and of the sample-and-project oracle."""
    return verify_decomposition(network, target), round_trip_figures(network, target)


@SETTINGS
@given(loads(), st.integers(1, 50), st.floats(0.01, 10.0))
def test_parseval_figures_match_the_sample_and_project_round_trip(load, above, amplitude):
    supply, spectrum = load
    _, nonactive, _ = fryze_split(supply, spectrum)
    cancelled = spectrum_negate(nonactive)
    for mode in PolicyMode:
        for route in EvenSineRoute:
            policy = AssignmentPolicy(mode=mode, route_even_sines=route)
            for network, target in ((decompose_load(supply, spectrum, policy), spectrum),
                                    (synthesize_conditioner(supply, spectrum, policy), cancelled)):
                report, oracle = _both_figures(network, target)
                assert abs(report.rel_rms_error - oracle.rel_rms_error) <= 1e-15, (mode, route)
                assert abs(report.max_coefficient_error - oracle.max_coefficient_error) <= 1e-15
                assert (report.n_max, report.samples_per_period) == (
                    oracle.n_max, oracle.samples_per_period)
                # a term above the target's order counts in the rms
                spurious = _with_spurious_memristor(network, report.n_max + above, amplitude)
                report, oracle = _both_figures(spurious, target)
                assert report.rel_rms_error == pytest.approx(oracle.rel_rms_error, rel=1e-12)
                assert report.samples_per_period == oracle.samples_per_period


@SETTINGS
@given(loads())
def test_conditioner_draws_no_average_power(load):
    supply, spectrum = load
    conditioner = synthesize_conditioner(supply, spectrum)
    assert in_slot(conditioner, "dc") is None
    trace = simulate(conditioner, GRID)
    rms_i = float(np.sqrt(np.mean(trace.i_total**2)))
    assert abs(float(np.mean(trace.states.u * trace.i_total))) <= 1e-9 * supply.rms * (1.0 + rms_i)


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
    current = evaluate_waveform(spectrum, trace.states.t) + trace.i_total
    active_power = float(np.mean(trace.states.u * current))
    apparent = float(np.sqrt(np.mean(trace.states.u**2) * np.mean(current**2)))
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
    doc = json.loads(json.dumps(element_to_dict(reg.element), default=np.ndarray.tolist))
    assert element_from_dict(doc) == reg.element
    states = supply_states(supply, GRID)
    raw = own_branch_current(element, states).current
    pair = sum(own_branch_current(e, states).current for e in (reg.element, reg.companion))
    # the pair adds gamma cos(w t) in the element and takes it off in the companion
    assert np.max(np.abs(pair - raw)) <= 1e-9 * (float(np.max(np.abs(raw))) + reg.gamma)


# wide amplitudes: zeros of either sign and ordinary values, and in half the
# spectra also magnitudes of 1e154-1e308 whose squares leave float64
ordinary = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-1e3, 1e3))
wide = st.one_of(ordinary, st.floats(1e154, 1e308).flatmap(lambda x: st.sampled_from((x, -x))))


@st.composite
def wide_loads(draw):
    """Dense spectra: every order up to n_max drawn, so that a sum taken in
    another order would round differently."""
    omega = draw(st.floats(1.0, 1000.0))
    amplitude = wide if draw(st.booleans()) else ordinary
    n_max = draw(st.integers(0, MAX_ORDER))
    column = st.lists(amplitude, min_size=n_max, max_size=n_max)
    spectrum = HarmonicSpectrum(omega, draw(amplitude), draw(column), draw(column))
    return SupplyVoltage(draw(st.floats(1e-3, 1e3)), omega), spectrum


def _bits(*values):
    return b"".join(struct.pack("<d", v) for v in values)


def _spectrum_bits(spectrum):
    return _bits(spectrum.omega, spectrum.dc, *spectrum.cos.tolist(), *spectrum.sin.tolist())


def _outcome(fn, *args):
    """What ``fn`` returns, or the ValidationError message it raises."""
    try:
        return fn(*args)
    except ValidationError as exc:
        return str(exc)


# the tuple-based forms that the array-based ones replaced, kept as references
def _powers_from_tuples(supply, spectrum, convention):
    cos, sin = tuple(spectrum.cos.tolist()), tuple(spectrum.sin.tolist())
    dc_weight = PF_CONVENTIONS[convention]
    active = supply.amplitude * spectrum.b(1) / 2.0
    ac_sum = sum(a * a + b * b for a, b in zip(cos, sin))
    try:
        rms_i = math.sqrt(dc_weight * spectrum.dc**2 + 0.5 * ac_sum)
    except OverflowError:
        rms_i = math.inf
    apparent = supply.rms * rms_i
    if not (math.isfinite(active) and math.isfinite(apparent)):
        raise ValidationError(
            f"the powers of this spectrum on supply amplitude {supply.amplitude!r}"
            " leave the float64 range"
        )
    pf = active / apparent if apparent > 0.0 else 0.0
    return _bits(active, apparent, pf, supply.rms, rms_i)


def _fryze_from_tuples(spectrum):
    cos, sin = tuple(spectrum.cos.tolist()), tuple(spectrum.sin.tolist())
    zeros = (0.0,) * spectrum.n_max
    active = HarmonicSpectrum(spectrum.omega, 0.0, zeros, sin[:1] + zeros[1:])
    nonactive = HarmonicSpectrum(spectrum.omega, 0.0, cos, zeros[:1] + sin[1:])
    return _spectrum_bits(active), _spectrum_bits(nonactive), _bits(spectrum.dc)


def _negate_from_tuples(spectrum):
    cos, sin = tuple(spectrum.cos.tolist()), tuple(spectrum.sin.tolist())
    return _spectrum_bits(
        HarmonicSpectrum(spectrum.omega, -spectrum.dc, np.negative(cos), np.negative(sin))
    )


def _assert_read_only_floats(*arrays):
    for array in arrays:
        assert array.dtype == np.float64 and array.ndim == 1 and not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 1.0


@SETTINGS
@given(wide_loads())
def test_array_forms_match_the_tuple_forms_bit_for_bit(load):
    supply, spectrum = load
    for convention in PF_CONVENTIONS:
        got = _outcome(compute_powers, supply, spectrum, convention)
        if not isinstance(got, str):
            summary = got
            got = _bits(
                summary.active_power, summary.apparent_power, summary.power_factor,
                summary.rms_voltage, summary.rms_current,
            )
        assert got == _outcome(_powers_from_tuples, supply, spectrum, convention)

    active, nonactive, dc = fryze_split(supply, spectrum)
    assert (_spectrum_bits(active), _spectrum_bits(nonactive), _bits(dc)) == _fryze_from_tuples(
        spectrum
    )
    negated = spectrum_negate(spectrum)
    assert _spectrum_bits(negated) == _negate_from_tuples(spectrum)
    for built in (spectrum, active, nonactive, negated):
        _assert_read_only_floats(built.cos, built.sin)


def _flip_zeros(values):
    """``values`` with the sign of every zero flipped."""
    return np.where(values == 0.0, -values, values)


@SETTINGS
@given(wide_loads(), st.lists(wide, max_size=6))
def test_spectrum_eq_hash_and_repr_read_the_arrays_as_tuples(load, values):
    _, spectrum = load
    assert [f.name for f in dataclasses.fields(spectrum)] == ["omega", "dc", "cos", "sin"]
    _assert_read_only_floats(spectrum.cos, spectrum.sin)
    twin = HarmonicSpectrum(
        spectrum.omega, -spectrum.dc if spectrum.dc == 0.0 else spectrum.dc,
        _flip_zeros(spectrum.cos), _flip_zeros(spectrum.sin),
    )
    assert twin == spectrum and hash(twin) == hash(spectrum)
    if spectrum.n_max:  # every sine amplitude changed
        assert dataclasses.replace(spectrum, sin=np.where(spectrum.sin == 1.0, 2.0, 1.0)) != spectrum
    assert repr(spectrum) == (
        f"HarmonicSpectrum(omega={spectrum.omega!r}, dc={spectrum.dc!r},"
        f" cos={tuple(spectrum.cos.tolist())!r}, sin={tuple(spectrum.sin.tolist())!r})"
    )
    # replace builds a new spectrum through __init__, so its arrays are read-only too
    replaced = dataclasses.replace(spectrum, cos=values, sin=values[::-1])
    _assert_read_only_floats(replaced.cos, replaced.sin)
    assert _bits(*replaced.cos.tolist()) == _bits(*values)
    kept = dataclasses.replace(spectrum, dc=1.0)
    _assert_read_only_floats(kept.cos, kept.sin)


def test_spectrum_repr_spells_the_arrays_as_tuples():
    spectrum = HarmonicSpectrum(1.0, 0.5, np.array([1.0, -0.0]), [0.0, 2.0])
    assert repr(spectrum) == "HarmonicSpectrum(omega=1.0, dc=0.5, cos=(1.0, -0.0), sin=(0.0, 2.0))"


@SETTINGS
@given(wide_loads(), st.floats(-1e3, 1e3))
def test_copies_and_pickles_keep_the_arrays_read_only(load, scale):
    _, spectrum = load
    series = ChebyshevSeries(ChebyshevKind.SECOND, spectrum.cos, scale)
    for value, arrays in ((spectrum, ("cos", "sin")), (series, ("coeffs",))):
        for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            _assert_read_only_floats(*(getattr(copied, name) for name in arrays))
            assert copied == value and hash(copied) == hash(value)
