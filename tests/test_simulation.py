"""Supply state grids, per-branch currents, hysteresis loops, CSV traces."""

import csv
import io
import math

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsynth import chebyshev, simulation

from memsynth.elements import (
    ElementKind,
    MemoryElement,
    memcapacitance_from_cosines,
    memductance_from_sines,
)
from memsynth.errors import NumericalError, ValidationError
from memsynth.harmonics import HarmonicSpectrum, evaluate_waveform
from memsynth.loads import (
    bridge_spectrum,
    motivating_spectrum,
    motivating_supply,
    rectifier_spectrum,
)
from memsynth.simulation import (
    CSV_CHUNK_ROWS,
    MAX_GRID_SAMPLES,
    TRACE_HEADER,
    SimulationConfig,
    branch_current,
    columns_to_csv,
    float_cells,
    hysteresis_loop,
    loop_indices,
    repr_fallback,
    simulate,
    supply_states,
    trace_to_csv,
    _respell,
)
from memsynth.synthesis import decompose_load, synthesize_conditioner

from trace_branches import branch, branch_average_power

SUPPLY = motivating_supply()
AMP = SUPPLY.amplitude
OMEGA = SUPPLY.omega


def _rms(x):
    return float(np.sqrt(np.mean(np.asarray(x) ** 2)))


def test_supply_states_grid_and_closed_forms():
    states = supply_states(SUPPLY)
    n = 2 * 8192
    assert states.t.shape == (n,)
    assert states.t[0] == 0.0
    # endpoint exclusive: the last sample sits one step before 2T
    assert states.t[-1] == pytest.approx(2.0 * SUPPLY.period * (n - 1) / n, rel=1e-12)
    assert states.u[0] == 0.0
    assert states.phi[0] == pytest.approx(-AMP / OMEGA, rel=1e-12)
    assert states.sigma[0] == 0.0
    np.testing.assert_allclose(states.u, AMP * np.sin(OMEGA * states.t), atol=1e-9)


def test_config_validation():
    with pytest.raises(ValidationError):
        SimulationConfig(periods=0)
    with pytest.raises(ValidationError):
        SimulationConfig(samples_per_period=63)


def test_config_bounds_the_grid_before_allocating():
    # only configs are built here: no grid of this size is ever allocated
    assert MAX_GRID_SAMPLES == 2**22
    SimulationConfig(periods=512, samples_per_period=8192)  # exactly at the limit
    for periods, spp in [(513, 8192), (1, MAX_GRID_SAMPLES + 1), (10**9, 10**9)]:
        with pytest.raises(ValidationError, match="grid limit"):
            SimulationConfig(periods=periods, samples_per_period=spp)


def test_lti_branch_currents():
    states = supply_states(SUPPLY, SimulationConfig(periods=1, samples_per_period=1024))
    i_r, q_r, c_r = branch_current(
        MemoryElement(kind=ElementKind.RESISTOR, scalar_value=2.0), states
    )
    np.testing.assert_array_equal(i_r, states.u / 2.0)
    assert q_r is None and c_r is None

    i_l, _, _ = branch_current(MemoryElement(kind=ElementKind.INDUCTOR, scalar_value=0.5), states)
    expected = -(AMP / (OMEGA * 0.5)) * np.cos(OMEGA * states.t)
    np.testing.assert_allclose(i_l, expected, atol=1e-9 * AMP / OMEGA)

    cap = MemoryElement(kind=ElementKind.CAPACITOR, scalar_value=1e-4)
    i_c, q_c, c_c = branch_current(cap, states)
    assert c_c is None
    np.testing.assert_allclose(i_c, 1e-4 * AMP * OMEGA * np.cos(OMEGA * states.t), atol=1e-9)
    np.testing.assert_array_equal(q_c, 1e-4 * states.u)

    i_dc, _, _ = branch_current(MemoryElement(kind=ElementKind.DC_SOURCE, scalar_value=-3.0), states)
    assert np.all(i_dc == -3.0)


def test_memristor_current_vanishes_with_voltage():
    element = memductance_from_sines(SUPPLY, [3.0, 0.0, -1.0])
    states = supply_states(SUPPLY)
    current, charge, capacitance = branch_current(element, states)
    assert charge is None and capacitance is None
    mask = states.u == 0.0
    assert np.any(mask)
    assert np.all(current[mask] == 0.0)


def test_memcapacitor_analytic_current_matches_differenced_charge():
    cond = synthesize_conditioner(SUPPLY, motivating_spectrum())
    config = SimulationConfig(periods=1, samples_per_period=8192)
    trace = simulate(cond, config)
    memcap = branch(trace, "memcapacitor")
    dt = SUPPLY.period / config.samples_per_period
    # periodic central difference of the charge column
    numeric = (np.roll(memcap.charge, -1) - np.roll(memcap.charge, 1)) / (2.0 * dt)
    assert _rms(numeric - memcap.current) <= 1e-6 * _rms(memcap.current)
    np.testing.assert_array_equal(memcap.charge, trace.capacitance * trace.u)


def test_simulate_reconstructs_motivating_waveform():
    spectrum = motivating_spectrum()
    trace = simulate(decompose_load(SUPPLY, spectrum))
    target = evaluate_waveform(spectrum, trace.t)
    assert _rms(trace.i_total - target) <= 1e-9 * _rms(target)
    assert trace.capacitance is not None


def test_simulate_empty_decomposition():
    trace = simulate(decompose_load(SUPPLY, HarmonicSpectrum(OMEGA)))
    assert trace.branches == ()
    assert np.all(trace.i_total == 0.0)
    assert trace.capacitance is None
    with pytest.raises(ValueError):
        branch(trace, "memristor")


def test_branch_average_power():
    trace = simulate(decompose_load(SUPPLY, motivating_spectrum()))
    scale = _rms(trace.u) * _rms(trace.i_total)
    assert branch_average_power(trace, "resistor") == pytest.approx(18400.0, rel=1e-12)
    assert abs(branch_average_power(trace, "meminductor")) <= 1e-9 * scale
    assert abs(branch_average_power(trace, "memcapacitor")) <= 1e-9 * scale
    assert abs(branch_average_power(trace, "companion_inductor")) <= 1e-9 * scale


def _loop_states(config):
    return supply_states(SUPPLY, config, loop_indices(config))


def test_hysteresis_loop_closure_and_planes():
    dec = decompose_load(SUPPLY, motivating_spectrum())
    whole = supply_states(SUPPLY)
    states = _loop_states(SimulationConfig())
    x, y = hysteresis_loop(dec.memcapacitor, states)
    assert len(x) == 8193
    assert abs(x[0] - x[-1]) <= 1e-9 * float(np.max(np.abs(x)))
    assert abs(y[0] - y[-1]) <= 1e-9 * float(np.max(np.abs(y)))
    np.testing.assert_array_equal(x, whole.u[: len(x)])

    phi_axis, i_ind = hysteresis_loop(dec.meminductor, states)
    np.testing.assert_array_equal(phi_axis, whole.phi[: len(phi_axis)])
    assert abs(i_ind[0] - i_ind[-1]) <= 1e-9 * float(np.max(np.abs(i_ind)))


def test_hysteresis_single_period_wraps():
    element = memductance_from_sines(SUPPLY, [2.0, 0.0, 0.5])
    states = _loop_states(SimulationConfig(periods=1, samples_per_period=1024))
    x, y = hysteresis_loop(element, states)
    assert len(x) == 1025
    assert x[0] == x[-1]
    assert y[0] == y[-1]


def test_hysteresis_conditioner_charge_closed_form():
    cond = synthesize_conditioner(SUPPLY, motivating_spectrum())
    states = _loop_states(SimulationConfig(periods=1, samples_per_period=4096))
    _, q = hysteresis_loop(cond.memcapacitor, states)
    t = np.append(states.t[:-1], SUPPLY.period)
    expected = (100.0 * math.sqrt(2.0) / OMEGA) * np.sin(OMEGA * t) - (
        25.0 * math.sqrt(2.0) / OMEGA
    ) * np.sin(2.0 * OMEGA * t)
    assert _rms(q - expected) <= 1e-9 * _rms(expected)


def test_hysteresis_constant_capacitance_is_a_line():
    element = memcapacitance_from_cosines(SUPPLY, [4.0])
    states = _loop_states(SimulationConfig(periods=1, samples_per_period=1024))
    u, q = hysteresis_loop(element, states)
    c0 = element.incremental.evaluate(0.0)
    assert float(np.max(np.abs(q - c0 * u))) <= 1e-12 * float(np.max(np.abs(q)))


def test_capacitance_column_time_average():
    # mean over a period of U_k(cos wt) is 1 for even k, 0 for odd k, so the
    # average capacitance is the sum of even-index incremental coefficients;
    # for loads whose cosines all have even order that is just the U_0 term
    spectra = {
        "motivating": motivating_spectrum(),
        "rectifier": rectifier_spectrum(AMP, OMEGA, n_max=12),
        "bridge": bridge_spectrum(5.0, 0.9, OMEGA, n_max=9),
    }
    for name, spectrum in spectra.items():
        cond = synthesize_conditioner(SUPPLY, spectrum)
        trace = simulate(cond, SimulationConfig(periods=1, samples_per_period=4096))
        coeffs = cond.memcapacitor.incremental.coeffs
        expected = sum(coeffs[::2])
        mean = float(np.mean(trace.capacitance))
        assert mean == pytest.approx(expected, rel=1e-9), name
        if name in ("motivating", "rectifier"):
            assert mean == pytest.approx(coeffs[0], rel=1e-9), name


def test_hysteresis_rejects_lti():
    states = _loop_states(SimulationConfig(periods=1, samples_per_period=1024))
    with pytest.raises(ValidationError):
        hysteresis_loop(MemoryElement(kind=ElementKind.RESISTOR, scalar_value=1.0), states)


def _parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_trace_csv_row_identity():
    dec = decompose_load(SUPPLY, rectifier_spectrum(AMP, OMEGA, n_max=12))
    config = SimulationConfig(periods=1, samples_per_period=256)
    text = trace_to_csv(simulate(dec, config))
    header, rows = _parse_csv(text)
    assert ",".join(header) == TRACE_HEADER
    assert len(rows) == 256
    for row in rows[::32]:
        i_total = float(row[4])
        parts = sum(float(cell) for cell in row[5:9])
        assert abs(i_total - parts) <= 1e-9 * max(1.0, abs(i_total))
        # dc, resistor, companion inductor, memcapacitor: all families filled
        assert all(cell != "" for cell in row)


def test_trace_csv_empty_families_and_exact_cells():
    dec = decompose_load(SUPPLY, motivating_spectrum())
    config = SimulationConfig(periods=1, samples_per_period=128)
    trace = simulate(dec, config)
    header, rows = _parse_csv(trace_to_csv(trace))
    assert len(rows) == 128
    k = 17
    assert rows[k][5] == ""  # no dc branch
    assert float(rows[k][0]) == float(trace.t[k])
    assert float(rows[k][4]) == float(trace.i_total[k])
    assert float(rows[k][10]) == float(trace.capacitance[k])


def test_trace_csv_header_only_when_empty():
    trace = simulate(decompose_load(SUPPLY, HarmonicSpectrum(OMEGA)))
    assert trace_to_csv(trace) == TRACE_HEADER + "\n"


SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e-5, 1e16, 1.7976931348623157e308,
    0.1, -1.0 / 3.0, float("inf"), float("-inf"), float("nan"),
    # the edges of the range where orjson and ``repr`` lay a float out alike
    1e-4, float(np.nextafter(1e-4, 0.0)), float(np.nextafter(1e-4, 1.0)),
    float(np.nextafter(1e16, 0.0)), float(np.nextafter(1e16, np.inf)), 9999999999999998.0,
]


def _reference_csv(header, columns):
    """The per-cell loop the columnar writer replaced."""
    n = len(next(col for col in columns if col is not None))
    lines = [header]
    for k in range(n):
        lines.append(",".join("" if col is None else repr(float(col[k])) for col in columns))
    return "\n".join(lines) + "\n"


def _assert_csv_or_refusal(header, columns):
    """The per-cell text when every cell is finite; a NumericalError otherwise."""
    if all(np.isfinite(col).all() for col in columns if col is not None):
        text = columns_to_csv(header, columns)
        assert text == _reference_csv(header, columns)
        return text
    with pytest.raises(NumericalError, match="not finite"):
        columns_to_csv(header, columns)
    return None


@pytest.mark.parametrize("rows", [0, 1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1])
def test_columns_to_csv_matches_per_cell_repr_on_special_floats(rows):
    specials = np.resize(np.array(SPECIAL_FLOATS), rows)
    columns = [specials, None, -specials[::-1].copy(), None]
    text = _assert_csv_or_refusal("a,b,c,d", columns)
    if text is not None:
        assert text.count("\n") == rows + 1
    for column in (specials, -specials):
        assert float_cells(column) == [repr(float(x)) for x in column]


@st.composite
def _csv_columns(draw):
    rows = draw(st.sampled_from(
        [0, 1, 2, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 5]
    ))
    present = draw(st.lists(st.booleans(), min_size=1, max_size=6).filter(any))
    pool = np.array(draw(st.lists(
        st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()), min_size=1, max_size=12
    )))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for keep in present:
        if not keep:
            columns.append(None)
            continue
        # drawn values, mixed with random bit patterns (subnormals, nan payloads)
        bits = rng.integers(0, 2**64, rows, dtype=np.uint64, endpoint=False).view(np.float64)
        picked = pool[rng.integers(0, len(pool), rows)]
        columns.append(np.where(rng.random(rows) < 0.5, picked, bits))
    return columns


@settings(max_examples=60, deadline=None)
@given(_csv_columns())
def test_columns_to_csv_matches_per_cell_repr(columns):
    header = ",".join(f"c{j}" for j in range(len(columns)))
    _assert_csv_or_refusal(header, columns)


def _orjson_tokens(values):
    text = orjson.dumps(np.asarray(values, dtype=float), option=orjson.OPT_SERIALIZE_NUMPY)
    return text[1:-1].decode().split(",")


def test_repr_fallback_picks_exactly_the_cells_outside_the_shared_layout():
    edges = [1e-9, 1e-5, 1e-4, 1e16]
    values = [float(y) for x in edges for y in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf))]
    values += [5e-324, 1e-300, 0.0, -0.0, float("nan"), float("inf"), float("-inf"), 0.1, 1e300]
    for sign in (1.0, -1.0):
        column = sign * np.array(values)
        differs = [t != repr(x) for t, x in zip(_orjson_tokens(column), column.tolist())]
        assert repr_fallback(column).tolist() == differs
    # the oracle is not vacuous: both spellings agree on some cells and not on others
    assert 0 < sum(differs) < len(differs)
    assert not repr_fallback(np.array([5e-324, 1e-300, float(np.nextafter(1e-9, 0.0))])).any()


@pytest.mark.parametrize(
    "value, token, spelled",
    [
        (0.00002, "0.00002", "2e-05"),
        (-0.0000123, "-0.0000123", "-1.23e-05"),
        (1.5e-7, "1.5e-7", "1.5e-07"),
        (-1e-9, "-1e-9", "-1e-09"),
        (1e16, "1e16", "1e+16"),
        (1.7976931348623157e308, "1.7976931348623157e308", "1.7976931348623157e+308"),
    ],
)
def test_respell_turns_each_orjson_layout_into_repr(value, token, spelled):
    assert _orjson_tokens([value]) == [token]
    assert _respell(token) == spelled == repr(value)
    assert float_cells(np.array([value])) == [spelled]


def test_float_cells_match_repr_on_every_power_of_ten():
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    for column in (powers, -powers):
        assert float_cells(column) == [repr(x) for x in column.tolist()]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_float_cells_match_repr_on_random_bit_patterns(seed):
    bits = np.random.default_rng(seed).integers(0, 2**64, 4 * CSV_CHUNK_ROWS + 7, dtype=np.uint64)
    column = bits.view(np.float64)
    assert float_cells(column) == [repr(x) for x in column.tolist()]


def test_float_cells_on_a_column_wholly_in_the_fallback_range():
    # like the C_of_t column of a bridge conditioner, about 1e-5 F throughout
    column = 1e-5 * (1.0 + 0.3 * np.sin(np.linspace(0.0, 7.0, 3 * CSV_CHUNK_ROWS + 11)))
    assert repr_fallback(column).all()
    assert float_cells(column) == [repr(float(x)) for x in column]
    columns = [np.arange(column.size) * 1e-3, column]
    assert columns_to_csv("t,C", columns) == _reference_csv("t,C", columns)


@pytest.mark.parametrize("special", [1e-5, 1.5e-7, -3e-300, 1e16, float("nan"), float("-inf")])
def test_fallback_cells_at_chunk_edges(special):
    column = np.linspace(1.0, 2.0, 2 * CSV_CHUNK_ROWS + 3)
    rows = [0, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS]
    column[rows] = special
    columns = [column, -column]
    text = _assert_csv_or_refusal("a,b", columns)
    if math.isfinite(special):
        lines = text.split("\n")
        for k in rows:
            assert lines[k + 1] == f"{special!r},{-special!r}"
    else:
        assert text is None


def test_float_cells_on_empty_and_strided_columns():
    assert float_cells(np.array([])) == []
    assert columns_to_csv("a,b", [np.array([]), None]) == "a,b\n"
    strided = np.linspace(-1e-6, 3.0, 3 * CSV_CHUNK_ROWS)[::3]
    assert not strided.flags.c_contiguous
    assert float_cells(strided) == [repr(float(x)) for x in strided]
    assert columns_to_csv("a", [strided]) == _reference_csv("a", [strided])


def test_columns_to_csv_rejects_unequal_or_missing_columns():
    with pytest.raises(ValueError):
        columns_to_csv("a,b", [np.zeros(3), np.zeros(4)])
    with pytest.raises(ValueError):
        columns_to_csv("a", [None])


class _KernelLog(list):
    """The series the Clenshaw kernel ran on, in call order."""

    #: calls of the kernel
    passes = 0


@pytest.fixture
def evaluated(monkeypatch):
    """Log of every series the Clenshaw kernel is run on.

    ``ChebyshevSeries.evaluate`` and the simulation both reach the kernel
    through ``evaluate_many``.
    """
    log = _KernelLog()
    original = chebyshev.evaluate_many

    def spy(pairs):
        log.passes += 1
        log.extend(series for series, _ in pairs)
        return original(pairs)

    monkeypatch.setattr(chebyshev, "evaluate_many", spy)
    monkeypatch.setattr(simulation, "evaluate_many", spy)
    return log


def test_simulate_and_trace_csv_evaluate_memcapacitance_once(evaluated):
    dec = decompose_load(SUPPLY, motivating_spectrum())
    cm = dec.memcapacitor.incremental
    trace = simulate(dec, SimulationConfig(periods=2, samples_per_period=256))
    trace_to_csv(trace)
    memcap_calls = [series for series in evaluated if series in (cm, cm.derivative())]
    assert memcap_calls == [cm, cm.derivative()]
    assert memcap_calls[0] is cm
    # G, Gamma, C and dC of the whole network in one kernel call
    assert evaluated.passes == 1
    assert evaluated[:-2] == [dec.meminductor.incremental]


@pytest.mark.parametrize("periods", [1, 2, 3])
def test_loop_states_have_the_bits_of_the_whole_grid(periods):
    config = SimulationConfig(periods=periods, samples_per_period=1000)
    whole = supply_states(SUPPLY, config)
    idx = loop_indices(config)
    loop = supply_states(SUPPLY, config, idx)
    assert idx[-1] == (0 if periods == 1 else 1000)
    for name in ("t", "u", "phi", "sigma"):
        assert getattr(loop, name).tobytes() == getattr(whole, name)[idx].tobytes()


@pytest.mark.parametrize("make", [
    lambda: memductance_from_sines(SUPPLY, [2.0, 0.0, 0.5, 0.0, -0.25]),
    lambda: decompose_load(SUPPLY, motivating_spectrum()).meminductor,
    lambda: decompose_load(SUPPLY, motivating_spectrum()).memcapacitor,
])
def test_hysteresis_extra_pairs_ride_in_the_loop_pass(make, evaluated):
    element = make()
    config = SimulationConfig(periods=2, samples_per_period=512)
    whole = supply_states(SUPPLY, config)
    waves = branch_current(element, whole)
    drive, response = {
        ElementKind.MEMRISTOR: (whole.u, waves.current),
        ElementKind.MEMINDUCTOR: (whole.phi, waves.current),
        ElementKind.MEMCAPACITOR: (whole.u, waves.charge),
    }[element.kind]
    idx = loop_indices(config)
    grid = np.linspace(-2.0, 2.0, 101) / abs(element.constitutive.scale)
    passes = evaluated.passes
    got = hysteresis_loop(element, _loop_states(config), (element.constitutive, grid))
    assert evaluated.passes == passes + 1
    assert len(got) == 3
    assert got[0].tobytes() == drive[idx].tobytes()
    assert got[1].tobytes() == response[idx].tobytes()
    assert got[2].tobytes() == element.constitutive.evaluate(grid).tobytes()


def test_memcapacitor_hysteresis_evaluates_only_memcapacitance(evaluated):
    dec = decompose_load(SUPPLY, motivating_spectrum())
    config = SimulationConfig(periods=1, samples_per_period=256)
    u, q = hysteresis_loop(dec.memcapacitor, _loop_states(config))
    assert len(evaluated) == 1 and evaluated[0] is dec.memcapacitor.incremental
    idx = np.arange(257) % 256
    whole = supply_states(SUPPLY, config)
    np.testing.assert_array_equal(q, branch_current(dec.memcapacitor, whole).charge[idx])
