"""Supply state grids, per-branch currents, hysteresis loops, CSV traces."""

import csv
import io
import math

import numpy as np
import pytest

from memsynth import chebyshev, simulation

from memsynth.elements import (
    ElementKind,
    MemoryElement,
    memcapacitance_from_cosines,
    memductance_from_sines,
)
from memsynth.errors import ValidationError
from memsynth.harmonics import HarmonicSpectrum, evaluate_waveform
from memsynth.loads import (
    LoadModel,
    bridge_spectrum,
    motivating_spectrum,
    motivating_supply,
    rectifier_spectrum,
)
from memsynth.simulation import (
    MAX_GRID_SAMPLES,
    SimulationConfig,
    hysteresis_loop,
    loop_indices,
    simulate,
    supply_states,
)
from memsynth.synthesis import (
    AssignmentPolicy,
    LoadDecomposition,
    _grid_samples,
    decompose_load,
    steady_state_rows,
    synthesize_conditioner,
)
from memsynth.textio import TRACE_HEADER, trace_to_csv

from entry_paths import own_branch_current
from trace_branches import branch, branch_average_power, in_slot

SUPPLY = motivating_supply()
AMP = SUPPLY.amplitude
OMEGA = SUPPLY.omega


def _rms(x):
    return float(np.sqrt(np.mean(np.asarray(x) ** 2)))


def test_supply_states_grid_and_closed_forms():
    states = supply_states(SUPPLY, SimulationConfig())
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
    i_r, q_r, c_r = own_branch_current(
        MemoryElement(kind=ElementKind.RESISTOR, scalar_value=2.0), states
    )
    np.testing.assert_array_equal(i_r, states.u / 2.0)
    assert q_r is None and c_r is None

    inductor = MemoryElement(kind=ElementKind.INDUCTOR, scalar_value=0.5)
    i_l, _, _ = own_branch_current(inductor, states)
    expected = -(AMP / (OMEGA * 0.5)) * np.cos(OMEGA * states.t)
    np.testing.assert_allclose(i_l, expected, atol=1e-9 * AMP / OMEGA)

    cap = MemoryElement(kind=ElementKind.CAPACITOR, scalar_value=1e-4)
    i_c, q_c, c_c = own_branch_current(cap, states)
    assert c_c is None
    np.testing.assert_allclose(i_c, 1e-4 * AMP * OMEGA * np.cos(OMEGA * states.t), atol=1e-9)
    np.testing.assert_array_equal(q_c, 1e-4 * states.u)

    i_dc, _, _ = own_branch_current(
        MemoryElement(kind=ElementKind.DC_SOURCE, scalar_value=-3.0), states
    )
    assert np.all(i_dc == -3.0)


def test_memristor_current_vanishes_with_voltage():
    element = memductance_from_sines(SUPPLY, [3.0, 0.0, -1.0])
    states = supply_states(SUPPLY, SimulationConfig())
    current, charge, capacitance = own_branch_current(element, states)
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
    np.testing.assert_array_equal(memcap.charge, memcap.capacitance * trace.states.u)


def test_simulate_reconstructs_motivating_waveform():
    spectrum = motivating_spectrum()
    trace = simulate(decompose_load(SUPPLY, spectrum), SimulationConfig())
    target = evaluate_waveform(spectrum, trace.states.t)
    assert _rms(trace.i_total - target) <= 1e-9 * _rms(target)
    assert branch(trace, "memcapacitor").capacitance is not None


def test_simulate_empty_decomposition():
    trace = simulate(decompose_load(SUPPLY, HarmonicSpectrum(OMEGA)), SimulationConfig())
    assert trace.branches == ()
    assert np.all(trace.i_total == 0.0)
    with pytest.raises(ValueError):
        branch(trace, "memristor")


def test_branch_average_power():
    trace = simulate(decompose_load(SUPPLY, motivating_spectrum()), SimulationConfig())
    scale = _rms(trace.states.u) * _rms(trace.i_total)
    assert branch_average_power(trace, "resistor") == pytest.approx(18400.0, rel=1e-12)
    assert abs(branch_average_power(trace, "meminductor")) <= 1e-9 * scale
    assert abs(branch_average_power(trace, "memcapacitor")) <= 1e-9 * scale
    assert abs(branch_average_power(trace, "companion_inductor")) <= 1e-9 * scale


def _loop_states(config):
    return supply_states(SUPPLY, config, loop_indices(config))


def test_hysteresis_loop_closure_and_planes():
    dec = decompose_load(SUPPLY, motivating_spectrum())
    whole = supply_states(SUPPLY, SimulationConfig())
    states = _loop_states(SimulationConfig())
    x, y, _, _ = hysteresis_loop(in_slot(dec, "memcapacitor"), states)
    assert len(x) == 8193
    assert abs(x[0] - x[-1]) <= 1e-9 * float(np.max(np.abs(x)))
    assert abs(y[0] - y[-1]) <= 1e-9 * float(np.max(np.abs(y)))
    np.testing.assert_array_equal(x, whole.u[: len(x)])

    phi_axis, i_ind, _, _ = hysteresis_loop(in_slot(dec, "meminductor"), states)
    np.testing.assert_array_equal(phi_axis, whole.phi[: len(phi_axis)])
    assert abs(i_ind[0] - i_ind[-1]) <= 1e-9 * float(np.max(np.abs(i_ind)))


def test_hysteresis_single_period_wraps():
    element = memductance_from_sines(SUPPLY, [2.0, 0.0, 0.5])
    states = _loop_states(SimulationConfig(periods=1, samples_per_period=1024))
    x, y, _, _ = hysteresis_loop(element, states)
    assert len(x) == 1025
    assert x[0] == x[-1]
    assert y[0] == y[-1]


def test_hysteresis_conditioner_charge_closed_form():
    cond = synthesize_conditioner(SUPPLY, motivating_spectrum())
    states = _loop_states(SimulationConfig(periods=1, samples_per_period=4096))
    _, q, _, _ = hysteresis_loop(in_slot(cond, "memcapacitor"), states)
    t = np.append(states.t[:-1], SUPPLY.period)
    expected = (100.0 * math.sqrt(2.0) / OMEGA) * np.sin(OMEGA * t) - (
        25.0 * math.sqrt(2.0) / OMEGA
    ) * np.sin(2.0 * OMEGA * t)
    assert _rms(q - expected) <= 1e-9 * _rms(expected)


def test_hysteresis_constant_capacitance_is_a_line():
    element = memcapacitance_from_cosines(SUPPLY, [4.0])
    states = _loop_states(SimulationConfig(periods=1, samples_per_period=1024))
    u, q, _, _ = hysteresis_loop(element, states)
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
        coeffs = in_slot(cond, "memcapacitor").incremental.coeffs
        expected = sum(coeffs[::2])
        mean = float(np.mean(branch(trace, "memcapacitor").capacitance))
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
    assert float(rows[k][0]) == float(trace.states.t[k])
    assert float(rows[k][4]) == float(trace.i_total[k])
    assert float(rows[k][10]) == float(branch(trace, "memcapacitor").capacitance[k])


def test_trace_csv_header_only_when_empty():
    trace = simulate(decompose_load(SUPPLY, HarmonicSpectrum(OMEGA)), SimulationConfig())
    assert trace_to_csv(trace) == TRACE_HEADER + "\n"


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
    cm = in_slot(dec, "memcapacitor").incremental
    trace = simulate(dec, SimulationConfig(periods=2, samples_per_period=256))
    trace_to_csv(trace)
    memcap_calls = [series for series in evaluated if series in (cm, cm.derivative())]
    assert memcap_calls == [cm, cm.derivative()]
    assert memcap_calls[0] is cm
    # G, Gamma, C and dC of the whole network in one kernel call
    assert evaluated.passes == 1
    assert evaluated[:-2] == [in_slot(dec, "meminductor").incremental]


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
    lambda: in_slot(decompose_load(SUPPLY, motivating_spectrum()), "meminductor"),
    lambda: in_slot(decompose_load(SUPPLY, motivating_spectrum()), "memcapacitor"),
])
def test_hysteresis_draws_the_constitutive_curve_in_the_loop_pass(make, evaluated):
    element = make()
    config = SimulationConfig(periods=2, samples_per_period=512)
    whole = supply_states(SUPPLY, config)
    waves = own_branch_current(element, whole)
    drive, response = {
        ElementKind.MEMRISTOR: (whole.u, waves.current),
        ElementKind.MEMINDUCTOR: (whole.phi, waves.current),
        ElementKind.MEMCAPACITOR: (whole.u, waves.charge),
    }[element.kind]
    idx = loop_indices(config)
    span = 1.0 / abs(element.constitutive.scale)
    grid = np.linspace(-span, span, simulation.CONSTITUTIVE_POINTS)
    passes = evaluated.passes
    got = hysteresis_loop(element, _loop_states(config))
    assert evaluated.passes == passes + 1
    assert len(got) == 4
    assert got[0].tobytes() == drive[idx].tobytes()
    assert got[1].tobytes() == response[idx].tobytes()
    assert got[2].tobytes() == grid.tobytes()
    assert got[3].tobytes() == element.constitutive.evaluate(grid).tobytes()


def test_memcapacitor_hysteresis_evaluates_only_memcapacitance(evaluated):
    memcapacitor = in_slot(decompose_load(SUPPLY, motivating_spectrum()), "memcapacitor")
    config = SimulationConfig(periods=1, samples_per_period=256)
    u, q, _, _ = hysteresis_loop(memcapacitor, _loop_states(config))
    # one pass holds C_M and the constitutive curve, and no dC_M/dphi
    assert evaluated.passes == 1
    assert [id(series) for series in evaluated] == [
        id(memcapacitor.incremental), id(memcapacitor.constitutive)
    ]
    idx = np.arange(257) % 256
    whole = supply_states(SUPPLY, config)
    np.testing.assert_array_equal(q, own_branch_current(memcapacitor, whole).charge[idx])


def _every_family_network():
    """dc, memristor, meminductor and memcapacitor, both regularized, so both companions."""
    spectrum = HarmonicSpectrum(OMEGA, 2.0, [0.0, 0.0, 3.0, 1.0, -1.0], [5.0, 0.0, 1.0, 2.0, 0.0])
    return decompose_load(SUPPLY, spectrum, AssignmentPolicy("inductive", "meminductor"))


def _bridge_inductive():
    model = LoadModel("bridge", delta=0.4)
    return decompose_load(model.supply(), model.spectrum(), AssignmentPolicy("inductive"))


def _rectifier():
    model = LoadModel("rectifier", n_max=12)
    return decompose_load(model.supply(), model.spectrum())


#: networks whose branches cover every element kind
ORACLE_NETWORKS = {
    "rectifier-12": _rectifier,
    "bridge-0.4-inductive": _bridge_inductive,
    "motivating-conditioner-inductive": lambda: synthesize_conditioner(
        SUPPLY, motivating_spectrum(), AssignmentPolicy("inductive")
    ),
    "every-family": _every_family_network,
}

#: one period of 1024 samples, above twice every order of the networks above
ORACLE_CONFIG = SimulationConfig(periods=1, samples_per_period=1024)

#: the element kinds each trace CSV family column sums, stated apart from the library
FAMILIES = {
    "i_dc": {"dc_source"},
    "i_GM": {"memristor", "resistor"},
    "i_GammaM": {"meminductor", "inductor"},
    "i_CM": {"memcapacitor", "capacitor"},
}


def _closed_form(supply, elements):
    """One period of the summed current of ``elements`` from their Fourier rows."""
    rows = steady_state_rows(LoadDecomposition(supply, tuple(elements)))
    return _grid_samples(rows, ORACLE_CONFIG.samples_per_period)


def _closed_form_charge(supply, memcapacitor):
    """q = C_M(phi) u on the orbit: A sum c_k sin((k+1) w t) over its incremental c_k."""
    c = memcapacitor.incremental.coeffs
    rows = np.zeros((2, len(c) + 1))
    rows[1, 1:] = supply.amplitude * c
    return _grid_samples(rows, ORACLE_CONFIG.samples_per_period)


def _csv_columns(network):
    header, rows = _parse_csv(trace_to_csv(simulate(network, ORACLE_CONFIG)))
    cells = dict(zip(header, zip(*rows)))
    return {
        name: None if column[0] == "" else np.array([float(cell) for cell in column])
        for name, column in cells.items()
    }


def _worst_gap(got, want, reference):
    return float(np.max(np.abs(got - want))) / float(np.max(np.abs(reference)))


@pytest.mark.parametrize("name", sorted(ORACLE_NETWORKS))
def test_trace_csv_family_columns_match_their_closed_forms(name):
    network = ORACLE_NETWORKS[name]()
    columns = _csv_columns(network)
    scale = np.concatenate([columns[family] for family in FAMILIES if columns[family] is not None])
    for family, kinds in FAMILIES.items():
        members = [e for e in network.elements if e.kind.value in kinds]
        if not members:
            assert columns[family] is None, family
            continue
        want = _closed_form(network.supply, members)
        assert _worst_gap(columns[family], want, scale) <= 1e-12, family


@pytest.mark.parametrize("name", sorted(ORACLE_NETWORKS))
def test_trace_csv_charge_and_capacitance_match_their_closed_forms(name):
    network = ORACLE_NETWORKS[name]()
    columns = _csv_columns(network)
    memcapacitor = in_slot(network, "memcapacitor")
    if memcapacitor is None:
        assert columns["q_CM"] is None and columns["C_of_t"] is None
        return
    q = _closed_form_charge(network.supply, memcapacitor)
    assert _worst_gap(columns["q_CM"], q, q) <= 1e-12
    # C = q / u, away from the zeros of u
    u = columns["u"]
    away = np.abs(u) >= network.supply.amplitude / 2.0
    capacitance = q[away] / u[away]
    assert _worst_gap(columns["C_of_t"][away], capacitance, capacitance) <= 1e-12


@pytest.mark.parametrize("name", sorted(ORACLE_NETWORKS))
def test_hysteresis_loop_responses_match_their_closed_forms(name):
    network = ORACLE_NETWORKS[name]()
    idx = loop_indices(ORACLE_CONFIG)
    states = supply_states(network.supply, ORACLE_CONFIG, idx)
    for element in network.elements:
        if not element.is_memory:
            continue
        _, response, _, _ = hysteresis_loop(element, states)
        if element.kind is ElementKind.MEMCAPACITOR:
            want = _closed_form_charge(network.supply, element)
        else:
            want = _closed_form(network.supply, [element])
        assert _worst_gap(response, want[idx], want) <= 1e-12, element.kind


@pytest.fixture
def branch_calls(monkeypatch):
    """The arguments of every call of ``memsynth.simulation.branch_current``.

    The benchmark tracer wraps that module global and names each span by the
    kind of its first argument.
    """
    calls = []
    original = simulation.branch_current

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(simulation, "branch_current", spy)
    return calls


@pytest.mark.parametrize("name", sorted(ORACLE_NETWORKS))
def test_simulate_calls_branch_current_once_per_element_in_order(name, branch_calls):
    network = ORACLE_NETWORKS[name]()
    simulate(network, ORACLE_CONFIG)
    assert [id(args[0]) for args in branch_calls] == [id(e) for e in network.elements]


def test_hysteresis_loop_calls_branch_current_only_for_a_current_response(branch_calls):
    network = _every_family_network()
    states = supply_states(SUPPLY, ORACLE_CONFIG, loop_indices(ORACLE_CONFIG))
    for label, calls in [("memristor", 1), ("meminductor", 1), ("memcapacitor", 0)]:
        element = in_slot(network, label)
        branch_calls.clear()
        hysteresis_loop(element, states)
        assert len(branch_calls) == calls, label
        assert all(args[0] is element for args in branch_calls)
