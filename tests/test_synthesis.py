"""Branch assignment, conditioner synthesis, and round-trip verification."""

import dataclasses
import math

import numpy as np
import pytest

from memsynth.elements import ElementKind, MemoryElement, memductance_from_sines
from memsynth.errors import ValidationError
from memsynth.harmonics import (
    HarmonicSpectrum,
    SupplyVoltage,
    compute_powers,
    project_waveform,
)
from memsynth.loads import (
    MOTIVATING_AMPLITUDE,
    MOTIVATING_OMEGA,
    bridge_spectrum,
    motivating_spectrum,
    motivating_supply,
    rectifier_spectrum,
)
from memsynth.simulation import SimulationConfig, simulate
from memsynth import synthesis
from memsynth.synthesis import (
    AssignmentPolicy,
    EvenSineRoute,
    LoadDecomposition,
    PolicyMode,
    decompose_load,
    _grid_samples,
    steady_state_rows,
    synthesize_conditioner,
    verification_grid,
    verify_decomposition,
)

from entry_paths import sparse_spectrum
from trace_branches import companions, in_slot, with_slot

AMP = MOTIVATING_AMPLITUDE
OMEGA = MOTIVATING_OMEGA
SUPPLY = motivating_supply()
FAST = SimulationConfig(periods=1, samples_per_period=2048)


def _labels(decomposition):
    return [label for label, _ in decomposition.branches()]


def test_motivating_auto_decomposition():
    dec = decompose_load(SUPPLY, motivating_spectrum())
    assert _labels(dec) == ["resistor", "meminductor", "memcapacitor", "companion_inductor"]
    assert in_slot(dec, "memristor").scalar_value == pytest.approx(2.875, rel=1e-12)
    # lone second cosine: regularized with gamma = w A |a2|/(2 w A) = a2/2
    gamma = 50.0 * math.sqrt(2.0) / 2.0
    assert companions(dec)[0].kind is ElementKind.INDUCTOR
    assert companions(dec)[0].scalar_value == pytest.approx(AMP / (OMEGA * gamma), rel=1e-12)
    report = verify_decomposition(dec, motivating_spectrum())
    assert report.rel_rms_error <= 1e-12
    assert report.max_coefficient_error <= 1e-12
    assert report.n_max == 2
    assert report.samples_per_period == 8


def test_motivating_forced_capacitive():
    policy = AssignmentPolicy(mode=PolicyMode.CAPACITIVE)
    dec = decompose_load(SUPPLY, motivating_spectrum(), policy)
    # all cosines land on the memcapacitor; its linear term is a1, no companion
    assert _labels(dec) == ["resistor", "memcapacitor"]
    assert in_slot(dec, "memcapacitor").incremental.coeffs[0] != 0.0


def test_mode_invariance_of_terminal_current():
    spectrum = motivating_spectrum()
    waves = []
    for mode in (PolicyMode.AUTO, PolicyMode.INDUCTIVE, PolicyMode.CAPACITIVE):
        dec = decompose_load(SUPPLY, spectrum, AssignmentPolicy(mode=mode))
        waves.append(simulate(dec, FAST).i_total)
    ref_rms = float(np.sqrt(np.mean(waves[0] ** 2)))
    for other in waves[1:]:
        diff = float(np.sqrt(np.mean((other - waves[0]) ** 2)))
        assert diff <= 1e-9 * ref_rms


def test_even_sine_route_invariance():
    spectrum = sparse_spectrum(
        OMEGA, 0.0, ((1, -3.0, 4.0), (2, 1.5, -2.0), (4, 0.0, 0.7))
    )
    via_memristor = decompose_load(SUPPLY, spectrum)
    via_meminductor = decompose_load(
        SUPPLY, spectrum, AssignmentPolicy(route_even_sines=EvenSineRoute.MEMINDUCTOR)
    )
    assert in_slot(via_memristor, "memristor").kind is ElementKind.MEMRISTOR
    # with the even sines removed only b1 remains, which collapses to a resistor
    assert in_slot(via_meminductor, "memristor").kind is ElementKind.RESISTOR
    i_a = simulate(via_memristor, FAST).i_total
    i_b = simulate(via_meminductor, FAST).i_total
    ref = float(np.sqrt(np.mean(i_a**2)))
    assert float(np.sqrt(np.mean((i_a - i_b) ** 2))) <= 1e-9 * ref


def test_rectifier_decomposition_branches():
    supply = SupplyVoltage(1.0, OMEGA)
    spectrum = rectifier_spectrum(1.0, OMEGA, n_max=40)
    dec = decompose_load(supply, spectrum)
    assert _labels(dec) == ["dc", "resistor", "memcapacitor", "companion_inductor"]
    assert in_slot(dec, "dc").scalar_value == pytest.approx(1.0 / math.pi, rel=1e-15)
    assert in_slot(dec, "memristor").scalar_value == pytest.approx(2.0, rel=1e-15)
    # the even-cosine family has no fundamental, hence the companion
    memcapacitor = in_slot(dec, "memcapacitor")
    gamma = OMEGA * 1.0 * sum(abs(c) for c in memcapacitor.incremental.coeffs[1:])
    assert companions(dec)[0].scalar_value == pytest.approx(1.0 / (OMEGA * gamma), rel=1e-9)


def test_bridge_decomposition_branches():
    spectrum = bridge_spectrum(10.0, math.pi / 4.0, OMEGA, n_max=9)
    dec = decompose_load(SUPPLY, spectrum)
    # odd cosines with a1 < 0: inductive mode, no capacitor, no companions
    assert _labels(dec) == ["memristor", "meminductor"]
    report = verify_decomposition(dec, spectrum)
    assert report.rel_rms_error <= 1e-12


def test_bridge_zero_delta_is_memristor_only():
    spectrum = bridge_spectrum(10.0, 0.0, OMEGA, n_max=9)
    dec = decompose_load(SUPPLY, spectrum)
    assert _labels(dec) == ["memristor"]


def test_lone_negative_fundamental_stays_memristor():
    spectrum = sparse_spectrum(OMEGA, 0.0, ((1, 0.0, -5.0),))
    dec = decompose_load(SUPPLY, spectrum)
    assert in_slot(dec, "memristor").kind is ElementKind.MEMRISTOR
    report = verify_decomposition(dec, spectrum)
    assert report.rel_rms_error <= 1e-12


def test_empty_spectrum_decomposes_to_nothing():
    dec = decompose_load(SUPPLY, HarmonicSpectrum(OMEGA))
    assert dec.branches() == []
    report = verify_decomposition(dec, HarmonicSpectrum(OMEGA))
    assert report.rel_rms_error == 0.0


def test_conditioner_motivating_is_single_memcapacitor():
    cond = synthesize_conditioner(SUPPLY, motivating_spectrum())
    assert _labels(cond) == ["memcapacitor"]
    cap = in_slot(cond, "memcapacitor")
    # C(0) = -a1/(w A) = 1/(230 pi); dC/dphi(0) = a2/A^2
    assert cap.incremental.evaluate(0.0) == pytest.approx(
        1.0 / (230.0 * math.pi), rel=1e-9
    )
    slope = cap.incremental.derivative().evaluate(0.0)
    assert slope == pytest.approx(50.0 * math.sqrt(2.0) / AMP**2, rel=1e-9)


def test_conditioner_cancels_everything_but_active_and_dc():
    spectrum = rectifier_spectrum(AMP, OMEGA, n_max=40)
    cond = synthesize_conditioner(SUPPLY, motivating_spectrum())
    assert all(label != "dc" for label in _labels(cond))

    rect_cond = synthesize_conditioner(SUPPLY, spectrum)
    assert _labels(rect_cond) == ["memcapacitor", "companion_inductor"]

    config = SimulationConfig(periods=1, samples_per_period=2048)
    load_i = simulate(decompose_load(SUPPLY, motivating_spectrum()), config).i_total
    cond_i = simulate(cond, config).i_total
    t = np.arange(2048) * SUPPLY.period / 2048
    active = 80.0 * math.sqrt(2.0) * np.sin(OMEGA * t)
    residual = load_i + cond_i - active
    assert float(np.sqrt(np.mean(residual**2))) <= 1e-9 * float(
        np.sqrt(np.mean(active**2))
    )


def test_conditioner_draws_no_average_power():
    spectrum = bridge_spectrum(8.0, math.pi / 5.0, OMEGA, n_max=49)
    cond = synthesize_conditioner(SUPPLY, spectrum)
    # residual odd sines (n >= 3) go to a memristor with no fundamental term
    assert in_slot(cond, "memristor") is not None
    assert in_slot(cond, "memristor").incremental.coeffs[0] == 0.0
    trace = simulate(cond, SimulationConfig(periods=1, samples_per_period=4096))
    u = trace.states.u
    power = float(np.mean(u * trace.i_total))
    scale = float(np.sqrt(np.mean(u**2)) * np.sqrt(np.mean(trace.i_total**2)))
    assert abs(power) <= 1e-9 * scale


def test_rectifier_truncation_against_ideal_waveform():
    spectrum = rectifier_spectrum(AMP, OMEGA, n_max=20)
    dec = decompose_load(SUPPLY, spectrum)
    config = SimulationConfig(periods=1, samples_per_period=8192)
    trace = simulate(dec, config)
    ideal = np.maximum(AMP * np.sin(OMEGA * trace.states.t), 0.0)
    diff_rms = float(np.sqrt(np.mean((trace.i_total - ideal) ** 2)))
    assert diff_rms <= 2e-3 * AMP
    assert diff_rms <= 4e-3 * float(np.sqrt(np.mean(ideal**2)))
    # against its own truncated spectrum the reconstruction is exact
    report = verify_decomposition(dec, spectrum)
    assert report.rel_rms_error <= 1e-12


def test_decomposition_dict_round_trip():
    dec = decompose_load(SUPPLY, motivating_spectrum())
    assert LoadDecomposition.from_dict(dec.to_dict()) == dec
    cond = synthesize_conditioner(SUPPLY, rectifier_spectrum(AMP, OMEGA, n_max=12))
    assert LoadDecomposition.from_dict(cond.to_dict()) == cond


def test_decomposition_from_dict_validation():
    dec = decompose_load(SUPPLY, motivating_spectrum())
    doc = dec.to_dict()
    doc["branches"].append(doc["branches"][0])
    with pytest.raises(ValidationError):
        LoadDecomposition.from_dict(doc)
    doc = dec.to_dict()
    doc["branches"][0]["label"] = "wizard"
    with pytest.raises(ValidationError):
        LoadDecomposition.from_dict(doc)
    with pytest.raises(ValidationError):
        LoadDecomposition.from_dict({})


def test_a_list_of_elements_is_kept_as_a_tuple():
    dec = decompose_load(SUPPLY, THREE_MEMORIES)
    again = LoadDecomposition(SUPPLY, list(dec.elements))
    assert type(again.elements) is tuple
    assert again == dec and hash(again) == hash(dec)


@pytest.mark.parametrize("labels", [("memristor", "resistor"), ("resistor", "memristor")])
def test_a_memristor_and_a_resistor_share_one_slot(labels):
    element = {
        "memristor": in_slot(decompose_load(SUPPLY, THREE_MEMORIES), "memristor"),
        "resistor": MemoryElement(kind=ElementKind.RESISTOR, scalar_value=2.0),
    }
    with pytest.raises(ValidationError, match=f"duplicate branch label {labels[1]!r}"):
        LoadDecomposition(SUPPLY, tuple(element[label] for label in labels))


def test_decompose_rejects_frequency_mismatch():
    spectrum = sparse_spectrum(2.0 * OMEGA, 0.0, ((1, 0.0, 1.0),))
    with pytest.raises(ValidationError):
        decompose_load(SUPPLY, spectrum)
    good = sparse_spectrum(OMEGA, 0.0, ((1, 0.0, 1.0),))
    with pytest.raises(ValidationError):
        verify_decomposition(decompose_load(SUPPLY, good), spectrum)


def test_policy_resolution():
    policy = AssignmentPolicy()
    inductive = sparse_spectrum(OMEGA, 0.0, ((1, -1.0, 1.0),))
    capacitive = sparse_spectrum(OMEGA, 0.0, ((1, 1.0, 1.0),))
    no_cosine = sparse_spectrum(OMEGA, 0.0, ((1, 0.0, 1.0),))
    assert policy.resolve(inductive) is PolicyMode.INDUCTIVE
    assert policy.resolve(capacitive) is PolicyMode.CAPACITIVE
    assert policy.resolve(no_cosine) is PolicyMode.CAPACITIVE
    forced = AssignmentPolicy(mode="inductive", route_even_sines="meminductor")
    assert forced.mode is PolicyMode.INDUCTIVE
    assert forced.resolve(capacitive) is PolicyMode.INDUCTIVE


def test_compensated_powers_reach_unity():
    spectrum = motivating_spectrum()
    cond = synthesize_conditioner(SUPPLY, spectrum)
    config = SimulationConfig(periods=1, samples_per_period=8192)
    load_i = simulate(decompose_load(SUPPLY, spectrum), config).i_total
    cond_i = simulate(cond, config).i_total
    combined = project_waveform(load_i + cond_i, OMEGA, 2)
    summary = compute_powers(SUPPLY, combined)
    assert summary.power_factor == pytest.approx(1.0, abs=1e-9)


def test_verification_grid_rule():
    orders = (1, 16, 17, 199, 2048, 2049, 4096, 4097)
    assert [verification_grid(n) for n in orders] == [
        4, 64, 128, 1024, 8192, 16384, 16384, 32768
    ]


def test_verify_sizes_the_grid_by_the_decompositions_highest_order():
    # a spurious order-64 sine on the memristor, the fundamental kept: the
    # 64-sample grid of the target's n_max of 2 alone samples it only at its
    # zeros, and the round trip would pass
    spectrum = motivating_spectrum()
    dec = decompose_load(SUPPLY, spectrum)
    sines = np.zeros(64)
    sines[0], sines[63] = spectrum.b(1), 1.0
    spurious = with_slot(dec, "memristor", memductance_from_sines(SUPPLY, sines))
    report = verify_decomposition(spurious, spectrum)
    assert report.samples_per_period == verification_grid(64) == 256
    assert report.n_max == 2
    assert report.rel_rms_error > 1e-6


def test_verify_grows_grid_for_high_orders():
    spectrum = rectifier_spectrum(AMP, OMEGA, n_max=3000)
    report = verify_decomposition(decompose_load(SUPPLY, spectrum), spectrum)
    assert report.samples_per_period == 16384
    assert report.rel_rms_error <= 1e-12
    assert report.max_coefficient_error <= 1e-12


def _mirrored(element):
    """The same element in the mirrored argument: scale and odd-k coefficients negated.

    ``B_k(-x) = (-1)^k B_k(x)`` for both kinds, so its current is unchanged
    while its scale is no longer the builders' one.
    """
    def flip(series):
        coeffs = [-c if k % 2 else c for k, c in enumerate(series.coeffs)]
        return dataclasses.replace(series, coeffs=coeffs, scale=-series.scale)

    return dataclasses.replace(
        element, incremental=flip(element.incremental), constitutive=flip(element.constitutive)
    )


#: a1 < 0: odd cosines to the meminductor, even ones to the memcapacitor
THREE_MEMORIES = sparse_spectrum(
    OMEGA, 0.3, ((1, -3.0, 4.0), (2, 1.5, -2.0), (3, 0.5, 0.7), (4, 0.0, 0.9))
)


def test_verify_refuses_a_mirrored_element():
    # the mirrored element is the same element, but the rows stand for it
    # only at the orbit scale
    spectrum = motivating_spectrum()
    dec = decompose_load(SUPPLY, spectrum)
    off = with_slot(dec, "meminductor", _mirrored(in_slot(dec, "meminductor")))
    with pytest.raises(ValidationError, match="meminductor scale .* off the steady-state orbit"):
        verify_decomposition(off, spectrum)


def test_verify_rejects_non_finite_current_through_projection(monkeypatch):
    projected = []

    def spy_project(samples, omega, n_max):
        projected.append(n_max)
        return project_waveform(samples, omega, n_max)

    monkeypatch.setattr(synthesis, "project_waveform", spy_project)
    # an on-orbit memristor whose current A c_0 leaves float64
    supply = SupplyVoltage(10.0, 100.0)
    memristor = memductance_from_sines(supply, [1.0])
    series = dataclasses.replace(memristor.incremental, coeffs=(1e308,))
    dec = LoadDecomposition(supply, (dataclasses.replace(memristor, incremental=series),))
    spectrum = HarmonicSpectrum(100.0, 0.0, (0.0,), (1.0,))
    with pytest.raises(ValidationError, match="samples must be finite"):
        verify_decomposition(dec, spectrum)
    assert projected == [1]


@pytest.mark.parametrize("slot", ["memristor", "meminductor", "memcapacitor"])
@pytest.mark.parametrize("tamper", [
    lambda s: dataclasses.replace(s, scale=-s.scale),
    lambda s: dataclasses.replace(s, scale=s.scale * (1.0 + 2.0**-40)),
], ids=["negated-scale", "scale-off-by-2^-40"])
def test_elements_off_the_orbit_are_refused(slot, tamper):
    dec = decompose_load(SUPPLY, THREE_MEMORIES)
    memories = ("memristor", "meminductor", "memcapacitor")
    assert [in_slot(dec, name).kind.value for name in memories] == list(memories)
    assert steady_state_rows(dec).shape == (2, 5)
    element = in_slot(dec, slot)
    # an element holds one scale, so both series take the tampered one
    off_element = dataclasses.replace(
        element, incremental=tamper(element.incremental), constitutive=tamper(element.constitutive)
    )
    off = with_slot(dec, slot, off_element)
    for check in (steady_state_rows, lambda d: verify_decomposition(d, THREE_MEMORIES)):
        with pytest.raises(ValidationError, match=f"{slot} scale .* orbit"):
            check(off)


def test_steady_state_current_matches_simulation_on_every_branch_kind():
    for policy in (AssignmentPolicy(), AssignmentPolicy(route_even_sines="meminductor")):
        for network in (decompose_load(SUPPLY, THREE_MEMORIES, policy),
                        synthesize_conditioner(SUPPLY, THREE_MEMORIES, policy)):
            current = _grid_samples(steady_state_rows(network), 2048)
            clenshaw = simulate(network, FAST).i_total
            assert np.max(np.abs(current - clenshaw)) <= 1e-12 * np.max(np.abs(clenshaw))
