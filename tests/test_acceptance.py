"""End-to-end acceptance checks.

Each test exercises one headline requirement at its stated tolerance and
prints a single ``ACCEPTANCE <name>: PASS/FAIL (...)`` line (visible with
``pytest -s``) before asserting.
"""

import math
import time

import numpy as np

from memsynth.elements import default_gamma, memcapacitance_from_cosines
from memsynth.harmonics import compute_powers, project_waveform
from memsynth.loads import (
    bridge_spectrum,
    motivating_spectrum,
    motivating_supply,
    rectifier_spectrum,
)
from memsynth.simulation import (
    SimulationConfig,
    hysteresis_loop,
    loop_indices,
    simulate,
    supply_states,
)
from memsynth.synthesis import (
    AssignmentPolicy,
    LoadDecomposition,
    decompose_load,
    synthesize_conditioner,
)

from entry_paths import sparse_spectrum
from chebyshev_identities import chebyshev_identity_suite
from trace_branches import branch, branch_average_power, companions, in_slot

SUPPLY = motivating_supply()
AMP = SUPPLY.amplitude
OMEGA = SUPPLY.omega


def _verdict(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _rms(x):
    return float(np.sqrt(np.mean(np.asarray(x) ** 2)))


def _compensated_spectrum(supply, spectrum, n_max):
    """Simulate load plus conditioner and re-project the summed current."""
    config = SimulationConfig(periods=1, samples_per_period=8192)
    load = simulate(decompose_load(supply, spectrum), config)
    cond = simulate(synthesize_conditioner(supply, spectrum), config)
    return project_waveform(load.i_total + cond.i_total, spectrum.omega, n_max)


def _compensated_pf(supply, spectrum, n_max, convention="rms"):
    combined = _compensated_spectrum(supply, spectrum, n_max)
    return compute_powers(supply, combined, convention).power_factor


def test_acceptance_motivating_compensation():
    start = time.perf_counter()
    spectrum = motivating_spectrum()
    pf_before = compute_powers(SUPPLY, spectrum).power_factor
    cond = synthesize_conditioner(SUPPLY, spectrum)
    cap = in_slot(cond, "memcapacitor")
    const = cap.incremental.evaluate(0.0)
    slope = cap.incremental.derivative().evaluate(0.0)
    pf_after = _compensated_pf(SUPPLY, spectrum, 2)
    elapsed = time.perf_counter() - start

    const_target = 1.0 / (230.0 * math.pi)
    slope_target = 50.0 * math.sqrt(2.0) / AMP**2
    checks = {
        "pf_before": abs(pf_before - 0.58192) <= 1e-4,
        "pf_after": abs(pf_after - 1.0) <= 1e-9,
        "const": abs(const - const_target) <= 1e-9 * const_target,
        "slope": abs(slope - slope_target) <= 1e-9 * slope_target,
        "runtime": elapsed < 0.1,
    }
    _verdict(
        "motivating-compensation",
        all(checks.values()),
        f"pf_before={pf_before:.6f}, pf_after={pf_after:.12f}, "
        f"const={const:.12e}, slope={slope:.12e}, {elapsed * 1e3:.1f}ms, "
        f"failed={[k for k, v in checks.items() if not v]}",
    )


def test_acceptance_rectifier_power_factors():
    start = time.perf_counter()
    spectrum = rectifier_spectrum(AMP, OMEGA, n_max=199)
    pf_uncomp = compute_powers(SUPPLY, spectrum, "rms").power_factor
    compensated = _compensated_spectrum(SUPPLY, spectrum, 199)
    pf_rms = compute_powers(SUPPLY, compensated, "rms").power_factor
    pf_paper = compute_powers(SUPPLY, compensated, "paper").power_factor
    elapsed = time.perf_counter() - start

    checks = {
        "pf_uncomp_rms": abs(pf_uncomp - 0.7071) <= 0.002,
        "pf_after_rms": abs(pf_rms - 0.7432) <= 0.002,
        "pf_after_paper": abs(pf_paper - 0.8436) <= 0.002,
        "runtime": elapsed < 1.0,
    }
    _verdict(
        "rectifier-power-factors",
        all(checks.values()),
        f"uncomp={pf_uncomp:.6f}, rms_after={pf_rms:.6f}, "
        f"paper_after={pf_paper:.6f}, {elapsed * 1e3:.0f}ms, "
        f"failed={[k for k, v in checks.items() if not v]}",
    )


def test_acceptance_bridge_family():
    deltas = (0.0, math.pi / 6.0, math.pi / 4.0, math.pi / 3.0)
    rows = []
    ok = True
    for delta in deltas:
        spectrum = bridge_spectrum(5.0, delta, OMEGA, n_max=199)
        pf = compute_powers(SUPPLY, spectrum).power_factor
        ideal = (2.0 * math.sqrt(2.0) / math.pi) * math.cos(delta)
        pf_ok = abs(pf - ideal) <= 0.005 * ideal

        pf_after = _compensated_pf(SUPPLY, spectrum, 199)
        after_ok = abs(pf_after - 1.0) <= 1e-6

        cond = synthesize_conditioner(SUPPLY, spectrum)
        trace = simulate(cond, SimulationConfig(periods=1, samples_per_period=8192))
        p_c = branch_average_power(trace, "memristor")
        i_m = branch(trace, "memristor").current
        s_c = _rms(trace.states.u) * _rms(i_m)
        lossless_ok = abs(p_c) <= 1e-9 * s_c

        ok = ok and pf_ok and after_ok and lossless_ok
        rows.append(
            f"d={delta:.3f}: pf={pf:.4f}/{ideal:.4f}, after={pf_after:.8f}, "
            f"P_c/S_c={abs(p_c) / s_c:.1e}"
        )
    _verdict("bridge-family", ok, "; ".join(rows))


def test_acceptance_random_spectrum_round_trip():
    rng = np.random.default_rng(20260819)
    config = SimulationConfig(periods=1, samples_per_period=1024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        count = int(rng.integers(1, 51))
        orders = np.sort(rng.choice(np.arange(1, 51), size=count, replace=False))
        terms = []
        for n in orders:
            a = float(rng.uniform(0.05, 10.0) * rng.choice((-1.0, 1.0)))
            b = float(rng.uniform(0.05, 10.0) * rng.choice((-1.0, 1.0)))
            drop = rng.random()
            if drop < 0.2:
                a = 0.0
            elif drop < 0.4:
                b = 0.0
            terms.append((int(n), a, b))
        dc = float(rng.uniform(-10.0, 10.0)) if rng.random() < 0.5 else 0.0
        spectrum = sparse_spectrum(OMEGA, dc, terms)
        policy = AssignmentPolicy(
            mode=str(rng.choice(("auto", "inductive", "capacitive"))),
            route_even_sines=str(rng.choice(("memristor", "meminductor"))),
        )
        dec = decompose_load(SUPPLY, spectrum, policy)
        trace = simulate(dec, config)
        recovered = project_waveform(trace.i_total, OMEGA, int(spectrum.n_max))

        scale = max(
            [abs(dc)] + [max(abs(a), abs(b)) for _, a, b in terms]
        )
        for n in range(1, spectrum.n_max + 1):
            for orig, rec in (
                (spectrum.a(n), recovered.a(n)),
                (spectrum.b(n), recovered.b(n)),
            ):
                ref = abs(orig) if abs(orig) >= 0.05 else scale
                worst = max(worst, abs(rec - orig) / ref)
        worst = max(worst, abs(recovered.dc - dc) / (abs(dc) if abs(dc) >= 0.05 else scale))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _verdict(
        "random-spectrum-round-trip",
        ok,
        f"100 spectra, worst rel coeff error={worst:.2e}, {elapsed:.1f}s",
    )


def test_acceptance_memcapacitor_charge_gating():
    conditioners = {
        "motivating": synthesize_conditioner(SUPPLY, motivating_spectrum()),
        "rectifier": synthesize_conditioner(
            SUPPLY, rectifier_spectrum(AMP, OMEGA, n_max=199)
        ),
    }
    for tag, delta in (("pi/6", math.pi / 6), ("pi/4", math.pi / 4), ("pi/3", math.pi / 3)):
        conditioners[f"bridge-{tag}"] = synthesize_conditioner(
            SUPPLY, bridge_spectrum(5.0, delta, OMEGA, n_max=199)
        )
    ok = True
    rows = []
    config = SimulationConfig()
    states = supply_states(SUPPLY, config, loop_indices(config))
    for name, cond in conditioners.items():
        assert in_slot(cond, "memcapacitor") is not None
        trace = simulate(cond, config)
        q = branch(trace, "memcapacitor").charge
        mask = np.abs(trace.states.u) <= 1e-12 * AMP
        gate = float(np.max(np.abs(q[mask]))) / float(np.max(np.abs(q)))
        drive, response, _, _ = hysteresis_loop(in_slot(cond, "memcapacitor"), states)
        closure = max(
            abs(drive[0] - drive[-1]) / AMP,
            abs(response[0] - response[-1]) / float(np.max(np.abs(response))),
        )
        ok = ok and gate <= 1e-9 and closure <= 1e-9
        rows.append(f"{name}: gate={gate:.1e}, closure={closure:.1e}")
    _verdict("memcapacitor-charge-gating", ok, "; ".join(rows))


def test_acceptance_chebyshev_identities():
    report = chebyshev_identity_suite(50, grid_points=1000)
    ok = report.max_error <= 1e-11
    _verdict(
        "chebyshev-identities",
        ok,
        f"n<=50 on 1000 points: max T error={report.max_error_first_kind:.2e}, "
        f"max U error={report.max_error_second_kind:.2e}",
    )


def test_acceptance_regularization_is_transparent():
    spectrum = rectifier_spectrum(AMP, OMEGA, n_max=199)
    dec = decompose_load(SUPPLY, spectrum)
    raw = memcapacitance_from_cosines(SUPPLY, spectrum.cos)
    gamma = default_gamma(raw, SUPPLY)
    companion_exact = companions(dec)[0].scalar_value == AMP / (OMEGA * gamma)

    # the rectifier's dc and resistor with the unregularized memcapacitor
    stripped = LoadDecomposition(SUPPLY, (in_slot(dec, "dc"), in_slot(dec, "memristor"), raw))
    config = SimulationConfig(periods=1, samples_per_period=8192)
    i_with = simulate(dec, config).i_total
    i_without = simulate(stripped, config).i_total
    rel = _rms(i_with - i_without) / _rms(i_with)
    ok = companion_exact and rel <= 1e-9
    _verdict(
        "regularization-transparency",
        ok,
        f"companion exact={companion_exact}, waveform rel rms diff={rel:.2e}",
    )
