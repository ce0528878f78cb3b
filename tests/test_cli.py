"""Command line behaviour: outputs, determinism, exit codes."""

import contextlib
import copy
import dataclasses
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsynth import cli, textio
from memsynth.harmonics import MAX_HARMONIC_ORDER
from memsynth.loads import DEFAULT_N_MAX, rectifier_spectrum
from memsynth.synthesis import LoadDecomposition

from trace_branches import in_slot, with_slot

AMP = 230.0 * math.sqrt(2.0)
OMEGA = 100.0 * math.pi


def _spec_file(tmp_path, name="spec.json"):
    path = tmp_path / name
    assert cli.main(["load-model", "motivating", "-o", str(path)]) == 0
    return path


def _dec_file(tmp_path, spec=None, name="dec.json"):
    spec = spec or _spec_file(tmp_path)
    path = tmp_path / name
    assert cli.main(["characterize", str(spec), "-o", str(path)]) == 0
    return path


def test_load_model_stdout(capsys):
    assert cli.main(["load-model", "motivating"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["omega"] == pytest.approx(OMEGA, rel=1e-15)
    assert doc["supply_amplitude"] == pytest.approx(AMP, rel=1e-15)
    assert doc["n_max"] == 2
    assert [h["n"] for h in doc["harmonics"]] == [1, 2]


def test_load_model_rectifier(capsys):
    assert cli.main(["load-model", "rectifier", "--A", "1.0", "--nmax", "40"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dc"] == pytest.approx(1.0 / math.pi, rel=1e-15)
    assert doc["harmonics"][0] == {"n": 1, "a": 0.0, "b": 0.5}
    assert doc["n_max"] == 40


def test_load_model_bridge_validation(capsys):
    assert cli.main(["load-model", "bridge", "--delta", "4.0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_byte_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert cli.main(["load-model", "rectifier", "--A", "325.27", "--nmax", "30",
                         "-o", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()

    da = tmp_path / "da.json"
    db = tmp_path / "db.json"
    for out in (da, db):
        assert cli.main(["characterize", str(a), "-o", str(out)]) == 0
    assert da.read_bytes() == db.read_bytes()

    ca = tmp_path / "ca.csv"
    cb = tmp_path / "cb.csv"
    for out in (ca, cb):
        assert cli.main(["simulate", str(da), "--periods", "1",
                         "--samples-per-period", "256", "-o", str(out)]) == 0
    assert ca.read_bytes() == cb.read_bytes()


def test_characterize_branches_and_verification(tmp_path):
    dec = _dec_file(tmp_path)
    doc = json.loads(dec.read_text())
    labels = [b["label"] for b in doc["branches"]]
    assert labels == ["resistor", "meminductor", "memcapacitor", "companion_inductor"]
    ver = doc["verification"]
    assert ver["max_rel_rms_error"] <= 1e-9
    assert ver["max_coefficient_error"] <= 1e-9
    assert ver["n_max"] == 2
    assert ver["samples_per_period"] == 8


@pytest.mark.parametrize("n_max", [3000, 4000])
def test_characterize_high_orders_grow_the_verify_grid(tmp_path, n_max):
    spec = tmp_path / "spec.json"
    out = tmp_path / "dec.json"
    assert cli.main(["load-model", "rectifier", "--nmax", str(n_max), "-o", str(spec)]) == 0
    assert cli.main(["characterize", str(spec), "-o", str(out)]) == 0
    ver = json.loads(out.read_text())["verification"]
    assert ver["samples_per_period"] == 16384
    assert ver["max_rel_rms_error"] <= 1e-12


@pytest.mark.parametrize("harmonic", [
    {"n": 1.7, "a": 0.0, "b": 1.0},
    {"n": True, "a": 0.0, "b": 1.0},
    {"n": 1, "a": "2", "b": 1.0},
    {"n": 1, "a": 0.0, "b": False},
])
def test_characterize_rejects_malformed_spectrum(tmp_path, capsys, harmonic):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"omega": OMEGA, "supply_amplitude": AMP,
                                "harmonics": [harmonic]}))
    assert cli.main(["characterize", str(spec)]) == 2
    assert "error:" in capsys.readouterr().err


def test_characterize_policy_flags(tmp_path):
    spec = _spec_file(tmp_path)
    out = tmp_path / "cap.json"
    assert cli.main(["characterize", str(spec), "--policy", "capacitive",
                     "-o", str(out)]) == 0
    labels = [b["label"] for b in json.loads(out.read_text())["branches"]]
    assert labels == ["resistor", "memcapacitor"]


def test_characterize_gate_failure(tmp_path, monkeypatch, capsys):
    spec = _spec_file(tmp_path)
    monkeypatch.setattr(cli, "VERIFY_GATE", -1.0)
    assert cli.main(["characterize", str(spec), "-o", str(tmp_path / "d.json")]) == 3
    assert "verification failed" in capsys.readouterr().err


@pytest.mark.parametrize("scale_factor", [1.0, 1.0 + 2.0**-40], ids=["spectral", "off-orbit"])
def test_characterize_gate_catches_a_tampered_memristor(tmp_path, monkeypatch, capsys,
                                                        scale_factor):
    spec = tmp_path / "spec.json"
    assert cli.main(["load-model", "bridge", "--delta", "0.4", "--nmax", "9",
                     "-o", str(spec)]) == 0
    decompose = cli.decompose_load

    def tampered(supply, spectrum, policy):
        dec = decompose(supply, spectrum, policy)
        memristor = in_slot(dec, "memristor")
        series, curve = memristor.incremental, memristor.constitutive
        coeffs = [series.coeffs[0] * (1.0 + 1e-3), *series.coeffs[1:]]
        scale = series.scale * scale_factor  # an element holds one scale
        series = dataclasses.replace(series, coeffs=coeffs, scale=scale)
        curve = dataclasses.replace(curve, scale=scale)
        return with_slot(
            dec, "memristor",
            dataclasses.replace(memristor, incremental=series, constitutive=curve),
        )

    monkeypatch.setattr(cli, "decompose_load", tampered)
    out = tmp_path / "d.json"
    if scale_factor != 1.0:
        # verification refuses the element before anything is written
        assert cli.main(["characterize", str(spec), "-o", str(out)]) == 2
        assert "orbit" in capsys.readouterr().err
        assert not out.exists()
        return
    assert cli.main(["characterize", str(spec), "-o", str(out)]) == 3
    assert "verification failed" in capsys.readouterr().err
    assert json.loads(out.read_text())["verification"]["max_rel_rms_error"] > cli.VERIFY_GATE


def test_compensate_report(tmp_path):
    spec = _spec_file(tmp_path)
    cond_path = tmp_path / "cond.json"
    rep_path = tmp_path / "rep.json"
    assert cli.main(["compensate", str(spec), "-o", str(cond_path),
                     "--report", str(rep_path)]) == 0
    cond = json.loads(cond_path.read_text())
    assert [b["label"] for b in cond["branches"]] == ["memcapacitor"]
    rep = json.loads(rep_path.read_text())
    assert rep["dc_component"] == 0.0
    assert rep["before"]["rms"]["power_factor"] == pytest.approx(
        0.5819143739626463, rel=1e-9
    )
    assert rep["after"]["rms"]["power_factor"] == pytest.approx(1.0, abs=1e-9)
    assert rep["after"]["paper"]["power_factor"] == pytest.approx(1.0, abs=1e-9)


def test_simulate_flags_and_row_count(tmp_path):
    dec = _dec_file(tmp_path)
    out = tmp_path / "trace.csv"
    assert cli.main(["simulate", str(dec), "--periods", "1",
                     "--samples-per-period", "256", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 257
    assert lines[0] == "t,u,phi,sigma,i_total,i_dc,i_GM,i_GammaM,i_CM,q_CM,C_of_t"

    assert cli.main(["simulate", str(dec), "--samples-per-period", "32",
                     "-o", str(tmp_path / "no.csv")]) == 2


@pytest.mark.parametrize("flag", [["--integrator", "trapezoid"], ["--integrator", "closed-form"],
                                  ["--phi0", "1.0"], ["--sigma0", "0.0"]])
@pytest.mark.parametrize("command", ["simulate", "hysteresis"])
def test_integrator_flags_are_gone(tmp_path, capsys, command, flag):
    dec = _dec_file(tmp_path)
    branch = ["--branch", "memcapacitor"] if command == "hysteresis" else []
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, str(dec), *branch, *flag, "-o", str(tmp_path / "x.csv")])
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_empty_spectrum_round_trip(tmp_path):
    spec = tmp_path / "empty.json"
    spec.write_text(json.dumps({
        "omega": OMEGA, "dc": 0.0, "harmonics": [], "supply_amplitude": AMP,
    }))
    dec = tmp_path / "empty_dec.json"
    assert cli.main(["characterize", str(spec), "-o", str(dec)]) == 0
    assert json.loads(dec.read_text())["branches"] == []
    out = tmp_path / "empty.csv"
    assert cli.main(["simulate", str(dec), "-o", str(out)]) == 0
    assert out.read_text().splitlines() == [
        "t,u,phi,sigma,i_total,i_dc,i_GM,i_GammaM,i_CM,q_CM,C_of_t"
    ]


def test_report_convention_selection(tmp_path, capsys):
    spec = _spec_file(tmp_path)
    assert cli.main(["report", str(spec)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["powers"]) == ["rms"]
    assert doc["powers"]["rms"]["power_factor"] == pytest.approx(
        0.5819143739626463, rel=1e-9
    )

    assert cli.main(["report", str(spec), "--pf-convention", "both"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["powers"]) == ["rms", "paper"]

    assert cli.main(["report", str(spec), "--pf-convention", "paper"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["powers"]) == ["paper"]


def test_hysteresis_outputs(tmp_path):
    spec = _spec_file(tmp_path)
    cond = tmp_path / "cond.json"
    assert cli.main(["compensate", str(spec), "-o", str(cond),
                     "--report", str(tmp_path / "rep.json")]) == 0
    loop = tmp_path / "loop.csv"
    assert cli.main(["hysteresis", str(cond), "--branch", "memcapacitor",
                     "--periods", "1", "--samples-per-period", "1024",
                     "-o", str(loop)]) == 0
    lines = loop.read_text().splitlines()
    assert lines[0] == "u,q"
    assert len(lines) == 1026  # header + one period + closing sample
    assert lines[1] == lines[-1]  # single-period grid wraps exactly

    side = tmp_path / "loop_constitutive.csv"
    assert side.exists()
    rows = np.loadtxt(side, delimiter=",", skiprows=1)
    assert rows.shape == (1001, 2)
    c2, c1, _ = np.polyfit(rows[:, 0], rows[:, 1], 2)
    assert c1 == pytest.approx(1.0 / (230.0 * math.pi), rel=1e-9)
    assert c2 == pytest.approx(25.0 * math.sqrt(2.0) / AMP**2, rel=1e-9)


def test_hysteresis_explicit_constitutive_path(tmp_path):
    dec = _dec_file(tmp_path)
    loop = tmp_path / "ind.csv"
    side = tmp_path / "curve.csv"
    assert cli.main(["hysteresis", str(dec), "--branch", "meminductor",
                     "--periods", "1", "--samples-per-period", "512",
                     "-o", str(loop), "--constitutive-output", str(side)]) == 0
    assert loop.read_text().splitlines()[0] == "phi,i"
    assert side.read_text().splitlines()[0] == "control,value"
    assert not (tmp_path / "ind_constitutive.csv").exists()


def test_hysteresis_rejects_non_memory_branches(tmp_path, capsys):
    dec = _dec_file(tmp_path)
    assert cli.main(["hysteresis", str(dec), "--branch", "resistor",
                     "-o", str(tmp_path / "x.csv")]) == 2
    assert cli.main(["hysteresis", str(dec), "--branch", "unknown",
                     "-o", str(tmp_path / "y.csv")]) == 2
    err = capsys.readouterr().err
    assert "no branch labelled" in err


# characterize writes a memristor of scale -5.88e-309 for it: 1/|scale| is
# finite, but the step 2/|scale| of the constitutive range is not
HUGE_SUPPLY_SPECTRUM = {
    "omega": 1.0, "dc": 0.0, "supply_amplitude": 1.7e308,
    "harmonics": [{"n": 1, "a": 0.0, "b": 1e10}, {"n": 2, "a": 0.0, "b": 1e10}],
}


def _huge_supply_dec_file(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(HUGE_SUPPLY_SPECTRUM))
    return _dec_file(tmp_path, spec)


def test_hysteresis_constitutive_range_near_the_float64_limit(tmp_path, capsys):
    dec = _huge_supply_dec_file(tmp_path)
    (element,) = [b["element"] for b in json.loads(dec.read_text())["branches"]]
    span = 1.0 / abs(element["scale"])
    assert math.isfinite(span) and not math.isfinite(2.0 * span)
    loop = tmp_path / "loop.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["hysteresis", str(dec), "--branch", "memristor",
                         "--samples-per-period", "64", "-o", str(loop)]) == 0
    assert capsys.readouterr().err == ""
    rows = np.loadtxt(tmp_path / "loop_constitutive.csv", delimiter=",", skiprows=1)
    assert np.isfinite(rows).all()
    assert rows[0, 0] == -span and rows[-1, 0] == span and rows[500, 0] == 0.0
    assert (np.diff(rows[:, 0]) > 0).all()


@pytest.mark.parametrize("scale", [0.0, -0.0, 5e-324])
def test_hysteresis_without_a_finite_control_range_exits_2_before_writing(
    tmp_path, capsys, scale
):
    dec = _huge_supply_dec_file(tmp_path)
    doc = json.loads(dec.read_text())
    doc["branches"][0]["element"].update(scale=scale, coeffs=[], constitutive_coeffs=[])
    dec.write_text(json.dumps(doc))
    loop = tmp_path / "loop.csv"
    assert cli.main(["hysteresis", str(dec), "--branch", "memristor", "-o", str(loop)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: constitutive scale") and "Traceback" not in err
    assert not loop.exists() and not (tmp_path / "loop_constitutive.csv").exists()


def test_exit_codes_for_bad_input(tmp_path, capsys):
    assert cli.main(["characterize", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert cli.main(["characterize", str(bad)]) == 2
    no_amp = tmp_path / "noamp.json"
    no_amp.write_text(json.dumps({
        "omega": OMEGA, "dc": 0.0,
        "harmonics": [{"n": 1, "a": 0.0, "b": 1.0}],
    }))
    assert cli.main(["report", str(no_amp)]) == 2
    assert "supply_amplitude" in capsys.readouterr().err
    assert cli.main(["report", str(no_amp), "--A", str(AMP)]) == 0


@pytest.mark.parametrize("amplitude", [True, False, "325", [325.0], {"value": 325.0}])
@pytest.mark.parametrize("command", ["report", "characterize", "compensate"])
def test_spectrum_supply_amplitude_must_be_a_number(tmp_path, capsys, command, amplitude):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "omega": OMEGA, "harmonics": [{"n": 1, "a": 0.0, "b": 1.0}],
        "supply_amplitude": amplitude,
    }))
    assert cli.main([command, str(spec), "-o", str(tmp_path / "out.json")]) == 2
    assert "supply_amplitude must be a number" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()
    # an explicit --A overrides the document's value
    assert cli.main([command, str(spec), "--A", str(AMP), "-o", str(tmp_path / "out.json")]) == 0


@pytest.mark.parametrize("command", ["simulate", "hysteresis"])
def test_oversized_grid_exits_2_before_allocating(tmp_path, capsys, command):
    dec = _dec_file(tmp_path)
    branch = ["--branch", "memcapacitor"] if command == "hysteresis" else []
    assert cli.main([command, str(dec), *branch, "--periods", str(10**9),
                     "--samples-per-period", str(10**9), "-o", str(tmp_path / "x.csv")]) == 2
    assert "grid limit" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("control", ["charge", "time_integrated_charge", "time_integrated_flux"])
@pytest.mark.parametrize("command", ["simulate", "hysteresis"])
def test_decomposition_with_foreign_control_exits_2(tmp_path, capsys, command, control):
    dec = _dec_file(tmp_path)
    doc = json.loads(dec.read_text())
    (cap,) = [b for b in doc["branches"] if b["label"] == "memcapacitor"]
    cap["element"]["control"] = control
    dec.write_text(json.dumps(doc))
    branch = ["--branch", "memcapacitor"] if command == "hysteresis" else []
    assert cli.main([command, str(dec), *branch, "-o", str(tmp_path / "x.csv")]) == 2
    assert repr(control) in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


#: (branch label, element key, value) that a decomposition reader must reject
MALFORMED_ELEMENT_VALUES = [
    ("memcapacitor", "coeffs", "12"),
    ("memcapacitor", "coeffs", [True, 1e-4]),
    ("memcapacitor", "coeffs", ["3.4e-4", 3.4e-4]),
    ("memcapacitor", "constitutive_coeffs", "012"),
    ("memcapacitor", "constitutive_coeffs", {"1": -3.5e-4}),
    ("memcapacitor", "scale", "2"),
    ("memcapacitor", "scale", True),
    ("meminductor", "coeffs", [[136.5]]),
    ("resistor", "scalar_value", True),
    ("resistor", "scalar_value", "2"),
    ("companion_inductor", "scalar_value", [0.03]),
]


def _edited_dec_file(tmp_path, label, key, value):
    dec = _dec_file(tmp_path)
    doc = json.loads(dec.read_text())
    (branch,) = [b for b in doc["branches"] if b["label"] == label]
    branch["element"][key] = value
    dec.write_text(json.dumps(doc))
    return dec


def _assert_rejected(tmp_path, capsys, command, dec, message):
    """The command's error text, once it is checked to exit 2 with ``message`` and write nothing."""
    branch = ["--branch", "memcapacitor"] if command == "hysteresis" else []
    assert cli.main([command, str(dec), *branch, "-o", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert not (tmp_path / "x.csv").exists()
    assert not (tmp_path / "x_constitutive.csv").exists()
    return err


@pytest.mark.parametrize("label, key, value", MALFORMED_ELEMENT_VALUES)
@pytest.mark.parametrize("command", ["simulate", "hysteresis"])
def test_decomposition_with_non_numeric_element_values_exits_2(
    tmp_path, capsys, command, label, key, value
):
    dec = _edited_dec_file(tmp_path, label, key, value)
    _assert_rejected(tmp_path, capsys, command, dec, "must be")


#: (branch label, element key, value) of a key the element's kind does not
#: have, each written as null; a reader that dropped them ran on a document
#: whose values it never used
STRAY_ELEMENT_KEYS = [
    ("resistor", "control", "flux"),
    ("resistor", "coeffs", [1.0, 2.0]),
    ("resistor", "constitutive_coeffs", "junk"),
    ("companion_inductor", "scale", 3.0),
    ("memcapacitor", "scalar_value", "junk"),
    ("meminductor", "scalar_value", 0.5),
    ("meminductor", "companion", {"kind": "capacitor", "scalar_value": 1e-4}),
]


@pytest.mark.parametrize("label, key, value", STRAY_ELEMENT_KEYS)
@pytest.mark.parametrize("command", ["simulate", "hysteresis"])
def test_decomposition_with_a_key_its_kind_does_not_have_exits_2(
    tmp_path, capsys, command, label, key, value
):
    dec = _edited_dec_file(tmp_path, label, key, value)
    _assert_rejected(tmp_path, capsys, command, dec, f"takes no {key}")


@pytest.mark.parametrize("factor", [2.0, 1.0 + 1e-9])
@pytest.mark.parametrize("command", ["simulate", "hysteresis"])
def test_decomposition_with_two_different_series_exits_2(tmp_path, capsys, command, factor):
    doc = json.loads(_dec_file(tmp_path).read_text())
    (cap,) = [b["element"] for b in doc["branches"] if b["label"] == "memcapacitor"]
    dec = _edited_dec_file(
        tmp_path, "memcapacitor", "constitutive_coeffs",
        [c * factor for c in cap["constitutive_coeffs"]],
    )
    _assert_rejected(tmp_path, capsys, command, dec, "not the derivative")


@pytest.mark.parametrize("key, value", [("amplitude", "325"), ("omega", True)])
def test_decomposition_supply_must_be_numbers(tmp_path, capsys, key, value):
    dec = _dec_file(tmp_path)
    doc = json.loads(dec.read_text())
    doc["supply"][key] = value
    dec.write_text(json.dumps(doc))
    _assert_rejected(tmp_path, capsys, "simulate", dec, "must be a number")


#: relabellings of a rectifier decomposition's branches, to another kind's label or to none
MISMATCHED_LABELS = {
    "dc-as-memcapacitor": {"dc": "memcapacitor"},
    "memcapacitor-as-meminductor": {"memcapacitor": "meminductor"},
    "companion-inductor-as-capacitor": {"companion_inductor": "companion_capacitor"},
    "all-three": {"dc": "memcapacitor", "memcapacitor": "meminductor",
                  "companion_inductor": "companion_capacitor"},
    "unknown-label": {"memcapacitor": "capacitor"},
}


@pytest.mark.parametrize("relabel", MISMATCHED_LABELS.values(), ids=MISMATCHED_LABELS)
@pytest.mark.parametrize("command", ["simulate", "hysteresis"])
def test_branch_label_must_match_its_element_kind(tmp_path, capsys, command, relabel):
    spec = tmp_path / "spec.json"
    assert cli.main(["load-model", "rectifier", "--nmax", "12", "-o", str(spec)]) == 0
    dec = _dec_file(tmp_path, spec)
    doc = json.loads(dec.read_text())
    for branch in doc["branches"]:
        branch["label"] = relabel.get(branch["label"], branch["label"])
    dec.write_text(json.dumps(doc))
    before = sorted(tmp_path.iterdir())
    # the label that two of these documents give the memcapacitor
    branch = ["--branch", "meminductor"] if command == "hysteresis" else []
    assert cli.main([command, str(dec), *branch, "-o", str(tmp_path / "x.csv")]) == 2
    assert "does not match its element kind" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def _every_slot_file(tmp_path, dc, name="every.json"):
    """A decomposition holding every memory branch and two companions, plus a dc
    source when ``dc`` is nonzero: b_1, b_2, a_3 and a_4 under the inductive policy."""
    spec = tmp_path / f"spec_{name}"
    terms = [{"n": 1, "a": 0.0, "b": 1.0}, {"n": 2, "a": 0.0, "b": 0.5},
             {"n": 3, "a": 0.7, "b": 0.0}, {"n": 4, "a": 0.4, "b": 0.0}]
    spec.write_text(json.dumps({"omega": 100.0, "dc": dc, "supply_amplitude": 10.0,
                                "harmonics": terms}))
    path = tmp_path / name
    assert cli.main(["characterize", str(spec), "--policy", "inductive", "-o", str(path)]) == 0
    return path


def _outputs(tmp_path, dec, tag):
    """The bytes simulate and hysteresis (on each memory branch) write for ``dec``."""
    grid = ["--periods", "1", "--samples-per-period", "256"]
    out = tmp_path / f"{tag}.csv"
    assert cli.main(["simulate", str(dec), *grid, "-o", str(out)]) == 0
    written = [out.read_bytes()]
    for branch in ("memristor", "meminductor", "memcapacitor"):
        loop, curve = tmp_path / f"{tag}_{branch}.csv", tmp_path / f"{tag}_{branch}_curve.csv"
        assert cli.main(["hysteresis", str(dec), "--branch", branch, *grid, "-o", str(loop),
                         "--constitutive-output", str(curve)]) == 0
        written += [loop.read_bytes(), curve.read_bytes()]
    return written


#: document orders of the dc, memristor, meminductor, memcapacitor,
#: companion_capacitor and companion_inductor branches (indices 0-5); the
#: companions keep their relative order, since it sets the summation order
BRANCH_ORDERS = {
    "memories-reversed": [3, 2, 1, 0, 4, 5],
    "companions-first": [4, 5, 0, 1, 2, 3],
    "interleaved": [3, 4, 0, 5, 2, 1],
}


@pytest.mark.parametrize("order", BRANCH_ORDERS.values(), ids=BRANCH_ORDERS)
def test_branch_order_in_a_document_changes_nothing_read(tmp_path, order):
    dec = _every_slot_file(tmp_path, dc=0.3)
    doc = json.loads(dec.read_text())
    assert [b["label"] for b in doc["branches"]] == [
        "dc", "memristor", "meminductor", "memcapacitor",
        "companion_capacitor", "companion_inductor",
    ]
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps({**doc, "branches": [doc["branches"][i] for i in order]}))
    canonical = LoadDecomposition.from_dict(textio.read_json(str(dec)))
    assert LoadDecomposition.from_dict(textio.read_json(str(moved))) == canonical
    assert _outputs(tmp_path, moved, "moved") == _outputs(tmp_path, dec, "canonical")


def test_two_companions_read_back_in_document_order(tmp_path):
    dec = _every_slot_file(tmp_path, dc=0.0)
    doc = json.loads(dec.read_text())
    labels = [b["label"] for b in doc["branches"]]
    assert labels == ["memristor", "meminductor", "memcapacitor",
                      "companion_capacitor", "companion_inductor"]
    doc["branches"][3:] = doc["branches"][:2:-1]
    swapped = LoadDecomposition.from_dict(json.loads(json.dumps(doc)))
    assert [label for label, _ in swapped.branches()] == [*labels[:3], *labels[:2:-1]]
    assert json.loads(textio.dump_json(swapped.to_dict()))["branches"] == doc["branches"]


#: (label of the branch appended a second time, element of that label's slot)
SECOND_IN_A_SLOT = {
    "two-memcapacitors": ("memcapacitor", None),
    "memristor-and-resistor": ("resistor", {"kind": "resistor", "scalar_value": 2.0}),
    "two-dc-sources": ("dc", None),
}


@pytest.mark.parametrize("label, element", SECOND_IN_A_SLOT.values(), ids=SECOND_IN_A_SLOT)
@pytest.mark.parametrize("command", ["simulate", "hysteresis"])
def test_a_second_element_in_one_slot_exits_2(tmp_path, capsys, command, label, element):
    dec = _every_slot_file(tmp_path, dc=0.3)
    doc = json.loads(dec.read_text())
    if element is None:
        (element,) = [b["element"] for b in doc["branches"] if b["label"] == label]
    doc["branches"].append({"label": label, "element": element})
    dec.write_text(json.dumps(doc))
    _assert_rejected(tmp_path, capsys, command, dec, f"duplicate branch label {label!r}")


def test_default_truncation_order(capsys):
    assert DEFAULT_N_MAX == 199
    assert rectifier_spectrum(1.0, OMEGA).n_max == 198
    assert cli.main(["load-model", "rectifier"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # realized order: the highest even harmonic under the default
    assert doc["n_max"] == 198
    assert max(h["n"] for h in doc["harmonics"]) == 198


@pytest.mark.parametrize("model, nmax, order", [
    ("rectifier", MAX_HARMONIC_ORDER + 2, MAX_HARMONIC_ORDER + 2),
    ("bridge", MAX_HARMONIC_ORDER + 2, MAX_HARMONIC_ORDER + 1),
    ("bridge", 10**18, 10**18 - 1),
])
def test_load_model_order_beyond_the_limit_exits_2_before_writing(
    tmp_path, capsys, model, nmax, order
):
    out = tmp_path / "spec.json"
    assert cli.main(["load-model", model, "--nmax", str(nmax), "-o", str(out)]) == 2
    assert f"harmonic order {order} exceeds the limit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spelling", ["x.out", "./x.out"])
@pytest.mark.parametrize("command, flag", [
    ("compensate", "--report"), ("hysteresis", "--constitutive-output"),
])
def test_two_outputs_naming_one_file_exit_2_before_writing(
    tmp_path, monkeypatch, capsys, command, flag, spelling
):
    source = _spec_file(tmp_path)
    branch = []
    if command == "hysteresis":
        source, branch = _dec_file(tmp_path, source), ["--branch", "meminductor"]
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert cli.main([command, str(source), *branch, "-o", "x.out", flag, spelling]) == 2
    assert "name one file" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


#: a JSON integer no float64 can hold; orjson refuses to parse it
HUGE = 10**400


@pytest.mark.parametrize("field", ["b", "a", "omega", "dc", "supply_amplitude"])
@pytest.mark.parametrize("command", ["report", "characterize", "compensate"])
def test_spectrum_with_integer_beyond_float64_exits_2(tmp_path, capsys, command, field):
    doc = {"omega": OMEGA, "dc": 0.0, "harmonics": [{"n": 1, "a": 0.0, "b": 1.0}],
           "supply_amplitude": AMP}
    if field in ("a", "b"):
        doc["harmonics"][0][field] = HUGE
    else:
        doc[field] = HUGE
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    out, report = tmp_path / "out.json", tmp_path / "report.json"
    extra = ["--report", str(report)] if command == "compensate" else []
    assert cli.main([command, str(spec), "-o", str(out), *extra]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert not out.exists() and not report.exists()


@pytest.mark.parametrize("label, key, value", [
    ("resistor", "scalar_value", HUGE),
    ("companion_inductor", "scalar_value", HUGE),
    ("memcapacitor", "scale", -HUGE),
    ("meminductor", "coeffs", [HUGE, 1.0]),
    ("memcapacitor", "constitutive_coeffs", [0.0, HUGE]),
])
@pytest.mark.parametrize("command", ["simulate", "hysteresis"])
def test_decomposition_with_integer_beyond_float64_exits_2(
    tmp_path, capsys, command, label, key, value
):
    dec = _edited_dec_file(tmp_path, label, key, value)
    _assert_rejected(tmp_path, capsys, command, dec, "not valid JSON")


@pytest.mark.parametrize("key", ["amplitude", "omega"])
@pytest.mark.parametrize("command", ["simulate", "hysteresis"])
def test_decomposition_supply_with_integer_beyond_float64_exits_2(tmp_path, capsys, command, key):
    dec = _dec_file(tmp_path)
    doc = json.loads(dec.read_text())
    doc["supply"][key] = HUGE
    dec.write_text(json.dumps(doc))
    _assert_rejected(tmp_path, capsys, command, dec, "not valid JSON")


#: JSON value texts the reader refuses: the non-standard constants, and
#: numbers beyond the float64 range
UNREADABLE_VALUES = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400",
                     pytest.param("9" * 400, id="400-digits")]


def _raw_file(tmp_path, doc, raw, name="raw.json"):
    """``doc`` as JSON with every ``"@"`` string replaced by the text ``raw``."""
    path = tmp_path / name
    path.write_bytes(json.dumps(doc).replace('"@"', raw).encode())
    return path


@pytest.mark.parametrize("key", ["b", "supply_amplitude", "n_max"])  # the reader ignores n_max
@pytest.mark.parametrize("raw", UNREADABLE_VALUES)
def test_spectrum_with_an_unreadable_number_exits_2(tmp_path, capsys, raw, key):
    doc = {"omega": OMEGA, "dc": 0.0, "harmonics": [{"n": 1, "a": 0.0, "b": 1.0}],
           "supply_amplitude": AMP, "n_max": 1}
    if key == "b":
        doc["harmonics"][0]["b"] = "@"
    else:
        doc[key] = "@"
    spec = _raw_file(tmp_path, doc, raw)
    out = tmp_path / "out.json"
    assert cli.main(["characterize", str(spec), "-o", str(out)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("raw", UNREADABLE_VALUES)
@pytest.mark.parametrize("command", ["simulate", "hysteresis"])
def test_decomposition_with_an_unreadable_number_exits_2(tmp_path, capsys, command, raw):
    doc = json.loads(_dec_file(tmp_path).read_text())
    doc["verification"]["max_rel_rms_error"] = "@"  # a key the reader ignores
    dec = _raw_file(tmp_path, doc, raw)
    _assert_rejected(tmp_path, capsys, command, dec, "not valid JSON")


def test_order_of_2_to_the_64_is_not_an_integer(tmp_path, capsys):
    # orjson reads an integer of 2^64 and above as a float
    doc = {"omega": OMEGA, "harmonics": [{"n": "@", "a": 0.0, "b": 1.0}],
           "supply_amplitude": AMP}
    spec = _raw_file(tmp_path, doc, str(2**64))
    out = tmp_path / "out.json"
    assert cli.main(["characterize", str(spec), "-o", str(out)]) == 2
    assert "harmonic order n must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("orders, raw, message", [
    ([1, "@"], str(2**63), f"harmonic order {2**63} exceeds the limit"),
    ([1, "@"], str(2**64 - 1), f"harmonic order {2**64 - 1} exceeds the limit"),
    (["@", 3], str(2**64 - 1), "harmonic orders must be strictly increasing"),
    (["@"], str(-(2**63) - 1), "harmonic order n must be an integer"),
])
def test_order_beyond_int64_exits_2_with_its_message(tmp_path, capsys, orders, raw, message):
    # orjson reads integers from -2^63 to 2^64 - 1 as ints, floats beyond; an int64
    # order array holds no int above 2^63 - 1
    doc = {"omega": OMEGA, "harmonics": [{"n": n, "a": 0.0, "b": 1.0} for n in orders],
           "supply_amplitude": AMP}
    spec = _raw_file(tmp_path, doc, raw)
    out = tmp_path / "out.json"
    assert cli.main(["characterize", str(spec), "-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("harmonics, message", [
    # harmonic by harmonic, n then a then b, and the order of the orders last
    ([[1, "x", None], [1.5, 0.0, 0.0]], "a must be a number, got 'x'"),
    ([[3, 0.0, 1.0], [2, 1, 1.0], [True, 0.0, 0.0]],
     "harmonic order n must be an integer, got True"),
    ([[2, None, True], [1, "x", 0]], "a must be a number, got None"),
    ([[5, 0.0, "y"], [2**21, 1.0, 0.0], [4, 0.0, 0.0]], "b must be a number, got 'y'"),
    ([[2**21, 1, 0], [3, 0.0, 0.0]], "harmonic orders must be strictly increasing and >= 1"),
], ids=["a-before-b-and-the-next-n", "type-before-rising", "a-before-the-next-harmonic",
        "b-before-the-limit", "rising-before-the-limit"])
def test_spectrum_with_several_faults_exits_2_naming_the_first(
    tmp_path, capsys, harmonics, message
):
    doc = {"omega": OMEGA, "supply_amplitude": AMP,
           "harmonics": [dict(zip("nab", values)) for values in harmonics]}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert cli.main(["characterize", str(spec), "-o", str(out)]) == 2
    assert f"{message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit, reason", [
    (lambda text: b"\xef\xbb\xbf" + text, "byte order mark"),
    (lambda text: text.replace(b'"memcapacitor"', b'"mem\xffcapacitor"'), "not valid UTF-8"),
    (lambda text: text.replace(b'"memcapacitor"', b'"\\ud800"'), "surrogate"),
], ids=["bom", "invalid-utf8", "lone-surrogate"])
@pytest.mark.parametrize("command", ["simulate", "hysteresis"])
def test_decomposition_that_is_not_standard_utf8_json_exits_2(
    tmp_path, capsys, command, edit, reason
):
    dec = _dec_file(tmp_path)
    dec.write_bytes(edit(dec.read_bytes()))
    err = _assert_rejected(tmp_path, capsys, command, dec, "not valid JSON")
    assert reason in err
    # only the surrogate escape is named as one
    assert ("surrogate" in err) == (reason == "surrogate")


def test_integer_coefficient_reads_as_its_float(tmp_path):
    # 2**70 is beyond orjson's 64-bit integers; it reads as the float it rounds to
    outputs = []
    for raw in (str(2**70), repr(float(2**70))):
        doc = {"omega": OMEGA, "dc": 0.0, "supply_amplitude": AMP,
               "harmonics": [{"n": 1, "a": 0.0, "b": 1.0}, {"n": 3, "a": "@", "b": 0.0}]}
        out = tmp_path / "out.json"
        assert cli.main(["characterize", str(_raw_file(tmp_path, doc, raw)), "-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert repr(float(2**70)) == "1.1805916207174113e+21"
    assert outputs[0] == outputs[1]


#: JSON texts of a list nested ``d`` deep; in all but the first, strings hold
#: closing brackets and escapes that a count of every bracket would misread
NESTINGS = {
    "plain": lambda d: "[" * d + "]" * d,
    "closing-bracket-strings": lambda d: '["]", ' * d + "0" + "]" * d,
    "closing-bracket-run": lambda d: '["' + "]" * d + '", ' + "[" * (d - 1) + "]" * d,
    "escaped-quotes": lambda d: '["\\"]", ' * d + "0" + "]" * d,
    "escaped-backslashes": lambda d: '["\\\\", "]", ' * d + "0" + "]" * d,
}


def _nested_file(tmp_path, depth, nesting="plain"):
    """A spectrum document whose ignored ``n_max`` holds a list nested ``depth`` deep."""
    doc = {"omega": OMEGA, "supply_amplitude": AMP, "n_max": "@",
           "harmonics": [{"n": 1, "a": 0.0, "b": 1.0}]}
    return _raw_file(tmp_path, doc, NESTINGS[nesting](depth))


@pytest.mark.parametrize("nesting", NESTINGS)
@pytest.mark.parametrize("depth", [textio.MAX_JSON_DEPTH, 2000])
def test_document_nested_too_deep_exits_2(tmp_path, capsys, depth, nesting):
    # the document's own object is one more level
    out = tmp_path / "out.json"
    spec = _nested_file(tmp_path, depth, nesting)
    assert cli.main(["characterize", str(spec), "-o", str(out)]) == 2
    assert f"nested deeper than {textio.MAX_JSON_DEPTH} levels" in capsys.readouterr().err
    assert not out.exists()
    spec = _nested_file(tmp_path, textio.MAX_JSON_DEPTH - 1, nesting)
    assert cli.main(["characterize", str(spec), "-o", str(out)]) == 0


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_nesting_depth_carries_across_chunks(tmp_path, capsys, monkeypatch, chunk):
    monkeypatch.setattr(textio, "_DEPTH_CHUNK", chunk)
    out = tmp_path / "out.json"
    for nesting in NESTINGS:
        for depth, code in [(textio.MAX_JSON_DEPTH - 1, 0), (textio.MAX_JSON_DEPTH, 2)]:
            spec = _nested_file(tmp_path, depth, nesting)
            assert cli.main(["characterize", str(spec), "-o", str(out)]) == code, nesting
    assert capsys.readouterr().err.count("nested deeper than") == len(NESTINGS)


def test_brackets_inside_strings_are_not_counted(tmp_path):
    doc = {"omega": OMEGA, "supply_amplitude": AMP, "n_max": "@",
           "harmonics": [{"n": 1, "a": 0.0, "b": 1.0}]}
    spec = _raw_file(tmp_path, doc, '"' + "[" * 2000 + '"')
    assert cli.main(["characterize", str(spec), "-o", str(tmp_path / "out.json")]) == 0


def test_unclosed_brackets_are_counted_from_one_past_the_bound(tmp_path, capsys):
    path = tmp_path / "open.json"
    for count, message in [(textio.MAX_JSON_DEPTH, "not valid JSON"),
                           (textio.MAX_JSON_DEPTH + 1, "nested deeper")]:
        path.write_text("[" * count)
        assert cli.main(["characterize", str(path)]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("nesting", NESTINGS)
def test_document_nested_a_million_deep_exits_2_without_a_crash(tmp_path, nesting):
    # a crash in the parser would kill the process, so it runs in its own
    src = str(Path(cli.__file__).parents[1])
    out = tmp_path / "out.json"
    argv = ["characterize", str(_nested_file(tmp_path, 1_000_000, nesting)), "-o", str(out)]
    code = "import sys; from memsynth import cli; sys.exit(cli.main(sys.argv[1:]))"
    run = subprocess.run([sys.executable, "-c", code, *argv], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 2, run.stderr
    assert "nested deeper than" in run.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["characterize", "compensate", "report"])
def test_supply_whose_scales_overflow_exits_2(tmp_path, capsys, command):
    # omega^2 overflows, so A/omega^2 (the integrated-flux amplitude) is 0.0
    spec = tmp_path / "spec.json"
    assert cli.main(["load-model", "rectifier", "--omega", "1e155", "--nmax", "10",
                     "-o", str(spec)]) == 2
    assert "outside the float64 range" in capsys.readouterr().err
    assert not spec.exists()
    spec.write_text(json.dumps({"omega": 1e155, "supply_amplitude": 1.0, "dc": 0.0,
                                "harmonics": [{"n": 2, "a": 1.0, "b": 0.0}]}))
    out, report = tmp_path / "out.json", tmp_path / "report.json"
    extra = ["--report", str(report)] if command == "compensate" else []
    assert cli.main([command, str(spec), "-o", str(out), *extra]) == 2
    err = capsys.readouterr().err
    assert "outside the float64 range" in err and "Traceback" not in err
    assert not out.exists() and not report.exists()


@pytest.mark.parametrize("command", ["characterize", "compensate"])
def test_series_that_leave_float64_exit_2_before_writing(tmp_path, capsys, command):
    # omega^2 = 1e308 is a valid supply, but n^2 omega^2 overflows from n = 2 on,
    # so the memcapacitor's constitutive terms would not match its coeffs
    spec = tmp_path / "spec.json"
    assert cli.main(["load-model", "rectifier", "--omega", "1e154", "--nmax", "10",
                     "-o", str(spec)]) == 0
    capsys.readouterr()
    out, report = tmp_path / "out.json", tmp_path / "report.json"
    extra = ["--report", str(report)] if command == "compensate" else []
    assert cli.main([command, str(spec), "-o", str(out), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: memcapacitor on supply omega 1e+154: coeffs are not")
    assert "Traceback" not in err and "Warning" not in err
    assert not out.exists() and not report.exists()


@pytest.mark.parametrize("command", ["characterize", "compensate"])
@pytest.mark.parametrize("harmonic, policy, branch", [
    ({"n": 2, "a": 0.0, "b": 1e20}, "auto", "memristor"),
    ({"n": 3, "a": 1e20, "b": 0.0}, "inductive", "meminductor"),
])
def test_series_that_overflow_on_a_small_amplitude_exit_2_before_writing(
    tmp_path, capsys, command, harmonic, policy, branch
):
    # 1e-300 V is a valid supply, but b_2 / A and (w / A) a_3 leave float64
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "omega": 1.0, "supply_amplitude": 1e-300, "dc": 0.0,
        "harmonics": [{"n": 1, "a": 0.0, "b": 1.0}, harmonic],
    }))
    out, report = tmp_path / "out.json", tmp_path / "report.json"
    extra = ["--report", str(report)] if command == "compensate" else []
    assert cli.main([command, str(spec), "--policy", policy, "-o", str(out), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {branch} on supply amplitude 1e-300, omega 1.0:")
    assert "overflow the float64 range" in err
    assert "Traceback" not in err and "Warning" not in err
    assert not out.exists() and not report.exists()


#: a spectrum whose ac terms square to inf: its rms current and apparent power overflow
OVERFLOWING_AC_SPECTRUM = {
    "omega": OMEGA, "dc": 0.0, "supply_amplitude": 325.0,
    "harmonics": [{"n": 1, "a": 1e300, "b": 1.0}, {"n": 3, "a": 1e300, "b": 1.0}],
}
#: a spectrum whose dc**2 raises OverflowError
OVERFLOWING_DC_SPECTRUM = dict(
    OVERFLOWING_AC_SPECTRUM, dc=1e300, harmonics=[{"n": 1, "a": 1.0, "b": 1.0}]
)


@pytest.mark.parametrize("spectrum", [OVERFLOWING_AC_SPECTRUM, OVERFLOWING_DC_SPECTRUM],
                         ids=["ac", "dc"])
@pytest.mark.parametrize("command", ["report", "compensate"])
def test_powers_that_leave_float64_exit_2_before_writing(tmp_path, capsys, command, spectrum):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spectrum))
    out, report = tmp_path / "out.json", tmp_path / "report.json"
    extra = ["--report", str(report)] if command == "compensate" else []
    assert cli.main([command, str(spec), "-o", str(out), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the powers of this spectrum") and "Traceback" not in err
    assert not out.exists() and not report.exists()


#: a finite term whose closed-form current overflowed when its coefficient
#: was scaled by samples_per_period / 2 before the inverse FFT
NEAR_LIMIT_SPECTRUM = dict(OVERFLOWING_AC_SPECTRUM, harmonics=[{"n": 1, "a": 1.7e308, "b": 1.0}])
#: finite terms whose current sums to 2e308 at t = 0, so it leaves float64
#: unless it is sampled in units of the target
DC_AND_FUNDAMENTAL_SPECTRUM = dict(
    OVERFLOWING_AC_SPECTRUM,
    dc=1e308,
    harmonics=[{"n": 1, "a": 1e308, "b": 162.6}, {"n": 2, "a": 3.0, "b": 0.0}],
)


@pytest.mark.parametrize(
    "spectrum",
    [OVERFLOWING_AC_SPECTRUM, OVERFLOWING_DC_SPECTRUM, NEAR_LIMIT_SPECTRUM,
     DC_AND_FUNDAMENTAL_SPECTRUM],
    ids=["ac", "dc", "near-limit", "dc-and-fundamental"],
)
def test_characterize_verifies_a_spectrum_whose_squares_overflow(tmp_path, spectrum):
    # verification works in units of the target's largest coefficient, so
    # nothing overflows (pyproject.toml turns a RuntimeWarning into an error)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spectrum))
    out = tmp_path / "out.json"
    assert cli.main(["characterize", str(spec), "-o", str(out)]) == 0
    error = json.loads(out.read_text())["verification"]["max_rel_rms_error"]
    assert math.isfinite(error) and error <= cli.VERIFY_GATE


def _memristor_dec(amplitude, omega, scale, coeffs, constitutive_coeffs):
    element = {"kind": "memristor", "control": "flux", "scale": scale, "coeffs": coeffs,
               "constitutive_coeffs": constitutive_coeffs, "scalar_value": None,
               "companion": None}
    return {"supply": {"amplitude": amplitude, "omega": omega},
            "branches": [{"label": "memristor", "element": element}]}


# a consistent memristor whose Chebyshev argument scale*phi overflows, and one
# whose constitutive curve overflows on its own control range
NON_FINITE_DECOMPOSITIONS = {
    "argument": _memristor_dec(325.0, OMEGA, 1e300, [1.0, 0.0, 1.0],
                               [0.0, 1e-300, 0.0, 1e-300 / 3]),
    "constitutive": _memristor_dec(1.0, 1.0, 1e-300, [1.7e8, 0.0, 1.7e8],
                                   [0.0, 1.7e308, 0.0, 1.7e308 / 3]),
}


@functools.cache
def _tiny_supply_network(command: str) -> dict:
    """The network ``command`` (characterize or compensate) writes for a third
    harmonic on a 1e-300 V supply: its memcapacitor's C_M holds, but its
    dC_M/dphi, k * c_k * scale with scale -3.1e302, leaves float64."""
    spectrum = {"omega": OMEGA, "supply_amplitude": 1e-300,
                "harmonics": [{"n": 3, "a": 1.0, "b": 0.0}]}
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = Path(tmp, "spec.json"), Path(tmp, "out.json")
        spec.write_text(json.dumps(spectrum))
        report = ["--report", str(Path(tmp, "report.json"))] if command == "compensate" else []
        assert cli.main([command, str(spec), "-o", str(out), *report]) == 0
        return json.loads(out.read_text())


@pytest.mark.parametrize("command, case", [
    ("simulate", "argument"), ("hysteresis", "argument"), ("hysteresis", "constitutive"),
    ("simulate", "characterize"), ("simulate", "compensate"),
])
def test_non_finite_samples_exit_3_before_writing(tmp_path, capsys, command, case):
    dec = tmp_path / "dec.json"
    dec.write_text(json.dumps(NON_FINITE_DECOMPOSITIONS.get(case) or _tiny_supply_network(case)))
    out = tmp_path / "out.csv"
    branch = ["--branch", "memristor"] if command == "hysteresis" else []
    assert cli.main([command, str(dec), *branch, "--samples-per-period", "64",
                     "-o", str(out)]) == 3
    assert "not finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [dec]


@pytest.mark.parametrize("command", ["characterize", "compensate"])
def test_memcapacitor_loop_needs_no_derivative(tmp_path, command):
    dec = tmp_path / "dec.json"
    dec.write_text(json.dumps(_tiny_supply_network(command)))
    assert cli.main(["hysteresis", str(dec), "--branch", "memcapacitor",
                     "--samples-per-period", "64", "-o", str(tmp_path / "loop.csv")]) == 0


def test_series_longer_than_memsynth_writes_exit_2_before_writing(tmp_path, capsys):
    dec = tmp_path / "dec.json"
    limit = MAX_HARMONIC_ORDER
    dec.write_text(json.dumps(
        _memristor_dec(325.0, OMEGA, -OMEGA / 325.0, [0.0] * (limit + 1), [0.0] * (limit + 1))
    ))
    out = tmp_path / "out.csv"
    assert cli.main(["simulate", str(dec), "--samples-per-period", "64", "-o", str(out)]) == 2
    assert f"coeffs holds {limit + 1} entries" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [dec]


def _raise_on_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


@functools.cache
def _fuzz_seeds() -> dict:
    """A valid ``rectifier --nmax 12`` spectrum and its conditioner."""
    with tempfile.TemporaryDirectory() as tmp:
        spec, cond = Path(tmp, "spec.json"), Path(tmp, "cond.json")
        assert cli.main(["load-model", "rectifier", "--nmax", "12", "-o", str(spec)]) == 0
        assert cli.main(["compensate", str(spec), "-o", str(cond),
                         "--report", str(Path(tmp, "report.json"))]) == 0
        return {"spectrum": json.loads(spec.read_text()),
                "conditioner": json.loads(cond.read_text())}


def _leaf_paths(value, path=()):
    if isinstance(value, dict):
        return [p for key, item in value.items() for p in _leaf_paths(item, path + (key,))]
    if isinstance(value, list):
        return [p for k, item in enumerate(value) for p in _leaf_paths(item, path + (k,))]
    return [path]


MUTANT_VALUES = [0, 0.0, -0.0, 1e-320, -1e-320, 1e300, -1e300, 1e308, -1e308, 2**70,
                 10**400, float("nan"), float("inf"), -float("inf"), True, None, "1", [1.0]]

_FUZZ_COMMANDS = {
    "spectrum": [["characterize"], ["compensate", "--report", "{dir}/report.json"], ["report"]],
    "conditioner": [["simulate", "--samples-per-period", "64"],
                    ["hysteresis", "--branch", "memcapacitor", "--samples-per-period", "64"]],
}


@st.composite
def _mutants(draw):
    kind = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    doc = copy.deepcopy(_fuzz_seeds()[kind])
    paths = _leaf_paths(doc)
    for path in draw(st.lists(st.sampled_from(paths), min_size=1, max_size=2, unique=True)):
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        node[last] = draw(st.sampled_from(MUTANT_VALUES))
    return kind, doc, draw(st.sampled_from(_FUZZ_COMMANDS[kind]))


@settings(max_examples=80, deadline=None)
@given(_mutants())
def test_mutated_documents_exit_cleanly_and_write_only_finite_numbers(mutant):
    kind, doc, command = mutant
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp, "in.json")
        source.write_text(json.dumps(doc))
        argv = [command[0], str(source), *(a.format(dir=tmp) for a in command[1:]),
                "-o", str(Path(tmp, "out.csv" if kind == "conditioner" else "out.json"))]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2, 3), err.getvalue()
        written = sorted(p for p in Path(tmp).iterdir() if p != source)
        if code and not (command[0] == "characterize" and "verification failed" in err.getvalue()):
            assert written == [], err.getvalue()
        for path in written:
            if path.suffix == ".json":
                json.loads(path.read_text(), parse_constant=_raise_on_constant)
            else:
                for line in path.read_text().splitlines()[1:]:
                    cells = [float(cell) for cell in line.split(",") if cell]
                    assert all(map(math.isfinite, cells)), line
