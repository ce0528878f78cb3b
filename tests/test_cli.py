"""Command line behaviour: outputs, determinism, exit codes."""

import contextlib
import copy
import dataclasses
import functools
import io
import json
import math
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsynth import cli, synthesis
from memsynth.errors import NumericalError

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


@pytest.mark.parametrize("doc", [
    {},
    [],
    {"a": [], "b": {}, "c": [[], {}, [[]]]},
    {"floats": [0.1, -0.0, 1e-310, 1e300, 1e16, 1e-05, 2.5]},
    {"extremes": [5e-324, -1.7976931348623157e308, 9999999999999998.0], "x": -1e-05},
    {"mixed": [1.5, 2, True, None, "s", [0.25, 0.5]], "int": 2**64 - 1, "flag": False},
    {"text": 'h "q" \\ /', "n": 3.25, "min": -(2**63)},
    {"deep": {"er": {"est": [1.5, {"k": [0.1, 0.2]}]}}},
])
def test_dump_json_matches_stdlib_indent_2(doc):
    assert cli._dump_json(doc) == json.dumps(doc, indent=2) + "\n"


def test_dump_json_rejects_what_stdlib_rejects():
    for doc in ({"k": np.int64(3)}, {"k": object()}, [np.arange(2)]):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError):
            cli._dump_json(doc)


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


#: JSON values that no memsynth document holds, though the stdlib writes them
OUTSIDE_THE_GRAMMAR = [
    np.float64(2.5), (0.25, 0.5), 2**64, -(2**63) - 1, 2**70,
    "h\u00e9llo", "\u2603", "a\nb", "\x7f", "null", "e-5",
    {"k\u00e9": 1.0}, {"null": 1.0}, {"a\nb": 1.0}, {"e-": 1.0},
    _Str("s"), _Int(3), _Float(2.5), _List([1.0]), _Dict(k=1.0),
]


@pytest.mark.parametrize("value", OUTSIDE_THE_GRAMMAR)
def test_dump_json_raises_type_error_outside_the_grammar(value):
    for doc in ({"k": value}, [1.0, value], [value] + [1.0] * cli._ARRAY_MIN):
        with pytest.raises(TypeError):
            cli._dump_json(doc)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_dump_json_refuses_non_finite_floats(value):
    floats = [1.0] * cli._ARRAY_MIN
    for doc in ({"x": value}, {"x": [0.5, value]}, {"x": [*floats, value]},
                {"x": [value, *floats]}, {"x": [*floats, 2e-5, value, 1e16]}):
        with pytest.raises(NumericalError, match="not finite"):
            cli._dump_json(doc)


#: the edges of the bands where orjson spells a float otherwise than ``repr``
BAND_EDGES = [
    float(x)
    for edge in (1e-5, 1e-4, 1e16)
    for x in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf))
]
SPECIAL_FLOATS = [0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                  1.7976931348623157e308, *BAND_EDGES]

_floats = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
    .filter(math.isfinite),
    st.sampled_from(SPECIAL_FLOATS + [-x for x in SPECIAL_FLOATS]),
    st.floats(allow_nan=False, allow_infinity=False),
)
#: strings that :func:`cli._plain` accepts
_strings = st.one_of(
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E)),
    st.lists(st.sampled_from(["nu", "ll", "e", "-5", "a", " ", '"', "\\", "n", "-"]),
             max_size=6).map("".join),
).filter(cli._plain)
_ints = st.one_of(
    st.integers(-(2**63), 2**64 - 1),
    st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, -(2**63)]),
)
_json_scalars = st.one_of(_floats, _strings, _ints, st.none(), st.booleans())
_long_float_lists = st.lists(_floats, min_size=cli._ARRAY_MIN, max_size=cli._ARRAY_MIN + 8)
_json_docs = st.recursive(
    st.one_of(_json_scalars, _long_float_lists),
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.dictionaries(_strings, inner, max_size=6),
    ),
    max_leaves=12,
)


@settings(max_examples=120, deadline=None)
@given(_json_docs)
def test_dump_json_matches_stdlib_on_any_document(doc):
    assert cli._dump_json(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("value", BAND_EDGES)
def test_dump_json_fills_exactly_the_floats_orjson_spells_otherwise(value):
    # a fill where none is needed still prints the stdlib text, so only this
    # test sees a band that grew by one ulp
    band = 1e-5 <= value < 1e-4 or value >= 1e16
    for x in (value, -value):
        want = [repr(x)] if band else []
        for doc, fills_wanted in ((x, want), ([x] * cli._ARRAY_MIN, want * cli._ARRAY_MIN)):
            fills = []
            cli._orjson_ready(doc, fills)
            assert fills == fills_wanted


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
    assert ver["samples_per_period"] == 8192


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


@pytest.mark.parametrize("scale_factor", [1.0, 1.0 + 2.0**-40], ids=["spectral", "clenshaw"])
def test_characterize_gate_catches_a_tampered_memristor(tmp_path, monkeypatch, capsys,
                                                        scale_factor):
    spec = tmp_path / "spec.json"
    assert cli.main(["load-model", "bridge", "--delta", "0.4", "--nmax", "9",
                     "-o", str(spec)]) == 0
    decompose = cli.decompose_load

    def tampered(supply, spectrum, policy):
        dec = decompose(supply, spectrum, policy)
        series = dec.memristor.incremental
        coeffs = (series.coeffs[0] * (1.0 + 1e-3),) + series.coeffs[1:]
        series = dataclasses.replace(series, coeffs=coeffs, scale=series.scale * scale_factor)
        return dataclasses.replace(
            dec, memristor=dataclasses.replace(dec.memristor, incremental=series)
        )

    simulated = []
    simulate = synthesis.simulate

    def spy(decomposition, config):
        simulated.append(config)
        return simulate(decomposition, config)

    monkeypatch.setattr(cli, "decompose_load", tampered)
    monkeypatch.setattr(synthesis, "simulate", spy)
    out = tmp_path / "d.json"
    assert cli.main(["characterize", str(spec), "-o", str(out)]) == 3
    assert "verification failed" in capsys.readouterr().err
    assert json.loads(out.read_text())["verification"]["max_rel_rms_error"] > cli.VERIFY_GATE
    assert len(simulated) == (scale_factor != 1.0)


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
    branch = ["--branch", "memcapacitor"] if command == "hysteresis" else []
    assert cli.main([command, str(dec), *branch, "-o", str(tmp_path / "x.csv")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
    assert not (tmp_path / "x_constitutive.csv").exists()


@pytest.mark.parametrize("label, key, value", MALFORMED_ELEMENT_VALUES)
@pytest.mark.parametrize("command", ["simulate", "hysteresis"])
def test_decomposition_with_non_numeric_element_values_exits_2(
    tmp_path, capsys, command, label, key, value
):
    dec = _edited_dec_file(tmp_path, label, key, value)
    _assert_rejected(tmp_path, capsys, command, dec, "must be")


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


def test_malformed_nmax_env_leaves_other_subcommands_working(tmp_path, monkeypatch, capsys):
    spec = _spec_file(tmp_path)
    monkeypatch.setenv("MEMSYNTH_NMAX_DEFAULT", "abc")
    cli.build_parser.cache_clear()  # build the parser under the bad variable
    assert cli.main(["report", str(spec)]) == 0
    assert json.loads(capsys.readouterr().out)["powers"]["rms"]["power_factor"] > 0.0
    assert cli.main(["load-model", "motivating"]) == 0


def test_env_var_controls_default_truncation(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MEMSYNTH_NMAX_DEFAULT", "7")
    assert cli.main(["load-model", "rectifier", "--A", "1.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # realized order: the highest surviving even harmonic under the cap
    assert doc["n_max"] == 6
    assert max(h["n"] for h in doc["harmonics"]) == 6

    monkeypatch.setenv("MEMSYNTH_NMAX_DEFAULT", "abc")
    assert cli.main(["load-model", "rectifier", "--A", "1.0"]) == 2


#: a JSON integer no float64 can hold
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
    assert "within the float64 range" in capsys.readouterr().err
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
    _assert_rejected(tmp_path, capsys, command, dec, "within the float64 range")


@pytest.mark.parametrize("key", ["amplitude", "omega"])
@pytest.mark.parametrize("command", ["simulate", "hysteresis"])
def test_decomposition_supply_with_integer_beyond_float64_exits_2(tmp_path, capsys, command, key):
    dec = _dec_file(tmp_path)
    doc = json.loads(dec.read_text())
    doc["supply"][key] = HUGE
    dec.write_text(json.dumps(doc))
    _assert_rejected(tmp_path, capsys, command, dec, "within the float64 range")


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


# verification squares the raw waveforms, and their overflow still warns
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_characterize_refuses_a_nan_error_before_writing(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(OVERFLOWING_AC_SPECTRUM))
    out = tmp_path / "out.json"
    assert cli.main(["characterize", str(spec), "-o", str(out)]) == 3
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


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


# the overflowing Clenshaw sums warn; the written cells are what is checked here
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command, case", [
    ("simulate", "argument"), ("hysteresis", "argument"), ("hysteresis", "constitutive"),
])
def test_non_finite_samples_exit_3_before_writing(tmp_path, capsys, command, case):
    dec = tmp_path / "dec.json"
    dec.write_text(json.dumps(NON_FINITE_DECOMPOSITIONS[case]))
    out = tmp_path / "out.csv"
    branch = ["--branch", "memristor"] if command == "hysteresis" else []
    assert cli.main([command, str(dec), *branch, "--samples-per-period", "64",
                     "-o", str(out)]) == 3
    assert "not finite" in capsys.readouterr().err
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
        # some of these inputs still make numpy warn on overflow; this test
        # pins exit codes and written bytes, so it ignores the warnings
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore", RuntimeWarning)
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
