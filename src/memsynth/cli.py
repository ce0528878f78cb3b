"""Command line front end.

Subcommands mirror the library layers: generate a benchmark spectrum, turn a
spectrum into a branch decomposition, synthesize the compensating network,
simulate a decomposition to CSV, print power figures, and dump hysteresis
loops.  All output is deterministic: identical inputs and flags produce byte
identical files.  orjson renders them: every JSON document is
``json.dumps(doc, indent=2)`` byte for byte, and every CSV cell is the
``repr`` of its float.  A JSON document holds only dicts with plain ASCII
keys, lists, finite floats, ints, bools, ``null`` and plain ASCII strings
(see :func:`_dump_json`).  No output holds a nan or an infinity: a result
that is not finite stops the command with exit 3 before any file is written.

Exit codes: 0 success, 2 invalid input, 3 numerical verification failure or
a result that is not finite.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import orjson

from .errors import NumericalError, ValidationError
from .harmonics import (
    HarmonicSpectrum,
    SupplyVoltage,
    _real,
    compute_powers,
    fryze_split,
)
from .loads import (
    DEFAULT_N_MAX,
    MOTIVATING_AMPLITUDE,
    MOTIVATING_OMEGA,
    N_MAX_ENV_VAR,
    LoadKind,
    LoadModel,
)
from .simulation import (
    SimulationConfig,
    columns_to_csv,
    hysteresis_loop,
    loop_indices,
    simulate,
    supply_states,
    trace_to_csv,
)
from .synthesis import (
    AssignmentPolicy,
    EvenSineRoute,
    LoadDecomposition,
    PolicyMode,
    decompose_load,
    synthesize_conditioner,
    verify_decomposition,
)

#: characterize fails (exit 3) when the round-trip error exceeds this
VERIFY_GATE = 1e-6

CONSTITUTIVE_POINTS = 1001


#: orjson lays out the documents; :func:`_dump_json` restores the stdlib spelling
_ORJSON_OPTIONS = orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY

#: float lists at least this long are checked as one numpy array; below it a
#: per-float check is faster (the two break even near 40 floats)
_ARRAY_MIN = 40

_DIGITS = "0123456789"


def _dump_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, byte for byte, for memsynth's documents.

    A document is built from dicts, lists, finite floats, ints, bools,
    ``None`` and strings; every key and string is one that :func:`_plain`
    accepts.  Anything else raises ``TypeError``: other types, subclasses
    included, keys or strings that are not plain, ints outside orjson's
    64-bit range and nesting deeper than orjson's 254 levels.  A nan or an
    infinity raises :class:`NumericalError` (exit 3), so no non-standard
    ``NaN`` or ``Infinity`` is ever written.  Nothing is written either way,
    since the whole text is made before it is emitted.

    orjson lays out the document and shares ``repr``'s shortest digits, but
    not all of its spelling.  orjson writes an exponent as ``1.5e-7``, which
    one pass over the text pads to ``1.5e-07``.  A float that orjson spells
    otherwise, in [1e-5, 1e-4) (positional) or of magnitude 1e16 and up
    (``1e16`` for ``1e+16``), goes to orjson as ``null``, and so does
    ``None``; their stdlib text is filled in afterwards, in document order.
    """
    fills: list[str] = []
    text = orjson.dumps(_orjson_ready(doc, fills), option=_ORJSON_OPTIONS).decode() + "\n"
    # every exponent digit is followed by another one or a separator, never the text's end
    head, *tails = text.split("e-")
    if tails:
        text = "e-".join([head] + [t if t[1] in _DIGITS else "0" + t for t in tails])
    if fills:
        pieces = text.split("null")
        text = pieces[0] + "".join(map(str.__add__, fills, pieces[1:]))
    return text


def _plain(text: str) -> bool:
    """True when orjson and the stdlib spell ``text`` alike and no fill can be mistaken in it."""
    return text.isascii() and text.isprintable() and "null" not in text and "e-" not in text


def _not_finite(value) -> NumericalError:
    return NumericalError(f"result {value!r} is not finite and cannot be written as JSON")


def _float_array(values: list, fills: list[str]) -> np.ndarray:
    """``values`` as one float64 array, nan wherever a fill stands in."""
    x = np.array(values)
    m = np.abs(x)
    fill = ((m >= 1e-5) & (m < 1e-4)) | ~(m < 1e16)
    if fill.any():
        where = fill.nonzero()[0]
        spelled = x[where].tolist()
        for value in spelled:
            if not math.isfinite(value):
                raise _not_finite(value)
        fills.extend(map(float.__repr__, spelled))
        x[where] = np.nan
    return x


def _orjson_ready(value, fills: list[str]):
    """``value`` with every value orjson spells otherwise replaced, its stdlib text in ``fills``."""
    kind = type(value)
    if kind is float:
        m = abs(value)
        if 1e-5 <= m < 1e-4 or not m < 1e16:
            if not math.isfinite(value):
                raise _not_finite(value)
            fills.append(float.__repr__(value))
            return None
        return value
    if kind is dict:
        out = {}
        for key, item in value.items():
            if type(key) is not str or not _plain(key):
                raise TypeError(f"JSON key {key!r} is not a plain string")
            out[key] = _orjson_ready(item, fills)
        return out
    if kind is list:
        if len(value) >= _ARRAY_MIN and set(map(type, value)) == {float}:
            return _float_array(value, fills)
        return [_orjson_ready(item, fills) for item in value]
    if kind is str:
        if _plain(value):
            return value
        raise TypeError(f"JSON string {value!r} is not plain")
    if kind is int or kind is bool:
        return value
    if value is None:
        fills.append("null")
        return None
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc


def _read_spectrum(path: str, amplitude: Optional[float]) -> tuple[SupplyVoltage, HarmonicSpectrum]:
    doc = _read_json(path)
    spectrum = HarmonicSpectrum.from_dict(doc)
    if amplitude is None:
        amplitude = doc.get("supply_amplitude")
        if amplitude is None:
            raise ValidationError(
                f"{path} carries no supply_amplitude; pass --A explicitly"
            )
        amplitude = _real(amplitude, "supply_amplitude")
    return SupplyVoltage(amplitude, spectrum.omega), spectrum


def _policy(args: argparse.Namespace) -> AssignmentPolicy:
    return AssignmentPolicy(
        mode=PolicyMode(args.policy), route_even_sines=EvenSineRoute(args.route_even_sines)
    )


def _summary_dict(summary) -> dict:
    return {
        "active_power": summary.active_power,
        "apparent_power": summary.apparent_power,
        "power_factor": summary.power_factor,
        "rms_voltage": summary.rms_voltage,
        "rms_current": summary.rms_current,
        "convention": summary.convention,
    }


def cmd_load_model(args: argparse.Namespace) -> int:
    model = LoadModel(
        kind=LoadKind(args.model),
        amplitude=args.amplitude if args.amplitude is not None else MOTIVATING_AMPLITUDE,
        omega=args.omega if args.omega is not None else MOTIVATING_OMEGA,
        n_max=args.nmax,
        i_dc=args.idc,
        delta=args.delta,
    )
    supply = model.supply()
    spectrum = model.spectrum()
    doc = spectrum.to_dict()
    doc["supply_amplitude"] = supply.amplitude
    doc["n_max"] = spectrum.n_max
    _emit(_dump_json(doc), args.output)
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    supply, spectrum = _read_spectrum(args.spectrum, args.amplitude)
    decomposition = decompose_load(supply, spectrum, _policy(args))
    report = verify_decomposition(decomposition, spectrum)
    doc = decomposition.to_dict()
    doc["verification"] = {
        "max_rel_rms_error": report.rel_rms_error,
        "max_coefficient_error": report.max_coefficient_error,
        "n_max": report.n_max,
        "samples_per_period": report.samples_per_period,
    }
    _emit(_dump_json(doc), args.output)
    if report.rel_rms_error > VERIFY_GATE:
        print(
            f"verification failed: max_rel_rms_error={report.rel_rms_error:.3e}"
            f" > {VERIFY_GATE:.0e}",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_compensate(args: argparse.Namespace) -> int:
    supply, spectrum = _read_spectrum(args.spectrum, args.amplitude)
    conditioner = synthesize_conditioner(supply, spectrum, _policy(args))
    active, _, dc = fryze_split(supply, spectrum)
    compensated = HarmonicSpectrum(spectrum.omega, dc, active.cos, active.sin)
    report = {
        "supply": {"amplitude": supply.amplitude, "omega": supply.omega},
        "dc_component": dc,
        "before": {
            conv: _summary_dict(compute_powers(supply, spectrum, conv))
            for conv in ("rms", "paper")
        },
        "after": {
            conv: _summary_dict(compute_powers(supply, compensated, conv))
            for conv in ("rms", "paper")
        },
    }
    conditioner_text, report_text = _dump_json(conditioner.to_dict()), _dump_json(report)
    _emit(conditioner_text, args.output)
    _emit(report_text, args.report)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    decomposition = LoadDecomposition.from_dict(_read_json(args.decomposition))
    trace = simulate(decomposition, SimulationConfig(args.periods, args.samples_per_period))
    _emit(trace_to_csv(trace), args.output)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    supply, spectrum = _read_spectrum(args.spectrum, args.amplitude)
    conventions = ("rms", "paper") if args.pf_convention == "both" else (args.pf_convention,)
    doc = {
        "supply": {"amplitude": supply.amplitude, "omega": supply.omega},
        "powers": {
            conv: _summary_dict(compute_powers(supply, spectrum, conv))
            for conv in conventions
        },
    }
    _emit(_dump_json(doc), args.output)
    return 0


_LOOP_HEADERS = {
    "memristor": "u,i",
    "memcapacitor": "u,q",
    "meminductor": "phi,i",
}


def cmd_hysteresis(args: argparse.Namespace) -> int:
    decomposition = LoadDecomposition.from_dict(_read_json(args.decomposition))
    element = None
    for label, candidate in decomposition.branches():
        if label == args.branch:
            element = candidate
            break
    if element is None:
        raise ValidationError(f"decomposition has no branch labelled {args.branch!r}")
    config = SimulationConfig(args.periods, args.samples_per_period)
    if not element.is_memory:
        raise ValidationError("hysteresis loops are defined for memory elements")
    # the single-valued constitutive curve over the steady-state control
    # range rides in the loop's Clenshaw pass
    series = element.constitutive
    scale = abs(series.scale)
    span = 1.0 / scale if scale else math.inf
    if not math.isfinite(span):
        raise ValidationError(f"constitutive scale {series.scale!r} gives no finite control range")
    if math.isfinite(2.0 / scale):
        grid = np.linspace(-span, span, CONSTITUTIVE_POINTS)
    else:  # the step 2 * span of linspace would overflow
        grid = span * np.linspace(-1.0, 1.0, CONSTITUTIVE_POINTS)
    states = supply_states(decomposition.supply, config, loop_indices(config))
    drive, response, curve = hysteresis_loop(element, states, (series, grid))
    # both tables are rendered, and so checked, before either is written
    loop = columns_to_csv(_LOOP_HEADERS[element.kind.value], [drive, response])
    table = columns_to_csv("control,value", [grid, curve])
    constitutive_path = args.constitutive_output
    if constitutive_path is None and args.output is not None:
        base = Path(args.output)
        constitutive_path = str(base.with_name(base.stem + "_constitutive" + base.suffix))
    _emit(loop, args.output)
    _emit(table, constitutive_path)
    return 0


def _add_sim_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--periods", type=int, default=2)
    parser.add_argument("--samples-per-period", type=int, default=8192)


def _add_policy_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--policy", choices=[m.value for m in PolicyMode], default="auto")
    parser.add_argument(
        "--route-even-sines",
        choices=[r.value for r in EvenSineRoute],
        default="memristor",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="memsynth",
        description="Characterize distorting loads and synthesize memory-element conditioners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("load-model", help="emit a benchmark load spectrum as JSON")
    p.add_argument("model", choices=[k.value for k in LoadKind])
    p.add_argument("--A", dest="amplitude", type=float, default=None)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--nmax", type=int, default=None,
                   help=f"truncation order (default {DEFAULT_N_MAX}, env {N_MAX_ENV_VAR})")
    p.add_argument("--idc", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_load_model)

    p = sub.add_parser("characterize", help="decompose a spectrum into shunt branches")
    p.add_argument("spectrum")
    p.add_argument("--A", dest="amplitude", type=float, default=None)
    _add_policy_flags(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("compensate", help="synthesize the non-active current conditioner")
    p.add_argument("spectrum")
    p.add_argument("--A", dest="amplitude", type=float, default=None)
    _add_policy_flags(p)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--report", default=None, help="write the power report here (default stdout)")
    p.set_defaults(func=cmd_compensate)

    p = sub.add_parser("simulate", help="steady-state trace of a decomposition to CSV")
    p.add_argument("decomposition")
    _add_sim_flags(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="power figures of a spectrum")
    p.add_argument("spectrum")
    p.add_argument("--A", dest="amplitude", type=float, default=None)
    p.add_argument("--pf-convention", choices=("rms", "paper", "both"), default="rms")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("hysteresis", help="characteristic loop of one memory branch")
    p.add_argument("decomposition")
    p.add_argument("--branch", required=True,
                   help="branch label: memristor, meminductor or memcapacitor")
    _add_sim_flags(p)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--constitutive-output", default=None)
    p.set_defaults(func=cmd_hysteresis)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
