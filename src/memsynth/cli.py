"""Command line front end.

Subcommands mirror the library layers: generate a benchmark spectrum, turn a
spectrum into a branch decomposition, synthesize the compensating network,
simulate a decomposition to CSV, print power figures, and dump hysteresis
loops.  All output is deterministic: identical inputs and flags produce byte
identical files.

Exit codes: 0 success, 2 invalid input, 3 numerical verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

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
    Integrator,
    SimulationConfig,
    columns_to_csv,
    hysteresis_loop,
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


def _dump_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, byte for byte.

    The standard library indents with its pure-Python encoder, which walks
    every float through a chain of generators.  Coefficient lists make up
    most of memsynth's documents, so a list of floats is joined in one pass.
    Keys must be strings, as they are in every memsynth document.
    """
    out: list[str] = []
    _encode_json(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _json_float(value: float) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else ("Infinity" if value > 0 else "-Infinity")


def _encode_json(value, newline: str, out: list[str]) -> None:
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or isinstance(value, bool):
        out.append("null" if value is None else ("true" if value else "false"))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_json_float(value))
    elif isinstance(value, (list, tuple, dict)):
        is_dict = isinstance(value, dict)
        if not value:
            out.append("{}" if is_dict else "[]")
            return
        inner = newline + "  "
        if not is_dict and all(isinstance(v, float) for v in value):
            out.append("[" + inner + ("," + inner).join(map(_json_float, value)) + newline + "]")
            return
        out.append("{" if is_dict else "[")
        separator = inner
        for item in value.items() if is_dict else value:
            out.append(separator)
            if is_dict:
                key, item = item
                if not isinstance(key, str):
                    raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
                out.append(encode_basestring_ascii(key) + ": ")
            _encode_json(item, inner, out)
            separator = "," + inner
        out.append(newline + ("}" if is_dict else "]"))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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


def _sim_config(args: argparse.Namespace) -> SimulationConfig:
    return SimulationConfig(
        periods=args.periods,
        samples_per_period=args.samples_per_period,
        integrator=Integrator(args.integrator),
        phi0=args.phi0,
        sigma0=args.sigma0,
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
    _emit(_dump_json(conditioner.to_dict()), args.output)
    _emit(_dump_json(report), args.report)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    decomposition = LoadDecomposition.from_dict(_read_json(args.decomposition))
    trace = simulate(decomposition, _sim_config(args))
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
    states = supply_states(decomposition.supply, _sim_config(args))
    drive, response = hysteresis_loop(element, states)
    _emit(columns_to_csv(_LOOP_HEADERS[element.kind.value], [drive, response]), args.output)

    # single-valued constitutive curve over the steady-state control range
    series = element.constitutive
    span = 1.0 / abs(series.scale)
    grid = np.linspace(-span, span, CONSTITUTIVE_POINTS)
    table = columns_to_csv("control,value", [grid, series.evaluate(grid)])
    constitutive_path = args.constitutive_output
    if constitutive_path is None and args.output is not None:
        base = Path(args.output)
        constitutive_path = str(base.with_name(base.stem + "_constitutive" + base.suffix))
    _emit(table, constitutive_path)
    return 0


def _add_sim_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--periods", type=int, default=2)
    parser.add_argument("--samples-per-period", type=int, default=8192)
    parser.add_argument(
        "--integrator", choices=[i.value for i in Integrator], default="closed-form"
    )
    parser.add_argument("--phi0", type=float, default=None)
    parser.add_argument("--sigma0", type=float, default=0.0)


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
