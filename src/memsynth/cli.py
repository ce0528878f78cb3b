"""Command line front end.

Subcommands mirror the library layers: generate a benchmark spectrum, turn a
spectrum into a branch decomposition, synthesize the compensating network,
simulate a decomposition to CSV, print power figures, and dump hysteresis
loops.  Every byte they read or write goes through :mod:`memsynth.textio`,
which states the file formats.

Exit codes: 0 success, 2 invalid input, 3 numerical verification failure or
a result that is not finite.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .elements import KINDS
from .errors import NumericalError, ValidationError
from .harmonics import (
    PF_CONVENTIONS,
    HarmonicSpectrum,
    SupplyVoltage,
    _real,
    compute_powers,
    fryze_split,
)
from .loads import LoadKind, LoadModel
from .simulation import (
    SimulationConfig,
    hysteresis_loop,
    loop_indices,
    simulate,
    supply_states,
)
from .synthesis import (
    DEFAULT_POLICY,
    AssignmentPolicy,
    EvenSineRoute,
    LoadDecomposition,
    PolicyMode,
    decompose_load,
    synthesize_conditioner,
    verify_decomposition,
)
from .textio import columns_to_csv, dump_json, emit, read_json, trace_to_csv

#: characterize fails (exit 3) unless the round-trip error is at most this,
#: so a nan error fails too
VERIFY_GATE = 1e-6


def _read_spectrum(path: str, amplitude: Optional[float]) -> tuple[SupplyVoltage, HarmonicSpectrum]:
    doc = read_json(path)
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
    return AssignmentPolicy(mode=args.policy, route_even_sines=args.route_even_sines)


def _powers(supply: SupplyVoltage, spectrum: HarmonicSpectrum, conventions) -> dict:
    """One power block of a report: each convention's figures, in the given order."""
    return {conv: dict(vars(compute_powers(supply, spectrum, conv))) for conv in conventions}


def _distinct_outputs(first: Optional[str], second: Optional[str]) -> None:
    """Refuse two output paths of one command that name one file (None is stdout)."""
    if None not in (first, second) and os.path.abspath(first) == os.path.abspath(second):
        raise ValidationError(f"{first} and {second} name one file; give each output its own")


def cmd_load_model(args: argparse.Namespace) -> int:
    model = LoadModel(
        kind=args.model,
        amplitude=args.amplitude,
        omega=args.omega,
        n_max=args.nmax,
        i_dc=args.idc,
        delta=args.delta,
    )
    supply = model.supply()
    spectrum = model.spectrum()
    doc = spectrum.to_dict()
    doc["supply_amplitude"] = supply.amplitude
    doc["n_max"] = spectrum.n_max
    emit(dump_json(doc), args.output)
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
    emit(dump_json(doc), args.output)
    if not report.rel_rms_error <= VERIFY_GATE:
        print(
            f"verification failed: max_rel_rms_error={report.rel_rms_error:.3e}"
            f" > {VERIFY_GATE:.0e}",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_compensate(args: argparse.Namespace) -> int:
    _distinct_outputs(args.output, args.report)
    supply, spectrum = _read_spectrum(args.spectrum, args.amplitude)
    conditioner = synthesize_conditioner(supply, spectrum, _policy(args))
    active, _, dc = fryze_split(supply, spectrum)
    # the active current is the fundamental sine alone
    compensated = HarmonicSpectrum(spectrum.omega, dc, active.cos[:1], active.sin[:1])
    report = {
        "supply": {"amplitude": supply.amplitude, "omega": supply.omega},
        "dc_component": dc,
        "before": _powers(supply, spectrum, PF_CONVENTIONS),
        "after": _powers(supply, compensated, PF_CONVENTIONS),
    }
    conditioner_text, report_text = dump_json(conditioner.to_dict()), dump_json(report)
    emit(conditioner_text, args.output)
    emit(report_text, args.report)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    decomposition = LoadDecomposition.from_dict(read_json(args.decomposition))
    trace = simulate(decomposition, SimulationConfig(args.periods, args.samples_per_period))
    emit(trace_to_csv(trace), args.output)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    supply, spectrum = _read_spectrum(args.spectrum, args.amplitude)
    conventions = PF_CONVENTIONS if args.pf_convention == "both" else (args.pf_convention,)
    doc = {
        "supply": {"amplitude": supply.amplitude, "omega": supply.omega},
        "powers": _powers(supply, spectrum, conventions),
    }
    emit(dump_json(doc), args.output)
    return 0


def cmd_hysteresis(args: argparse.Namespace) -> int:
    _distinct_outputs(args.output, args.constitutive_output)
    decomposition = LoadDecomposition.from_dict(read_json(args.decomposition))
    element = dict(decomposition.branches()).get(args.branch)
    if element is None:
        raise ValidationError(f"decomposition has no branch labelled {args.branch!r}")
    config = SimulationConfig(args.periods, args.samples_per_period)
    states = supply_states(decomposition.supply, config, loop_indices(config))
    drive, response, control, value = hysteresis_loop(element, states)
    # both tables are rendered, and so checked, before either is written
    loop = columns_to_csv(",".join(KINDS[element.kind].loop), [drive, response])
    table = columns_to_csv("control,value", [control, value])
    constitutive_path = args.constitutive_output
    if constitutive_path is None and args.output is not None:
        base = Path(args.output)
        constitutive_path = str(base.with_name(base.stem + "_constitutive" + base.suffix))
    emit(loop, args.output)
    emit(table, constitutive_path)
    return 0


def _add_sim_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--periods", type=int, default=SimulationConfig.periods)
    parser.add_argument(
        "--samples-per-period", type=int, default=SimulationConfig.samples_per_period
    )


def _add_policy_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--policy", choices=[m.value for m in PolicyMode], default=DEFAULT_POLICY.mode.value
    )
    parser.add_argument(
        "--route-even-sines",
        choices=[r.value for r in EvenSineRoute],
        default=DEFAULT_POLICY.route_even_sines.value,
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
    p.add_argument("--A", dest="amplitude", type=float, default=LoadModel.amplitude)
    p.add_argument("--omega", type=float, default=LoadModel.omega)
    p.add_argument("--nmax", type=int, default=LoadModel.n_max,
                   help=f"truncation order (default {LoadModel.n_max})")
    p.add_argument("--idc", type=float, default=LoadModel.i_dc)
    p.add_argument("--delta", type=float, default=LoadModel.delta)
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
