"""Seeded inputs, operation chains and output checks of the three workloads.

Every workload hands memsynth only files: spectra written by ``load-model``
or by the benchmark itself, and the decompositions memsynth wrote from them.
An operation is one ``memsynth`` subcommand; a chain is the run of
subcommands one input spectrum goes through.  ``setup`` makes the inputs and
runs every prerequisite; ``chain(i)`` yields the timed operations of input
``i`` and stops early when an operation fails.

Sizes are drawn stratified (one draw inside each equal slice of the range),
so every seed covers the range the same way and the medians of different
seeds measure the same mix of work.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

#: characterize must report a round-trip error at most this large
VERIFY_GATE = 1e-6
#: compensated power factor tolerance
PF_TOL = 1e-12
#: trace rows must satisfy i_total = i_dc + i_GM + i_GammaM + i_CM to this
ROW_RTOL = 1e-12

OMEGA = 100.0 * math.pi
MEMORY_LABELS = ("memristor", "meminductor", "memcapacitor")
FAMILY_COLUMNS = ("i_dc", "i_GM", "i_GammaM", "i_CM")


@dataclass
class Op:
    """One subcommand call: its argv, the files it writes and their check."""

    sub: str
    argv: list[str]
    outputs: tuple[Path, ...]
    check: Optional[Callable[[], Optional[str]]] = None


# -- checks: each returns None when the output is correct, else a reason --

def _load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def check_characterize(path: Path) -> Optional[str]:
    try:
        error = _load_json(path)["verification"]["max_rel_rms_error"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"{path.name}: unreadable decomposition ({exc})"
    if not error <= VERIFY_GATE:
        return f"{path.name}: max_rel_rms_error {error!r} > {VERIFY_GATE}"
    return None


def check_compensate(report: Path, spectrum: Path) -> Optional[str]:
    """The compensated current dc + b1 sin(wt) has the ideal power factor.

    With the rms convention that is b1 / sqrt(2 dc^2 + b1^2): exactly 1 when
    the load has no dc and draws positive active power.  dc is never
    compensated, so a load with dc keeps a power factor below 1.
    """
    try:
        pf = _load_json(report)["after"]["rms"]["power_factor"]
        doc = _load_json(spectrum)
        dc = float(doc.get("dc", 0.0))
        b1 = next((float(h["b"]) for h in doc["harmonics"] if h["n"] == 1), 0.0)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"{report.name}: unreadable report ({exc})"
    denominator = math.sqrt(2.0 * dc * dc + b1 * b1)
    expected = b1 / denominator if denominator > 0.0 else 0.0
    if not abs(pf - expected) <= PF_TOL:
        return f"{report.name}: after.rms.power_factor {pf!r}, expected {expected!r}"
    return None


def check_trace(path: Path, rows: int) -> Optional[str]:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        total = header.index("i_total")
        parts = [header.index(name) for name in FAMILY_COLUMNS]
    except (OSError, ValueError, IndexError) as exc:
        return f"{path.name}: unreadable trace ({exc})"
    if len(lines) != rows + 1:
        return f"{path.name}: {len(lines) - 1} rows, expected {rows}"
    for number, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        i_total = float(cells[total])
        values = [float(cells[k]) for k in parts if cells[k]]
        scale = max(abs(i_total), sum(abs(v) for v in values))
        if abs(i_total - sum(values)) > ROW_RTOL * scale:
            return f"{path.name}: row {number} breaks i_total = sum of branch families"
    return None


def memory_branches(decomposition: Path) -> list[str]:
    try:
        doc = _load_json(decomposition)
        return [b["label"] for b in doc["branches"] if b["label"] in MEMORY_LABELS]
    except (OSError, ValueError, KeyError, TypeError):
        return []


_VERIFICATION = re.compile(r',\n  "verification": \{[^{}]*\}')


def hashed_bytes(op: Op, path: Path) -> bytes:
    """Output bytes for the output digest; drops characterize's error figures."""
    data = path.read_bytes()
    if op.sub == "characterize":
        data = _VERIFICATION.sub("", data.decode("utf-8")).encode("utf-8")
    return data


def _signed(rng: random.Random, low: float, high: float) -> float:
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(low, high)


MALFORMED_SPECTRUM = {
    "omega": OMEGA,
    "dc": 0.0,
    "harmonics": [{"n": 1, "a": 1.0}],  # no "b": rejected with exit 2
    "supply_amplitude": 325.0,
}


class SpectrumWorkload:
    """Each input spectrum runs characterize, compensate, report, simulate and
    hysteresis on its first memory branch, in that order."""

    setup_reps = 5
    #: stop only at the end of a round: needed when the inputs are a fixed
    #: stratified set, since a partial round would shift the median
    whole_rounds = True
    sim_flags: tuple[str, ...] = ()
    sim_rows = 0

    def __init__(self, seed: int, count: Optional[int], inject: bool, work: Path) -> None:
        self.work = work
        rng = random.Random(seed)
        self.inputs = self.draw(rng, count or self.default_count)
        if inject:
            self.inputs.append(None)

    def draw(self, rng: random.Random, count: int) -> list:
        raise NotImplementedError

    def spectrum_path(self, i: int) -> Path:
        return self.work / f"spectrum{i}.json"

    def setup_files(self) -> list[Path]:
        """Files a set-up pass writes."""
        return [self.spectrum_path(i) for i in range(len(self.inputs))]

    def write_malformed(self, i: int) -> None:
        self.spectrum_path(i).write_text(json.dumps(MALFORMED_SPECTRUM), encoding="utf-8")

    def policy_flags(self, i: int) -> list[str]:
        return []

    def chain(self, i: int) -> Iterator[Op]:
        w = self.work
        spectrum = str(self.spectrum_path(i))
        dec, cond, report = w / f"dec{i}.json", w / f"cond{i}.json", w / f"report{i}.json"
        powers, trace = w / f"powers{i}.json", w / f"trace{i}.csv"
        loop, curve = w / f"loop{i}.csv", w / f"loop{i}_constitutive.csv"
        policy = self.policy_flags(i)
        yield Op("characterize", ["characterize", spectrum, *policy, "-o", str(dec)],
                 (dec,), lambda: check_characterize(dec))
        yield Op("compensate",
                 ["compensate", spectrum, *policy, "-o", str(cond), "--report", str(report)],
                 (cond, report), lambda: check_compensate(report, self.spectrum_path(i)))
        yield Op("report", ["report", spectrum, "--pf-convention", "both", "-o", str(powers)],
                 (powers,))
        yield Op("simulate", ["simulate", str(dec), *self.sim_flags, "-o", str(trace)],
                 (trace,), lambda: check_trace(trace, self.sim_rows))
        branches = memory_branches(dec)
        if branches:
            yield Op("hysteresis",
                     ["hysteresis", str(dec), "--branch", branches[0], *self.sim_flags,
                      "-o", str(loop), "--constitutive-output", str(curve)],
                     (loop, curve))


class VerifyHighOrder(SpectrumWorkload):
    """Rectifier and bridge spectra with n_max spread over 200-2000."""

    name = "verify-high-order"
    # 10 slices x 2 kinds: one round takes 13-25 s on a 2-vCPU x86-64 host
    # (0.7-1.3 s a chain), so a 30 s run measures two or three rounds
    default_count = 20
    sim_flags = ("--periods", "1")
    sim_rows = 8192
    N_LOW, N_HIGH = 200, 2000

    def draw(self, rng: random.Random, count: int) -> list:
        strata = (count + 1) // 2
        inputs = []
        for k in range(strata):
            # middle tenth of the k-th slice: the median lands on one size, and
            # seeds differ in it by under 1 %
            n_max = round(self.N_LOW + (self.N_HIGH - self.N_LOW)
                          * (k + rng.uniform(0.45, 0.55)) / strata)
            common = ["--A", repr(rng.uniform(100.0, 400.0)), "--nmax", str(n_max)]
            inputs.append(["rectifier", *common])
            inputs.append(["bridge", *common, "--idc", repr(rng.uniform(0.5, 20.0)),
                           "--delta", repr(rng.uniform(0.05, math.pi / 2 - 0.05))])
        inputs = inputs[:count]
        rng.shuffle(inputs)
        return inputs

    def setup(self, run: Callable[[Op], object]) -> None:
        for i, argv in enumerate(self.inputs):
            if argv is None:
                self.write_malformed(i)
                continue
            path = self.spectrum_path(i)
            run(Op("load-model", ["load-model", *argv, "-o", str(path)], (path,)))


class BatchSmall(SpectrumWorkload):
    """Random sparse spectra: 1-8 harmonics at orders up to 60."""

    name = "batch-small"
    # independent draws, so a partial round is an unbiased sample; 400 of them
    # put the tail (11th largest) among many inputs, not the two or three
    # most expensive ones, and one round takes 20-35 s on a 2-vCPU host
    default_count = 400
    whole_rounds = False
    setup_reps = 10
    sim_flags = ("--periods", "1", "--samples-per-period", "256")
    sim_rows = 256

    def draw(self, rng: random.Random, count: int) -> list:
        inputs = []
        for _ in range(count):
            orders = sorted(rng.sample(range(1, 61), rng.randint(1, 8)))
            # a quarter keep a lone positive fundamental sine: the resistor case
            collapse = rng.random() < 0.25
            if collapse and orders[0] != 1:
                orders[0] = 1
            harmonics = []
            for n in orders:
                if collapse:
                    a = _signed(rng, -1, 2) if n > 1 or rng.random() < 0.5 else 0.0
                    b = abs(_signed(rng, -1, 2)) if n == 1 else 0.0
                else:
                    shape = rng.choice(("cos", "sin", "both"))
                    a = _signed(rng, -1, 2) if shape != "sin" else 0.0
                    b = _signed(rng, -1, 2) if shape != "cos" else 0.0
                harmonics.append({"n": n, "a": a, "b": b})
            doc = {
                "omega": OMEGA,
                "dc": _signed(rng, -1, 1) if rng.random() < 0.5 else 0.0,
                "harmonics": harmonics,
                "supply_amplitude": rng.uniform(50.0, 400.0),
            }
            policy = ["--policy", rng.choice(("auto", "inductive", "capacitive")),
                      "--route-even-sines", rng.choice(("memristor", "meminductor"))]
            inputs.append((json.dumps(doc, indent=2) + "\n", policy))
        return inputs

    def policy_flags(self, i: int) -> list[str]:
        return self.inputs[i][1] if self.inputs[i] else []

    def setup(self, run: Callable[[Op], object]) -> None:
        for i, item in enumerate(self.inputs):
            if item is None:
                self.write_malformed(i)
            else:
                self.spectrum_path(i).write_text(item[0], encoding="utf-8")


class TraceEmit:
    """Default-order loads: simulate and hysteresis on prepared networks."""

    name = "trace-emit"
    whole_rounds = True
    # its characterize/compensate latencies come from set-up: 20 passes give
    # 20 samples per load, so p50 and tail fall inside one load's cluster
    setup_reps = 20
    sim_rows = 2 * 8192

    def __init__(self, seed: int, count: Optional[int], inject: bool, work: Path) -> None:
        self.work = work
        rng = random.Random(seed)
        loads = [
            ["motivating"],
            ["rectifier", "--A", repr(rng.uniform(100.0, 400.0)), "--nmax", "199"],
            ["bridge", "--A", repr(rng.uniform(100.0, 400.0)), "--nmax", "199",
             "--idc", repr(rng.uniform(0.5, 20.0)),
             "--delta", repr(rng.uniform(0.05, math.pi / 2 - 0.05))],
        ]
        self.inputs: list = loads[: count or len(loads)]
        if inject:
            self.inputs.append(None)
        self.branches: dict[Path, list[str]] = {}

    def setup_files(self) -> list[Path]:
        """Files a set-up pass writes."""
        return [self.work / f"{name}{i}.json" for i in range(len(self.inputs))
                for name in ("spectrum", "dec", "cond", "report")]

    def setup(self, run: Callable[[Op], object]) -> None:
        w = self.work
        for i, argv in enumerate(self.inputs):
            spectrum, dec = w / f"spectrum{i}.json", w / f"dec{i}.json"
            cond, report = w / f"cond{i}.json", w / f"report{i}.json"
            if argv is None:
                # a decomposition whose branch lacks its element: exit 2
                dec.write_text('{"supply": {"amplitude": 1.0, "omega": 1.0},'
                               ' "branches": [{"label": "memristor"}]}', encoding="utf-8")
                cond.write_text(dec.read_text(encoding="utf-8"), encoding="utf-8")
                continue
            run(Op("load-model", ["load-model", *argv, "-o", str(spectrum)], (spectrum,)))
            run(Op("characterize", ["characterize", str(spectrum), "-o", str(dec)],
                   (dec,), lambda dec=dec: check_characterize(dec)))
            run(Op("compensate",
                   ["compensate", str(spectrum), "-o", str(cond), "--report", str(report)],
                   (cond, report), lambda r=report, s=spectrum: check_compensate(r, s)))
            for network in (dec, cond):
                self.branches[network] = memory_branches(network)

    def chain(self, i: int) -> Iterator[Op]:
        w = self.work
        for tag in ("dec", "cond"):
            network, trace = w / f"{tag}{i}.json", w / f"trace_{tag}{i}.csv"
            yield Op("simulate", ["simulate", str(network), "-o", str(trace)],
                     (trace,), lambda trace=trace: check_trace(trace, self.sim_rows))
        for tag in ("dec", "cond"):
            network = w / f"{tag}{i}.json"
            for label in self.branches.get(network, []):
                loop = w / f"loop_{tag}{i}_{label}.csv"
                curve = w / f"loop_{tag}{i}_{label}_constitutive.csv"
                yield Op("hysteresis",
                         ["hysteresis", str(network), "--branch", label, "-o", str(loop),
                          "--constitutive-output", str(curve)],
                         (loop, curve))


WORKLOADS = {cls.name: cls for cls in (VerifyHighOrder, TraceEmit, BatchSmall)}
