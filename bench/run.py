"""memsynth benchmark: drives ``memsynth.cli.main(argv)`` in process.

    python3 bench/run.py --workload verify-high-order --seed 1 --seconds 30 --trace 0

Run from a source checkout; the package is imported from ``src/``.  One
process runs one workload as a closed loop with one client: each operation
starts when the previous one has returned.  BLAS and OpenMP are pinned to
one thread.  Inputs come from ``--seed`` and are written to a scratch
directory under ``.bench_out/``, which is removed when the run ends.

A run sets the workload up several times (``setup_s`` is the median), then
loops over its inputs in rounds until ``--seconds`` have passed, finishing
the round in progress.  Every output is checked; an operation that exits
non-zero or fails its check is counted in ``failed``.  A reference kernel is
timed after every operation, and every end-to-end time is scaled to the
reference host speed (see ``hostspeed.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs an
untraced warm-up round, then alternates traced and untraced rounds.  It
reports per-layer metrics per pass (one setup plus one round) from the
traced rounds, states the tracing overhead as the difference of the traced
and untraced medians, and writes the spans to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import tracer as tracing
from hostspeed import REFERENCE_MS, HostSpeed
from workloads import WORKLOADS, Op, hashed_bytes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

TIMED_SUBCOMMANDS = ("characterize", "compensate", "simulate", "hysteresis")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile).

    That is the 11th largest sample.  Below 21 samples it would sit under
    the median, so such a short run reports its maximum as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def import_cli_in_new_process() -> None:
    """Import ``memsynth.cli`` in a new interpreter, as every CLI call does.

    This process keeps numpy loaded, so only a new one pays for the whole
    import chain.
    """
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, sys.argv[1]); import memsynth.cli",
                    str(SRC)], stdout=subprocess.DEVNULL, check=True)


def fresh_cli():
    """Import ``memsynth.cli`` anew in this process, for the calls that follow."""
    for name in [m for m in sys.modules if m == "memsynth" or m.startswith("memsynth.")]:
        del sys.modules[name]
    return importlib.import_module("memsynth.cli")


class Runner:
    """Runs operations, times them, checks their outputs and counts failures."""

    def __init__(self, tracer: tracing.Tracer) -> None:
        self.tracer = tracer
        self.cli = None
        self.traced = False
        #: which latency samples an operation joins: False, True or "warmup"
        self.sample_key: object = False
        self.hashing = False
        self.weight_key: object = None
        self.speed = HostSpeed()
        #: (subcommand, sample key, start, end) of every call that passed
        self.calls: list[tuple[str, object, float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest = hashlib.sha256()
        self.op_phase: dict[int, object] = {}
        self.first: tuple[Op, list[bytes]] | None = None

    def _call(self, argv: list[str]):
        try:
            return self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            return exc.code
        except Exception as exc:  # a crash is one failed operation, not the end of the run
            traceback.print_exc(file=sys.stderr)
            return f"raised {type(exc).__name__}: {exc}"

    def _fail(self, op: Op, reason: str) -> None:
        self.failed += 1
        self.failures.append(f"{op.sub}: {reason}")

    def run(self, op: Op) -> int | None:
        """Index of the call in ``calls`` when it passed its check, else None."""
        self.attempted += 1
        op_id = self.attempted
        # every call writes new files: overwriting makes ext4 flush on close,
        # which times the shared disk rather than memsynth
        for path in op.outputs:
            path.unlink(missing_ok=True)
        start = time.perf_counter()
        if self.traced:
            self.op_phase[op_id] = self.weight_key
            self.tracer.op = op_id
            code = self.tracer.call("cli", self._call, (op.argv,), {}, lambda *_: sum(
                p.stat().st_size for p in op.outputs if p.exists()))
        else:
            code = self._call(op.argv)
        end = time.perf_counter()
        self.speed.sample()
        if code != 0:
            return self._fail(op, f"exit {code}")
        reason = op.check() if op.check else None
        if reason:
            return self._fail(op, reason)
        self.calls.append((op.sub, self.sample_key, start, end))
        if self.hashing:
            for path in op.outputs:
                self.digest.update(path.name.encode() + b"\0" + hashed_bytes(op, path) + b"\0")
        if self.first is None and self.weight_key is not None and self.weight_key[0] == "round":
            self.first = (op, [p.read_bytes() for p in op.outputs])
        return len(self.calls) - 1

    def run_chain(self, ops) -> list[int] | None:
        """Indices in ``calls`` of a chain that completed, else None."""
        done = []
        for op in ops:
            index = self.run(op)
            if index is None:
                return None
            done.append(index)
        return done

    def scaled_ms(self, index: int) -> float:
        """Latency of a call in ms at reference host speed."""
        _, _, start, end = self.calls[index]
        return (end - start) * 1e3 * self.speed.scale(start, end)

    def latency(self, sub: str, key: object, scaled: bool = True) -> list[float]:
        return [self.scaled_ms(i) if scaled else (c[3] - c[2]) * 1e3
                for i, c in enumerate(self.calls) if c[0] == sub and c[1] == key]

    def repeat_first(self) -> str:
        """Run the first timed operation again; its outputs must not change."""
        if self.first is None:
            return "no timed operation completed"
        op, before = self.first
        self.attempted += 1
        for path in op.outputs:
            path.unlink(missing_ok=True)
        code = self._call(op.argv)
        after = [p.read_bytes() if p.exists() else b"" for p in op.outputs]
        if code != 0 or after != before:
            self._fail(op, "repeated first operation changed its outputs")
            return "outputs differ"
        return "identical bytes"


def run_workload(args) -> tuple[dict, list[str]]:
    workload_cls = WORKLOADS[args.workload]
    work = OUT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)  # a killed run may leave its directory
    try:
        return measure(workload_cls(args.seed, args.spectra, args.inject_failure, work), args)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(workload, args) -> tuple[dict, list[str]]:
    trace = bool(args.trace)
    tracer = tracing.Tracer()
    runner = Runner(tracer)
    lines = [f"workload {workload.name}  seed {args.seed}  closed loop, 1 client, 1 process"]

    setup_times: list[float] = []
    speed = runner.speed

    def setup_pass() -> None:
        saved = runner.traced, runner.sample_key, runner.hashing, runner.weight_key
        rep = len(setup_times)
        runner.traced, runner.sample_key = trace, trace
        runner.hashing, runner.weight_key = rep == 0, ("setup", rep)
        # a pass writes new files, as every call does (see Runner.run)
        for path in workload.setup_files():
            path.unlink(missing_ok=True)
        gc.unfreeze()
        runner.cli = fresh_cli()
        speed.sample()
        spent = speed.spent_s
        start = time.perf_counter()
        import_cli_in_new_process()
        with tracer.patched() if trace else nullcontext():
            workload.setup(runner.run)
        end = time.perf_counter()
        # kernel samples taken after the pass's own operations are not set-up
        spent = speed.spent_s - spent
        speed.sample()
        setup_times.append((end - start - spent) * speed.scale(start, end))
        # Freeze what exists now (numpy, memsynth's modules, this harness), so
        # a full collection inside a timed call scans only that call's own
        # objects.  In process the heap outlives every call; a full scan of
        # it took about 6 ms, longer than a whole compensate call.
        gc.collect()
        gc.freeze()
        runner.traced, runner.sample_key, runner.hashing, runner.weight_key = saved

    # An untraced run spreads its later set-up passes over the timed phase, so
    # set-up is sampled across the same stretch of time as the operations.  A
    # traced run sets up first: a pass re-imports memsynth, which would drop
    # the wrappers of a traced round.
    for _ in range(workload.setup_reps if trace else 1):
        setup_pass()

    rounds = {False: 0, True: 0, "warmup": 0}
    chains: dict[object, list[list[int]]] = {False: [], True: [], "warmup": []}
    start = time.perf_counter()
    while True:
        done = sum(rounds.values())
        traced = trace and done % 2 == 1
        # the overhead leaves out a traced run's first round: first calls
        # also pay one-time costs such as cold caches
        key = "warmup" if trace and done == 0 else traced
        runner.traced, runner.sample_key = traced, key
        runner.weight_key = ("round", traced)
        runner.hashing = done == 0
        with tracer.patched() if traced else nullcontext():
            for i in range(len(workload.inputs)):
                done_calls = runner.run_chain(workload.chain(i))
                if done_calls is not None:
                    chains[key].append(done_calls)
                elapsed = time.perf_counter() - start
                if len(setup_times) < workload.setup_reps and (
                        elapsed >= len(setup_times) * args.seconds / workload.setup_reps):
                    setup_pass()
                # A run of independent inputs may stop inside an untraced round
                # once one round is whole; a traced run's comparison round runs
                # a quarter of the inputs first.  Traced rounds stay whole, for
                # figures per pass.
                may_stop = not workload.whole_rounds and done and key is False
                if may_stop and elapsed >= args.seconds and (
                        not trace or i + 1 >= len(workload.inputs) // 4):
                    break
        rounds[key] += 1
        elapsed = time.perf_counter() - start
        # at least two whole rounds: a slow patch of the host must not leave a
        # run of a fixed input set with half the samples of the others
        enough = sum(rounds.values()) >= (2 if workload.whole_rounds else 1)
        compared = not trace or (rounds[True] and rounds[False])
        if elapsed >= args.seconds and enough and compared:
            break
    runner.traced = runner.hashing = False
    while len(setup_times) < workload.setup_reps:
        setup_pass()
    repeat = runner.repeat_first()

    lines.append(f"setup: {workload.setup_reps} passes, "
                 f"median {statistics.median(setup_times):.4f} s")
    partial = "" if workload.whole_rounds else " (the last may be partial)"
    warmup = f" after {rounds['warmup']} warm-up" if trace else ""
    lines.append(f"rounds: {rounds[False]} untraced{partial}, {rounds[True]} traced{warmup}, "
                 f"{len(workload.inputs)} inputs each, {elapsed:.1f} s")
    lines.append(f"host speed: reference kernel median {speed.median_ms():.4f} ms over "
                 f"{len(speed.ms)} samples; times below are scaled to {REFERENCE_MS} ms "
                 "(raw = unscaled)")
    spectra = {key: len(done) for key, done in chains.items()}
    chain_s = {key: sum(runner.scaled_ms(i) for chain in done for i in chain) / 1e3
               for key, done in chains.items()}
    metrics: dict[str, dict] = {}
    missing: list[str] = []
    for sub in TIMED_SUBCOMMANDS:
        samples = runner.latency(sub, False)
        if not samples:
            # nothing to report: an untraced run cannot count as correct
            missing.append(sub)
            lines.append(f"{sub + '_ms':<16} no successful untraced call")
            samples = [0.0]
        value, pct = tail(samples)
        metrics[f"{sub}_ms.p50"] = {"value": statistics.median(samples), "unit": "ms"}
        metrics[f"{sub}_ms.tail"] = {"value": value, "unit": "ms"}
        if sub not in missing:
            raw = statistics.median(runner.latency(sub, False, scaled=False))
            lines.append(f"{sub + '_ms':<16} p50 {statistics.median(samples):10.3f}   "
                         f"tail p{pct:.2f} {value:10.3f} ms   n={len(samples)}   "
                         f"raw p50 {raw:.3f}")
    rate = spectra[False] / chain_s[False] if chain_s[False] else 0.0
    metrics["spectra_per_s"] = {"value": rate, "unit": "1/s"}
    metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"}
    lines.append(f"spectra_per_s    {rate:.4f}  ({spectra[False]} spectra through the chain, "
                 "time inside memsynth only)")
    lines.append(f"peak_rss_mb      {metrics['peak_rss_mb']['value']:.1f} MiB")

    if trace:
        metrics = trace_report(workload, args, tracer, runner, rounds, spectra, chain_s, lines)

    fail_ratio = runner.failed / runner.attempted if runner.attempted else 1.0
    lines.append(f"operations: attempted {runner.attempted}  failed {runner.failed}  "
                 f"fail_ratio {fail_ratio:.6g}")
    lines.extend(f"  FAILED {reason}" for reason in runner.failures[:10])
    lines.append(f"outputs sha256 (verification figures excluded): {runner.digest.hexdigest()}")
    lines.append(f"first operation repeated: {repeat}")
    result = {
        "correct": runner.failed == 0 and not (missing and not trace),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return result, lines


def trace_report(workload, args, tracer, runner, rounds, spectra, chain_s, lines) -> dict:
    weight = {}
    for op_id, (phase, _) in runner.op_phase.items():
        weight[op_id] = 1.0 / (workload.setup_reps if phase == "setup" else rounds[True])
    values, layer_self = tracer.aggregate(weight)
    total = sum(layer_self.values())
    lines.append("self time per pass (one setup + one round), traced:")
    for layer, ms in layer_self.items():
        share = 100.0 * ms / total if total else 0.0
        lines.append(f"  {layer:<11} {ms:12.3f} ms  {share:5.1f} %")
    lines.append("tracing overhead (traced - untraced median):")
    for sub in TIMED_SUBCOMMANDS:
        plain, traced = runner.latency(sub, False), runner.latency(sub, True)
        if plain and traced:
            base = statistics.median(plain)
            delta = statistics.median(traced) - base
            lines.append(f"  {sub + '_ms.p50':<20} {delta:+10.3f} ms  "
                         f"{100 * delta / base:+6.1f} %")
        else:
            lines.append(f"  {sub + '_ms.p50':<20} n/a (no traced and untraced pair)")
    if chain_s[False] and chain_s[True]:
        plain, traced = spectra[False] / chain_s[False], spectra[True] / chain_s[True]
        lines.append(f"  {'spectra_per_s':<20} {traced - plain:+10.4f} 1/s  "
                     f"{100 * (traced - plain) / plain:+6.1f} %")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    lines.append(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    return {name: {"value": value, "unit": tracing.unit(name)} for name, value in values.items()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spectra", type=int, default=None,
                        help="inputs per round (default: the workload's own count)")
    parser.add_argument("--inject-failure", action="store_true",
                        help="add one malformed input, to exercise failure counting")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "memsynth" / "cli.py").is_file():
        print(f"error: no memsynth sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  loaded once, before the first set-up pass

    result, lines = run_workload(args)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
