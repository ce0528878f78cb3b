"""Interleaved A/B timing of one memsynth subcommand on two source trees, in one process.

    python tools/ab_chain.py TREE_A TREE_B compensate spectrum1.json spectrum2.json ...
    python tools/ab_chain.py TREE_A TREE_B hysteresis dec.json -- --branch memcapacitor --periods 1
    python tools/ab_chain.py TREE_A TREE_B load-model rectifier bridge -- --nmax 199

The input files are spectra, or decompositions for ``simulate`` and
``hysteresis``; ``load-model`` takes model names in their place.  Arguments
after ``--`` are passed on to the subcommand.
Each tree's ``src/memsynth`` is imported into this process as its own copy of
the package.  Each of :data:`ROUNDS` rounds runs the subcommand once per file
and tree, A first in even rounds and B first in odd ones, and times
``cli.main``.  Prints the median milliseconds per file and tree, then over all
calls, with B's change against A.  Exits 1 if a call exits non-zero or an
output file differs between the trees in any round.  A ``characterize``
document is compared without its ``verification`` block, whose error figures
may differ in their last bits, as the golden tests and the benchmark digest
do.  BLAS is held to one thread, as in ``bench/run.py``.
"""

import importlib
import os
import re
import statistics
import sys
import tempfile
import time
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROUNDS = 15
#: output flags of the subcommands that take one input file or model name
OUTPUTS = {
    "load-model": ("-o",),
    "characterize": ("-o",),
    "compensate": ("-o", "--report"),
    "report": ("-o",),
    "simulate": ("-o",),
    "hysteresis": ("-o", "--constitutive-output"),
}
#: the last key of a ``characterize`` document, as the CLI writes it
VERIFICATION = re.compile(rb',\n  "verification": \{[^{}]*\}')


def load(tree: str) -> dict:
    """The ``memsynth`` modules of ``tree``, imported afresh."""
    for name in [m for m in sys.modules if m.partition(".")[0] == "memsynth"]:
        del sys.modules[name]
    sys.path.insert(0, str(Path(tree, "src").resolve()))
    try:
        importlib.import_module("memsynth.cli")
    finally:
        sys.path.pop(0)
    return {m: mod for m, mod in sys.modules.items() if m.partition(".")[0] == "memsynth"}


def compared(command: str, path: Path):
    """The bytes of an output file as the trees are compared on them; None if it is missing."""
    if not path.exists():
        return None
    data = path.read_bytes()
    return VERIFICATION.sub(b"", data) if command == "characterize" else data


def main(tree_a: str, tree_b: str, command: str, *files: str, extra: tuple = ()) -> int:
    trees = {"A": load(tree_a), "B": load(tree_b)}
    times = {(f, t): [] for f in files for t in trees}
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(ROUNDS):
            for f_index, source in enumerate(files):
                outputs = {}
                for tag in ("AB" if r % 2 == 0 else "BA"):
                    sys.modules.update(trees[tag])
                    paths = [Path(tmp, f"{tag}{f_index}{flag}") for flag in OUTPUTS[command]]
                    argv = [command, source, *extra]
                    for flag, path in zip(OUTPUTS[command], paths):
                        argv += [flag, str(path)]
                        path.unlink(missing_ok=True)  # a call that writes nothing reads None
                    start = time.perf_counter()
                    code = trees[tag]["memsynth.cli"].main(argv)
                    times[source, tag].append((time.perf_counter() - start) * 1e3)
                    outputs[tag] = [compared(command, p) for p in paths]
                    failed |= code != 0
                if outputs["A"] != outputs["B"]:
                    print(f"round {r}: {source}: outputs differ", file=sys.stderr)
                    failed = True
    rows = [(f, [times[f, "A"], times[f, "B"]]) for f in files]
    rows.append(("all", [sum((times[f, t] for f in files), []) for t in "AB"]))
    for name, (a, b) in rows:
        ma, mb = statistics.median(a), statistics.median(b)
        print(f"{name}: A {ma:.3f} ms  B {mb:.3f} ms  ({100.0 * (mb / ma - 1.0):+.1f} %)")
    return 1 if failed else 0


if __name__ == "__main__":
    args, extra = sys.argv[1:], []
    if "--" in args:
        args, extra = args[: args.index("--")], args[args.index("--") + 1 :]
    if len(args) < 4 or args[2] not in OUTPUTS:
        sys.exit(__doc__)
    sys.exit(main(*args, extra=tuple(extra)))
