"""Reproguard benchmark: one workload, one seed, one closed-loop run.

Run from the repository root:

    python3 perfbench/run.py --workload pc-dense --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it times encode and decode end to end with no wrappers
installed; with ``--trace 1`` it alternates plain and traced streams and
reports per-layer times and counts.  It prints its metrics by name and unit,
then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The codec is imported from this
checkout's ``src/``; without it the run exits with status 3 and prints no
result.  See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("pc-dense", "latent", "raw-full", "small-streams")
IMPORTS = 3  # fresh-interpreter imports per run; setup_s counts their median


def _import_bench():
    """Import the codec from this checkout's src/ and nowhere else."""
    if not (SRC / "reproguard" / "__init__.py").is_file():
        raise ImportError(f"no reproguard package under {SRC}")
    sys.path.insert(0, str(SRC))
    import bench
    import reproguard

    if Path(reproguard.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"reproguard was imported from {reproguard.__file__}")
    return bench


def _import_seconds(bench) -> float:
    """Median time to import the package (numpy included) in a fresh
    interpreter, at reference speed; one in-process import cannot be
    repeated."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import reproguard; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(IMPORTS):
        out = subprocess.run(
            [sys.executable, "-B", "-c", code, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(out.stdout) / bench.reference_loop() * bench.REF_SECONDS)
    return statistics.median(times)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    # one thread of BLAS: the loop is a single caller on a two-core machine;
    # this has to happen before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # leave no bytecode behind, so that in a fresh checkout set-up time never
    # depends on a cache written by an earlier run
    sys.dont_write_bytecode = True
    try:
        bench = _import_bench()
    except ImportError as exc:
        print(f"cannot import the codec: {exc}", file=sys.stderr)
        return 3
    import_s = 0.0 if args.trace else _import_seconds(bench)

    w = bench.WORKLOADS[args.workload]
    report = bench.run_workload(w, args.seed, args.seconds, bool(args.trace), import_s)
    bench.print_report(w, args.seed, args.seconds, bool(args.trace), report)
    print(json.dumps(bench.result(report, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
