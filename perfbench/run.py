#!/usr/bin/env python3
"""Run one gausdet benchmark workload and print its result.

    python3 perfbench/run.py --workload mc-draw --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` and from nowhere else.  The workload is set up three times (the
median is ``setup_s``), then runs whole rounds of the same operations until
``--seconds`` have passed, and at least two.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  An untraced run of an in-process workload takes
``peak_rss_mb`` from a fresh interpreter that sets up and repeats round 0
(``--probe-memory``).  A traced run
alternates untraced and traced rounds, takes the per-layer metrics from the
traced ones, writes its spans to ``perfbench/out/`` as JSON lines, and
reports the difference between the two kinds of round as
``trace.overhead_s``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS runs single-threaded, set before numpy loads here or in any child.
# With two BLAS threads on a 2-vCPU host, mc-stat ran 10-30% slower and
# spread more, waiting on whichever vCPU the host was starving; a parallel
# change to the program should bring its own threads, not inherit these.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = {
    "mc-draw": ("wl_mc", "McDraw"),
    "mc-stat": ("wl_mc", "McStat"),
    "exact": ("wl_exact", "Exact"),
    "cli-cold": ("wl_cli", "CliCold"),
}
IN_PROCESS = {"mc-draw", "mc-stat", "exact"}
SETUP_REPEATS = 3
MIN_ROUNDS = 2  # a cli-cold round takes 12-14 s; a lower quartile needs two
CHILD_TIMEOUT_S = 120
E2E_UNITS = {
    "setup_s": "s",
    "round_s": "s",
    "key_op_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print the seconds it took, and exit")
    p.add_argument("--probe-memory", action="store_true",
                   help="set up, repeat round 0, print the peak resident "
                        "size, and exit")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def workload(name: str):
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)()


def timed_setup(name: str, seed: int):
    """Import the program, build the inputs, warm every entry point up."""
    t0 = time.perf_counter()
    wl = workload(name)
    wl.setup(seed)
    return wl, time.perf_counter() - t0


def child(name: str, seed: int, mode: str, **env) -> dict:
    """Run ``run.py <mode>`` in a fresh interpreter; returns its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), mode],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        env={**os.environ, **env})
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def set_up(name: str, seed: int):
    """Set up SETUP_REPEATS times; returns (workload, median seconds).

    An in-process workload pays for importing gausdet, which happens once
    per interpreter, so its other samples come from fresh interpreters.
    """
    if name in IN_PROCESS:
        times = [float(child(name, seed, "--setup-only")["setup_s"])
                 for _ in range(SETUP_REPEATS - 1)]
        wl, own = timed_setup(name, seed)
        times.append(own)
    else:
        workload(name)  # imports numpy, which is the benchmark's, not the CLI's
        times = []
        for _ in range(SETUP_REPEATS):
            wl, seconds = timed_setup(name, seed)
            times.append(seconds)
    return wl, statistics.median(times)


def measure(wl, seconds: int, trace: bool, tracer):
    """Whole rounds until ``seconds`` have passed, at least MIN_ROUNDS;
    odd rounds traced."""
    import tracing
    from ledger import TIMED, TRACED, Ledger

    ledger = Ledger(tracer=tracer)
    missing: set = set()
    start = time.perf_counter()
    r = 0
    while True:
        traced = trace and r % 2 == 1
        ledger.start_round(r, TRACED if traced else TIMED)
        uninstall = None
        if traced:
            uninstall, missing = tracing.install(tracer, wl.modules)
        try:
            wl.run_round(ledger, r)
        finally:
            if uninstall is not None:
                uninstall()
        r += 1
        if time.perf_counter() - start >= seconds and r >= MIN_ROUNDS:
            return ledger, missing


def probe_memory(name: str, seed: int) -> float:
    """Peak resident MB of this interpreter through set-up and round 0."""
    from ledger import PROBE, Ledger

    wl = workload(name)
    wl.setup(seed)
    ledger = Ledger()
    ledger.start_round(0, PROBE)
    wl.run_round(ledger, 0)
    # VmHWM, not ru_maxrss: a spawned child's ru_maxrss starts from its
    # parent's peak, which here is the measuring process's own.
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    return int(kb) / 1024.0


def peak_rss_mb(name: str, seed: int) -> float:
    """Peak resident size of the memory probe of an in-process workload.

    The probe is a fresh interpreter that sets up and repeats round 0, so
    interpreter, modules, inputs and whatever the program keeps between
    calls are all counted, and not the measuring process's history.  Two
    allocator settings hold its figure still: glibc's mmap threshold is
    fixed (left dynamic, 2 of 8 identical mc-draw probes peaked at 173 MB
    instead of 143 MB), and numpy's huge-page advice is off, so that the
    host's free huge pages cannot round the figure up.
    """
    probe = child(name, seed, "--probe-memory", MALLOC_MMAP_THRESHOLD_="131072",
                  NUMPY_MADVISE_HUGEPAGE="0")
    return float(probe["peak_rss_mb"])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gausdet" / "__init__.py").is_file():
        print(f"no gausdet sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)  # for the CLI and set-up children

    if args.setup_only:
        _, seconds = timed_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0
    if args.probe_memory:
        print(json.dumps({"peak_rss_mb": probe_memory(args.workload, args.seed)}))
        return 0

    wl, setup_s = set_up(args.workload, args.seed)
    wl.prepare_checks()  # the checks' own references, before the measured rounds
    from ledger import TRACED, typical_seconds
    from tracing import Tracer

    tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    ledger, missing = measure(wl, args.seconds, bool(args.trace), tracer)

    if args.trace:
        import layers
        import wl_cli

        try:
            probe = wl_cli.probes(wl_cli.make_configs(args.seed))
        except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
            ledger.unexpected.append(f"cli probe: {exc!r}")
            print(f"unexpected failure: cli probe: {exc!r}", file=sys.stderr)
            probe = {}
        overhead = (typical_seconds(ledger.timed(mode=TRACED))
                    - typical_seconds(ledger.timed()))
        values = layers.compute(args.workload, tracer.spans, missing, probe,
                                overhead)
        for name in sorted(set(layers.names()) - set(values)):
            print(f"per-layer metric {name} is missing", file=sys.stderr)
        metrics = {k: {"value": v, "unit": layers.unit(k)} for k, v in values.items()}
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = dict(wl.end_to_end(ledger), setup_s=setup_s)
        if args.workload in IN_PROCESS:  # cli-cold reads its calls' own peaks
            values["peak_rss_mb"] = peak_rss_mb(args.workload, args.seed)
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}

    print(f"{args.workload}: seed {args.seed}, {ledger.round + 1} rounds, "
          f"{ledger.attempted} operations attempted, {ledger.failed} failed, "
          f"{len(ledger.unexpected)} unexpected", file=sys.stderr)
    print(json.dumps({
        "correct": not ledger.unexpected,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
