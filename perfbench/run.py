"""Benchmark of torusnf: one workload per process, a closed loop, every output gated.

Run from the repository root:

    python3 perfbench/run.py --workload n2-reparam --seed 1 --seconds 10 --trace 0

One caller issues items one after another: each starts when the previous
one returns, cycling through the seed's batch until every input has run once
and --seconds have passed.  BLAS and OpenMP are pinned to one thread.

--trace 0 reports the end-to-end metrics with tracing off.  --trace 1 runs
the batch once untraced and twice traced, checks that the three passes give
bit-identical outputs and that the two traced passes give identical counts,
and reports the per-layer metrics.  Every metric is printed by name with its
unit; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Cold set-ups per run: this process, then fresh interpreters, half of them
# before the timed loop and half after it, so that the median spans the run.
SETUP_SAMPLES = 9
ACCURACY_FLOOR = 1e-16

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one cold set-up, print it as JSON and exit")
    return p.parse_args(argv)


def set_up(name, seed):
    """Import the program, make the inputs and make one warm-up call.

    Returns (workload, items, seconds).  The clock starts before numpy and
    torusnf are imported, so work moved to import time counts as set-up.
    """
    start = time.perf_counter()
    import torusnf
    import workloads

    if Path(torusnf.__file__).resolve().parent != SRC / "torusnf":
        raise RuntimeError(f"imported torusnf from {torusnf.__file__}, "
                           f"not from {SRC}")
    wl = workloads.WORKLOADS.get(name)
    if wl is None:
        raise SystemExit(f"unknown workload {name!r}; choose from "
                         f"{sorted(workloads.WORKLOADS)}")
    items = wl.make_batch(seed)
    wl.call(wl.make_warm_input())
    return wl, items, time.perf_counter() - start


def cold_setup_seconds(args):
    """One set-up in a fresh interpreter, as --setup-only reports it."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def closed_loop(wl, items, seconds):
    outcomes = []
    start = time.perf_counter()
    while len(outcomes) < len(items) or time.perf_counter() - start < seconds:
        outcomes.append(wl.run(items[len(outcomes) % len(items)]))
    return outcomes, time.perf_counter() - start


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown: not a git checkout"
    return "unknown"


def provenance(wl, seed, n_items):
    import numpy

    lines = {p.stem: len(p.read_text().splitlines())
             for p in sorted((SRC / "torusnf").glob("*.py"))}
    lines["total"] = sum(lines.values())
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "workload": wl.name,
        "seed": seed,
        "batch": wl.batch,
        "items": n_items,
        "src_lines": lines,
    }


def report_items(items, outcomes):
    for i, out in enumerate(outcomes):
        item = items[i % len(items)]
        chop = f" chop_mass={item.chop_mass:.3e}" if item.chop_mass else ""
        status = f"FAILED {out.failure}" if out.failure else "ok"
        print(f"item {i}: {out.seconds:.4f} s error={out.error:.3e}{chop} {status}")


def end_to_end(outcomes, wall, setups):
    good = [o for o in outcomes if not o.failure]
    errors = [o.error for o in outcomes if not math.isnan(o.error)]
    worst = max(errors) if errors else 1.0
    return {
        "items_per_s": len(good) / wall,
        "item_p50_s": statistics.median(o.seconds for o in (good or outcomes)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy_digits": -math.log10(max(worst, ACCURACY_FLOOR)),
    }


def traced_run(wl, items):
    """Untraced pass, then two traced passes; returns (outcomes, problems, metrics)."""
    import tracer

    # with no time to fill, the loop makes exactly one pass over the batch
    plain, plain_wall = closed_loop(wl, items, 0.0)
    with tracer.LayerTracer() as first:
        traced, traced_wall = closed_loop(wl, items, 0.0)
    with tracer.LayerTracer() as second:
        again, _ = closed_loop(wl, items, 0.0)

    problems = []
    prints = [[o.fingerprint for o in run] for run in (plain, traced, again)]
    if not prints[0] == prints[1] == prints[2]:
        problems.append("traced outputs differ from untraced outputs")
    if first.exact_counts() != second.exact_counts():
        diff = sorted(k for k, v in first.exact_counts().items()
                      if second.exact_counts()[k] != v)
        problems.append(f"counts differ between traced passes: {diff}")
    silent = [layer for layer in wl.layers if not first.calls[layer]]
    if silent:
        problems.append(f"layers never called: {silent}")

    table = first.metrics()
    table["item.self_s"] = table[f"{wl.entry}.self_s"]
    table["trace.overhead_s"] = traced_wall - plain_wall
    print(f"untraced pass {plain_wall:.4f} s, traced pass {traced_wall:.4f} s")
    return plain + traced + again, problems, table


def per_layer_units():
    """Per-layer metrics every workload reports, name -> unit.

    A count is exact and must repeat exactly from run to run, so counts are
    kept for every layer, also where a workload never reaches the layer and
    the count is 0.  A time must be a live measurement, and a time that reads
    exactly the same on every run is refused; a layer a workload never
    reaches would time exactly 0.0 s on every run of it.  So times are kept
    only for the layers that every workload reaches.  The full table, with
    the times of every layer, is printed on every traced run.
    """
    import tracer
    import workloads

    shared = [layer for layer in tracer.LAYERS
              if all(layer in w.layers for w in workloads.WORKLOADS.values())]
    units = {}
    for layer in shared:
        units[f"{layer}.s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units["item.self_s"] = "s"
    for layer in tracer.LAYERS:
        units[f"{layer}.calls"] = "count"
    for counter in tracer.COUNTERS:
        units[counter] = "count"
    units["trace.overhead_s"] = "s"
    return units


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "torusnf" / "__init__.py").is_file():
        print(f"no torusnf sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))

    wl, items, setup_s = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    problems = []
    if args.trace:
        outcomes, problems, table = traced_run(wl, items)
        units = per_layer_units()
        for name, value in table.items():
            unit = "count" if isinstance(value, int) else "s"
            print(f"{name} = {value!r} {unit}")
        metrics = {name: {"value": table[name], "unit": unit}
                   for name, unit in units.items()}
    else:
        fresh = SETUP_SAMPLES - 1
        setups = [setup_s] + [cold_setup_seconds(args) for _ in range(fresh // 2)]
        outcomes, wall = closed_loop(wl, items, args.seconds)
        setups += [cold_setup_seconds(args) for _ in range(fresh - fresh // 2)]
        print(f"set-up samples: {[round(s, 4) for s in setups]}")
        values = end_to_end(outcomes, wall, setups)
        for name, value in values.items():
            print(f"{name} = {value!r} {END_TO_END_UNITS[name]}")
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}

    report_items(items, outcomes)
    failed = sum(1 for o in outcomes if o.failure)
    print(f"failed_frac = {failed / len(outcomes)!r} (failed {failed} "
          f"of {len(outcomes)} attempted)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print("provenance: " + json.dumps(provenance(wl, args.seed, len(outcomes))))
    print(json.dumps({"correct": not failed and not problems,
                      "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
