"""Run the benchmark over several seeds and summarize it.

Run from the repository root:

    python3 perfbench/baseline.py --trace --out perfbench/results/NAME.json

It runs every workload with seeds 1 to 10, one run after another, never in
parallel, with the command and run length of BENCHMARK.json.  For every
workload and end-to-end metric it prints the median, the quartiles and the
spread (q3 - q1) / median next to the metric's bound.  Each run's item times
are kept.  With --trace it adds one traced run per workload and keeps its
whole per-layer table.  With --out it writes everything as JSON.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINE = re.compile(r"^(\S+) = (\S+) (\S+)$")
ITEM = re.compile(r"^item \d+: (\S+) s ")
SEEDS = range(1, 11)


def run(spec, workload, seed, trace):
    cmd = [c if c != "python3" else sys.executable for c in spec["command"]]
    cmd += ["--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(int(trace))]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                           f"{done.stdout}\n{done.stderr}")
    result = json.loads(lines[-1])
    table = {}
    provenance = None
    result["item_seconds"] = []
    for line in lines[:-1]:
        if (m := ITEM.match(line)):
            result["item_seconds"].append(float(m.group(1)))
        elif line.startswith("provenance: "):
            provenance = json.loads(line[len("provenance: "):])
        elif (m := LINE.match(line)):
            table[m.group(1)] = {"value": json.loads(m.group(2)),
                                 "unit": m.group(3)}
    return result, table, provenance


def summarize(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS),
           "workloads": {}}
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            result, _, provenance = run(spec, name, seed, trace=False)
            ok &= result["correct"] and not result["failed"]
            runs.append({"seed": seed, **result})
            out.setdefault("provenance", provenance)
            print(f"{name} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            summary[metric] = summarize(values, bound)
            s = summary[metric]
            print(f"  {metric}: median {s['median']:.6g} "
                  f"[{s['q1']:.6g}, {s['q3']:.6g}] spread {s['spread']:.4f} "
                  f"bound {bound} ({s['spread'] / bound:.2f} of bound)",
                  flush=True)
        entry = {"runs": runs, "summary": summary}
        if args.trace:
            result, table, _ = run(spec, name, SEEDS[0], trace=True)
            ok &= result["correct"]
            entry["traced"] = {"seed": SEEDS[0], "correct": result["correct"],
                               "table": table}
            print(f"  traced seed {SEEDS[0]}: correct={result['correct']} "
                  f"overhead {table['trace.overhead_s']['value']:.4f} s",
                  flush=True)
        out["workloads"][name] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
