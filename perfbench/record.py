"""Run the benchmark over several seeds and record the baseline.

    python3 perfbench/record.py                       # every workload, 10 seeds
    python3 perfbench/record.py --workloads awgn_sweep --seeds 5
    python3 perfbench/record.py --write perfbench/baseline.json

For each workload it runs ``run.py --trace 0`` once per seed and prints, per
end-to-end metric, the median of the per-run values and their spread: the
distance between the first and third quartile as a share of the median,
next to the metric's bound from BENCHMARK.json. It then makes one
``run.py --trace 1`` run, at the first seed, for the per-layer table. Every
run lasts BENCHMARK.json's ``run_seconds``. ``--write`` stores both, with
the machine they were measured on, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    detail = next(json.loads(line[len("detail "):]) for line in lines
                  if line.startswith("detail "))
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(proc.stderr, file=sys.stderr)
    return result, detail


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median) as statistics.quantiles(n=4) gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "platform": platform.platform(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=int, default=10, help="trace-0 runs per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--write", metavar="PATH", help="write the record as JSON")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    runs = {w: [] for w in args.workloads}
    for seed in seeds:  # seed-major, so slow drift of the machine hits every workload
        for w in args.workloads:
            started = time.perf_counter()
            runs[w].append(run_once(w, seed, seconds, 0))
            print(f"# {w} seed {seed}: {time.perf_counter() - started:.1f} s wall",
                  file=sys.stderr, flush=True)

    record = {"machine": machine(), "run_seconds": seconds,
              "seeds": list(seeds), "workloads": {}}
    for w in args.workloads:
        results = [r for r, _ in runs[w]]
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "end_to_end": {}}
        print(f"\n{w}: {entry['failed']}/{entry['attempted']} operations failed")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median, rel = spread(values)
            unit = results[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = {"median": median, "unit": unit, "spread": rel,
                                         "bound": bound, "values": values}
            print(f"  {name:14s} {median:12.6g} {unit:7s} spread {rel:7.2%} "
                  f"bound {bound:.0%} ({rel / bound:.2f} of bound)")
        pooled = sorted(x for _, d in runs[w] for x in d["op_s"])
        n = len(pooled)
        if n >= 11:
            entry["op_s_tail"] = {"percentile": 100.0 * (n - 10) / n,
                                  "value": pooled[n - 11], "samples": n}
            print(f"  op_s_tail      {pooled[n - 11]:12.6g} s       "
                  f"p{100.0 * (n - 10) / n:.0f} of {n} pooled operations")

        traced, _ = run_once(w, args.first_seed, seconds, 1)
        entry["per_layer"] = traced["metrics"]
        for name, metric in traced["metrics"].items():
            print(f"  {name:30s} {metric['value']:12.6g} {metric['unit']}")
        record["workloads"][w] = entry

    if args.write:
        Path(args.write).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
