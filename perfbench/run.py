"""qamlink benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload ref_link --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src``. Every operation is one or more
``qamlink`` CLI commands run in-process through ``qamlink.cli.main``, and its
output files are checked before the next one starts.

--trace 0 times operations with tracing off. After one warm-up operation it
runs rounds of an operation at N workers (N = usable cores), one at 1 worker
and one set-up of a fresh interpreter, until the time is spent.
--trace 1 patches span-recording wrappers around the package's module-level
functions (see tracing.py), interleaves traced and untraced operations, and
reports the per-layer split. The exact counts must repeat across every traced
operation, at 1 and at N workers, and every wrapper must be gone afterwards.

Each metric is printed with its unit; the last line of standard output is the
JSON result. The metric names and units come from BENCHMARK.json. Exits 2
without a result when the package, the configuration files or BENCHMARK.json
are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import ROOT, WORKLOADS, Workload

SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_run"
THREADS_ENV = "QAMLINK_THREADS"

# counts that must repeat exactly for a fixed workload, at any worker count
EXACT_COUNTS = ("channel.normal_draws", "simulate.blocks", "modem.symbols",
                "simulate.psd_samples")

# Fresh-interpreter set-up: what every CLI invocation pays before any work.
_SETUP_CODE = """\
import time
start = time.perf_counter()
import qamlink
from qamlink.config import load_config
load_config("paper.cfg")
print(time.perf_counter() - start)
"""


class Bench:
    """Runs checked operations of one workload and keeps the tallies."""

    def __init__(self, workload: Workload, seed: int, workers: int):
        from qamlink import cli

        self.workload = workload
        self.seed = seed
        self.workers = workers
        self.attempted = 0
        self.failed = 0
        self._main = cli.main
        self._out = OUT_DIR / workload.name

    def op(self, threads: int) -> float:
        """Run one operation at the given worker count; return its wall time."""
        os.environ[THREADS_ENV] = str(threads)
        op_seed = self.seed * 10_000 + 16 * self.attempted
        self.attempted += 1
        shutil.rmtree(self._out, ignore_errors=True)
        self._out.mkdir(parents=True)
        commands = self.workload.commands(op_seed, self._out)
        problems = []
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                codes = [self._main(argv) for argv in commands]
            elapsed = time.perf_counter() - start
            problems += [f"{argv[0]} exited {code}: {err.getvalue().strip()}"
                         for argv, code in zip(commands, codes) if code != 0]
            problems += self.workload.check(self._out)
        except Exception:  # a crashing operation is a failed one; keep measuring
            elapsed = time.perf_counter() - start
            problems.append(traceback.format_exc())
        if problems:
            self.failed += 1
            print(f"{self.workload.name} seed {op_seed} at {threads} worker(s) failed:",
                  *problems, sep="\n  ", file=sys.stderr)
        return elapsed


def measure_setup() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def tail_line(name: str, samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"{name:32s} {'n/a':>14s} s (n={n}, needs 11)"
    return f"{name:32s} {sorted(samples)[n - 11]:14.6g} s (p{100 * (n - 10) / n:.0f}, n={n})"


def _alternate(deadline: float, steps) -> None:
    """Run rounds of steps, at least one, until the next round would end past
    the deadline."""
    while True:
        start = time.perf_counter()
        for step in steps:
            step()
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return


def timed_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    deadline = time.perf_counter() + seconds
    bench.op(bench.workers)  # warm-up
    many: list[float] = []
    one: list[float] = []
    setup: list[float] = []
    # one set-up sample per round, so that drift in machine speed over the
    # run reaches set-up and operations alike
    _alternate(deadline, (lambda: many.append(bench.op(bench.workers)),
                          lambda: one.append(bench.op(1)),
                          lambda: setup.append(measure_setup())))
    op_s = statistics.median(many)
    op_s_1w = statistics.median(one)
    mbit = bench.workload.bits / 1e6
    metrics = {
        "op_s": op_s,
        "op_s_1w": op_s_1w,
        "mbps": mbit / op_s,
        "mbps_1w": mbit / op_s_1w,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"op_s": many, "op_s_1w": one, "setup_s": setup}
    return metrics, detail


def traced_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    from qamlink.simulate import worker_count

    import tracing

    deadline = time.perf_counter() + seconds
    bench.op(bench.workers)  # warm-up
    plain: list[float] = []
    plain_1w: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    count_sets: list[dict] = []

    def traced_op(threads):
        with tracing.Tracer() as tracer:
            elapsed = bench.op(threads)
        leftover = tracing.wrapped_sites()
        if leftover:
            bench.failed += 1
            print(f"trace self-test failed: still wrapped: {leftover}", file=sys.stderr)
        per_op = tracing.layer_metrics(tracer.spans, tracer.counts, bench.workload.bits,
                                       worker_count)
        count_sets.append({k: per_op[k] for k in EXACT_COUNTS})
        return elapsed, per_op

    def step_traced():
        elapsed, per_op = traced_op(bench.workers)
        traced.append(elapsed)
        layers.append(per_op)

    traced_op(1)
    _alternate(deadline, (lambda: plain.append(bench.op(bench.workers)),
                          step_traced,
                          lambda: plain_1w.append(bench.op(1))))
    drifting = [k for k in EXACT_COUNTS if len({c[k] for c in count_sets}) != 1]
    if drifting:
        bench.failed += 1
        print(f"trace self-test failed: counts differ between operations: {drifting}",
              file=sys.stderr)

    metrics = {name: statistics.median(run[name] for run in layers)
               for name in layers[0]}
    # ratios within a round, so that drift in machine speed between rounds cancels
    metrics["simulate.scaling_eff"] = statistics.median(
        one / (bench.workers * many) for one, many in zip(plain_1w, plain))
    metrics["trace.overhead_frac"] = statistics.median(
        t / p for t, p in zip(traced, plain)) - 1.0
    detail = {"op_s": plain, "op_s_1w": plain_1w, "op_s_traced": traced,
              "exact_counts": count_sets}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "qamlink" / "__init__.py", ROOT / "paper.cfg",
                           ROOT / "qpsk.cfg", ROOT / "BENCHMARK.json") if not p.is_file()]
    if missing:
        print(f"error: not a qamlink checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workers = len(os.sched_getaffinity(0))
    bench = Bench(WORKLOADS[args.workload], args.seed, workers)
    run = traced_run if args.trace else timed_run
    units = metric_units("per_layer" if args.trace else "end_to_end")
    measured, detail = run(bench, args.seconds)
    metrics = {name: measured[name] for name in units}

    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(tail_line("op_s_tail", detail["op_s"]))
        print(tail_line("op_s_1w_tail", detail["op_s_1w"]))
    print(f"{'fail_frac':32s} {bench.failed / bench.attempted:14.6g} "
          f"({bench.failed}/{bench.attempted})")
    print("detail " + json.dumps({"workload": args.workload, "seed": args.seed,
                                  "workers": workers, **detail}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
