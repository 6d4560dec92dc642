"""The curvedet benchmark.

    python3 perfbench/run.py --workload decide-sweep --seed 1 --seconds 15 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory.  Each workload is a closed loop with one client: the next
operation starts when the previous one has returned.  With `--trace 0`
it prints the end-to-end metrics, timed with tracing off; with
`--trace 1` it runs one untraced and one traced pass over the seeded
pool and prints the per-layer metrics.  Outputs are checked outside the
timed region.  The last line of stdout is the result as JSON; a summary
with the input profile goes to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

WORKLOADS = ("cli-oneshot", "decide-sweep", "decide-census", "witness-mix")
MIN_OPS = 100  # so that ten samples lie beyond p90
WARMUP_S = 1.0
SETUP_REPEATS = 6  # fresh interpreters timed before the loop, and again after it

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    from tracing import TRACED

    units = {
        "cli.interp_start_ms": "ms",
        "cli.import_ms": "ms",
        "cli.numpy_imported": "count",
        "cli.modules_imported": "count",
    }
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "decide.iter_dhb_matrices.yielded": "count",
        "decide.iter_dhb_matrices.yield_ratio": "ratio",
        "decide.stable_threshold.decisions_per_call": "count/call",
        "witness.restrict_det_to_line.evals": "count",
        "witness.ideal_dim.cells": "count",
        "series.enumerate_hvectors.rows": "count",
        "trace.ops": "count",
        "trace.spans": "count",
        "trace.untraced_ops_per_s": "1/s",
        "trace.traced_ops_per_s": "1/s",
        "trace.overhead_ops_per_s": "1/s",
        "trace.speed_loop_ms": "ms",
    })
    return units


def seeded_rng(workload: str, seed: int) -> random.Random:
    """The generator every input of one run is drawn from."""
    return random.Random(f"{workload}:{seed}")


def _walls(argv, env, repeats: int) -> list[float]:
    """Wall seconds of `argv` run to completion, after one unmeasured run."""
    times = []
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def _import_argv(module: str) -> list[str]:
    return [sys.executable, "-c", f"import {module}"]


CLI_PROBE = (
    "import sys, time\n"
    "base = set(sys.modules)\n"
    "t0 = time.perf_counter()\n"
    "import curvedet.cli\n"
    "t1 = time.perf_counter()\n"
    "print((t1 - t0) * 1e3, int('numpy' in sys.modules), len(set(sys.modules) - base))\n"
)


def measure_cli_startup(env) -> dict[str, float]:
    """Interpreter start, `import curvedet.cli` time and what it imports."""
    interp = statistics.median(_walls([sys.executable, "-c", "pass"], env, SETUP_REPEATS))
    probes = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", CLI_PROBE], env=env, cwd=ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.split()
        probes.append((float(out[0]), int(out[1]), int(out[2])))
    return {
        "cli.interp_start_ms": interp * 1e3,
        "cli.import_ms": statistics.median(p[0] for p in probes),
        "cli.numpy_imported": max(p[1] for p in probes),
        "cli.modules_imported": max(p[2] for p in probes),
    }


class Checker:
    """Checks each output; a repeat of a pool item must equal its first,
    fully checked, output."""

    def __init__(self, workload):
        self.workload = workload
        self.first: dict[int, object] = {}
        self.failed = 0
        self.reported = 0

    def __call__(self, index: int, item, output, error: BaseException | None):
        from workloads import WrongOutput

        try:
            if error is not None:
                raise error
            if index in self.first:
                if output != self.first[index]:
                    raise WrongOutput("output differs from the same input's earlier output")
            else:
                self.workload.check(item, output)
                self.first[index] = output
        except Exception as exc:  # every failure counts; keep running
            self.failed += 1
            if self.reported < 5:
                self.reported += 1
                print(f"op on pool item {index} failed: {exc!r}", file=sys.stderr)
                if not isinstance(exc, WrongOutput):
                    traceback.print_exception(exc, file=sys.stderr)


def _run_op(op, item):
    t0 = time.perf_counter_ns()
    try:
        output, error = op(item), None
    except Exception as exc:
        output, error = None, exc
    return time.perf_counter_ns() - t0, output, error


class Speedometer:
    """Tracks how fast the machine runs Python while a run goes on.

    Between operations, at most every `INTERVAL_S`, it times a fixed
    pure-Python loop.  The host this benchmark was written on shares its
    cores: over minutes the loop's time drifts by up to 40%, and every
    timing with it.  `factor` rescales a run's timings to the reference
    speed, at which the loop takes `REFERENCE_MS`; that removes the
    drift common to the loop and the workload and leaves the program's
    own cost.
    """

    INTERVAL_S = 0.2
    LOOP = 50_000
    REFERENCE_MS = 4.0

    def __init__(self):
        self.samples_ms: list[float] = []
        self.last = 0.0

    def tick(self):
        if time.perf_counter() - self.last < self.INTERVAL_S:
            return
        t0 = time.perf_counter_ns()
        x = 0
        for i in range(self.LOOP):
            x += i * i % 7
        self.samples_ms.append((time.perf_counter_ns() - t0) / 1e6)
        self.last = time.perf_counter()

    def loop_ms(self) -> float:
        return statistics.median(self.samples_ms)

    def factor(self) -> float:
        """Multiply a time by this to express it at the reference speed."""
        return self.REFERENCE_MS / self.loop_ms()


def _pass(op, pool, checker: Checker, speed: Speedometer, tracer=None, label: str = "") -> list[int]:
    """Run every pool item once, checking each output outside the timed
    region; returns the op latencies in nanoseconds."""
    latencies = []
    for index, item in enumerate(pool):
        if tracer is None:
            elapsed, output, error = _run_op(op, item)
        else:
            with tracer.operation(index, label):
                elapsed, output, error = _run_op(op, item)
        latencies.append(elapsed)
        checker(index, item, output, error)
        speed.tick()
    return latencies


def timed_run(workload, pool, seconds: float, env) -> tuple[dict, Checker, int, dict]:
    # Set-up is timed on both sides of the loop, so that the median spans
    # the run rather than one moment of a machine whose speed drifts.
    setup_times = _walls(_import_argv(workload.setup_module), env, SETUP_REPEATS)

    deadline = time.perf_counter() + WARMUP_S
    for item in pool:
        _run_op(workload.op, item)
        if time.perf_counter() >= deadline:
            break

    # Whole passes only, so that every run times the seeded mix exactly.
    checker = Checker(workload)
    latencies = []
    deadline = time.perf_counter() + seconds
    speed = Speedometer()
    while len(latencies) < MIN_OPS or time.perf_counter() < deadline:
        latencies += _pass(workload.op, pool, checker, speed)

    setup_times += _walls(_import_argv(workload.setup_module), env, SETUP_REPEATS)

    who = resource.RUSAGE_CHILDREN if workload.subprocess_ops else resource.RUSAGE_SELF
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    attempted = len(latencies)
    raw = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": deciles[4] / 1e6,
        "op_p90_ms": deciles[8] / 1e6,
        "ops_per_s": attempted / (sum(latencies) / 1e9),
    }
    f = speed.factor()
    metrics = {
        "setup_s": raw["setup_s"] * f,
        "op_p50_ms": raw["op_p50_ms"] * f,
        "op_p90_ms": raw["op_p90_ms"] * f,
        "ops_per_s": raw["ops_per_s"] / f,
        "ok_ratio": (attempted - checker.failed) / attempted,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    details = {"unscaled": raw, "speed_loop_ms": speed.loop_ms(), "speed_factor": f}
    return metrics, checker, attempted, details


def traced_run(workload, pool, env, spans_path: Path) -> tuple[dict, Checker, int, dict]:
    """A warm-up pass, an untraced pass and a traced pass over the pool.

    The two measured passes run the same loop, so their difference in
    ops per second is the cost of tracing.
    """
    from tracing import Tracer

    op = workload.traced_op or workload.op
    checker = Checker(workload)
    speed = Speedometer()
    _pass(op, pool, checker, speed)
    untraced_ns = sum(_pass(op, pool, checker, speed))
    tracer = Tracer()
    with tracer.patch():
        traced_ns = sum(_pass(op, pool, checker, speed, tracer, f"op:{workload.name}"))
    tracer.dump(spans_path)

    metrics = measure_cli_startup(env)
    metrics.update(tracer.layer_metrics())
    untraced = len(pool) / (untraced_ns / 1e9)
    traced = len(pool) / (traced_ns / 1e9)
    metrics.update({
        "trace.ops": len(pool),
        "trace.untraced_ops_per_s": untraced,
        "trace.traced_ops_per_s": traced,
        "trace.overhead_ops_per_s": untraced - traced,
        "trace.speed_loop_ms": speed.loop_ms(),
    })
    return metrics, checker, 3 * len(pool), {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "curvedet" / "__init__.py").is_file():
        print(f"no curvedet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import curvedet
    from workloads import child_env, workloads

    if Path(curvedet.__file__).resolve().parent != (SRC / "curvedet").resolve():
        print(f"imported curvedet from {curvedet.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = child_env(str(SRC))
    workload = workloads(str(SRC), str(ROOT))[args.workload]
    pool = workload.make_pool(seeded_rng(args.workload, args.seed))

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, checker, attempted, details = traced_run(workload, pool, env, OUT / f"{stem}.spans.jsonl")
        units = per_layer_units()
    else:
        metrics, checker, attempted, details = timed_run(workload, pool, args.seconds, env)
        units = END_TO_END_UNITS

    result = {
        "correct": checker.failed == 0,
        "attempted": attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": attempted,
        "input_profile": workload.profile(pool, checker.first),
        "result": result,
        **details,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps({"samples": attempted, "input_profile": summary["input_profile"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
