"""Benchmark of insiderctl: the paper's command-line queries, exploration of
a scaled airplane, seeded random models and a CTL formula battery.

Run from anywhere inside a checkout; nothing needs installing::

    python3 bench/run.py                                   # every workload
    python3 bench/run.py --workload airplane_scaled --seed 1 --seconds 30
    python3 bench/run.py --workload formula_battery --trace 1

One client waits for each answer (a closed loop), in one process per
workload.  The last line of standard output is one JSON object: whether
every answer was correct, the ops attempted and failed, and the metrics,
end to end with ``--trace 0`` and per layer with ``--trace 1``.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# The workloads BENCHMARK.json lists, which ``--workload all`` runs.
NAMES = ("paper_queries", "airplane_scaled", "random_models")
# Runnable by name, but left out of BENCHMARK.json: on a host whose speed
# drifts, its runs spread by up to 28%, past the bound (see README.md).
EXTRA = ("formula_battery",)

# op_tail_ms is this percentile; a run measures at least min_ops(TAIL_Q)
# ops, so that ten samples lie beyond it.  A traced run reports no tail,
# only its median, so it needs fewer ops.
TAIL_Q = 0.75
TRACED_MIN_OPS = 10

# A set-up is repeated between ops, up to SETUP_BURST times after each,
# while set-up time stays under SETUP_SHARE of the time spent in ops: its
# samples spread over the whole run, and most of those of a short set-up do
# not directly follow an op (right after the three child processes of a
# paper_queries op, one took 1-3 ms more than its usual 3 ms).
SETUP_SHARE = 0.1
SETUP_BURST = 5


def use_sources() -> bool:
    """Put the checkout's ``src`` and ``tests`` on the import path; False
    when the checkout lacks the program or the oracles."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "insiderctl" / "__init__.py").is_file() or not (tests / "oracles.py").is_file():
        return False
    for path in (str(tests), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def tail_index(n: int, q: float) -> int:
    """Index into the sorted samples of the ``q`` percentile."""
    return max(0, math.ceil(q * n) - 1)


def min_ops(q: float) -> int:
    """The fewest ops for which ``q`` leaves ten samples beyond it."""
    return math.ceil(10 / (1 - q) - 1e-9)


def measure(wl, seed: int, seconds: float, tracer=None, least_ops: int | None = None) -> dict:
    """Prepare, set up and run ``wl`` for ``seconds`` (and at least enough
    ops for its tail); returns the raw samples and counts."""
    if least_ops is None:
        least_ops = TRACED_MIN_OPS if tracer is not None else min_ops(TAIL_Q)
    if tracer is not None:
        tracer.phase = "prepare"
    start = perf_counter()
    wl.prepare(seed)
    prepare_s = perf_counter() - start
    # The reference answers live for the whole run; kept out of the
    # collector's reach, they add no scanning to the ops of one seed that
    # another seed's would not (unfrozen, they moved op times by 13%).
    gc.collect()
    gc.freeze()
    try:
        raw = _loop(wl, seconds, tracer, least_ops)
    finally:
        gc.unfreeze()
    raw["prepare_s"] = prepare_s
    return raw


def _loop(wl, seconds, tracer, least_ops) -> dict:
    if tracer is not None:
        tracer.phase = "setup"
    setups = []
    start = perf_counter()
    inputs = wl.setup()
    setups.append(perf_counter() - start)

    samples: list[float] = []
    attempted = failed = 0
    check_s = 0.0
    loop_start = perf_counter()
    while attempted < wl.warmup + least_ops or perf_counter() - loop_start < seconds:
        if tracer is not None:
            tracer.phase = "op"
            if attempted == wl.warmup:
                tracer.reset("op")
        start = perf_counter()
        outputs = wl.op(inputs)
        spent = perf_counter() - start
        if tracer is not None:
            wl.replay(inputs)
            tracer.phase = "check"
        attempted += 1
        if attempted > wl.warmup:
            samples.append(spent)
        start = perf_counter()
        if not wl.check(inputs, outputs):
            failed += 1
        check_s += perf_counter() - start
        del outputs
        while (
            sum(setups) < SETUP_SHARE * sum(samples)
            and len(setups) < SETUP_BURST * (len(samples) + 1)
        ):
            if tracer is not None:
                tracer.phase = "setup"
            start = perf_counter()
            wl.setup()
            setups.append(perf_counter() - start)
    return {
        "attempted": attempted,
        "failed": failed,
        "samples": samples,
        "setups": setups,
        "peak_rss_kb": wl.peak_rss_kb(),
        "check_s": check_s,
        "loop_s": perf_counter() - loop_start,
    }


def end_to_end(raw: dict) -> dict:
    samples = sorted(raw["samples"])
    return {
        "setup_s": (statistics.median(raw["setups"]), "s"),
        "op_tail_ms": (1000.0 * samples[tail_index(len(samples), TAIL_Q)], "ms"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, least_ops=None, wl=None):
    """One workload in this process; returns (result object, report)."""
    import layers
    import workloads

    wl = wl or workloads.make(name, OUT)
    tracer = None
    if trace:
        tracer = layers.Tracer()
        tracer.install()
    try:
        raw = measure(wl, seed, seconds, tracer, least_ops)
    finally:
        if tracer is not None:
            tracer.uninstall()
    samples = sorted(raw["samples"])
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "ops_measured": len(samples),
        "warmup_ops": wl.warmup,
        "tail_percentile": 100 * TAIL_Q,
        **raw,
    }
    if tracer is None:
        metrics = end_to_end(raw)
    else:
        metrics = layers.layer_metrics(
            tracer.totals.get("op", {}), len(samples), tracer.totals.get("setup", {}), len(raw["setups"])
        )
        metrics.update(wl.layer_extras())
        metrics["trace.op_p50_ms"] = (1000.0 * statistics.median(samples), "ms")
        report["absent"] = tracer.absent
        report["layer_totals"] = tracer.totals
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report


def print_result(name: str, result: dict, report: dict) -> None:
    print(f"{name}: attempted {result['attempted']} failed {result['failed']} "
          f"correct {str(result['correct']).lower()}")
    tail = "" if report["trace"] else f"; op_tail_ms is p{report['tail_percentile']:g}"
    print(f"  {report['ops_measured']} ops measured after {report['warmup_ops']} warm-up"
          f"{tail}; set-up timed {len(report['setups'])} times")
    for missing in report.get("absent", []):
        print(f"  absent: {missing}")
    for key, m in result["metrics"].items():
        print(f"  {key:32s} {m['value']:14.6g} {m['unit']}")


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, one after another, each in a fresh process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = m
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + EXTRA + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_sources():
        print(f"error: {ROOT} holds no src/insiderctl and tests/oracles.py to measure",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        OUT.mkdir(parents=True, exist_ok=True)
        kind = "trace" if args.trace else "run"
        path = OUT / f"{kind}-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({**report, "result": result}, indent=1) + "\n")
        print_result(args.workload, result, report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
