"""Benchmark entry point; run it from the root of a checkout:

    python3 benchmark/run.py --workload decide --seed 1 --seconds 40 --trace 0

Each repetition of the workload runs in a fresh interpreter (worker.py), so
`baranyai_partition`'s cache and `Configuration.scaled` start cold, as they do
for a CLI user. Repetitions go on while the next one is projected to end
within --seconds.

The host's speed changes by a quarter and more in episodes of seconds to
minutes, so every reported time is scaled to a reference host speed: the
worker times a fixed pure-Python loop (the gauge) between tasks and after
set-up, and a time t measured while the gauge took g seconds is reported as
t * GAUGE_REF_S / g. A task's time is its median over the
repetitions; set-up time and memory are medians too.

--trace 0 prints the end-to-end metrics of untraced repetitions. --trace 1
alternates untraced and traced repetitions and prints the per-layer metrics:
layer numbers from the traced ones, the workload's phase timings,
`wall_raw_s` (the unscaled timed section) and `trace.overhead_ratio` (traced
over untraced wall time) from both.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Run metadata (Python version,
CPU count, commit, seed, the median gauge reading, every repetition's raw
numbers) goes to .bench_out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKER = Path(__file__).resolve().with_name("worker.py")
OUT_DIR = Path(".bench_out")
#: Set-up is measured in at least this many fresh interpreters per run.
SETUP_SAMPLES = 5
#: Children are killed once the run has lasted this long (the limit is 180 s).
DEADLINE_S = 170.0
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
#: The reference host speed: the gauge of worker.py takes this long on it
#: (about what it takes on a 2-CPU Xeon KVM guest at its usual speed).
GAUGE_REF_S = 0.007
PHASES = {"solve_s": "solve", "search_s": "search",
          "explicit_s": "explicit", "counted_s": "counted"}
#: Layer counts that README.md predicts to be 0 on a workload; a traced run
#: reports them.
PREDICTED_ZEROS = {
    "decide": ("numerics.parse_values", "partition.builds", "witness.thm1_calls",
               "witness.thm2_calls", "intervals.decide_calls", "bounds.stage_checks"),
    "certify_small": ("lp.calls", "solver.nodes", "numerics.count_calls",
                      "numerics.parse_values"),
    "certify_large": ("lp.calls", "solver.nodes", "numerics.count_calls", "partition.builds"),
}


class HarnessError(RuntimeError):
    """A worker process failed as a whole (not a task inside it)."""


def percentile(values, p: float, min_beyond: int = MIN_BEYOND) -> float | None:
    """Nearest-rank p-th percentile, or None when fewer than `min_beyond`
    samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(p / 100 * len(ordered))
    if rank < 1 or len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]


def spawn(workload: str, seed: int, deadline: float, *extra: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path("src").resolve()), os.environ.get("PYTHONPATH")) if p)
    started = time.monotonic()
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--spawned-at", repr(started), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker for {workload} passed the {DEADLINE_S:.0f} s deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def scaled(seconds: float, gauge_s: float) -> float:
    """A time measured while the gauge took `gauge_s`, at the reference speed."""
    return seconds * GAUGE_REF_S / gauge_s


def task_times(reps: list[dict]) -> list[tuple[str, str, float]]:
    """(name, phase, seconds) of every task: its median over the repetitions,
    which all run the same task list in a fresh interpreter, of its time
    scaled by the mean of the gauge readings just before and after it."""
    def scaled_time(rep, i):
        _, _, seconds, before = rep["tasks"][i]
        return scaled(seconds, (rep["gauges"][before] + rep["gauges"][before + 1]) / 2)
    return [(name, phase, statistics.median(scaled_time(rep, i) for rep in reps))
            for i, (name, phase, *_) in enumerate(reps[0]["tasks"])]


def wall_s(reps: list[dict]) -> float:
    return sum(dt for _, _, dt in task_times(reps))


def raw_wall_s(reps: list[dict]) -> float:
    """Median over the repetitions of their unscaled timed sections."""
    return statistics.median(sum(t[2] for t in rep["tasks"]) for rep in reps)


def phase_metrics(tasks) -> dict[str, float]:
    """The workload's own timings from scaled task times; 0 where a workload
    has no such phase or too few tasks for the percentile."""
    out = {name: sum(dt for _, ph, dt in tasks if ph == phase)
           for name, phase in PHASES.items()}
    latencies_ms = [dt * 1e3 for _, _, dt in tasks]
    for p in (50, 90):
        out[f"task_ms.p{p}"] = percentile(latencies_ms, p) or 0.0
    out["task_ms.samples"] = len(latencies_ms)
    return out


def median_of(dicts: list[dict]) -> dict[str, float]:
    """Per key, the lower median: a value some repetition measured."""
    return {key: statistics.median_low(d[key] for d in dicts) for key in dicts[0]}


def summarize(meta: dict) -> dict:
    """The result line's fields from a run's repetitions: end-to-end
    metrics for an untraced run, per-layer ones for a traced run."""
    plain, traced = meta["reps"], meta["traced_reps"]
    reps = plain + traced
    attempted = sum(len(rep["tasks"]) for rep in reps)
    failed = sum(len(rep["failures"]) for rep in reps)
    if meta["trace"]:
        metrics = median_of([rep["layers"] for rep in traced])
        metrics.update(phase_metrics(task_times(plain)))
        metrics["fail_ratio"] = failed / attempted
        metrics["trace.overhead_ratio"] = wall_s(traced) / wall_s(plain)
        metrics["wall_raw_s"] = raw_wall_s(plain)
    else:
        metrics = {
            "setup_s": statistics.median(meta["setup_s"]),
            "wall_s": wall_s(plain),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in plain),
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def commit() -> str | None:
    if not Path(".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(Path("src", "mms").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(args, deadline: float) -> tuple[list[dict], list[dict], list[float]]:
    """Repetitions until the next is projected to pass --seconds; returns
    untraced reps, traced reps and scaled set-up samples."""
    start = time.monotonic()
    plain, traced, rounds = [], [], []
    while True:
        t0 = time.monotonic()
        plain.append(spawn(args.workload, args.seed, deadline))
        if args.trace:
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-rep{len(traced)}.jsonl"
            traced.append(spawn(args.workload, args.seed, deadline, "--spans", str(spans)))
        rounds.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(rounds) > args.seconds:
            break
    setup = [scaled(rep["setup_s"], rep["setup_gauge_s"]) for rep in plain]
    while not args.trace and len(setup) < SETUP_SAMPLES:
        rep = spawn(args.workload, args.seed, deadline, "--setup-only")
        setup.append(scaled(rep["setup_s"], rep["setup_gauge_s"]))
    return plain, traced, setup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src", "mms", "__init__.py").is_file():
        print("error: run from the root of an mms checkout (src/mms not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)

    try:
        # warm-up: compiles bytecode, which a CLI user does not pay on every run
        spawn(args.workload, args.seed, deadline, "--setup-only")
        plain, traced, setup = measure(args, deadline)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    reps = plain + traced
    gauge_median = statistics.median(g for rep in reps for g in rep["gauges"])
    digests = {rep["digest"] for rep in reps}
    if len(digests) != 1:
        print(f"error: one seed gave {len(digests)} different inputs", file=sys.stderr)
        return 1
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": commit(), "source_sha256": source_digest(),
        "inputs_sha256": digests.pop(), "gauge_median_s": gauge_median,
        "setup_s": setup,
        "failures": [f for rep in reps for f in rep["failures"]],
        "reps": plain, "traced_reps": traced,
    }
    result = summarize(meta)
    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if declared != set(result["metrics"]):
        print(f"error: metrics {sorted(declared ^ set(result['metrics']))} "
              "not declared or not measured", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in sorted(result["metrics"].items())}
    meta["result"] = result
    if args.trace:
        zeros = {name: result["metrics"][name]["value"] for name in PREDICTED_ZEROS[args.workload]}
        meta["predicted_zeros"] = zeros
        print("# predicted zeros: " + ", ".join(
            f"{name}={value} {'ok' if value == 0 else 'MISSED'}" for name, value in zeros.items()))
    meta_path = OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    meta_path.write_text(json.dumps(meta, indent=1) + "\n")
    print(f"# {len(plain)} untraced + {len(traced)} traced repetitions, "
          f"gauge median {gauge_median * 1e3:.2f} ms, metadata in {meta_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
