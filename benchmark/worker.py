"""One repetition of a workload in a fresh interpreter.

Started by run.py, which passes the moment it spawned this process so that
set-up time counts interpreter start, `import mms` and input generation.
Runs every task in order as a closed loop (one client, one thread), times
each task, then checks its output against the oracle outside the timed
section. A short fixed loop, the gauge, is timed between tasks and after
set-up, so that run.py can scale every time to a reference host speed.
With --trace it installs the tracer first and writes its spans at exit.
Prints one JSON object as the last line of standard output.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

#: Gauge readings taken right after set-up, to scale the set-up time.
SETUP_GAUGES = 5
#: Between tasks, the gauge is read again once this long has passed.
GAUGE_EVERY_S = 0.25


def gauge() -> float:
    """Seconds for a fixed pure-Python loop that calls no `mms` code: the
    host's current speed. Integer arithmetic plus inserts and lookups in a
    20,000-entry dict; of the loops tried, this mix followed the benchmark's
    tasks most closely through host speed episodes. The collector is off
    while it runs, so the program's heap does not change its cost."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(30_000):
            acc += i * i % 7
        for i in range(20_000):
            table[i * 7919 % 100_003] = i
        for i in range(20_000):
            acc += table.get(i, 0)
        elapsed = time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()
    if acc <= 0:
        raise AssertionError("gauge loop was optimised away")
    return elapsed


def run_tasks(inputs, tracer=None) -> dict:
    """Time every task; a task that raises or fails its oracle is recorded
    as failed and the run goes on.

    The gauge is read before the first task, before any later task that
    starts GAUGE_EVERY_S or more after the last reading, and after the last
    task. Each timing names the reading before its task; the next reading
    in the list comes after it.
    """
    timings, failures, gauges = [], [], []
    last_reading = -GAUGE_EVERY_S
    for task in inputs.tasks:
        if time.perf_counter() - last_reading >= GAUGE_EVERY_S:
            gauges.append(gauge())
            last_reading = time.perf_counter()
        scope = tracer.task(task.name) if tracer else nullcontext()
        out = error = None
        t0 = time.perf_counter()
        try:
            with scope:
                out = task.run()
        except Exception:
            error = traceback.format_exc(limit=3)
        timings.append([task.name, task.phase, time.perf_counter() - t0, len(gauges) - 1])
        if error is None:
            try:
                task.check(out)
            except Exception:
                error = traceback.format_exc(limit=3)
        if error is not None:
            failures.append([task.name, error])
        del out
    gauges.append(gauge())
    return {"tasks": timings, "failures": failures, "gauges": gauges}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent when it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="trace, and write spans to this file")
    args = parser.parse_args(argv)

    import mms
    import workloads

    src = Path("src", "mms").resolve()
    if Path(mms.__file__).resolve().parent != src:
        print(f"error: imported mms from {mms.__file__}, not from {src}", file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(args.workload, args.seed)
    result = {"setup_s": time.monotonic() - args.spawned_at, "digest": inputs.digest}
    result["setup_gauge_s"] = statistics.median(gauge() for _ in range(SETUP_GAUGES))
    if not args.setup_only:
        tracer = None
        if args.spans:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        result.update(run_tasks(inputs, tracer))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
