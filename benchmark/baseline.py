"""Summarize the runs in .bench_out/ into a baseline file.

    python3 benchmark/baseline.py benchmark/baseline.json

For every workload: each end-to-end metric over the untraced runs (one per
seed) with its median, quartiles and spread (quartile distance over the
median), and the per-layer metrics of the traced run.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

KEEP = ("commit", "source_sha256", "python", "nproc", "seconds")


def collect(out_dir: Path) -> dict:
    runs = [json.loads(p.read_text()) for p in sorted(out_dir.glob("run-*.json"))]
    baseline: dict = {"runs": {key: sorted({str(r[key]) for r in runs}) for key in KEEP},
                      "workloads": {}}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        plain = sorted((r for r in mine if not r["trace"]), key=lambda r: r["seed"])
        entry: dict = {
            "seeds": [r["seed"] for r in plain],
            "gauge_median_s": statistics.median(r["gauge_median_s"] for r in mine),
            "end_to_end": {},
        }
        for name in plain[0]["result"]["metrics"] if plain else ():
            values = [r["result"]["metrics"][name]["value"] for r in plain]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            entry["end_to_end"][name] = {
                "values": values, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
        traced = [r for r in mine if r["trace"]]
        if traced:
            entry["per_layer_seed"] = traced[0]["seed"]
            entry["per_layer"] = {k: v["value"] for k, v in traced[0]["result"]["metrics"].items()}
            entry["predicted_zeros"] = traced[0]["predicted_zeros"]
        baseline["workloads"][workload] = entry
    return baseline


if __name__ == "__main__":
    data = collect(Path(".bench_out"))
    text = json.dumps(data, indent=1) + "\n"
    if len(sys.argv) > 1:
        Path(sys.argv[1]).write_text(text)
    for workload, entry in data["workloads"].items():
        for name, m in entry["end_to_end"].items():
            print(f"{workload:14s} {name:12s} median {m['median']:10.4f}  "
                  f"spread {m['spread']:.3f}  n={len(m['values'])}")
