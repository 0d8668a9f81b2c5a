"""Spans and counters recorded from outside the program.

`Tracer.install()` replaces public functions of `mms` at the names their
calling module looks them up under (for example `mms.solver.solve_feasibility`,
which `mms.solver` imported from `mms.lp`) with wrappers that record one span
per call: name, start, end and the id of the enclosing span. A wrapper called
while no task is open records nothing, so the oracle re-checks that run
between tasks do not count. `Tracer.uninstall()` puts the originals back.

Spans stay in memory until `write_spans`; `layer_metrics` turns them and the
counters into the per-layer metrics of BENCHMARK.json. A layer's time is its
self time: span duration minus the part covered by child spans.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from mms import bounds, numerics, partition, solver, witness

BRANCHES = (
    "central_at_top",
    "few_negatives",
    "trim_and_partition_plus_top_zone",
    "central_at_stage_i",
    "two_range_family",
)


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    clipped to the span itself."""
    children = defaultdict(list)
    for sid, (_, start, end, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for sid, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent id]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._baranyai = partition.baranyai_partition
        self._build_misses = 0

    # --- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def task(self, name: str):
        """The root span of one task; wrappers record only inside one."""
        sid = self._open(f"task:{name}")
        try:
            yield
        finally:
            self._close(sid)

    def duration(self, sid: int) -> float:
        _, start, end, _ = self.spans[sid]
        return end - start

    # --- wrappers -----------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace owner.attr with a traced wrapper. `before(args)` may
        rewrite the positional arguments; `after(sid, result, args)` updates
        counters once the call returned."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if not self._stack:
                return original(*args, **kwargs)
            if before is not None:
                args = before(args)
            sid = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(sid)
            if after is not None:
                after(sid, result, args)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        self._build_misses = self._baranyai.cache_info().misses
        w = self._wrap
        w(solver, "solve_feasibility", "lp.solve", after=self._after_lp)
        for attr in ("maximal_nonmembers_of", "minimal_elements_of", "filter_system"):
            w(solver, attr, "solver.frontier")
        w(solver, "exact_A", "solver.exact_A",
          after=lambda sid, res, args: self.counts.update({"solver.nodes": res.nodes_explored}))
        w(solver, "count_nonneg_ksums", "numerics.count")
        w(numerics, "parse_config_text", "numerics.parse",
          after=lambda sid, res, args: self.counts.update({"numerics.parse_values": res.n}))
        self._wrap_ksubset()
        w(partition, "baranyai_partition", "partition.baranyai", after=self._after_partition)
        w(partition, "partition_lower_bound_witnesses", "partition.witnesses")
        w(witness, "partition_lower_bound_witnesses", "partition.witnesses")
        w(witness, "extract_thm1", "witness.thm1", after=self._after_extract)
        w(witness, "extract_thm2", "witness.thm2", after=self._after_extract)
        for owner in (witness, bounds):
            w(owner, "decide_less", "intervals.decide", before=self._count_rounds)
        w(witness, "thm2_threshold_exceeded", "bounds.threshold")
        w(bounds, "thm2_stage_check", "bounds.stage")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap_ksubset(self) -> None:
        cls = numerics.KSubset
        original = cls.__post_init__
        counts, stack = self.counts, self._stack

        def post_init(obj):
            if stack:
                counts["numerics.ksubsets"] += 1
            original(obj)

        cls.__post_init__ = post_init
        self._patches.append((cls, "__post_init__", original))

    def _after_lp(self, sid, result, args) -> None:
        rows = args[0]
        self.counts["lp.rows"] += len(rows)
        self.counts["lp.vars"] += len(rows[0].coeffs) if rows else 0
        self.counts["lp.infeasible"] += not result.feasible

    def _after_partition(self, sid, result, args) -> None:
        # the original is an lru_cache; a new miss means the call built
        misses = self._baranyai.cache_info().misses
        if misses > self._build_misses:
            self._build_misses = misses
            self.counts["partition.builds"] += 1
            self.counts["partition.build_s"] += self.duration(sid)
        else:
            self.counts["partition.cache_hits"] += 1

    def _after_extract(self, sid, report, args) -> None:
        c = self.counts
        c[f"witness.branch.{report.branch}"] += 1
        if report.mode == "explicit":
            c["witness.members_explicit"] += report.witnesses.count
        else:
            c["witness.members_counted"] += report.witnesses.count
        c["witness.samples"] += report.sample_size

    def _count_rounds(self, args):
        make_lhs, *rest = args
        counts = self.counts

        def counted(terms):
            counts["intervals.rounds"] += 1
            return make_lhs(terms)

        return (counted, *rest)

    # --- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start, end, parent]) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from this process's spans and counters."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for (name, *_), s in zip(self.spans, self_times(self.spans)):
            calls[name] += 1
            self_s[name] += s
        c = self.counts
        lp_calls = calls["lp.solve"]
        nodes = c["solver.nodes"]
        part_calls = calls["partition.baranyai"]
        members = c["witness.members_explicit"] + c["witness.samples"]
        witness_s = self_s["witness.thm1"] + self_s["witness.thm2"]

        def ratio(a, b):
            return a / b if b else 0.0

        metrics = {
            "lp.calls": lp_calls,
            "lp.self_s": self_s["lp.solve"],
            "lp.ms_per_call": ratio(self_s["lp.solve"] * 1e3, lp_calls),
            "lp.infeasible_ratio": ratio(c["lp.infeasible"], lp_calls),
            "lp.rows_mean": ratio(c["lp.rows"], lp_calls),
            "lp.vars_mean": ratio(c["lp.vars"], lp_calls),
            "solver.nodes": nodes,
            "solver.frontier_calls": calls["solver.frontier"],
            "solver.frontier_s": self_s["solver.frontier"],
            "solver.lp_per_node": ratio(lp_calls, nodes),
            "numerics.count_calls": calls["numerics.count"],
            "numerics.count_s": self_s["numerics.count"],
            "numerics.parse_s": self_s["numerics.parse"],
            "numerics.parse_values": c["numerics.parse_values"],
            "numerics.ksubsets": c["numerics.ksubsets"],
            "partition.calls": part_calls,
            "partition.builds": c["partition.builds"],
            "partition.cache_hits": c["partition.cache_hits"],
            "partition.hit_ratio": ratio(c["partition.cache_hits"], part_calls),
            "partition.build_s": c["partition.build_s"],
            "partition.witness_s": self_s["partition.witnesses"],
            "witness.thm1_calls": calls["witness.thm1"],
            "witness.thm2_calls": calls["witness.thm2"],
            "witness.self_s": witness_s,
            "witness.members_explicit": c["witness.members_explicit"],
            "witness.members_counted": c["witness.members_counted"],
            "witness.samples": c["witness.samples"],
            "witness.us_per_member": ratio(witness_s * 1e6, members),
            "intervals.decide_calls": calls["intervals.decide"],
            "intervals.rounds": c["intervals.rounds"],
            "intervals.decide_s": self_s["intervals.decide"],
            "bounds.threshold_calls": calls["bounds.threshold"],
            "bounds.threshold_s": self_s["bounds.threshold"],
            "bounds.stage_checks": calls["bounds.stage"],
            "bounds.stage_s": self_s["bounds.stage"],
        }
        for branch in BRANCHES:
            metrics[f"witness.branch.{branch}"] = c[f"witness.branch.{branch}"]
        return metrics
