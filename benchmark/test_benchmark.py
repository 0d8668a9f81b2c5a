"""Tests of the benchmark itself: python -m pytest benchmark -q"""
from __future__ import annotations

import dataclasses
import gc
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from mms import solver, witness  # noqa: E402
from mms.numerics import Configuration, KSubset, SubsetFamily  # noqa: E402
from mms.partition import partition_lower_bound_witnesses  # noqa: E402


# --- percentile rule --------------------------------------------------------

def test_p90_needs_ten_samples_beyond_it():
    assert run.percentile(range(1, 101), 90) == 90
    assert run.percentile(range(1, 100), 90) is None
    assert run.percentile(range(1, 103), 90) == 92


def test_p50_of_few_tasks_is_withheld():
    assert run.percentile(range(23), 50) == 11
    assert run.percentile(range(6), 50) is None
    assert run.percentile([], 50) is None


def test_task_times_are_scaled_by_the_gauge_around_each_task():
    ref = run.GAUGE_REF_S
    # the host is twice as slow during the second repetition's tasks
    reps = [{"tasks": [["t", "solve", 0.5, 0], ["u", "search", 0.25, 1]],
             "gauges": [ref, ref, ref]},
            {"tasks": [["t", "solve", 1.0, 0], ["u", "search", 0.5, 1]],
             "gauges": [2 * ref, 2 * ref, 2 * ref]},
            {"tasks": [["t", "solve", 0.75, 0], ["u", "search", 0.25, 1]],
             "gauges": [ref, 2 * ref, ref]},
            # one reading before both tasks and one after them
            {"tasks": [["t", "solve", 0.5, 0], ["u", "search", 0.25, 0]],
             "gauges": [ref, ref]}]
    times = run.task_times(reps)
    assert [t[2] for t in times] == pytest.approx([0.5, 0.25])
    out = run.phase_metrics(times)
    assert out["solve_s"] == pytest.approx(0.5) and out["search_s"] == pytest.approx(0.25)
    assert run.wall_s(reps) == pytest.approx(0.75)
    assert run.raw_wall_s(reps) == 0.875
    assert out["task_ms.p50"] == 0.0 and out["task_ms.samples"] == 2


def test_gauge_is_positive_and_leaves_the_collector_as_it_was():
    assert gc.isenabled()
    assert worker.gauge() > 0 and gc.isenabled()
    gc.disable()
    try:
        assert worker.gauge() > 0 and not gc.isenabled()
    finally:
        gc.enable()


# --- spans and self time ----------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [
        ["task", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["c", 5.0, 9.0, 0],
        ["d", 6.0, 7.0, 3],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, None], ["x", 1.0, 5.0, 0], ["y", 3.0, 12.0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_nests_layers_and_restores_the_program():
    original = witness.extract_thm2
    config = Configuration.from_values([Fraction(1)] * 10 + [Fraction(-1)] * 10)
    t = tracing.Tracer()
    t.install()
    try:
        witness.extract_thm2(config, 3, seed=1)  # outside a task: not recorded
        assert t.spans == []
        with t.task("one"):
            witness.extract_thm2(config, 3, seed=1)
    finally:
        t.uninstall()
    assert witness.extract_thm2 is original
    names = [s[0] for s in t.spans]
    assert names[:3] == ["task:one", "witness.thm2", "bounds.threshold"]
    parent = {name: t.spans[p][0] for name, _, _, p in t.spans if p is not None}
    assert parent["witness.thm2"] == "task:one"
    assert parent["bounds.threshold"] == "witness.thm2"
    assert parent["intervals.decide"] in ("bounds.threshold", "witness.thm2")
    m = t.layer_metrics()
    assert m["witness.thm2_calls"] == 1 and m["bounds.threshold_calls"] == 1
    assert m["intervals.rounds"] >= m["intervals.decide_calls"] >= 1
    thm2 = next(s for s in t.spans if s[0] == "witness.thm2")
    assert 0 < m["witness.self_s"] < thm2[2] - thm2[1]


def test_tracer_counts_partition_builds_and_hits():
    config = Configuration.from_values([Fraction(2)] * 5 + [Fraction(-1)] * 7)
    t = tracing.Tracer()
    t.install()
    try:
        with t.task("twice"):
            for _ in range(2):
                workloads.partition.partition_lower_bound_witnesses(config, 3, seed=987_654)
    finally:
        t.uninstall()
    m = t.layer_metrics()
    assert (m["partition.calls"], m["partition.builds"], m["partition.cache_hits"]) == (2, 1, 1)
    assert m["numerics.ksubsets"] > 0 and m["partition.build_s"] > 0


# --- oracles reject corrupted results ----------------------------------------

def test_exact_oracle_rejects_A_off_by_one():
    result = solver.exact_A(5, 2)
    workloads.check_exact(5, 2, result)
    with pytest.raises(workloads.OracleError):
        workloads.check_exact(5, 2, dataclasses.replace(result, A_value=result.A_value + 1))
    star = Configuration.from_values([4, -1, -1, -1, -1])
    with pytest.raises(workloads.OracleError):
        workloads.check_exact(5, 2, dataclasses.replace(result, optimal_config=star))


def test_search_oracle_rejects_a_wrong_count():
    count, config = solver.search_upper_bound(7, 3, "anneal", 3)
    workloads.check_search(7, 3, (count, config))
    with pytest.raises(workloads.OracleError):
        workloads.check_search(7, 3, (count - 1, config))


def _explicit_report():
    config = Configuration.from_values([5, 1, 1, -2, -2, -1, -1, 0, 0])
    return config, witness.extract_thm1(config, 2, seed=0)


def test_report_oracle_rejects_a_negative_witness():
    config, report = _explicit_report()
    workloads.check_report(config.values, 2, report, threshold_met=False)
    bad = set(report.witnesses.members)
    bad.pop()
    bad.add(KSubset((8, 9)))  # -2 + -2
    fam = SubsetFamily.explicit(config.n, 2, bad)
    with pytest.raises(workloads.OracleError, match="negative"):
        workloads.check_report(config.values, 2, dataclasses.replace(report, witnesses=fam), False)


def test_report_oracle_rejects_short_samples_and_missed_targets():
    config, report = _explicit_report()
    counted = dataclasses.replace(
        report, mode="counted", sample_size=999,
        witnesses=SubsetFamily.counted(config.n, 2, report.guaranteed_count))
    with pytest.raises(workloads.OracleError, match="sampled"):
        workloads.check_report(config.values, 2, counted, threshold_met=False)
    with pytest.raises(workloads.OracleError, match="theorem range"):
        workloads.check_report(config.values, 2, dataclasses.replace(
            report, guaranteed_count=1,
            witnesses=SubsetFamily.explicit(config.n, 2, [KSubset((1, 2))])), True)


def test_partition_oracle_rejects_a_negative_witness():
    config = Configuration.from_values([3, 1, 0, -1, -1, -2])
    fam = partition_lower_bound_witnesses(config, 2)
    workloads.check_partition_family(config.values, 2, fam)
    members = set(fam.members)
    members.pop()
    members.add(KSubset((5, 6)))
    with pytest.raises(workloads.OracleError):
        workloads.check_partition_family(
            config.values, 2, SubsetFamily.explicit(config.n, 2, members))


def test_counted_oracle_rejects_a_failing_chain_or_a_misparse():
    values = workloads.pattern_values(random.Random(0), 120, "half_split")
    out = workloads._counted_task(workloads.config_text(values), 3, 1, 2)
    config, chain, rep1, rep2 = out
    workloads._counted_check(values, 3, out)
    broken = chain[:-1] + [dataclasses.replace(chain[-1], holds=False)]
    with pytest.raises(workloads.OracleError, match="stage chain"):
        workloads._counted_check(values, 3, (config, broken, rep1, rep2))
    with pytest.raises(workloads.OracleError, match="parsed"):
        workloads._counted_check(values[:-1] + [Fraction(2)], 3, out)


def test_a_task_that_raises_is_counted_and_the_run_goes_on():
    def boom():
        raise ValueError("boom")

    def wrong(out):
        raise workloads.OracleError("wrong")

    inputs = workloads.Inputs([
        workloads.Task("raises", "p", boom, lambda out: None),
        workloads.Task("wrong", "p", lambda: 1, wrong),
        workloads.Task("fine", "p", lambda: 1, lambda out: None),
    ], "digest")
    out = worker.run_tasks(inputs)
    assert [t[0] for t in out["tasks"]] == ["raises", "wrong", "fine"]
    assert [f[0] for f in out["failures"]] == ["raises", "wrong"]
    assert [t[3] for t in out["tasks"]] == [0, 0, 0]  # the tasks take no time
    assert len(out["gauges"]) == 2 and min(out["gauges"]) > 0


# --- seeded inputs --------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.MAKERS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = workloads.make_inputs(workload, 7).digest
    assert workloads.make_inputs(workload, 7).digest == first
    assert workloads.make_inputs(workload, 8).digest != first


def test_certify_small_covers_every_shape_per_pass():
    inputs = workloads.certify_small_inputs(3)
    shapes = sorted(t.name.split(",", 1)[1] for t in inputs.tasks)
    expected = sorted(
        f"n={n},k={k})"
        for k in workloads.CERTIFY_SMALL_KS
        for n in range(2 * k + 1, workloads.CERTIFY_SMALL_N_MAX + 1)
    ) * workloads.CERTIFY_SMALL_PASSES
    assert shapes == sorted(expected)
