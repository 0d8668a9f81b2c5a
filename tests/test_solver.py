import itertools
import random

import pytest

import mms.solver as solver_mod
from mms.lp import check_farkas, check_point, fourier_motzkin_feasible, solve_feasibility
from mms.numerics import Configuration, binomial, count_nonneg_ksums
from mms.solver import (
    averaging_lower_bound,
    cover_dominated,
    cover_dominators,
    exact_A,
    filter_system,
    maximal_nonmembers_of,
    minimal_elements_of,
    search_upper_bound,
    verify_conjecture_range,
)

from genconfig import nonneg_members


def member_indices(config, k):
    return frozenset(s.indices for s in nonneg_members(config, k))


def up_closure(seeds, n):
    """Oracle closure by breadth-first cover steps."""
    out = set(seeds)
    frontier = list(seeds)
    while frontier:
        cur = frontier.pop()
        for nxt in cover_dominators(cur):
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)
    return frozenset(out)


def test_cover_moves_are_inverse():
    n, k = 7, 3
    for combo in itertools.combinations(range(1, n + 1), k):
        for up in cover_dominators(combo):
            assert combo in cover_dominated(up, n)
        for down in cover_dominated(combo, n):
            assert combo in cover_dominators(down)


def test_minimal_and_maximal_elements():
    n, k = 5, 2
    members = up_closure([(2, 3)], n)
    assert members == frozenset({(1, 2), (1, 3), (2, 3)})
    assert minimal_elements_of(members, n) == [(2, 3)]
    assert maximal_nonmembers_of(members, n, k) == [(1, 4)]


def filter_rows(members, n, k):
    """The filter system of `members`, rebuilt from scratch."""
    return filter_system(
        minimal_elements_of(members, n), maximal_nonmembers_of(members, n, k), n)


def test_lp_feasible_examples():
    n, k = 5, 2
    # the whole cube: trivially feasible with all ones
    all_members = frozenset(itertools.combinations(range(1, n + 1), k))
    res = solve_feasibility(filter_rows(all_members, n, k))
    assert res.feasible
    assert all(v >= 0 for v in res.point)
    # up-closure of {(1,2)} alone: infeasible
    res = solve_feasibility(filter_rows(up_closure([(1, 2)], n), n, k))
    assert not res.feasible
    assert res.farkas is not None
    # up-closure of {(2,3)}: feasible
    res = solve_feasibility(filter_rows(up_closure([(2, 3)], n), n, k))
    assert res.feasible
    count = count_nonneg_ksums(Configuration(res.point), k)
    assert count == 3


def test_certificates_recheck_and_fm_crosscheck():
    rng = random.Random(3)
    checked = 0
    for _ in range(60):
        n = rng.randint(3, 6)
        k = rng.randint(2, n - 1)
        seeds = [
            tuple(sorted(rng.sample(range(1, n + 1), k)))
            for _ in range(rng.randint(1, 3))
        ]
        members = up_closure(seeds, n) | up_closure([tuple(range(1, k + 1))], n)
        res = solve_feasibility(filter_rows(members, n, k))
        rows = filter_rows(members, n, k)
        if res.feasible:
            assert check_point(rows, res.point)
        else:
            assert check_farkas(rows, res.farkas)
        assert fourier_motzkin_feasible(rows) == res.feasible
        checked += 1
    assert checked == 60


def test_exact_A_spot_values():
    assert exact_A(4, 2).A_value == 3
    res = exact_A(5, 2)
    assert res.A_value == 3
    count = count_nonneg_ksums(res.optimal_config, 2)
    assert count == 3
    assert exact_A(6, 2).A_value == 5
    assert exact_A(7, 2).A_value == 6


def test_exact_A_result_invariants():
    res = exact_A(6, 2)
    assert count_nonneg_ksums(res.optimal_config, 2) == res.A_value
    assert up_closure(res.minimal_elements, 6) == member_indices(res.optimal_config, 2)
    assert list(res.minimal_elements) == sorted(res.minimal_elements)
    assert not res.upper_bound_only
    assert res.nodes_explored >= 1
    assert res.A_value >= 1


def test_exact_A_baranyai_consistency():
    for n, k in ((4, 2), (6, 2), (8, 2), (6, 3)):
        assert exact_A(n, k).A_value == binomial(n - 1, k - 1)


def test_exact_A_budget_flag():
    res = exact_A(8, 2, budget=3)
    assert res.upper_bound_only
    assert res.A_value == 7  # star construction upper bound
    count = count_nonneg_ksums(res.optimal_config, 2)
    assert count == res.A_value
    assert up_closure(res.minimal_elements, 8) == member_indices(res.optimal_config, 2)


def test_averaging_lower_bound_cuts_lp_calls(monkeypatch):
    calls = []
    honest = solver_mod.solve_feasibility

    def counted(rows):
        calls.append(len(rows))
        return honest(rows)

    monkeypatch.setattr(solver_mod, "solve_feasibility", counted)
    res = exact_A(7, 3)
    assert (res.A_value, res.nodes_explored) == (10, 53)
    # Filters smaller than C(5,2) = 10 are expanded without an LP call.
    assert averaging_lower_bound(7, 3) == 10
    assert len(calls) == 12


def test_exact_A_computes_each_frontier_once(monkeypatch):
    frontier_calls, lp_calls = [], []
    honest_frontier = solver_mod.maximal_nonmembers_of
    honest_lp = solver_mod.solve_feasibility

    def counted_frontier(members, n, k):
        frontier_calls.append(len(members))
        return honest_frontier(members, n, k)

    def counted_lp(rows):
        lp_calls.append(len(rows))
        return honest_lp(rows)

    monkeypatch.setattr(solver_mod, "maximal_nonmembers_of", counted_frontier)
    monkeypatch.setattr(solver_mod, "solve_feasibility", counted_lp)
    res = exact_A(7, 3)
    assert res.nodes_explored == 53
    # One frontier per node serves both its LP and its children.
    assert len(frontier_calls) == res.nodes_explored
    assert len(lp_calls) == 12


def test_averaging_lower_bound_below_every_exact_value():
    for (n, k), a_value in {
        (4, 2): 3, (5, 2): 3, (6, 2): 5, (7, 2): 6, (5, 3): 3, (7, 3): 10,
        (6, 4): 5, (7, 4): 10, (7, 5): 6,
    }.items():
        assert averaging_lower_bound(n, k) <= exact_A(n, k).A_value == a_value


def test_exact_A_rejects_ranges():
    with pytest.raises(ValueError):
        exact_A(30, 5)
    with pytest.raises(ValueError):
        exact_A(3, 4)


def test_search_upper_bound_examples():
    count, config = search_upper_bound(10, 3, "grid", 0)
    assert count <= 35
    assert config.total_sum() >= 0
    count, _ = search_upper_bound(6, 2, "grid", 0)
    assert count == 5  # cannot beat the partition bound
    count, _ = search_upper_bound(5, 2, "grid", 0)
    assert count == 3
    count, _ = search_upper_bound(5, 2, "anneal", 1)
    assert count == 3


#: (count, values) of the enumerating counter that the run-length one
#: replaced, on the (n, k, strategy) instances of the decide workload.
SEARCH_REFERENCE = {
    (11, 3, "grid"): (45, [10] + [-1] * 10),
    (11, 3, "anneal"): (45, [10] + [-1] * 10),
    (13, 3, "grid"): (66, [12] + [-1] * 12),
    (13, 3, "anneal"): (66, [12] + [-1] * 12),
    (14, 3, "grid"): (78, [13] + [-1] * 13),
    (14, 3, "anneal"): (78, [13] + [-1] * 13),
    (13, 4, "grid"): (210, [3] * 10 + [-10] * 3),
    (13, 4, "anneal"): (220, [12] + [-1] * 12),
}


@pytest.mark.parametrize("n,k,strategy", sorted(SEARCH_REFERENCE))
def test_search_matches_reference(n, k, strategy):
    count, values = SEARCH_REFERENCE[n, k, strategy]
    assert search_upper_bound(n, k, strategy, 0) == (
        count, Configuration.from_values(values))


def test_search_deterministic_given_seed():
    a = search_upper_bound(8, 3, "anneal", 5)
    b = search_upper_bound(8, 3, "anneal", 5)
    assert a == b


def test_verify_conjecture_range_k2():
    rows = verify_conjecture_range(4, 10, 2)
    verdicts = {r.n: r.verdict for r in rows}
    assert verdicts[5] == "counterexample"
    assert all(v == "equality" for n, v in verdicts.items() if n != 5)
    row5 = next(r for r in rows if r.n == 5)
    assert row5.a_value == 3 and row5.witness_config is not None
    count = count_nonneg_ksums(row5.witness_config, 2)
    assert count == 3 < binomial(4, 1)


def test_verify_conjecture_range_budget_exhaustion():
    rows = verify_conjecture_range(7, 7, 2, node_budget=2)
    assert rows[0].verdict == "undecided"
    assert rows[0].equals_target is None
    assert rows[0].upper == binomial(6, 1)  # star fallback


def test_verify_conjecture_range_k3():
    rows = verify_conjecture_range(9, 10, 3)
    by_n = {r.n: r for r in rows}
    assert by_n[9].verdict == "equality"
    assert by_n[9].lower == by_n[9].upper == binomial(8, 2) == 28
    assert by_n[10].verdict == "counterexample"
    assert by_n[10].upper == 35
    count = count_nonneg_ksums(by_n[10].witness_config, 3)
    assert count == 35
