import heapq
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mms.solver as solver_mod
from mms.lp import LinRow, solve_feasibility
from mms.numerics import Configuration, binomial, count_nonneg_ksums, count_nonneg_scaled
from mms.solver import (
    averaging_lower_bound,
    child_frontier,
    cover_dominated,
    cover_dominators,
    exact_A,
    filter_system,
    maximal_nonmembers_of,
    minimal_elements_of,
    search_upper_bound,
    values_of_differences,
    verify_conjecture_range,
)

import fraclp
from fraclp import certificate
from freelp import (
    contradicts,
    fourier_motzkin_feasible,
    nonnegativity_rows,
    satisfies,
    solve_free,
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


def full_system(minimal, max_nonmembers, n):
    """The filter system over free sorted values x: the chain x_i >= x_{i+1},
    total >= 0, minimal members >= 0, maximal non-members <= -1. Its
    feasibility is exactly "the filter is some configuration's non-negative
    family"."""
    def row(plus, minus, rhs):
        return LinRow(tuple(1 if j in plus else -1 if j in minus else 0
                            for j in range(1, n + 1)), rhs)

    rows = [row((i,), (i + 1,), 0) for i in range(1, n)]
    rows.append(row(range(1, n + 1), (), 0))
    rows += [row(a, (), 0) for a in minimal]
    rows += [row((), b, 1) for b in max_nonmembers]
    return rows


def filter_rows(members, n, k):
    """The full system of `members`, rebuilt from scratch."""
    return full_system(
        minimal_elements_of(members, n), maximal_nonmembers_of(members, n, k), n)


def relaxed_rows(members, n, k):
    """R(F) of `members`, over (d, s) >= 0."""
    return filter_system(maximal_nonmembers_of(members, n, k), n, k)


def test_lp_feasible_examples():
    n, k = 5, 2
    # the whole cube: trivially feasible with all ones
    all_members = frozenset(itertools.combinations(range(1, n + 1), k))
    res = solve_free(filter_rows(all_members, n, k))
    assert res.feasible
    assert all(v >= 0 for v in res.point)
    res = solve_feasibility(relaxed_rows(all_members, n, k))
    assert res.feasible
    assert all(v >= 0 for v in values_of_differences(res.point, res.den))
    # up-closure of {(1,2)} alone: infeasible
    for rows, solve in ((filter_rows(up_closure([(1, 2)], n), n, k), solve_free),
                        (relaxed_rows(up_closure([(1, 2)], n), n, k), solve_feasibility)):
        res = solve(rows)
        assert not res.feasible
        assert res.farkas is not None
    # up-closure of {(2,3)}: feasible
    res = solve_free(filter_rows(up_closure([(2, 3)], n), n, k))
    assert res.feasible
    count = count_nonneg_ksums(Configuration(certificate(res)), k)
    assert count == 3
    res = solve_feasibility(relaxed_rows(up_closure([(2, 3)], n), n, k))
    assert res.feasible
    assert count_nonneg_ksums(
        Configuration(values_of_differences(res.point, res.den)), k) == 3


def test_filter_system_is_the_substituted_relaxation():
    """At any (d, s) >= 0, the total row of R(F) is the sum of the values and
    a non-member's row is minus its k-sum; every entry is a plain int."""
    rng = random.Random(11)
    for n, k in ((5, 2), (7, 3), (8, 5)):
        subsets = list(itertools.combinations(range(1, n + 1), k))
        for _ in range(20):
            point = tuple(Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(n))
            den = math.lcm(*(d.denominator for d in point))
            x = values_of_differences(tuple(int(d * den) for d in point), den)
            assert list(x) == sorted(x, reverse=True) and x[-1] == -point[-1]
            chosen = rng.sample(subsets, 3)
            total, *rows = filter_system(chosen, n, k)
            assert all(type(e) is int for r in (total, *rows) for e in (*r.coeffs, r.rhs))
            assert (total.rhs, sum(c * v for c, v in zip(total.coeffs, point))) == (0, sum(x))
            for b, row in zip(chosen, rows):
                assert row.rhs == 1
                assert sum(c * v for c, v in zip(row.coeffs, point)) == -sum(x[i - 1] for i in b)


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
        rows = filter_rows(members, n, k)
        res = solve_free(rows)
        if res.feasible:
            assert satisfies(rows, certificate(res))
        else:
            assert contradicts(rows, res.farkas)
        assert fourier_motzkin_feasible(rows) == res.feasible
        # R(F) relaxes the full system, and is checked on its own rows.
        relaxed = relaxed_rows(members, n, k)
        rel = solve_feasibility(relaxed)
        if rel.feasible:
            assert fraclp.check_point(relaxed, certificate(rel))
        else:
            assert fraclp.check_farkas(relaxed, rel.farkas)
        assert rel.feasible or not res.feasible
        assert fourier_motzkin_feasible(relaxed + nonnegativity_rows(n)) == rel.feasible
        checked += 1
    assert checked == 60


def all_filter_steps(n, k):
    """Every (filter, candidate) pair of filters containing the top k-set."""
    start = frozenset([tuple(range(1, k + 1))])
    seen, stack = {start}, [start]
    while stack:
        members = stack.pop()
        for cand in maximal_nonmembers_of(members, n, k):
            yield members, cand
            grown = members | {cand}
            if grown not in seen:
                seen.add(grown)
                stack.append(grown)


@pytest.mark.parametrize("n,k", [(5, 2), (7, 2), (6, 3), (7, 3), (6, 4), (7, 4)])
def test_child_frontier_matches_recomputation(n, k):
    steps = 0
    for members, cand in all_filter_steps(n, k):
        grown = members | {cand}
        frontier = maximal_nonmembers_of(members, n, k)
        assert child_frontier(frontier, cand, grown, n) == maximal_nonmembers_of(grown, n, k)
        steps += 1
    assert steps >= 19


@pytest.mark.parametrize("n,k", [(5, 2), (7, 2), (6, 3), (7, 3), (6, 4), (7, 4)])
def test_exact_A_builds_each_filter_once_in_order(n, k, monkeypatch):
    """Against the filter graph, not the LP: where the averaging cut is below
    A, exact_A builds every filter of each size 1 .. A - 1 once (the root
    {top} among them), in sorted-member order, each with the frontier a full
    scan would give, and no other filter. Where the cut is A it builds none."""
    built = []
    honest_child = solver_mod.child_frontier

    def recorded(frontier, cand, grown, n):
        child = honest_child(frontier, cand, grown, n)
        built.append((grown, child))
        return child

    monkeypatch.setattr(solver_mod, "child_frontier", recorded)
    res = exact_A(n, k, budget=10**6)
    assert not res.upper_bound_only
    grown_sets = [grown for grown, _ in built]
    assert len(set(grown_sets)) == len(grown_sets)
    by_size = {}
    for grown in grown_sets:
        by_size.setdefault(len(grown), []).append(sorted(grown))
    reachable = {}
    for members, cand in all_filter_steps(n, k):
        grown = members | {cand}
        reachable.setdefault(len(grown), set()).add(grown)
    every = {size: sorted(sorted(g) for g in filters) for size, filters in reachable.items()}
    every[1] = [[tuple(range(1, k + 1))]]
    walked = averaging_lower_bound(n, k) < res.A_value
    assert by_size == {size: every[size] for size in range(1, res.A_value) if walked}
    for grown, child in built:
        assert child == maximal_nonmembers_of(grown, n, k)


def full_system_search(n, k):
    """Best-first search by a heap keyed on (size, sorted members) with a
    `visited` set, on the full system: every frontier recomputed, every LP
    over free x, from the averaging cut on. Returns A, the minimal elements
    of the first realisable filter in that order, and (size, maximal
    non-members) of every filter smaller than A."""
    top = tuple(range(1, k + 1))
    start = frozenset([top])
    cut = averaging_lower_bound(n, k)
    heap, visited = [(1, (top,), start)], {start}
    popped = []
    while heap:
        size, _, members = heapq.heappop(heap)
        frontier = maximal_nonmembers_of(members, n, k)
        if size >= cut:
            minimal = minimal_elements_of(members, n)
            rows = full_system(minimal, frontier, n)
            res = solve_free(rows)
            if res.feasible:
                assert satisfies(rows, certificate(res))
                assert count_nonneg_ksums(Configuration.from_values(certificate(res)), k) == size
                return size, tuple(minimal), [(s, f) for s, f in popped if s < size]
            assert contradicts(rows, res.farkas)
        popped.append((size, frontier))
        for cand in frontier:
            grown = members | {cand}
            if grown not in visited:
                visited.add(grown)
                heapq.heappush(heap, (size + 1, tuple(sorted(grown)), grown))
    raise AssertionError("no feasible filter")


@pytest.mark.parametrize("n,k", [
    (5, 2), (7, 2), (9, 2), (6, 3), (7, 3), (6, 4), (7, 4), (7, 5)])
def test_exact_A_matches_full_system_search(n, k, monkeypatch):
    """Same A and minimal elements as the heap search. Where the averaging
    cut is below A, the walk visits every filter smaller than A and LP-tests
    each one from the cut on once (told apart by their frontiers); where the
    cut is A it visits none."""
    calls, frontiers = [], []
    honest = solver_mod.solve_feasibility
    honest_system = solver_mod.filter_system

    def counted(rows):
        calls.append(len(rows))
        return honest(rows)

    def recorded(max_nonmembers, n, k):
        frontiers.append(tuple(max_nonmembers))
        return honest_system(max_nonmembers, n, k)

    monkeypatch.setattr(solver_mod, "solve_feasibility", counted)
    monkeypatch.setattr(solver_mod, "filter_system", recorded)
    res = exact_A(n, k)
    a_value, minimal, smaller = full_system_search(n, k)
    cut = averaging_lower_bound(n, k)
    tested = {tuple(f) for size, f in smaller if size >= cut}
    assert (res.A_value, res.minimal_elements) == (a_value, minimal)
    assert res.nodes_explored == (len(smaller) if cut < a_value else 0)
    assert len(calls) == len(frontiers) == len(tested)
    assert set(frontiers) == tested


@pytest.mark.parametrize("n,k,a_value", [(7, 3, 10), (8, 3, 16), (9, 5, 35)])
def test_exact_A_refines_a_loose_incumbent(n, k, a_value, monkeypatch):
    """Started from the star instead of the grid's count, the walk lowers
    the incumbent through feasible LPs to the heap search's A and the grid
    run's minimal elements. The heap search takes about 30 s at (9,5), so
    its A = 35 is pinned there."""
    grid = exact_A(n, k)
    star = Configuration.from_values([n - 1] + [-1] * (n - 1))
    feasible = []
    honest = solver_mod.solve_feasibility

    def recorded(rows):
        res = honest(rows)
        feasible.append(res.feasible)
        return res

    monkeypatch.setattr(solver_mod, "search_upper_bound",
                        lambda n, k: (binomial(n - 1, k - 1), star))
    monkeypatch.setattr(solver_mod, "solve_feasibility", recorded)
    res = exact_A(n, k)
    assert not res.upper_bound_only and any(feasible)
    assert res.A_value == grid.A_value == a_value < binomial(n - 1, k - 1)
    if n * k < 40:
        assert full_system_search(n, k)[0] == a_value
    assert res.minimal_elements == grid.minimal_elements
    assert count_nonneg_ksums(res.optimal_config, k) == res.A_value


def test_exact_A_spot_values():
    assert exact_A(4, 2).A_value == 3
    res = exact_A(5, 2)
    assert res.A_value == 3
    count = count_nonneg_ksums(res.optimal_config, 2)
    assert count == 3
    assert exact_A(6, 2).A_value == 5
    assert exact_A(7, 2).A_value == 6


def test_exact_A_result_invariants():
    res = exact_A(7, 2)
    assert count_nonneg_ksums(res.optimal_config, 2) == res.A_value
    assert up_closure(res.minimal_elements, 7) == member_indices(res.optimal_config, 2)
    assert list(res.minimal_elements) == sorted(res.minimal_elements)
    assert not res.upper_bound_only
    assert res.nodes_explored >= 1
    assert res.A_value >= 1


def test_exact_A_baranyai_consistency():
    for n, k in ((4, 2), (6, 2), (8, 2), (6, 3)):
        assert exact_A(n, k).A_value == binomial(n - 1, k - 1)


def test_exact_A_budget_flag():
    res = exact_A(9, 2, budget=3)
    assert res.upper_bound_only
    assert res.A_value == 8  # the grid's count, the star's here
    count = count_nonneg_ksums(res.optimal_config, 2)
    assert count == res.A_value
    assert up_closure(res.minimal_elements, 9) == member_indices(res.optimal_config, 2)


def test_averaging_lower_bound_cuts_lp_calls(monkeypatch):
    calls = []
    honest = solver_mod.solve_feasibility

    def counted(rows):
        calls.append(len(rows))
        return honest(rows)

    monkeypatch.setattr(solver_mod, "solve_feasibility", counted)
    res = exact_A(8, 3)
    assert (res.A_value, res.nodes_explored) == (16, 216)
    # The 48 filters smaller than C(5,2) = 10 are expanded without an LP call.
    assert averaging_lower_bound(8, 3) == 10
    assert len(calls) == 168


@pytest.mark.parametrize("n,k,nodes,lp_calls", [
    (10, 3, 12690, 8413), (9, 4, 0, 0)])
def test_exact_A_largest_decided_instances(n, k, nodes, lp_calls, monkeypatch):
    """A(10,3) = A(9,4) = 35, with the walk's node and LP-call counts. At
    (9,4) the averaging cut C(7,3) = 35 meets the grid's count."""
    calls = []
    honest = solver_mod.solve_feasibility

    def counted(rows):
        calls.append(len(rows))
        return honest(rows)

    monkeypatch.setattr(solver_mod, "solve_feasibility", counted)
    res = exact_A(n, k)
    assert (res.A_value, res.nodes_explored, len(calls)) == (35, nodes, lp_calls)
    assert not res.upper_bound_only
    assert count_nonneg_ksums(res.optimal_config, k) == 35


def test_exact_A_every_budget_at_8_3():
    """(8,3) visits 216 nodes; any smaller budget, also one that ends below
    the averaging cut or among the LP-tested filters, stops after exactly
    that many nodes with the grid's configuration, flagged as a bound."""
    grid = Configuration.from_values([5] * 3 + [-3] * 5)
    assert search_upper_bound(8, 3) == (16, grid)
    for budget in range(216):
        res = exact_A(8, 3, budget=budget)
        assert (res.nodes_explored, res.upper_bound_only, res.A_value) == (budget, True, 16)
        assert res.optimal_config == grid
    res = exact_A(8, 3, budget=216)
    assert (res.nodes_explored, res.upper_bound_only, res.A_value) == (216, False, 16)
    assert res.optimal_config == grid


def count_expansions(monkeypatch):
    """The filters passed to `_children`, in call order, each with the sizes
    of the children built."""
    expanded = []
    honest = solver_mod._children

    def counted(members, last, frontier, n):
        children = honest(members, last, frontier, n)
        expanded.append((members, [len(child[0]) for child in children]))
        return children

    monkeypatch.setattr(solver_mod, "_children", counted)
    return expanded


@pytest.mark.parametrize("n,k", [(7, 3), (9, 3), (8, 4), (8, 3), (10, 3)])
def test_exact_A_expands_each_visited_filter_but_the_answer(n, k, monkeypatch):
    """Children are built only where they are smaller than A: every visited
    filter of size below A - 1 is expanded once, no other, and every child
    is visited. (7,3), (9,3) and (8,4) visit none."""
    expanded = count_expansions(monkeypatch)
    res = exact_A(n, k)
    assert not res.upper_bound_only
    members = [m for m, _ in expanded]
    assert len(set(members)) == len(members)
    visited = [1] + [size for _, sizes in expanded for size in sizes] if res.nodes_explored else []
    assert len(visited) == res.nodes_explored
    assert len(expanded) == sum(size < res.A_value - 1 for size in visited)
    assert all(len(m) < res.A_value - 1 for m in members)


def test_exact_A_expands_no_filter_past_the_budget(monkeypatch):
    """A budget of 30 at (8,3) visits 30 nodes and expands the 22 of them
    smaller than A - 1 = 15; no child past them is visited."""
    expanded = count_expansions(monkeypatch)
    res = exact_A(8, 3, budget=30)
    assert (res.upper_bound_only, res.nodes_explored) == (True, 30)
    assert len(expanded) == 22
    assert all(len(m) < 15 for m, _ in expanded)


def test_exact_A_computes_each_frontier_once(monkeypatch):
    frontier_calls, steps, lp_calls = [], [], []
    honest_frontier = solver_mod.maximal_nonmembers_of
    honest_child = solver_mod.child_frontier
    honest_lp = solver_mod.solve_feasibility

    def counted_frontier(members, n, k):
        frontier_calls.append(len(members))
        return honest_frontier(members, n, k)

    def checked_child(frontier, cand, grown, n):
        child = honest_child(frontier, cand, grown, n)
        assert child == honest_frontier(grown, n, len(cand))
        steps.append(cand)
        return child

    def counted_lp(rows):
        lp_calls.append(len(rows))
        return honest_lp(rows)

    monkeypatch.setattr(solver_mod, "maximal_nonmembers_of", counted_frontier)
    monkeypatch.setattr(solver_mod, "child_frontier", checked_child)
    monkeypatch.setattr(solver_mod, "solve_feasibility", counted_lp)
    res = exact_A(8, 3)
    assert res.nodes_explored == 216
    # No frontier is a scan over all k-sets: each one, the root's too, grows
    # from its parent's and equals that scan.
    assert frontier_calls == []
    assert len(steps) >= res.nodes_explored - 1
    assert len(lp_calls) == 168


@pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (8, 2), (10, 2), (6, 3), (9, 3), (8, 4)])
def test_exact_A_walks_straight_to_the_star_when_k_divides_n(n, k, monkeypatch):
    """When k | n the averaging cut is C(n-1,k-1), the star's count, which
    the grid returns: no node is visited, no LP is solved, and the answer
    is the star."""
    calls = []
    honest = solver_mod.solve_feasibility

    def counted(rows):
        calls.append(len(rows))
        return honest(rows)

    monkeypatch.setattr(solver_mod, "solve_feasibility", counted)
    star = binomial(n - 1, k - 1)
    res = exact_A(n, k)
    assert (res.A_value, res.nodes_explored, len(calls)) == (star, 0, 0)
    assert res.minimal_elements == ((1, *range(n - k + 2, n + 1)),)
    assert not res.upper_bound_only


def test_exact_A_budget_at_9_3():
    """The averaging cut C(8,2) = 28 meets the grid's count: exact at any
    budget, 0 included."""
    for budget in (0, 27, 28):
        res = exact_A(9, 3, budget=budget)
        assert (res.upper_bound_only, res.A_value, res.nodes_explored) == (False, 28, 0)
        assert count_nonneg_ksums(res.optimal_config, 3) == 28


def test_averaging_lower_bound_below_every_exact_value():
    for (n, k), a_value in {
        (4, 2): 3, (5, 2): 3, (6, 2): 5, (7, 2): 6, (5, 3): 3, (7, 3): 10,
        (6, 4): 5, (7, 4): 10, (7, 5): 6,
    }.items():
        assert averaging_lower_bound(n, k) <= exact_A(n, k).A_value == a_value


def test_averaging_lower_bound_refuses_k_below_one():
    for k in (0, -1):
        with pytest.raises(ValueError, match=f"k={k}"):
            averaging_lower_bound(6, k)


def test_exact_A_rejects_ranges():
    with pytest.raises(ValueError):
        exact_A(30, 5)
    with pytest.raises(ValueError):
        exact_A(3, 4)
    with pytest.raises(ValueError, match="budget must be non-negative"):
        exact_A(5, 2, budget=-1)
    # A budget of 0 visits no node: exact only where the averaging cut
    # meets the grid's count, as at (5,2) but not at (7,2).
    assert not exact_A(5, 2, budget=0).upper_bound_only
    res = exact_A(7, 2, budget=0)
    assert (res.upper_bound_only, res.nodes_explored, res.A_value) == (True, 0, 6)


@pytest.mark.parametrize("n,k", [(0, 1), (-3, 2), (3, 4), (5, 0)])
def test_search_rejects_ranges(n, k):
    with pytest.raises(ValueError, match=rf"need 1 <= k <= n, got n={n}, k={k}"):
        search_upper_bound(n, k)


def expand(values, mults):
    return [v for v, m in zip(values, mults) for _ in range(m)]


def value_pair_sweep(n, k):
    """The grid search that the scan over m replaced, kept as an oracle:
    yield (count, values, multiplicities) for every pair of integers
    hi > lo in [-(n-1), n-1], taken m and n - m times (1 <= m < n) with a
    non-negative total, counted from the pick vectors (a, k - a) with
    a*hi + (k - a)*lo >= 0."""
    for hi in range(n - 1, -n, -1):
        for lo in range(hi - 1, -n, -1):
            picks = [(a, k - a) for a in range(k + 1) if a * hi + (k - a) * lo >= 0]
            for m in range(n - 1, 0, -1):
                if hi * m + lo * (n - m) < 0:
                    break  # sum decreases with m here; the rest are negative
                rest = n - m
                count = sum(binomial(m, a) * binomial(rest, b) for a, b in picks)
                yield count, (hi, lo), (m, rest)


def test_grid_counts_match_the_general_kernel():
    for k in range(1, 5):
        for n in range(k, 13):
            seen = 0
            for count, values, mults in value_pair_sweep(n, k):
                assert len(values) == len(mults) and sum(mults) == n and min(mults) >= 1
                assert count == count_nonneg_scaled(expand(values, mults), k), (n, k, values, mults)
                seen += 1
            assert seen > 0 or n == 1


@pytest.mark.parametrize("k", range(1, 6))
def test_two_value_minimum_matches_the_value_pair_sweep(k):
    """The scan's count is the least of the star's and every value pair's."""
    for n in range(k, 25):
        best = min([binomial(n - 1, k - 1), *(c for c, _, _ in value_pair_sweep(n, k))])
        assert search_upper_bound(n, k, "grid")[0] == best, (n, k)


def two_value_floor(n, k, m):
    """f(m): the non-negative k-sums of (n - m, -m) taken m and n - m times."""
    return sum(binomial(m, a) * binomial(n - m, k - a) for a in range(k + 1) if a * n >= k * m)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_two_value_count_is_smallest_at_a_zero_total(data):
    """With m copies of hi > 0 and n - m of lo < 0 and a non-negative total,
    at least f(m) k-sums are non-negative, and (n - m, -m) has exactly f(m)."""
    n = data.draw(st.integers(2, 16))
    k = data.draw(st.integers(1, n))
    m = data.draw(st.integers(1, n - 1))
    lo = data.draw(st.integers(-30, -1))
    least = -(lo * (n - m) // m)  # ceil((n - m) * |lo| / m)
    hi = data.draw(st.integers(least, least + 60))
    assert m * hi + (n - m) * lo >= 0
    floor = two_value_floor(n, k, m)
    assert count_nonneg_scaled(expand((hi, lo), (m, n - m)), k) >= floor
    assert count_nonneg_scaled(expand((n - m, -m), (m, n - m)), k) == floor


@pytest.mark.parametrize("k", range(3, 9))
def test_grid_returns_the_3k_plus_1_counterexample(k):
    """At n = 3k+1 the scan stops at 3 taken 3k-2 times and -(3k-2) taken
    3 times, the classical counterexample."""
    n = 3 * k + 1
    count, config = search_upper_bound(n, k, "grid")
    assert config == Configuration.from_values([3] * (3 * k - 2) + [-(3 * k - 2)] * 3)
    assert count == two_value_floor(n, k, 3 * k - 2) < binomial(n - 1, k - 1)


@pytest.mark.parametrize("n,k", [
    (n, k) for k in range(2, 12) for n in range(k, 14) if binomial(n, k) <= 84])
def test_grid_count_is_A_wherever_exact_A_decides(n, k):
    """Two values suffice on every instance decided here: the grid's count
    is A(n,k) itself."""
    assert search_upper_bound(n, k, "grid")[0] == exact_A(n, k).A_value


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
    (20, 3, "grid"): (171, [19] + [-1] * 19),
    (24, 5, "grid"): (8855, [23] + [-1] * 23),
    (12, 5, "grid"): (246, [7] * 5 + [-5] * 7),
    (10, 4, "grid"): (70, [7] * 3 + [-3] * 7),
}


@pytest.mark.parametrize("n,k,strategy", sorted(SEARCH_REFERENCE))
def test_search_matches_reference(n, k, strategy):
    count, values = SEARCH_REFERENCE[n, k, strategy]
    assert search_upper_bound(n, k, strategy, 0) == (
        count, Configuration.from_values(values))


def anneal_oracle(n, k, seed):
    """The annealing loop that the in-place, memoised one replaced, kept as
    an oracle: each step copies the list, re-sums it, sorts it and counts
    it afresh."""
    best_count = binomial(n - 1, k - 1)
    best_values = [n - 1] + [-1] * (n - 1)
    rng = random.Random(seed)
    bound = max(n, 8)
    cur = list(best_values)
    cur_count = best_count
    temperature = 2.0
    for step in range(4000):
        temperature *= 0.999
        cand = list(cur)
        pos = rng.randrange(n)
        cand[pos] += rng.choice((-3, -2, -1, 1, 2, 3))
        cand[pos] = max(-bound, min(bound, cand[pos]))
        if sum(cand) < 0:
            continue
        c = count_nonneg_scaled(sorted(cand, reverse=True), k)
        if c <= cur_count or rng.random() < pow(2.0, -(c - cur_count) / max(temperature, 1e-9)):
            cur, cur_count = cand, c
            if c < best_count:
                best_count, best_values = c, list(cand)
    return best_count, Configuration.from_values(best_values)


@pytest.mark.parametrize("n", range(3, 13))
def test_anneal_follows_the_oracle_trajectory(n):
    for k in range(1, min(5, n) + 1):
        for seed in range(8):
            assert search_upper_bound(n, k, "anneal", seed) == anneal_oracle(n, k, seed), (n, k, seed)


def test_anneal_pinned_run_leaves_the_star():
    """A seeded run that ends below the star's C(4, 2) = 6, so a changed
    trajectory shows here."""
    assert search_upper_bound(5, 3, "anneal", 0) == (
        3, Configuration.from_values([7, 7, -3, -5, -6]))


def test_anneal_counts_each_multiset_once(monkeypatch):
    seen = []

    def counting(values, k):
        seen.append(tuple(values))
        return count_nonneg_scaled(values, k)

    monkeypatch.setattr(solver_mod, "count_nonneg_scaled", counting)
    assert search_upper_bound(13, 4, "anneal", 0) == (220, Configuration.from_values([12] + [-1] * 12))
    assert all(list(v) == sorted(v, reverse=True) for v in seen)
    assert len(set(seen)) == len(seen) == 349  # the old loop counted 2,272 times


def test_search_deterministic_given_seed():
    a = search_upper_bound(7, 4, "anneal", 1)
    b = search_upper_bound(7, 4, "anneal", 1)
    assert a == b
    assert a[0] < binomial(6, 3)  # leaves the star


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
    assert rows[0].upper == binomial(6, 1)  # the grid's count, the star's here
    assert count_nonneg_ksums(rows[0].witness_config, 2) == rows[0].upper
    # Above the cap the solver never starts: the row reads the same as a
    # spent budget, with the grid's configuration as its witness.
    for n, k in [(11, 3), (13, 3)]:
        assert binomial(n, k) > solver_mod.EXACT_SOLVER_CAP
        (row,) = verify_conjecture_range(n, n, k)
        assert row.verdict == "undecided" and row.equals_target is None
        assert row.a_value is None and row.lower < binomial(n - 1, k - 1) <= row.upper
        assert count_nonneg_ksums(row.witness_config, k) == row.upper


@pytest.mark.parametrize("n_lo,n_hi,k,uppers", [
    (10, 14, 5, {11: 126, 12: 246, 13: 405, 14: 550}),
    (8, 12, 4, {9: 35, 10: 70, 11: 92}),
])
def test_sweep_reads_counterexamples_off_the_grid(n_lo, n_hi, k, uppers):
    """Every row but the k | n ones is a counterexample at the grid's count,
    which its witness realises exactly; at (9,4) `exact_A` meets that count."""
    rows = {r.n: r for r in verify_conjecture_range(n_lo, n_hi, k)}
    for n, row in rows.items():
        if n in uppers:
            assert row.verdict == "counterexample" and row.equals_target is False, n
            assert row.upper == uppers[n] < binomial(n - 1, k - 1), n
            assert row.upper == search_upper_bound(n, k)[0], n
            assert count_nonneg_ksums(row.witness_config, k) == row.upper, n
        else:
            assert n % k == 0 and row.verdict == "equality", n


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_sweep_verdict_is_read_off_the_bounds(k):
    for r in verify_conjecture_range(1, 16, k):
        target = binomial(r.n - 1, k - 1)
        assert r.lower <= target and r.lower <= r.upper
        assert r.verdict == ("counterexample" if r.upper < target
                             else "equality" if r.lower == target else "undecided")
        assert r.equals_target == {
            "equality": True, "counterexample": False, "undecided": None}[r.verdict]
        assert r.a_value == (r.upper if r.lower == r.upper else None)
        assert (r.witness_config is None) == (r.verdict == "equality")
        if r.witness_config is not None:
            assert count_nonneg_ksums(r.witness_config, k) == r.upper


def test_sweep_scans_the_grid_once_per_row(monkeypatch):
    """`exact_A` asks the grid for the row's (n, k) again: the scan is kept
    and runs once per row."""
    scans, calls = [], []
    honest_recount, honest_search = solver_mod._recounted, solver_mod.search_upper_bound

    def recounted(count, values, k):
        scans.append((len(values), k))
        return honest_recount(count, values, k)

    def search(n, k, *rest):
        calls.append((n, k))
        return honest_search(n, k, *rest)

    monkeypatch.setattr(solver_mod, "_recounted", recounted)
    monkeypatch.setattr(solver_mod, "search_upper_bound", search)
    solver_mod._grid_scan.cache_clear()
    rows = verify_conjecture_range(4, 12, 3)
    assert scans == [(n, 3) for n in range(4, 13)]
    assert len(calls) == 14 and set(calls) == set(scans)  # exact_A ran on five rows
    assert verify_conjecture_range(4, 12, 3) == rows and len(scans) == 9


def test_verify_conjecture_range_k3():
    rows = verify_conjecture_range(9, 10, 3)
    by_n = {r.n: r for r in rows}
    assert by_n[9].verdict == "equality"
    assert by_n[9].lower == by_n[9].upper == binomial(8, 2) == 28
    assert by_n[10].verdict == "counterexample"
    assert by_n[10].upper == 35
    count = count_nonneg_ksums(by_n[10].witness_config, 3)
    assert count == 35
