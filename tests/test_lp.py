import math
import random
from fractions import Fraction

import pytest

import mms.lp as lp_mod
import mms.solver as solver_mod
from mms.lp import LinRow, solve_feasibility

import fraclp
from fraclp import certificate, integral
from freelp import (
    contradicts,
    fourier_motzkin_feasible,
    nonnegativity_rows,
    satisfies,
    solve_free,
)


def rows_from_ints(data):
    return [LinRow(tuple(coeffs), rhs) for coeffs, rhs in data]


def random_rows(rng, nvars, nrows, coeff, rhs):
    return rows_from_ints([
        (tuple(rng.randint(-coeff, coeff) for _ in range(nvars)), rng.randint(-rhs, rhs))
        for _ in range(nrows)
    ])


def test_trivial_systems():
    assert solve_feasibility([]).feasible
    assert solve_free([]).feasible
    r = solve_free(rows_from_ints([(((1,)), 5)]))
    assert r.feasible and r.point[0] >= 5 * r.den
    r = solve_free(rows_from_ints([((1,), 2), ((-1,), -1)]))
    assert not r.feasible


def test_nonnegative_variables():
    # -x >= 1 needs x < 0: infeasible over x >= 0 with y = (1,), feasible free.
    rows = rows_from_ints([((-1,), 1)])
    res = solve_feasibility(rows)
    assert not res.feasible and res.farkas == (1,)
    assert fraclp.check_farkas(rows, res.farkas)
    assert solve_free(rows).feasible
    # The solver's point check, on rows coeffs + (rhs,) and a point over den,
    # rejects a negative coordinate that satisfies every row.
    assert not lp_mod._point_holds([(1, -5)], [-1], 1)
    assert lp_mod._point_holds([(1, -5)], [0], 1)
    assert not lp_mod._point_holds([(2, 3)], [2], 2)
    # Its Farkas check accepts y^T A < 0 and rejects y^T A > 0 or y^T b <= 0.
    assert lp_mod._farkas_holds([(-2, 0, 1)], [1])
    assert not lp_mod._farkas_holds([(1, 0, 1)], [1])
    assert not lp_mod._farkas_holds([(-1, 0, 0)], [1])
    assert not lp_mod._farkas_holds([(-1, 1)], [-1])


def test_certificates_verify():
    rng = random.Random(5)
    seen = {(free, feasible): 0 for free in (True, False) for feasible in (True, False)}
    for _ in range(300):
        rows = random_rows(rng, rng.randint(1, 5), rng.randint(1, 7), 4, 5)
        res = solve_free(rows)
        seen[True, res.feasible] += 1
        if res.feasible:
            assert satisfies(rows, certificate(res))
        else:
            assert contradicts(rows, res.farkas)
        res = solve_feasibility(rows)
        seen[False, res.feasible] += 1
        if res.feasible:
            assert fraclp.check_point(rows, certificate(res))
        else:
            assert fraclp.check_farkas(rows, res.farkas)
    assert min(seen.values()) > 20, seen


def test_simplex_agrees_with_fourier_motzkin():
    rng = random.Random(9)
    for _ in range(300):
        nvars = rng.randint(1, 4)
        rows = random_rows(rng, nvars, rng.randint(1, 6), 3, 4)
        assert solve_free(rows).feasible == fourier_motzkin_feasible(rows)
        assert solve_feasibility(rows).feasible == fourier_motzkin_feasible(
            rows + nonnegativity_rows(nvars))


def test_rational_coefficients():
    rows = [
        LinRow((Fraction(1, 3), Fraction(-1, 7)), Fraction(2, 5)),
        LinRow((Fraction(-1, 2), Fraction(1)), Fraction(0)),
        LinRow((Fraction(1), Fraction(1)), Fraction(-3)),
    ]
    res = solve_free(integral(rows))
    assert res.feasible and satisfies(rows, certificate(res))
    assert fourier_motzkin_feasible(rows)
    res = solve_feasibility(integral(rows))
    assert res.feasible and fraclp.check_point(rows, certificate(res))


def test_degenerate_zero_rows():
    rows = rows_from_ints([((0, 0), 1)])
    res = solve_free(rows)
    assert not res.feasible and contradicts(rows, res.farkas)
    res = solve_feasibility(rows)
    assert not res.feasible and fraclp.check_farkas(rows, res.farkas)
    rows = rows_from_ints([((0, 0), -1), ((1, 1), 0)])
    assert solve_free(rows).feasible
    assert solve_feasibility(rows).feasible


def test_farkas_combines_to_contradiction():
    # x1 >= x2, x2 >= x3, x3 >= x1 + 1 sums to 0 >= 1
    rows = rows_from_ints([
        ((1, -1, 0), 0),
        ((0, 1, -1), 0),
        ((-1, 0, 1), 1),
    ])
    res = solve_free(rows)
    assert not res.feasible
    combined_rhs = sum(y * r.rhs for y, r in zip(res.farkas, rows))
    assert combined_rhs > 0
    for j in range(3):
        assert sum(y * r.coeffs[j] for y, r in zip(res.farkas, rows)) == 0


def random_rational(rng):
    if rng.random() < 0.3:
        return rng.randint(-4, 4)  # a plain int entry
    return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


def random_rational_system(rng):
    """1-8 variables, 1-9 rows of int and Fraction entries, with all-zero
    rows, sparse rows, zero right-hand sides and repeated or negated rows."""
    nvars = rng.randint(1, 8)
    rows = []
    for _ in range(rng.randint(1, 9)):
        kind = rng.random()
        if rows and kind < 0.1:
            rows.append(rng.choice(rows))
        elif rows and kind < 0.2:
            r = rng.choice(rows)
            rows.append(LinRow(tuple(-c for c in r.coeffs), -r.rhs))
        elif kind < 0.3:
            rows.append(LinRow((Fraction(0),) * nvars, random_rational(rng)))
        else:
            density = rng.choice((0.3, 0.7, 1.0))
            coeffs = tuple(random_rational(rng) if rng.random() < density else 0
                           for _ in range(nvars))
            rows.append(LinRow(coeffs, 0 if rng.random() < 0.2 else random_rational(rng)))
    return rows


def assert_same_result(rows):
    """The int kernel on the scaled rows gives the Fraction simplex's verdict
    and, read over its denominator, its point or Farkas vector on `rows`."""
    res, oracle = solve_feasibility(integral(rows)), fraclp.solve_feasibility(rows)
    assert res.feasible == oracle.feasible and res.den > 0
    assert all(type(v) is int for v in res.point or res.farkas)
    assert certificate(res) == (oracle.point if oracle.feasible else oracle.farkas)
    return res


def test_integer_pivoting_matches_the_fraction_simplex():
    """Same verdict, point and Farkas vector as the Fraction simplex."""
    rng = random.Random(14)
    verdicts = []
    for _ in range(2500):
        verdicts.append(assert_same_result(random_rational_system(rng)).feasible)
    assert 500 < sum(verdicts) < 2000


@pytest.mark.parametrize("n,k", [(7, 3), (8, 3), (7, 4)])
def test_integer_pivoting_matches_on_exact_A_systems(n, k, monkeypatch):
    """Every system exact_A solves; none at (7,3), where the averaging cut
    meets the grid's count."""
    systems = []
    honest = solver_mod.solve_feasibility

    def recorded(rows):
        systems.append(rows)
        return honest(rows)

    monkeypatch.setattr(solver_mod, "solve_feasibility", recorded)
    solver_mod.exact_A(n, k)
    assert len(systems) == {(7, 3): 0, (8, 3): 168, (7, 4): 41}[n, k]
    for rows in systems:
        assert_same_result(rows)


def over_one_den(vector):
    """Int or Fraction entries as ints over their least common denominator."""
    den = math.lcm(*(Fraction(v).denominator for v in vector))
    return [int(v * den) for v in vector], den


def test_integer_checks_match_fraction_evaluation():
    """The solver's int checks on the scaled system agree with the Fraction
    checks on the rational one."""
    rng = random.Random(41)
    outcomes = {(name, ok): 0 for name in ("point", "farkas") for ok in (True, False)}
    for _ in range(1500):
        rows = random_rational_system(rng)
        nvars = len(rows[0].coeffs)
        system = [(*r.coeffs, r.rhs) for r in integral(rows)]
        res = fraclp.solve_feasibility(rows)
        candidates = [tuple(random_rational(rng) for _ in range(nvars))]
        if res.feasible:
            candidates.append(res.point)
            candidates.append(tuple(x + Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                                    for x in res.point))
        for point in candidates:
            ok = lp_mod._point_holds(system, *over_one_den(point))
            assert ok == fraclp.check_point(rows, point)
            outcomes["point", ok] += 1
        mults = [tuple(abs(random_rational(rng)) for _ in rows),
                 tuple(random_rational(rng) for _ in rows),
                 tuple(Fraction(1, 2) for _ in rows[1:])]
        if not res.feasible:
            mults.append(res.farkas)
            mults.append(tuple(y * rng.randint(1, 3) + Fraction(rng.randint(0, 1), 7)
                               for y in res.farkas))
        for mult in mults:
            ok = lp_mod._farkas_holds(system, over_one_den(mult)[0])
            assert ok == fraclp.check_farkas(rows, mult)
            outcomes["farkas", ok] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_unscaled_fraction_rows_are_refused_not_blamed_on_the_simplex():
    """Fraction rows that skip `integral` either come back with a certificate
    that holds on them, or are a ValueError naming an entry; never an
    AssertionError."""
    rng = random.Random(23)

    def entry():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))

    outcomes = {"point": 0, "farkas": 0, "refused": 0}
    for _ in range(300):
        rows = [LinRow(tuple(entry() for _ in range(3)), entry()) for _ in range(4)]
        try:
            res = solve_feasibility(rows)
        except ValueError as exc:
            assert "not an int" in str(exc)
            outcomes["refused"] += 1
            continue
        if res.feasible:
            assert fraclp.check_point(rows, certificate(res))
            outcomes["point"] += 1
        else:
            assert fraclp.check_farkas(rows, certificate(res))
            outcomes["farkas"] += 1
    assert min(outcomes.values()) > 20, outcomes


def fraction_rows(data):
    return [LinRow(tuple(Fraction(c) for c in coeffs), Fraction(rhs))
            for coeffs, rhs in data]


def test_fourier_motzkin_is_exact_on_int_rows():
    data = [((-3, -5, 4), -7), ((5, 6, -3), 5), ((-2, -5, 4), 2),
            ((-1, 4, -4), -6), ((-4, 1, 6), 2), ((-2, -5, 3), -1)]
    int_rows = rows_from_ints(data)
    assert fourier_motzkin_feasible(int_rows)
    assert fourier_motzkin_feasible(fraction_rows(data))
    assert solve_free(int_rows).feasible
    rng = random.Random(3)
    for _ in range(200):
        nvars = rng.randint(1, 4)
        data = [(tuple(rng.randint(-5, 5) for _ in range(nvars)), rng.randint(-6, 6))
                for _ in range(rng.randint(1, 6))]
        int_rows = rows_from_ints(data)
        assert fourier_motzkin_feasible(int_rows) == fourier_motzkin_feasible(
            fraction_rows(data)) == solve_free(int_rows).feasible
