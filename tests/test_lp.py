import random
from fractions import Fraction

from mms.lp import (
    LinRow,
    check_farkas,
    check_point,
    fourier_motzkin_feasible,
    solve_feasibility,
)

from freelp import contradicts, nonnegativity_rows, satisfies, solve_free


def rows_from_ints(data):
    return [LinRow(tuple(Fraction(c) for c in coeffs), Fraction(rhs))
            for coeffs, rhs in data]


def random_rows(rng, nvars, nrows, coeff, rhs):
    return rows_from_ints([
        (tuple(rng.randint(-coeff, coeff) for _ in range(nvars)), rng.randint(-rhs, rhs))
        for _ in range(nrows)
    ])


def test_trivial_systems():
    assert solve_feasibility([]).feasible
    assert solve_free([]).feasible
    r = solve_free(rows_from_ints([(((1,)), 5)]))
    assert r.feasible and r.point[0] >= 5
    r = solve_free(rows_from_ints([((1,), 2), ((-1,), -1)]))
    assert not r.feasible


def test_nonnegative_variables():
    # -x >= 1 needs x < 0: infeasible over x >= 0 with y = (1,), feasible free.
    rows = rows_from_ints([((-1,), 1)])
    res = solve_feasibility(rows)
    assert not res.feasible and res.farkas == (1,)
    assert check_farkas(rows, res.farkas)
    assert solve_free(rows).feasible
    # check_point rejects a negative coordinate that satisfies every row.
    assert not check_point(rows_from_ints([((1,), -5)]), (Fraction(-1),))
    assert check_point(rows_from_ints([((1,), -5)]), (Fraction(0),))
    # check_farkas accepts y^T A < 0 and rejects y^T A > 0 or y^T b <= 0.
    assert check_farkas(rows_from_ints([((-2, 0), 1)]), (Fraction(1),))
    assert not check_farkas(rows_from_ints([((1, 0), 1)]), (Fraction(1),))
    assert not check_farkas(rows_from_ints([((-1, 0), 0)]), (Fraction(1),))
    assert not check_farkas(rows, (Fraction(-1),))


def test_certificates_verify():
    rng = random.Random(5)
    seen = {(free, feasible): 0 for free in (True, False) for feasible in (True, False)}
    for _ in range(300):
        rows = random_rows(rng, rng.randint(1, 5), rng.randint(1, 7), 4, 5)
        res = solve_free(rows)
        seen[True, res.feasible] += 1
        if res.feasible:
            assert satisfies(rows, res.point)
        else:
            assert contradicts(rows, res.farkas)
        res = solve_feasibility(rows)
        seen[False, res.feasible] += 1
        if res.feasible:
            assert check_point(rows, res.point)
        else:
            assert check_farkas(rows, res.farkas)
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
    res = solve_free(rows)
    assert res.feasible and satisfies(rows, res.point)
    assert fourier_motzkin_feasible(rows)
    res = solve_feasibility(rows)
    assert res.feasible and check_point(rows, res.point)


def test_degenerate_zero_rows():
    rows = rows_from_ints([((0, 0), 1)])
    res = solve_free(rows)
    assert not res.feasible and contradicts(rows, res.farkas)
    res = solve_feasibility(rows)
    assert not res.feasible and check_farkas(rows, res.farkas)
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
