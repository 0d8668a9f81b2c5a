"""Free-variable systems on top of `mms.lp`, whose solver works over x >= 0.

`solve_free` splits x = u - v, so it runs the one simplex in `mms.lp`. Its
point is mapped back to x; its Farkas multipliers are those of the split
rows, where y^T A <= 0 on both halves means y^T A = 0 on the free rows.
`satisfies` and `contradicts` are the certificate checks for free x, and
`nonnegativity_rows` lets Fourier-Motzkin, which works over free x, decide a
system over x >= 0.
"""
from __future__ import annotations

from fractions import Fraction

from mms.lp import FeasResult, LinRow, solve_feasibility


def split_free(rows: list[LinRow]) -> list[LinRow]:
    return [LinRow(r.coeffs + tuple(-c for c in r.coeffs), r.rhs) for r in rows]


def solve_free(rows: list[LinRow]) -> FeasResult:
    res = solve_feasibility(split_free(rows))
    if not res.feasible:
        return res
    nvars = len(res.point) // 2
    return FeasResult(True, point=tuple(
        u - v for u, v in zip(res.point[:nvars], res.point[nvars:])))


def satisfies(rows: list[LinRow], point) -> bool:
    """Every row holds at the point; no sign condition."""
    return all(sum(c * x for c, x in zip(r.coeffs, point)) >= r.rhs for r in rows)


def contradicts(rows: list[LinRow], mult) -> bool:
    """y >= 0 cancels every variable exactly and combines the right-hand
    sides to something strictly positive: 0 >= positive."""
    if len(mult) != len(rows) or any(y < 0 for y in mult):
        return False
    for j in range(len(rows[0].coeffs)):
        if sum(y * r.coeffs[j] for y, r in zip(mult, rows)) != 0:
            return False
    return sum(y * r.rhs for y, r in zip(mult, rows)) > 0


def nonnegativity_rows(nvars: int) -> list[LinRow]:
    """x_j >= 0 for each j."""
    return [LinRow(tuple(Fraction(int(i == j)) for i in range(nvars)), Fraction(0))
            for j in range(nvars)]
