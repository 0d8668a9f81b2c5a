"""Free-variable systems on top of `mms.lp`, whose solver works over x >= 0,
and the Fourier-Motzkin oracle that decides them independently.

`solve_free` splits x = u - v, so it runs the one simplex in `mms.lp` on
int rows. Its point is mapped back to x, ints over the same `den`; its
Farkas multipliers are those of the split rows, where y^T A <= 0 on both
halves means y^T A = 0 on the free rows. `satisfies` and `contradicts` are
the certificate checks for free x. `fourier_motzkin_feasible` decides a
system of int or Fraction rows over free x by variable elimination, and
`nonnegativity_rows` lets it decide a system over x >= 0.
"""
from __future__ import annotations

from fractions import Fraction

from mms.lp import FeasResult, LinRow, solve_feasibility

FM_MAX_VARS = 8


def split_free(rows: list[LinRow]) -> list[LinRow]:
    return [LinRow(r.coeffs + tuple(-c for c in r.coeffs), r.rhs) for r in rows]


def solve_free(rows: list[LinRow]) -> FeasResult:
    res = solve_feasibility(split_free(rows))
    if not res.feasible:
        return res
    nvars = len(res.point) // 2
    return FeasResult(True, point=tuple(
        u - v for u, v in zip(res.point[:nvars], res.point[nvars:])), den=res.den)


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
    return [LinRow(tuple(int(i == j) for i in range(nvars)), 0) for j in range(nvars)]


def fourier_motzkin_feasible(rows: list[LinRow]) -> bool:
    """Independent feasibility verdict over free x by variable elimination
    (<= 8 vars)."""
    if not rows:
        return True
    nvars = len(rows[0].coeffs)
    if nvars > FM_MAX_VARS:
        raise ValueError(f"Fourier-Motzkin limited to {FM_MAX_VARS} variables")
    system = {(r.coeffs, r.rhs) for r in rows}
    for v in range(nvars):
        lower, upper, rest = [], [], []
        for coeffs, rhs in system:
            c = coeffs[v]
            if c > 0:
                lower.append((coeffs, rhs))
            elif c < 0:
                upper.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        new = set(rest)
        for lc, lb in lower:
            for uc, ub in upper:
                # scale so the eliminated coefficients cancel
                a, b = lc[v], -uc[v]
                coeffs = tuple(b * x + a * y for x, y in zip(lc, uc))
                new.add(_normalized(coeffs, b * lb + a * ub))
        system = new
    return all(rhs <= 0 for _, rhs in system)


def _normalized(coeffs: tuple, rhs) -> tuple[tuple[Fraction, ...], Fraction]:
    """The row divided by the absolute value of its first non-zero
    coefficient, a Fraction even for int rows so that the division is exact."""
    scale = next((abs(Fraction(c)) for c in coeffs if c != 0), Fraction(1))
    return tuple(c / scale for c in coeffs), rhs / scale
