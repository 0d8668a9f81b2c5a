"""The Fraction simplex that `mms.lp` pivoted with before it went integer,
and the tests' conversions between rational systems and `mms.lp`'s ints.

A Phase-I simplex with Bland's rule over x >= 0, every tableau entry a
`Fraction`, and the certificate checks evaluated in `Fraction`s; its
`FeasResult` holds `Fraction`s over `den` = 1. The tests hold
`mms.lp.solve_feasibility` on `integral(rows)` to it: same verdict, and
the same point or Farkas vector on `rows` once `certificate` reads the
ints over `den` as `Fraction`s.
"""
from __future__ import annotations

import math
from fractions import Fraction

from mms.lp import FeasResult, LinRow

ZERO = Fraction(0)
ONE = Fraction(1)


def integral(rows: list[LinRow]) -> list[LinRow]:
    """The system of int or Fraction rows times the least common denominator
    of all its entries, as int rows. One positive factor for the whole system
    keeps its points, its Farkas vectors and Bland's pivot path; a factor per
    row would change the last two."""
    den = math.lcm(*(Fraction(x).denominator for r in rows for x in (*r.coeffs, r.rhs)))
    return [LinRow(tuple(int(c * den) for c in r.coeffs), int(r.rhs * den)) for r in rows]


def certificate(res: FeasResult) -> tuple[Fraction, ...]:
    """The point of a feasible result, or else its Farkas vector, as the
    Fractions that its ints over `den` stand for."""
    return tuple(Fraction(v, res.den) for v in (res.point if res.feasible else res.farkas))


def check_point(rows: list[LinRow], point: tuple[Fraction, ...]) -> bool:
    """The point is non-negative and satisfies every row."""
    return all(x >= 0 for x in point) and all(
        sum(c * x for c, x in zip(r.coeffs, point)) >= r.rhs for r in rows
    )


def check_farkas(rows: list[LinRow], mult: tuple[Fraction, ...]) -> bool:
    """Multipliers must be >= 0, combine every variable's coefficients to
    something <= 0, and the right-hand sides to something strictly positive."""
    if len(mult) != len(rows) or any(y < 0 for y in mult):
        return False
    nvars = len(rows[0].coeffs)
    for j in range(nvars):
        if sum(y * r.coeffs[j] for y, r in zip(mult, rows)) > 0:
            return False
    return sum(y * r.rhs for y, r in zip(mult, rows)) > 0


def solve_feasibility(rows: list[LinRow]) -> FeasResult:
    """Decide `A x >= b` over x >= 0, in exact rational arithmetic."""
    if not rows:
        return FeasResult(True, point=())
    nvars = len(rows[0].coeffs)
    nrows = len(rows)
    # Row i reads coeffs . x - s_i = rhs with surplus s_i >= 0. A row with
    # rhs <= 0 is negated; its surplus column is then +1 and starts in the
    # basis. Only rows with rhs > 0 get an artificial. Columns:
    # x | surplus | artificials, then the right-hand side.
    sigma = [ONE if r.rhs > 0 else -ONE for r in rows]
    art0 = ncols = nvars + nrows
    start = []  # each row's starting basic column; it holds B^-1 throughout
    for i in range(nrows):
        if sigma[i] > 0:
            start.append(ncols)
            ncols += 1
        else:
            start.append(nvars + i)
    tableau: list[list[Fraction]] = []
    for i, r in enumerate(rows):
        row = [sigma[i] * c for c in r.coeffs] + [ZERO] * (ncols - nvars + 1)
        row[nvars + i] = -sigma[i]
        row[start[i]] = ONE
        row[ncols] = sigma[i] * r.rhs
        tableau.append(row)
    basis = list(start)
    # Phase-I objective row: z_j = (c_B B^-1 A)_j - c_j, with cost 1 on the
    # artificials; z[ncols] is the sum of the artificials.
    art_rows = [i for i in range(nrows) if sigma[i] > 0]
    z = [sum((tableau[i][j] for i in art_rows), ZERO) for j in range(ncols + 1)]
    for j in range(art0, ncols):
        z[j] -= ONE

    while z[ncols] > 0:
        # Bland: smallest column with negative reduced cost; artificials
        # never re-enter.
        enter = next((j for j in range(art0) if z[j] > 0), None)
        if enter is None:
            break
        leave = None
        best_ratio = None
        for i in range(nrows):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][ncols] / a
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leave])):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            raise AssertionError("phase-I objective unbounded -- impossible")
        prow = tableau[leave]
        piv = prow[enter]
        nonzero = [j for j, x in enumerate(prow) if x]
        if piv != 1:
            for j in nonzero:
                prow[j] /= piv
        for row in tableau + [z]:
            f = row[enter]
            if row is not prow and f:
                for j in nonzero:
                    row[j] -= f * prow[j]
        basis[leave] = enter

    if z[ncols] == 0:
        point = [ZERO] * nvars
        for i, b in enumerate(basis):
            if b < nvars:
                point[b] = tableau[i][ncols]
        pt = tuple(point)
        if not check_point(rows, pt):
            raise AssertionError("simplex produced an invalid feasible point")
        return FeasResult(True, point=pt)

    # Duals pi off the starting basic columns, where z holds pi_i minus the
    # column's cost (1 for an artificial), mapped back through the row
    # negations.
    fk = tuple(z[c] + ONE if s > 0 else -z[c] for s, c in zip(sigma, start))
    if not check_farkas(rows, fk):
        raise AssertionError("simplex produced an invalid Farkas certificate")
    return FeasResult(False, farkas=fk)
