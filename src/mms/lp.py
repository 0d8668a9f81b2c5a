"""Exact linear feasibility over non-negative variables, in ints, with certificates.

Systems are lists of rows `coeffs . x >= rhs` over x >= 0 with int entries;
whoever holds a rational system scales it to ints first, and any other
entry is a ValueError once it spoils a certificate. The solver is a
Phase-I simplex with Bland's rule (guaranteed termination) that pivots on
Python ints, fraction-free in the manner of Bareiss (1968) and Avis's lrs:
the tableau is kept as D * B^-1 [A | b] with D = det B > 0, so every
division in a pivot is exact. It returns either a point x >= 0 that
satisfies every row, or Farkas multipliers y >= 0 with y^T A <= 0 and
y^T b > 0: for any x >= 0 the combined row reads y^T A x <= 0 < y^T b, an
exact derivation of a contradiction. Either comes back as the tableau's
ints over the one denominator D, checked on the system that was pivoted.

`mms.solver` feeds it the relaxed filter system R(F), written in the
non-negative differences of the sorted values (see `solver.filter_system`):
n variables and one row per maximal non-member plus the total row, so only
the non-member rows need an artificial variable, and
`solver.values_of_differences` turns the answer's point into `Fraction`s.
A system over free variables reaches the same solver through the split
x = u - v; there y^T A <= 0 on both halves means y^T A = 0.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass


@dataclass(frozen=True)
class LinRow:
    """coeffs . x >= rhs"""

    coeffs: tuple[int, ...]
    rhs: int


@dataclass(frozen=True)
class FeasResult:
    """The verdict and its certificate, `point` or `farkas`, as int
    numerators over `den` > 0."""

    feasible: bool
    point: tuple[int, ...] | None = None
    farkas: tuple[int, ...] | None = None
    den: int = 1


def _point_holds(system: list[tuple[int, ...]], xs: list[int], den: int) -> bool:
    """The point xs / den (den > 0) is non-negative and satisfies every row
    coeffs + [rhs] of the system."""
    return all(x >= 0 for x in xs) and all(
        sum(map(operator.mul, row[:-1], xs)) >= row[-1] * den for row in system)


def _farkas_holds(system: list[tuple[int, ...]], ys: list[int]) -> bool:
    """The multipliers are >= 0, combine every variable's coefficients to
    something <= 0, and the right-hand sides to something strictly positive;
    scaling ys by a positive factor changes none of these."""
    if len(ys) != len(system) or any(y < 0 for y in ys):
        return False
    *columns, rhs = zip(*system)
    return all(sum(map(operator.mul, ys, col)) <= 0 for col in columns) and (
        sum(map(operator.mul, ys, rhs)) > 0)


def _refuse_non_int(system: list[tuple[int, ...]]) -> None:
    """Raise ValueError naming the first entry that is not an int. The
    pivots' exact divisions floor such entries, so a certificate that fails
    its check on that system is the input's fault, not the simplex's; only
    the failure paths call this."""
    for i, row in enumerate(system):
        for j, v in enumerate(row):
            if not isinstance(v, int):
                entry = "rhs" if j == len(row) - 1 else f"coefficient {j}"
                raise ValueError(
                    f"row {i} {entry} is {v!r}, not an int: scale the system to ints first")


def solve_feasibility(rows: list[LinRow]) -> FeasResult:
    """Decide `A x >= b` over x >= 0, in exact integer arithmetic."""
    if not rows:
        return FeasResult(True, point=())
    nvars = len(rows[0].coeffs)
    nrows = len(rows)
    system = [(*r.coeffs, r.rhs) for r in rows]
    # Row i reads coeffs . x - s_i = rhs with surplus s_i >= 0. A row with
    # rhs <= 0 is negated; its surplus column is then +1 and starts in the
    # basis. Only rows with rhs > 0 get an artificial. Columns:
    # x | surplus | artificials, then the right-hand side.
    sigma = [1 if row[-1] > 0 else -1 for row in system]
    art0 = ncols = nvars + nrows
    start = []  # each row's starting basic column; it holds adj(B) throughout
    for i in range(nrows):
        if sigma[i] > 0:
            start.append(ncols)
            ncols += 1
        else:
            start.append(nvars + i)
    tableau: list[list[int]] = []
    for i, (*coeffs, rhs) in enumerate(system):
        row = [sigma[i] * c for c in coeffs] + [0] * (ncols - nvars + 1)
        row[nvars + i] = -sigma[i]
        row[start[i]] = 1
        row[ncols] = sigma[i] * rhs
        tableau.append(row)
    basis = list(start)
    # Phase-I objective row: z_j = (c_B B^-1 A)_j - c_j, with cost 1 on the
    # artificials; z[ncols] is the sum of the artificials. The tableau and z
    # hold det * those values, with det = det B > 0 (1 for the start basis).
    art_rows = [i for i in range(nrows) if sigma[i] > 0]
    z = [sum(col) for col in zip(*(tableau[i] for i in art_rows))] or [0] * (ncols + 1)
    for j in range(art0, ncols):
        z[j] -= 1
    det = 1

    while z[ncols] > 0:
        # Bland: smallest column with negative reduced cost; artificials
        # never re-enter.
        enter = next((j for j in range(art0) if z[j] > 0), None)
        if enter is None:
            break
        # Ratio test rhs_i / a_i over a_i > 0, by cross-multiplying.
        leave = None
        for i in range(nrows):
            a = tableau[i][enter]
            if a > 0:
                b = tableau[i][ncols]
                if leave is None or b * best_a < best_b * a or (
                        b * best_a == best_b * a and basis[i] < basis[leave]):
                    leave, best_b, best_a = i, b, a
        if leave is None:
            _refuse_non_int(system)
            raise AssertionError("phase-I objective unbounded -- impossible")
        # Bareiss step: the pivot row stays, every other row r becomes
        # (piv * r - r[enter] * prow) / det, an exact division, and the
        # pivot is the new det.
        prow = tableau[leave]
        piv = prow[enter]
        for row in tableau + [z]:
            if row is prow:
                continue
            f = row[enter]
            if f:
                row[:] = [(piv * x - f * y) // det for x, y in zip(row, prow)]
            elif piv != det:
                row[:] = [piv * x // det for x in row]
        det = piv
        basis[leave] = enter

    if z[ncols] == 0:
        xs = [0] * nvars
        for i, b in enumerate(basis):
            if b < nvars:
                xs[b] = tableau[i][ncols]
        if not _point_holds(system, xs, det):
            _refuse_non_int(system)
            raise AssertionError("simplex produced an invalid feasible point")
        return FeasResult(True, point=tuple(xs), den=det)

    # Duals pi off the starting basic columns, where z holds pi_i minus the
    # column's cost (1 for an artificial), mapped back through the row
    # negations.
    ys = [z[c] + det if s > 0 else -z[c] for s, c in zip(sigma, start)]
    if not _farkas_holds(system, ys):
        _refuse_non_int(system)
        raise AssertionError("simplex produced an invalid Farkas certificate")
    return FeasResult(False, farkas=tuple(ys), den=det)
