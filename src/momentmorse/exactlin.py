"""Exact rational vectors, linear algebra and tiny exact linear programs.

Everything in this module is exact -- values are ``fractions.Fraction``,
and elimination works on integer multiples of the rows -- so that
the enumeration of critical values downstream can rely on exact equality:
two candidate values either coincide or they do not, with no tolerance in
sight.  Vectors are plain tuples of Fractions, which keeps equality,
hashing and immutability for free.

The linear programs that appear (cone membership, strict cone membership,
polarization certificates, polytope support tests) are all tiny -- a
handful of variables and at most ``rank`` equality constraints -- so they
are solved by a dense two-phase simplex with Bland's anti-cycling rule,
which terminates on every input without any perturbation tricks.

All functions are pure and all values immutable; concurrent use needs no
locking.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Rat = Fraction
RatVec = tuple[Fraction, ...]

LP_OPTIMAL = "optimal"
LP_UNBOUNDED = "unbounded"
LP_INFEASIBLE = "infeasible"


class DimensionMismatch(ValueError):
    """Raised when vectors of unequal length are combined."""


def as_ratvec(entries: Iterable, length: Optional[int] = None) -> RatVec:
    """Coerce an iterable of ints/strings/Fractions to an exact vector."""
    vec = tuple(Fraction(e) for e in entries)
    if length is not None and len(vec) != length:
        raise DimensionMismatch(f"expected length {length}, got {len(vec)}")
    return vec


def zero_vec(length: int) -> RatVec:
    return (Fraction(0),) * length


def _check_same_length(*vecs: RatVec) -> int:
    lengths = {len(v) for v in vecs}
    if len(lengths) > 1:
        raise DimensionMismatch(f"mixed vector lengths {sorted(lengths)}")
    return lengths.pop() if lengths else 0


def dot(u: RatVec, v: RatVec) -> Fraction:
    _check_same_length(u, v)
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vadd(u: RatVec, v: RatVec) -> RatVec:
    _check_same_length(u, v)
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: RatVec, v: RatVec) -> RatVec:
    _check_same_length(u, v)
    return tuple(a - b for a, b in zip(u, v))


def vscale(c: Fraction, u: RatVec) -> RatVec:
    return tuple(c * a for a in u)


def norm_sq(u: RatVec) -> Fraction:
    return sum((a * a for a in u), Fraction(0))


# ---------------------------------------------------------------------------
# elimination: rank, one solution of a consistent system, kernel bases
# ---------------------------------------------------------------------------

def _primitive(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form by fraction-free Gauss-Jordan elimination.

    Each row is scaled by the lcm of its denominators (an integer row with
    the same RREF), then every pivot column is cleared above and below with
    integer row operations, and each new row is divided by the gcd of its
    entries so the integers stay small -- integer-preserving elimination in
    the manner of Bareiss (Math. Comp. 22, 1968), with gcd normalisation in
    place of his exact division.

    Returns (reduced, pivots) with zero rows dropped: ``reduced[r]`` is an
    integer multiple of row r of the unique RREF, so that row's entries are
    ``reduced[r][c] / reduced[r][pivots[r]]``.
    """
    width = _check_same_length(*rows)
    ints = []
    for row in rows:
        scale = math.lcm(*(e.denominator for e in row))
        ints.append([e.numerator * (scale // e.denominator) for e in row])
    pivots: list[int] = []
    for col in range(width):
        r = len(pivots)
        if r == len(ints):
            break
        found = next((i for i in range(r, len(ints)) if ints[i][col]), None)
        if found is None:
            continue
        ints[r], ints[found] = ints[found], ints[r]
        prow = ints[r] = _primitive(ints[r])
        p = prow[col]
        for i, row in enumerate(ints):
            q = row[col]
            if i != r and q:
                g = math.gcd(p, q)
                a, b = p // g, q // g
                ints[i] = _primitive([a * x - b * y for x, y in zip(row, prow)])
        pivots.append(col)
    return ints[:len(pivots)], pivots


def rational_rank(gens: Sequence[RatVec]) -> int:
    """Rank over the rationals of a list of vectors."""
    return len(_rref(gens)[1])


def solve_consistent(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
                     ) -> Optional[list[Fraction]]:
    """One exact solution of ``rows @ x = rhs`` with free variables set to 0.

    Returns None when the system is inconsistent, i.e. when the rhs column
    of the augmented RREF holds a pivot.  Rank-deficient systems are fine.
    """
    if not rows:
        return []
    n = len(rows[0])
    reduced, pivots = _rref([[*row, rhs[i]] for i, row in enumerate(rows)])
    if pivots and pivots[-1] == n:
        return None
    x = [Fraction(0)] * n
    for row, c in zip(reduced, pivots):
        x[c] = Fraction(row[n], row[c])
    return x


def kernel_basis(rows: Sequence[RatVec]) -> list[RatVec]:
    """Basis of the null space {v : <row, v> = 0 for every row}.

    One vector per free column of the RREF: 1 there, minus that column's
    RREF entries on the pivots, 0 elsewhere.
    """
    if not rows:
        return []
    reduced, pivots = _rref(rows)
    n = len(rows[0])
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(tuple(v))
    return basis


def nearest_affine_point(ref: RatVec, base: RatVec, gens: Sequence[RatVec]) -> RatVec:
    """Closest point to ``ref`` in the affine subspace ``base + span(gens)``.

    Solved exactly through the normal equations G^T G s = G^T (ref - base);
    with exact arithmetic those are perfectly safe, and the system stays
    consistent even when the generators are linearly dependent (the foot is
    unique although the coefficients are not).
    """
    _check_same_length(ref, base, *gens)
    if not gens:
        return tuple(base)
    k = len(gens)
    gram = [[dot(gens[i], gens[j]) for j in range(k)] for i in range(k)]
    rhs = [dot(g, vsub(ref, base)) for g in gens]
    coeffs = solve_consistent(gram, rhs)
    if coeffs is None:  # normal equations are always consistent
        raise RuntimeError("normal equations reported inconsistent")
    p = tuple(base)
    for c, g in zip(coeffs, gens):
        p = vadd(p, vscale(c, g))
    return p


# ---------------------------------------------------------------------------
# exact simplex (Bland's rule)
# ---------------------------------------------------------------------------

def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    p = tableau[row][col]
    tableau[row] = [v / p for v in tableau[row]]
    for i in range(len(tableau)):
        if i != row and tableau[i][col] != 0:
            f = tableau[i][col]
            tableau[i] = [v - f * w for v, w in zip(tableau[i], tableau[row])]
    basis[row] = col


def _optimize(tableau: list[list[Fraction]], basis: list[int],
              cost: list[Fraction], ncols: int) -> str:
    """Run simplex iterations maximizing ``cost`` in place; Bland's rule."""
    m = len(tableau)
    while True:
        duals = [cost[basis[i]] for i in range(m)]
        entering = None
        for j in range(ncols):
            if j in basis:
                continue
            reduced = cost[j] - sum(duals[i] * tableau[i][j] for i in range(m))
            if reduced > 0:
                entering = j
                break
        if entering is None:
            return LP_OPTIMAL
        leaving = None
        best: Optional[Fraction] = None
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            return LP_UNBOUNDED
        _pivot(tableau, basis, leaving, entering)


def lp_max(A: Sequence[Sequence[Fraction]], b: Sequence[Fraction],
           c: Sequence[Fraction]) -> tuple[str, Optional[list[Fraction]], Optional[Fraction]]:
    """Exactly maximize c.x subject to A x = b, x >= 0.

    Returns (status, x, value).  x and value are None unless status is
    "optimal".  Two-phase method with artificial variables.
    """
    m = len(A)
    n = len(c)
    tableau: list[list[Fraction]] = []
    for i in range(m):
        row = [Fraction(v) for v in A[i]]
        rhs = Fraction(b[i])
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tableau.append(row + art + [rhs])
    basis = [n + i for i in range(m)]

    phase1_cost = [Fraction(0)] * n + [Fraction(-1)] * m
    _optimize(tableau, basis, phase1_cost, n + m)
    infeasibility = sum(tableau[i][-1] for i in range(m) if basis[i] >= n)
    if infeasibility != 0:
        return (LP_INFEASIBLE, None, None)

    # Drive leftover zero-valued artificials out of the basis; a row whose
    # real coefficients all vanish is redundant and is dropped.
    for i in reversed(range(len(tableau))):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if col is None:
                del tableau[i]
                del basis[i]
            else:
                _pivot(tableau, basis, i, col)

    tableau = [row[:n] + [row[-1]] for row in tableau]
    phase2_cost = [Fraction(v) for v in c]
    status = _optimize(tableau, basis, phase2_cost, n)
    if status == LP_UNBOUNDED:
        return (LP_UNBOUNDED, None, None)
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = tableau[i][-1]
    value = sum(phase2_cost[j] * x[j] for j in range(n))
    return (LP_OPTIMAL, x, value)


def lp_feasible(A: Sequence[Sequence[Fraction]], b: Sequence[Fraction],
                nvars: int) -> Optional[list[Fraction]]:
    """A nonnegative solution of A x = b, or None."""
    status, x, _ = lp_max(A, b, [Fraction(0)] * nvars)
    return x if status == LP_OPTIMAL else None


# ---------------------------------------------------------------------------
# cone queries
# ---------------------------------------------------------------------------

def cone_member(target: RatVec, gens: Sequence[RatVec]) -> bool:
    """Is target a nonnegative rational combination of the generators?"""
    _check_same_length(target, *gens)
    r = len(target)
    A = [[gens[j][i] for j in range(len(gens))] for i in range(r)]
    return lp_feasible(A, list(target), len(gens)) is not None


def strict_cone_member(target: RatVec, gens: Sequence[RatVec]
                       ) -> tuple[bool, Optional[tuple[Fraction, ...]]]:
    """Is target = sum c_i gens_i with every c_i strictly positive?

    Decided by exactly maximizing the minimum slack delta subject to
    c_i >= delta (delta capped at 1 so the objective stays bounded even
    when the generators admit a positive circuit).  True iff the optimum
    is positive; the witness coefficients are returned alongside.

    Empty generator set: true iff target = 0, with an empty witness.
    """
    _check_same_length(target, *gens)
    r = len(target)
    k = len(gens)
    # variables: u, v (delta = u - v), w (cap slack), s_0..s_{k-1}
    gsum = zero_vec(r)
    for g in gens:
        gsum = vadd(gsum, g)
    A: list[list[Fraction]] = []
    for i in range(r):
        A.append([gsum[i], -gsum[i], Fraction(0)] + [g[i] for g in gens])
    A.append([Fraction(1), Fraction(-1), Fraction(1)] + [Fraction(0)] * k)
    b = list(target) + [Fraction(1)]
    c = [Fraction(1), Fraction(-1)] + [Fraction(0)] * (k + 1)
    status, x, value = lp_max(A, b, c)
    if status != LP_OPTIMAL or value is None or value <= 0:
        return (False, None)
    delta = x[0] - x[1]
    coeffs = tuple(delta + x[3 + j] for j in range(k))
    return (True, coeffs)
