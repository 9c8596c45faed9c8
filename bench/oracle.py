"""Exact oracle for momentum levels, independent of the momentmorse package.

A level {Phi = target} of a linear torus action with weights spanning R^r
is classified from the feasible bases of the system

    sum_w c_w mu_w = target - shift,   c >= 0,

one square r x r subsystem per r-subset of the distinct weights, each solved
exactly over the rationals:

* the level is empty iff no basis is feasible (Caratheodory);
* it is singular iff some feasible basis has a zero coordinate, i.e. the
  point lies in the cone of fewer than r weights;
* otherwise it is regular and its moment polytope is simple.  Its vertices
  in expanded coordinates are the feasible bases, each counted prod of
  multiplicities times, and their number is the Euler characteristic of the
  toric quotient, hence the sum of its Betti numbers (Fulton, Introduction
  to Toric Varieties, section 5.2).

Specs are the JSON documents the command line reads: rationals as strings.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

Vec = tuple[Fraction, ...]

EMPTY = "empty"
SINGULAR = "singular"
REGULAR = "regular"


class Level:
    """Exact data of one (spec document, target) pair."""

    def __init__(self, doc: dict, target: Optional[Sequence] = None):
        self.rank = doc["rank"]
        self.weights = [tuple(Fraction(e) for e in w["weight"])
                        for w in doc["weights"]]
        self.mults = [w["multiplicity"] for w in doc["weights"]]
        self.shift = tuple(Fraction(e) for e in doc["shift"])
        raw = doc.get("target") if target is None else target
        self.target = tuple(Fraction(e) for e in raw)
        self.rhs = tuple(t - s for t, s in zip(self.target, self.shift))
        self.bases = feasible_bases(self.weights, self.rhs, self.rank)

    @property
    def n(self) -> int:
        return sum(self.mults)

    def kind(self) -> str:
        if not self.bases:
            return EMPTY
        if any(c == 0 for _, coeffs in self.bases for c in coeffs):
            return SINGULAR
        return REGULAR

    def vertex_count(self) -> int:
        total = 0
        for basis, _ in self.bases:
            count = 1
            for i in basis:
                count *= self.mults[i]
            total += count
        return total

    def expanded_coords(self, weight_indices) -> list[int]:
        wanted = set(weight_indices)
        out, j = [], 0
        for i, mult in enumerate(self.mults):
            for _ in range(mult):
                if i in wanted:
                    out.append(j)
                j += 1
        return out


def solve_square(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
                 ) -> Optional[list[Fraction]]:
    """Unique solution of a square system, or None when it is singular."""
    k = len(rows)
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(k):
        piv = next((i for i in range(col, k) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [v / p for v in aug[col]]
        for i in range(k):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [aug[i][k] for i in range(k)]


def rank_of(vectors: Sequence[Vec]) -> int:
    rows = [list(v) for v in vectors]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def feasible_bases(weights: Sequence[Vec], rhs: Vec, rank: int
                   ) -> list[tuple[tuple[int, ...], list[Fraction]]]:
    """Every r-subset of weights whose square system has a solution >= 0."""
    out = []
    for basis in combinations(range(len(weights)), rank):
        rows = [[weights[j][i] for j in basis] for i in range(rank)]
        sol = solve_square(rows, rhs)
        if sol is not None and all(c >= 0 for c in sol):
            out.append((basis, sol))
    return out


def in_cone(vectors: Sequence[Vec], point: Vec) -> bool:
    """point in cone(vectors), by Caratheodory over independent subsets."""
    if all(e == 0 for e in point):
        return True
    r = len(point)
    for size in range(1, min(r, len(vectors)) + 1):
        for subset in combinations(range(len(vectors)), size):
            gens = [vectors[j] for j in subset]
            if rank_of(gens) < size:
                continue
            coeffs = _least_coefficients(gens, point)
            if coeffs is not None and all(c >= 0 for c in coeffs):
                return True
    return False


def _least_coefficients(gens: Sequence[Vec], point: Vec
                        ) -> Optional[list[Fraction]]:
    """Coefficients of point over independent gens, or None if outside."""
    gram = [[_dot(a, b) for b in gens] for a in gens]
    coeffs = solve_square(gram, [_dot(g, point) for g in gens])
    if coeffs is None:
        return None
    back = tuple(sum((c * g[i] for c, g in zip(coeffs, gens)), Fraction(0))
                 for i in range(len(point)))
    return coeffs if back == tuple(point) else None


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


# ---------------------------------------------------------------------------
# checks of program output; each returns None when correct, else a reason
# ---------------------------------------------------------------------------

def check_betti(level: Level, betti: Sequence[int]) -> Optional[str]:
    betti = list(betti)
    if not betti or betti[0] != 1:
        return f"betti {betti}: b0 is not 1"
    if any(b < 0 for b in betti) or betti != betti[::-1]:
        return f"betti {betti}: not a nonnegative palindrome"
    top = 2 * (level.n - level.rank)
    if len(betti) != top + 1:
        return f"betti {betti}: top degree is not 2(n - r) = {top}"
    if any(betti[1::2]):
        return f"betti {betti}: odd Betti number nonzero"
    if sum(betti) != level.vertex_count():
        return (f"betti {betti}: sum {sum(betti)} != "
                f"{level.vertex_count()} polytope vertices")
    return None


def check_component(level: Level, value: Vec, f_value: Fraction, index: int,
                    minimizing: Sequence[int]) -> Optional[str]:
    """One critical component: recomputed f-value, index, minimizing coords."""
    d = tuple(a - t for a, t in zip(value, level.target))
    pairings = [_dot(w, d) for w in level.weights]
    if f_value != _dot(d, d):
        return f"value {value}: f-value {f_value} != {_dot(d, d)}"
    want_index = 2 * sum(m for m, p in zip(level.mults, pairings) if p < 0)
    if index != want_index:
        return f"value {value}: index {index} != {want_index}"
    want_min = level.expanded_coords(i for i, p in enumerate(pairings) if p >= 0)
    if list(minimizing) != want_min:
        return f"value {value}: minimizing coords {list(minimizing)} != {want_min}"
    zero = [w for w, p in zip(level.weights, pairings) if p == 0]
    if not in_cone(zero, tuple(a - s for a, s in zip(value, level.shift))):
        return f"value {value}: no point of momentum value on its zero weights"
    return None


def check_components(level: Level, rows: Sequence[tuple]) -> Optional[str]:
    """rows: (value, f_value, index, minimizing) for every reported component."""
    values = [row[0] for row in rows]
    if len(set(values)) != len(values):
        return "a critical value is reported twice"
    for row in rows:
        err = check_component(level, *row)
        if err:
            return err
    has_min = level.target in values
    if has_min != (level.kind() != EMPTY):
        return f"minimum row present={has_min} but level is {level.kind()}"
    return None
