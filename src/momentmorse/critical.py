"""Exact enumeration of the critical structure of f = |Phi - target|^2.

The critical set of the norm-square of a shifted quadratic momentum map
decomposes by momentum value.  Each candidate value arises as the foot of
the perpendicular dropped from the target onto an affine subspace
shift + span(I) for a subset I of the distinct weights, and the foot is an
actual critical value precisely when it can be written over I with
strictly positive coefficients (the coefficients are the radial squares of
a witnessing point, which must be nonzero on every weight in I).

Running over all subsets of distinct weights therefore enumerates every
critical component exactly.  Subsets of the expanded coordinates are never
needed: repeated copies of a weight change neither the affine span nor the
strict cone, so the enumeration costs 2^m for m distinct weights (hard
capped; this is a desk-scale tool).

For a critical value a, writing p_mu = <mu, a - target>:

* the component C_a is the set of points supported on the weights with
  p_mu = 0 whose momentum value is a (a torus-fibred polytope);
* the Morse index is 2 * sum of multiplicities over p_mu < 0, because the
  Hessian of f is negative definite exactly on those weight spaces;
* the minimizing manifold N_a is the coordinate subspace of the weights
  with p_mu >= 0, on which f >= f(a) globally with equality exactly on C_a.

Everything here is exact; all outputs are deterministically ordered.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .exactlin import (
    RatVec,
    as_ratvec,
    dot,
    kernel_basis,
    lp_max,
    nearest_affine_point,
    norm_sq,
    rational_rank,
    solve_consistent,
    strict_cone_member,
    vsub,
    zero_vec,
)
from .weights import ActionSpec, momentum_value

MAX_DISTINCT_WEIGHTS = 20


class TooManyWeights(ValueError):
    """The spec has more distinct weights than the desk-scale cap."""


def check_weight_cap(spec: ActionSpec) -> None:
    """Raise TooManyWeights above MAX_DISTINCT_WEIGHTS distinct weights.

    Every scan over weight subsets calls this first, so an over-cap spec
    fails at once instead of starting a 2^m scan.
    """
    m = len(spec.weights)
    if m > MAX_DISTINCT_WEIGHTS:
        raise TooManyWeights(f"{m} distinct weights exceeds the desk-scale cap "
                             f"of {MAX_DISTINCT_WEIGHTS}")


@dataclass(frozen=True)
class CriticalComponent:
    """One critical value of f = |Phi - target|^2 with its locus data.

    ``zero_weights`` / ``negative_weights`` index the distinct weights whose
    pairing with (value - target) vanishes / is negative.  ``witnesses`` are
    the weight subsets whose perpendicular foot produced the value;
    ``generic_support`` is the subset of zero_weights that can carry positive
    radial squares somewhere on the component, and the stabilizer of a
    generic point has rank ``stabilizer_rank``.
    """

    value: RatVec
    f_value: Fraction
    zero_weights: tuple[int, ...]
    negative_weights: tuple[int, ...]
    index: int
    minimizing_coords: tuple[int, ...]
    witnesses: tuple[tuple[int, ...], ...]
    generic_support: tuple[int, ...]
    stabilizer_rank: int


def _lex_key(vec: RatVec):
    return tuple(vec)


def enumerate_critical_components(spec: ActionSpec,
                                  target: Optional[Sequence] = None
                                  ) -> tuple[CriticalComponent, ...]:
    """All critical components of |Phi - target|^2, sorted by momentum value.

    The minimum component (value == target) appears iff the level is
    nonempty, i.e. iff target - shift lies in the cone of the weights.
    """
    check_weight_cap(spec)
    xi = as_ratvec(target, spec.rank) if target is not None else zero_vec(spec.rank)
    m = len(spec.weights)
    mus = spec.weight_vectors()
    feet: dict[RatVec, list[tuple[int, ...]]] = {}
    for size in range(m + 1):
        for subset in combinations(range(m), size):
            gens = [mus[i] for i in subset]
            foot = nearest_affine_point(xi, spec.shift, gens)
            ok, _ = strict_cone_member(vsub(foot, spec.shift), gens)
            if ok:
                feet.setdefault(foot, []).append(subset)
    components = []
    for alpha in sorted(feet, key=_lex_key):
        components.append(_build_component(spec, xi, alpha, tuple(feet[alpha])))
    return tuple(components)


def _build_component(spec: ActionSpec, xi: RatVec, alpha: RatVec,
                     witnesses: tuple[tuple[int, ...], ...]) -> CriticalComponent:
    direction = vsub(alpha, xi)
    zero, neg = [], []
    for i, w in enumerate(spec.weights):
        p = dot(w.weight, direction)
        if p == 0:
            zero.append(i)
        elif p < 0:
            neg.append(i)
    index = 2 * sum(spec.weights[i].multiplicity for i in neg)
    nonneg = [i for i in range(len(spec.weights)) if i not in neg]
    minimizing = spec.coordinates_of_weights(nonneg)
    support, stab_rank = _support_of_value(spec, tuple(zero), alpha)
    return CriticalComponent(
        value=alpha,
        f_value=norm_sq(direction),
        zero_weights=tuple(zero),
        negative_weights=tuple(neg),
        index=index,
        minimizing_coords=minimizing,
        witnesses=witnesses,
        generic_support=support,
        stabilizer_rank=stab_rank,
    )


def _support_of_value(spec: ActionSpec, zero_weights: tuple[int, ...],
                      alpha: RatVec) -> tuple[tuple[int, ...], int]:
    """Weights that carry positive squares somewhere on the component.

    For each zero weight w, one exact LP maximizes its coefficient over
    {c >= 0 : sum c_w w = alpha - shift}; the weight is in the support iff
    the optimum is positive (an unbounded optimum counts as positive).
    Copies of one weight are interchangeable, so distinct weights suffice.
    """
    rhs = vsub(alpha, spec.shift)
    k = len(zero_weights)
    if k == 0:
        if any(e != 0 for e in rhs):
            raise RuntimeError("component polytope is empty; enumeration bug")
        return ((), spec.rank)
    A = [[spec.weights[w].weight[i] for w in zero_weights] for i in range(spec.rank)]
    support = []
    feasible_any = False
    for pos, w in enumerate(zero_weights):
        c = [Fraction(0)] * k
        c[pos] = Fraction(1)
        status, _, value = lp_max(A, list(rhs), c)
        if status == "infeasible":
            raise RuntimeError("component polytope is empty; enumeration bug")
        feasible_any = True
        if status == "unbounded" or (value is not None and value > 0):
            support.append(w)
    assert feasible_any
    stab_rank = spec.rank - rational_rank([spec.weights[w].weight for w in support])
    return (tuple(support), stab_rank)


# ---------------------------------------------------------------------------
# criticality predicates
# ---------------------------------------------------------------------------

def criterion_predicates(spec: ActionSpec, q: Sequence[Fraction]
                         ) -> tuple[bool, bool, bool, bool]:
    """Four independently computed criticality tests at the point q.

    With b = Phi(q) and support S = {j : q_j > 0}:

    (i)   gradient vanishing: q_j <b, mu_(j)> = 0 for every coordinate j
          (d|Phi|^2 = 2 <dPhi, Phi> coordinatewise);
    (ii)  b is orthogonal to a spanning subset of the support weights,
          the subset extracted by elimination;
    (iii) b lies in the orthocomplement of the span of the support weights,
          tested by rank comparison against a kernel basis;
    (iv)  <mu_(j), b> = 0 for every supported coordinate (the subtorus
          generated by b fixes the point).

    The four conditions are equivalent; computing them through different
    routes is the point, so that the equivalence can be checked.
    """
    if len(q) != spec.total_multiplicity:
        raise ValueError(f"expected {spec.total_multiplicity} squares")
    b = momentum_value(spec, q)
    idx = spec.coordinate_weight_indices()
    support = [j for j in range(len(q)) if q[j] > 0]
    support_mus = [spec.weights[idx[j]].weight for j in support]

    pred_i = all(Fraction(q[j]) * dot(b, spec.weights[idx[j]].weight) == 0
                 for j in range(len(q)))

    spanning = _spanning_subset(support_mus)
    pred_ii = all(dot(b, g) == 0 for g in spanning)

    kernel = kernel_basis(support_mus) if support_mus else \
        [tuple(Fraction(1) if i == j else Fraction(0) for i in range(spec.rank))
         for j in range(spec.rank)]
    pred_iii = rational_rank(kernel + [b]) == rational_rank(kernel)

    pred_iv = all(dot(mu, b) == 0 for mu in support_mus)

    return (pred_i, pred_ii, pred_iii, pred_iv)


def _spanning_subset(vectors: Sequence[RatVec]) -> list[RatVec]:
    """Subset of the input vectors forming a basis of their span."""
    chosen: list[RatVec] = []
    for v in vectors:
        if rational_rank(chosen + [v]) > len(chosen):
            chosen.append(v)
    return chosen


def random_exact_squares(spec: ActionSpec, rng: random.Random,
                         max_num: int = 12, max_den: int = 8
                         ) -> tuple[Fraction, ...]:
    """Random support and random positive rationals on it (exact)."""
    n = spec.total_multiplicity
    q = [Fraction(0)] * n
    for j in range(n):
        if rng.random() < 0.6:
            q[j] = Fraction(rng.randint(1, max_num), rng.randint(1, max_den))
    return tuple(q)


def criterion_equivalence_sample(spec: ActionSpec, count: int, seed: int
                                 ) -> tuple[bool, list[tuple[Fraction, ...]]]:
    """Check pairwise agreement of the four predicates on random points.

    Returns (all_agree, disagreeing_points).  Points on and off the
    critical set both occur; exact arithmetic means agreement must be
    perfect, not merely frequent.
    """
    rng = random.Random(seed)
    bad = []
    for _ in range(count):
        q = random_exact_squares(spec, rng)
        preds = criterion_predicates(spec, q)
        if len(set(preds)) > 1:
            bad.append(q)
    return (not bad, bad)


# ---------------------------------------------------------------------------
# the component polytope P_a in expanded coordinates
# ---------------------------------------------------------------------------

def _polytope_system(spec: ActionSpec, component: CriticalComponent
                     ) -> tuple[list[int], list[list[Fraction]], list[Fraction]]:
    coords = list(spec.coordinates_of_weights(component.zero_weights))
    idx = spec.coordinate_weight_indices()
    A = [[spec.weights[idx[j]].weight[i] for j in coords] for i in range(spec.rank)]
    b = list(vsub(component.value, spec.shift))
    return coords, A, b


def polytope_vertices(spec: ActionSpec, component: CriticalComponent
                      ) -> list[tuple[Fraction, ...]]:
    """Exact vertices of P_a = {q >= 0 on zero coords : Phi(q) = value}.

    Returned as full-length square vectors (zero off the component
    coordinates).  Vertices are basic feasible solutions; all column
    subsets of size rank(A) are tried, which is fine at desk scale.
    """
    coords, A, b = _polytope_system(spec, component)
    n = spec.total_multiplicity
    k = len(coords)
    if k == 0:
        return [tuple(Fraction(0) for _ in range(n))]
    rank = rational_rank([tuple(A[i][j] for i in range(spec.rank))
                          for j in range(k)])
    vertices: set[tuple[Fraction, ...]] = set()
    for cols in combinations(range(k), rank) if rank > 0 else [()]:
        sub = [[A[i][j] for j in cols] for i in range(spec.rank)]
        sol = solve_consistent(sub, b)
        if sol is None or any(v < 0 for v in sol):
            continue
        q = [Fraction(0)] * n
        for c, v in zip(cols, sol):
            q[coords[c]] = v
        vertices.add(tuple(q))
    return sorted(vertices)


def component_squares(spec: ActionSpec, component: CriticalComponent
                      ) -> tuple[Fraction, ...]:
    """An exact point of P_a positive on every generic-support coordinate.

    Every point of the polytope is supported inside the generic support,
    and by convexity some point is positive on all of it, so value - shift
    lies in the strict cone of the support weights; the strict-cone witness
    supplies the coefficients, spread evenly over each weight's copies.
    """
    n = spec.total_multiplicity
    support = component.generic_support
    rhs = vsub(component.value, spec.shift)
    ok, coeffs = strict_cone_member(rhs, [spec.weights[w].weight for w in support])
    if not ok or coeffs is None:
        raise RuntimeError("support strict-cone witness failed; enumeration bug")
    q = [Fraction(0)] * n
    for w, c in zip(support, coeffs):
        copies = spec.coordinates_of_weights([w])
        share = c / len(copies)
        for j in copies:
            q[j] = share
    return tuple(q)
