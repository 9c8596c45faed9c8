"""Slow reference: the critical structure by a scan over all weight subsets.

Every subset I of the m distinct weights gives one perpendicular foot from
the target onto shift + span(I), kept when it is a strictly positive
combination over I; every subset of rank below the torus rank gives one
cone-membership test for regularity.  The generic support of a component
is found with one exact LP per zero weight.  This is 2^m work and is kept
only as an oracle for the flat lattice in ``momentmorse.critical``.
"""

from fractions import Fraction
from itertools import combinations

from momentmorse.critical import CriticalComponent
from momentmorse.exactlin import (
    as_ratvec,
    cone_member,
    dot,
    lp_max,
    nearest_affine_point,
    norm_sq,
    rational_rank,
    strict_cone_member,
    vsub,
    zero_vec,
)


def all_subsets(m):
    for size in range(m + 1):
        yield from combinations(range(m), size)


def subset_components(spec, target=None):
    """Components of |Phi - target|^2 with every witnessing weight subset."""
    xi = as_ratvec(target, spec.rank) if target is not None else zero_vec(spec.rank)
    mus = spec.weight_vectors()
    feet = {}
    for subset in all_subsets(len(mus)):
        gens = [mus[i] for i in subset]
        foot = nearest_affine_point(xi, spec.shift, gens)
        if strict_cone_member(vsub(foot, spec.shift), gens)[0]:
            feet.setdefault(foot, []).append(subset)
    return tuple(_component(spec, xi, alpha, tuple(feet[alpha]))
                 for alpha in sorted(feet))


def _component(spec, xi, alpha, witnesses):
    direction = vsub(alpha, xi)
    pairings = [dot(w.weight, direction) for w in spec.weights]
    zero = tuple(i for i, p in enumerate(pairings) if p == 0)
    neg = tuple(i for i, p in enumerate(pairings) if p < 0)
    support = _support(spec, zero, alpha)
    return CriticalComponent(
        value=alpha,
        f_value=norm_sq(direction),
        zero_weights=zero,
        negative_weights=neg,
        index=2 * sum(spec.weights[i].multiplicity for i in neg),
        minimizing_coords=spec.coordinates_of_weights(
            i for i in range(len(spec.weights)) if i not in neg),
        witnesses=witnesses,
        generic_support=support,
        stabilizer_rank=spec.rank - rational_rank(
            [spec.weights[w].weight for w in support]),
    )


def _support(spec, zero_weights, alpha):
    """Zero weights whose coefficient is positive somewhere on the polytope.

    One LP per zero weight maximizes its coefficient over
    {c >= 0 : sum c_w w = alpha - shift}; an unbounded optimum counts as
    positive.
    """
    rhs = list(vsub(alpha, spec.shift))
    A = [[spec.weights[w].weight[i] for w in zero_weights] for i in range(spec.rank)]
    support = []
    for pos, w in enumerate(zero_weights):
        c = [Fraction(int(k == pos)) for k in range(len(zero_weights))]
        status, _, value = lp_max(A, rhs, c)
        assert status != "infeasible", "component polytope is empty"
        if status == "unbounded" or value > 0:
            support.append(w)
    if not zero_weights:
        assert not any(rhs), "component polytope is empty"
    return tuple(support)


def subset_is_regular(spec, target=None):
    """No weight subset of rank below the torus rank has xi - shift in its cone."""
    xi = as_ratvec(target, spec.rank) if target is not None else zero_vec(spec.rank)
    rhs = vsub(xi, spec.shift)
    mus = spec.weight_vectors()
    for subset in all_subsets(len(mus)):
        gens = [mus[i] for i in subset]
        if rational_rank(gens) < spec.rank and cone_member(rhs, gens):
            return False
    return True
