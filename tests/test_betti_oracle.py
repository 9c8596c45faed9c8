"""Betti numbers of the quotient against the h-vector of its moment polytope.

At a regular value the reduced space is a toric orbifold whose moment
polytope is the simple polytope

    Delta = {q >= 0 : sum_j q_j mu_(j) = target - shift}

in expanded coordinates, and b_2i = h_i(Delta) (Danilov 1978; Stanley
1980; Fulton, Introduction to Toric Varieties, 5.2).  h_i counts the
vertices with exactly i ascending edges under a generic linear functional
(Ziegler, Lectures on Polytopes, 8).  The vertices come from the C(n, r)
square bases, so this oracle shares nothing with the series recursion,
which assumes that the flow stratification is perfect.
"""

import random
from fractions import Fraction as F
from itertools import combinations

from hypothesis import given, settings, strategies as st

from momentmorse.exactlin import rational_rank, solve_consistent, vsub
from momentmorse.poincare import betti_numbers
from specgen import random_polarized_spec


def h_vector(spec, xi, functional):
    """h-vector of Delta, counting ascending edges at every vertex.

    Asserts what makes the count valid: each vertex is nondegenerate (the
    polytope is simple), each edge is bounded, and no edge has slope 0
    (the functional is generic).
    """
    cols = [spec.weights[w].weight for w in spec.coordinate_weight_indices()]
    n, r = len(cols), spec.rank
    rhs = list(vsub(xi, spec.shift))
    h = [0] * (n - r + 1)
    for basis in combinations(range(n), r):
        if rational_rank([cols[j] for j in basis]) < r:
            continue
        square = [[cols[j][i] for j in basis] for i in range(r)]
        q = solve_consistent(square, rhs)
        if any(v < 0 for v in q):
            continue
        assert all(v > 0 for v in q), "degenerate vertex at a regular value"
        ascending = 0
        for j in (j for j in range(n) if j not in basis):
            # the edge raises q_j and moves the basic coordinates by -d
            d = solve_consistent(square, list(cols[j]))
            assert any(v > 0 for v in d), "unbounded edge"
            slope = functional[j] - sum(functional[b] * v for b, v in zip(basis, d))
            assert slope != 0, "functional is not generic"
            ascending += slope > 0
        h[ascending] += 1
    return h


def random_functional(rng, n):
    return [F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 3))
            for _ in range(n)]


def assert_betti_is_h_vector(spec, xi, functional):
    h = h_vector(spec, xi, functional)
    expected = []
    for hi in h:
        expected += [hi, 0]
    assert betti_numbers(spec, xi) == tuple(expected[:-1])


def test_every_specgen_spec():
    rng = random.Random(5)
    for _ in range(150):
        spec, xi = random_polarized_spec(rng)
        assert_betti_is_h_vector(spec, xi,
                                 random_functional(rng, spec.total_multiplicity))


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1))
def test_betti_numbers_are_the_h_vector(spec_seed, functional_seed):
    spec, xi = random_polarized_spec(random.Random(spec_seed))
    functional = random_functional(random.Random(functional_seed),
                                   spec.total_multiplicity)
    assert_betti_is_h_vector(spec, xi, functional)
