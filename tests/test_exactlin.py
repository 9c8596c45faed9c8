"""Exact linear algebra and LP substrate."""

from fractions import Fraction as F

import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from momentmorse.exactlin import (
    DimensionMismatch,
    as_ratvec,
    cone_member,
    dot,
    kernel_basis,
    lp_max,
    nearest_affine_point,
    rational_rank,
    solve_consistent,
    strict_cone_member,
    vsub,
)


def rv(*entries):
    return as_ratvec(entries)


class TestNearestAffinePoint:
    def test_single_generator_foot(self):
        # minimize (-3+s)^2 + 1 by hand => s = 3
        assert nearest_affine_point(rv(0, 0), rv(-3, 1), [rv(1, 0)]) == rv(0, 1)

    def test_empty_span(self):
        assert nearest_affine_point(rv(0, 0), rv(-3, 1), []) == rv(-3, 1)

    def test_full_span_contains_reference(self):
        assert nearest_affine_point(rv(0, 0), rv(-3, 1), [rv(1, 0), rv(0, 1)]) == rv(0, 0)

    def test_rank_deficient_generators(self):
        # duplicated generator direction: foot unique anyway
        p = nearest_affine_point(rv(0, 0), rv(-3, 1), [rv(1, 0), rv(2, 0)])
        assert p == rv(0, 1)

    def test_foot_characterization_random(self):
        rng = random.Random(7)
        for _ in range(50):
            r = rng.randint(1, 4)
            ref = rv(*[rng.randint(-4, 4) for _ in range(r)])
            base = rv(*[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r)])
            gens = [rv(*[rng.randint(-3, 3) for _ in range(r)])
                    for _ in range(rng.randint(0, 3))]
            p = nearest_affine_point(ref, base, gens)
            for g in gens:
                assert dot(vsub(p, ref), g) == 0
            # p - base lies in span(gens)
            assert rational_rank(gens + [vsub(p, base)]) == rational_rank(gens)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            nearest_affine_point(rv(0, 0), rv(1, 2, 3), [rv(1, 0)])


class TestStrictConeMember:
    def test_two_by_two_witness(self):
        ok, coeffs = strict_cone_member(rv(3, -1), [rv(1, 0), rv(1, -1)])
        assert ok
        assert coeffs == (F(2), F(1))

    def test_negative_coefficient_rejected(self):
        ok, coeffs = strict_cone_member(rv(3, -1), [rv(1, 0), rv(0, 1)])
        assert not ok and coeffs is None

    def test_empty_generators(self):
        assert strict_cone_member(rv(0, 0), []) == (True, ())
        ok, _ = strict_cone_member(rv(1, 0), [])
        assert not ok

    def test_positive_circuit_unbounded_slack(self):
        # opposite generators admit arbitrarily large coefficients
        ok, coeffs = strict_cone_member(rv(0,), [rv(1,), rv(-1,)])
        assert ok
        assert all(c > 0 for c in coeffs)
        assert sum(c * g[0] for c, g in zip(coeffs, [rv(1,), rv(-1,)])) == 0

    def test_witness_soundness_random(self):
        rng = random.Random(11)
        for _ in range(60):
            r = rng.randint(1, 3)
            gens = [rv(*[rng.randint(-3, 3) for _ in range(r)])
                    for _ in range(rng.randint(1, 4))]
            target = rv(*[rng.randint(-5, 5) for _ in range(r)])
            ok, coeffs = strict_cone_member(target, gens)
            if ok:
                assert all(c > 0 for c in coeffs)
                acc = rv(*([0] * r))
                for c, g in zip(coeffs, gens):
                    acc = tuple(a + c * gi for a, gi in zip(acc, g))
                assert acc == target
                # strict membership implies plain membership
                assert cone_member(target, gens)


class TestConeMember:
    def test_examples(self):
        assert cone_member(rv(3, -1), [rv(1, 0), rv(0, 1), rv(1, -1)])
        assert cone_member(rv(0, 0), [])
        assert cone_member(rv(0, 0), [rv(2, 1)])
        assert not cone_member(rv(-1, 0), [rv(1, 0)])


class TestRationalRank:
    def test_examples(self):
        assert rational_rank([rv(1, 0), rv(0, 1), rv(1, -1)]) == 2
        assert rational_rank([]) == 0
        assert rational_rank([rv(2, -2), rv(1, -1)]) == 1

    def test_invariance_under_scaling_and_permutation(self):
        rng = random.Random(3)
        for _ in range(40):
            r = rng.randint(1, 4)
            gens = [rv(*[rng.randint(-3, 3) for _ in range(r)])
                    for _ in range(rng.randint(1, 5))]
            base = rational_rank(gens)
            scaled = [tuple(F(rng.randint(1, 5), rng.randint(1, 4)) * e for e in g)
                      for g in gens]
            assert rational_rank(scaled) == base
            perm = list(gens)
            rng.shuffle(perm)
            assert rational_rank(perm) == base


class TestLinearSolvers:
    def test_solve_consistent_unique(self):
        x = solve_consistent([[F(2), F(1)], [F(1), F(-1)]], [F(5), F(1)])
        assert x == [F(2), F(1)]

    def test_solve_inconsistent(self):
        assert solve_consistent([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)]) is None

    def test_kernel_basis(self):
        basis = kernel_basis([rv(1, 1, 0)])
        assert len(basis) == 2
        for v in basis:
            assert dot(rv(1, 1, 0), v) == 0


# -- property tests of the elimination kernel against sympy ------------------

PROPERTY = settings(max_examples=150, deadline=None, database=None)

entries = st.one_of(st.just(F(0)),
                    st.builds(F, st.integers(-6, 6), st.integers(1, 5)))


@st.composite
def matrices(draw, min_rows=0):
    """Rows of one length, with dependent and zero rows mixed in."""
    n = draw(st.integers(0, 6))
    row = st.lists(entries, min_size=n, max_size=n).map(tuple)
    rows = draw(st.lists(row, min_size=min_rows, max_size=5))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c = draw(entries)
        rows.insert(draw(st.integers(0, len(rows))),
                    tuple(x + c * y for x, y in zip(a, b)))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), (F(0),) * n)
    return rows


def sym(rows, width):
    return sympy.Matrix(len(rows), width,
                        [sympy.Rational(e.numerator, e.denominator)
                         for row in rows for e in row])


def fracs(column):
    return tuple(F(int(e.p), int(e.q)) for e in column)


class TestEliminationProperties:
    @PROPERTY
    @given(matrices())
    def test_rank_matches_sympy(self, rows):
        width = len(rows[0]) if rows else 0
        assert rational_rank(rows) == sym(rows, width).rank()

    @PROPERTY
    @given(matrices(min_rows=1))
    def test_kernel_matches_sympy_nullspace(self, rows):
        expected = [fracs(v) for v in sym(rows, len(rows[0])).nullspace()]
        assert kernel_basis(rows) == expected

    @PROPERTY
    @given(matrices(min_rows=1), st.data())
    def test_solve_consistent_against_sympy(self, rows, data):
        n = len(rows[0])
        if data.draw(st.booleans()):  # consistent by construction
            x0 = data.draw(st.lists(entries, min_size=n, max_size=n))
            rhs = [dot(row, tuple(x0)) for row in rows]
        else:
            rhs = data.draw(st.lists(entries, min_size=len(rows),
                                     max_size=len(rows)))
        a = sym(rows, n)
        consistent = a.rank() == a.row_join(sym([(b,) for b in rhs], 1)).rank()
        x = solve_consistent([list(row) for row in rows], rhs)
        assert (x is not None) == consistent
        if x is not None:
            assert [dot(row, tuple(x)) for row in rows] == rhs
            pivots = a.rref()[1]
            assert all(v == 0 for c, v in enumerate(x) if c not in pivots)

    @PROPERTY
    @given(matrices(min_rows=1), st.integers(1, 3), st.data())
    def test_mixed_lengths_rejected(self, rows, extra, data):
        ragged = list(rows)
        ragged.insert(data.draw(st.integers(0, len(ragged))),
                      (F(1),) * (len(rows[0]) + extra))
        with pytest.raises(DimensionMismatch):
            rational_rank(ragged)
        with pytest.raises(DimensionMismatch):
            kernel_basis(ragged)
        with pytest.raises(DimensionMismatch):
            solve_consistent(ragged, [F(0)] * len(ragged))


class TestSimplex:
    def test_bounded_maximum(self):
        # max x + y st x + y + s = 4  ->  4
        status, x, value = lp_max([[F(1), F(1), F(1)]], [F(4)],
                                  [F(1), F(1), F(0)])
        assert status == "optimal"
        assert value == 4

    def test_infeasible(self):
        status, _, _ = lp_max([[F(1)], [F(1)]], [F(1), F(2)], [F(0)])
        assert status == "infeasible"

    def test_unbounded(self):
        # max x st x - y = 1, y free upward
        status, _, _ = lp_max([[F(1), F(-1)]], [F(1)], [F(1), F(0)])
        assert status == "unbounded"

    def test_degenerate_terminates(self):
        # redundant constraints; Bland's rule must not cycle
        A = [[F(1), F(1), F(0)], [F(2), F(2), F(0)], [F(0), F(0), F(1)]]
        status, x, value = lp_max(A, [F(1), F(2), F(0)], [F(1), F(0), F(0)])
        assert status == "optimal"
        assert value == 1
