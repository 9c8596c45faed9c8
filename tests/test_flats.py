"""The weight-flat lattice against the slow scan over all weight subsets."""

import dataclasses
import random
from fractions import Fraction as F
from math import comb

from hypothesis import given, settings, strategies as st

from momentmorse import critical, poincare
from momentmorse.critical import enumerate_critical_components, weight_flats
from momentmorse.exactlin import rational_rank
from momentmorse.poincare import is_regular_value
from momentmorse.weights import validate_spec
from specgen import random_polarized_spec
from subset_reference import all_subsets, subset_components, subset_is_regular


def c3_spec():
    return validate_spec(2, [((1, 0), 1), ((0, 1), 1), ((1, -1), 1)], (-3, 1))


def flats_of(spec):
    return weight_flats(spec.weight_vectors())


def is_flat(spec, subset):
    """No weight outside the subset lies in its span (rank test per weight)."""
    mus = spec.weight_vectors()
    gens = [mus[i] for i in subset]
    rank = rational_rank(gens)
    return all(rational_rank(gens + [mus[w]]) > rank
               for w in range(len(mus)) if w not in subset)


def flat_bound(spec):
    m = len(spec.weights)
    return sum(comb(m, k) for k in range(spec.rank + 1))


@st.composite
def edge_specs(draw):
    """Small specs with a zero weight, an antipodal pair, weights that do
    not span, no weights at all, or none of these."""
    r = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-2, 2)] * r)
    weights = draw(st.lists(vec, max_size=4, unique=True))
    kind = draw(st.sampled_from(["zero", "antipodal", "non-spanning", "empty",
                                 "plain"]))
    if kind == "zero":
        weights.append((0,) * r)
    elif kind == "antipodal" and weights:
        weights.append(tuple(-e for e in weights[0]))
    elif kind == "non-spanning":
        weights = [w[:-1] + (0,) for w in weights] + [(1,) + (0,) * (r - 1)]
    elif kind == "empty":
        weights = []
    mults = draw(st.lists(st.integers(1, 2), min_size=len(weights),
                          max_size=len(weights)))
    return validate_spec(r, list(zip(weights, mults)), draw(vec)), None


@st.composite
def specs_and_targets(draw):
    """A specgen spec or an edge spec, at a regular, wall or outside target.

    Wall targets are nonnegative combinations with some zero coefficients,
    so they often lie on the cone of a rank-deficient weight set.
    """
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2 ** 32 - 1))
        spec, regular = random_polarized_spec(random.Random(seed))
    else:
        spec, regular = draw(edge_specs())
    kind = draw(st.sampled_from(["regular", "wall", "outside"]))
    if kind == "regular" and regular is not None:
        return spec, regular
    if kind == "outside":
        return spec, tuple(s + draw(st.integers(-4, 4)) for s in spec.shift)
    coeffs = [draw(st.sampled_from([F(0), F(1, 2), F(1), F(3)]))
              for _ in spec.weights]
    xi = list(spec.shift)
    for c, w in zip(coeffs, spec.weights):
        xi = [x + c * e for x, e in zip(xi, w.weight)]
    return spec, tuple(xi)


class TestFlatLattice:
    def test_c3_lattice(self):
        flats = flats_of(c3_spec())
        assert [f.members for f in flats] == [(), (0,), (1,), (2,), (0, 1, 2)]
        assert [f.rank for f in flats] == [0, 1, 1, 1, 2]

    def test_zero_and_antipodal_weights(self):
        spec = validate_spec(2, [((0, 0), 1), ((1, 0), 1), ((-1, 0), 1),
                                 ((0, 1), 1)], (0, 0))
        assert [f.members for f in flats_of(spec)] == [
            (0,), (0, 3), (0, 1, 2), (0, 1, 2, 3)]

    def test_no_weights(self):
        flats = flats_of(validate_spec(3, [], (0, 0, 0)))
        assert [(f.members, f.rank) for f in flats] == [((), 0)]

    def test_shared_by_targets_and_shifts(self):
        spec = c3_spec()
        other = validate_spec(2, [((1, 0), 1), ((0, 1), 2), ((1, -1), 1)], (5, 5))
        assert flats_of(spec) is flats_of(other)

    @settings(max_examples=60, deadline=None, database=None)
    @given(specs_and_targets())
    def test_lattice_matches_subset_scan(self, case):
        spec, xi = case
        flats = flats_of(spec)
        assert len(flats) <= flat_bound(spec)
        assert [f.members for f in flats] == [
            s for s in all_subsets(len(spec.weights)) if is_flat(spec, s)]
        for f in flats:
            assert rational_rank([spec.weights[i].weight for i in f.basis]) == f.rank
            assert set(f.basis) <= set(f.members)

        comps = enumerate_critical_components(spec, xi)
        reference = subset_components(spec, xi)
        assert [c.value for c in comps] == [c.value for c in reference]
        for comp, ref in zip(comps, reference):
            assert dataclasses.replace(comp, witnesses=()) == \
                dataclasses.replace(ref, witnesses=())
            assert comp.witnesses == tuple(w for w in ref.witnesses
                                           if is_flat(spec, w))
            assert comp.generic_support == comp.witnesses[-1]
            # no information lost: every subset witness has its closure listed
            for w in ref.witnesses:
                assert any(set(w) <= set(f) for f in comp.witnesses)
        assert is_regular_value(spec, xi) == subset_is_regular(spec, xi)


class TestCounts:
    """Work counted per call, with no wall-time gate."""

    def _count(self, monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(module, name, counted)
        return calls

    def test_one_strict_cone_test_per_flat(self, monkeypatch):
        spec, xi = random_polarized_spec(random.Random(11))
        calls = self._count(monkeypatch, critical, "strict_cone_member")
        enumerate_critical_components(spec, xi)
        assert len(calls) == len(flats_of(spec)) <= flat_bound(spec)

    def test_regularity_reads_only_the_corank_one_flats(self, monkeypatch):
        spec = validate_spec(3, [((a, b, 1), 1) for a in range(3) for b in range(3)],
                             (0, 0, 0))
        calls = self._count(monkeypatch, poincare, "cone_member")
        assert is_regular_value(spec, (F(1, 3), F(1, 2), 3))
        walls = [f for f in flats_of(spec) if f.rank == 2]
        assert len(calls) == len(walls)
        assert len(flats_of(spec)) <= flat_bound(spec) < 2 ** len(spec.weights)
