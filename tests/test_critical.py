"""Critical component enumeration, Morse indices, criticality predicates."""

from fractions import Fraction as F

import random

import pytest

from momentmorse.critical import (
    MAX_DISTINCT_WEIGHTS,
    TooManyWeights,
    component_squares,
    criterion_equivalence_sample,
    criterion_predicates,
    enumerate_critical_components,
    polytope_vertices,
)
from momentmorse.weights import momentum_value, validate_spec


def c3_spec():
    return validate_spec(2, [((1, 0), 1), ((0, 1), 1), ((1, -1), 1)], (-3, 1))


def s1c2_spec():
    return validate_spec(1, [((1,), 1), ((-1,), 1)], (0,))


def by_value(components):
    return {comp.value: comp for comp in components}


class TestEnumerationC3:
    def test_four_values_exact(self):
        comps = enumerate_critical_components(c3_spec(), (0, 0))
        values = {c.value for c in comps}
        assert values == {(F(-3), F(1)), (F(0), F(1)), (F(-1), F(-1)), (F(0), F(0))}
        assert len(comps) == 4

    def test_sorted_lexicographically(self):
        comps = enumerate_critical_components(c3_spec(), (0, 0))
        assert [c.value for c in comps] == [
            (F(-3), F(1)), (F(-1), F(-1)), (F(0), F(0)), (F(0), F(1))]

    def test_indices(self):
        comps = by_value(enumerate_critical_components(c3_spec(), (0, 0)))
        assert comps[(F(-3), F(1))].index == 4
        assert comps[(F(0), F(1))].index == 2
        assert comps[(F(-1), F(-1))].index == 4
        assert comps[(F(0), F(0))].index == 0

    def test_f_values(self):
        comps = by_value(enumerate_critical_components(c3_spec(), (0, 0)))
        assert comps[(F(-3), F(1))].f_value == 10
        assert comps[(F(0), F(1))].f_value == 1
        assert comps[(F(-1), F(-1))].f_value == 2
        assert comps[(F(0), F(0))].f_value == 0

    def test_stabilizer_ranks_and_support(self):
        spec = c3_spec()
        comps = by_value(enumerate_critical_components(spec, (0, 0)))
        assert comps[(F(-3), F(1))].stabilizer_rank == 2
        assert comps[(F(0), F(1))].stabilizer_rank == 1
        assert comps[(F(-1), F(-1))].stabilizer_rank == 1
        assert comps[(F(0), F(0))].stabilizer_rank == 0
        assert comps[(F(-3), F(1))].generic_support == ()
        assert comps[(F(0), F(1))].generic_support == (0,)
        assert comps[(F(-1), F(-1))].generic_support == (2,)
        assert comps[(F(0), F(0))].generic_support == (0, 1, 2)

    def test_witnesses_and_soundness(self):
        comps = by_value(enumerate_critical_components(c3_spec(), (0, 0)))
        assert comps[(F(-3), F(1))].witnesses == ((),)
        assert comps[(F(0), F(1))].witnesses == ((0,),)
        assert comps[(F(-1), F(-1))].witnesses == ((2,),)
        assert comps[(F(0), F(0))].witnesses == ((0, 2), (1, 2), (0, 1, 2))

    def test_minimizing_coordinates(self):
        comps = by_value(enumerate_critical_components(c3_spec(), (0, 0)))
        assert comps[(F(-3), F(1))].minimizing_coords == (1,)
        assert comps[(F(0), F(1))].minimizing_coords == (0, 1)
        assert comps[(F(-1), F(-1))].minimizing_coords == (2,)
        assert comps[(F(0), F(0))].minimizing_coords == (0, 1, 2)

    def test_descriptor_consistency(self):
        spec = c3_spec()
        for comp in enumerate_critical_components(spec, (0, 0)):
            zero_coords = set(spec.coordinates_of_weights(comp.zero_weights))
            assert zero_coords <= set(comp.minimizing_coords)
            complement = set(range(spec.total_multiplicity)) - set(comp.minimizing_coords)
            assert 2 * len(complement) == comp.index
            assert comp.index % 2 == 0
            assert not set(comp.negative_weights) & set(comp.zero_weights)
            assert comp.witnesses


class TestEnumerationSmallSpecs:
    def test_no_weights(self):
        spec = validate_spec(2, [], (5, -7))
        comps = enumerate_critical_components(spec, (0, 0))
        assert len(comps) == 1
        assert comps[0].value == (F(5), F(-7))
        assert comps[0].index == 0
        assert comps[0].stabilizer_rank == 2

    def test_s1_on_c2_single_component(self):
        comps = enumerate_critical_components(s1c2_spec(), (0,))
        assert len(comps) == 1
        comp = comps[0]
        assert comp.value == (F(0),)
        assert comp.index == 0
        assert comp.zero_weights == (0, 1)
        assert comp.minimizing_coords == (0, 1)
        assert comp.generic_support == (0, 1)
        assert comp.stabilizer_rank == 0

    def test_minimum_absent_when_level_empty(self):
        # target outside the momentum cone: no minimum component
        spec = validate_spec(1, [((1,), 1)], (0,))
        comps = enumerate_critical_components(spec, (-2,))
        assert [c.value for c in comps] == [(F(0),)]

    def test_multiplicity_scales_index(self):
        spec = validate_spec(1, [((1,), 3)], (0,))
        comps = enumerate_critical_components(spec, (1,))
        values = {c.value: c.index for c in comps}
        assert values == {(F(0),): 6, (F(1),): 0}

    def test_weight_cap_raises_named_error(self):
        m = MAX_DISTINCT_WEIGHTS + 1
        spec = validate_spec(1, [((k,), 1) for k in range(1, m + 1)], (0,))
        with pytest.raises(TooManyWeights, match=f"{m} distinct weights"):
            enumerate_critical_components(spec, (1,))
        assert issubclass(TooManyWeights, ValueError)

    def test_minimum_component_has_index_zero(self):
        # whenever the level is nonempty, the component at the target itself
        # is present and is the minimum
        specs = [
            (c3_spec(), (0, 0)),
            (validate_spec(1, [((1,), 3)], (0,)), (1,)),
            (s1c2_spec(), (0,)),
        ]
        for spec, target in specs:
            comps = {c.value: c for c in
                     enumerate_critical_components(spec, target)}
            from momentmorse.exactlin import as_ratvec
            xi = as_ratvec(target)
            assert xi in comps
            assert comps[xi].index == 0
            assert comps[xi].f_value == 0


class TestCriterionPredicates:
    def test_critical_point_all_true(self):
        preds = criterion_predicates(c3_spec(), (F(0), F(0), F(2)))
        assert preds == (True, True, True, True)

    def test_origin_all_true(self):
        preds = criterion_predicates(c3_spec(), (F(0), F(0), F(0)))
        assert preds == (True, True, True, True)

    def test_noncritical_point_all_false(self):
        preds = criterion_predicates(c3_spec(), (F(1), F(0), F(0)))
        assert preds == (False, False, False, False)

    def test_vertices_of_every_component_are_critical(self):
        spec = c3_spec()
        for comp in enumerate_critical_components(spec, (0, 0)):
            vertices = polytope_vertices(spec, comp)
            assert vertices
            for q in vertices:
                assert momentum_value(spec, q) == comp.value
                assert criterion_predicates(spec, q) == (True,) * 4

    def test_equivalence_on_random_points(self):
        for spec in (c3_spec(), s1c2_spec(),
                     validate_spec(1, [((1,), 3)], (0,))):
            ok, bad = criterion_equivalence_sample(spec, 300, seed=42)
            assert ok, f"predicates disagree at {bad[:3]}"


class TestComponentSquares:
    def test_positive_on_support(self):
        spec = c3_spec()
        for comp in enumerate_critical_components(spec, (0, 0)):
            q = component_squares(spec, comp)
            assert momentum_value(spec, q) == comp.value
            support_coords = set(spec.coordinates_of_weights(comp.generic_support))
            for j, qj in enumerate(q):
                if j in support_coords:
                    assert qj > 0
                else:
                    assert qj == 0
            assert criterion_predicates(spec, q) == (True,) * 4

    def test_s1c2_squares(self):
        spec = s1c2_spec()
        comp = enumerate_critical_components(spec, (0,))[0]
        q = component_squares(spec, comp)
        assert q[0] == q[1] > 0
