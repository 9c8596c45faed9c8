"""Series arithmetic, the level-set recursion, regularity, Betti numbers."""

from fractions import Fraction as F

import random

import pytest

from momentmorse import poincare
from momentmorse.critical import MAX_DISTINCT_WEIGHTS, TooManyWeights
from momentmorse.poincare import (
    EmptyLevelError,
    PoincareSeries,
    ResidualDenominatorError,
    SingularValueError,
    betti_numbers,
    component_series,
    equivariant_series,
    is_regular_value,
    quotient_betti,
    series_add,
    series_make,
    series_normalize,
    series_shift,
    series_sub,
    series_text,
    series_zero,
)
from momentmorse.weights import validate_spec

from specgen import random_polarized_spec


def c3_spec():
    return validate_spec(2, [((1, 0), 1), ((0, 1), 1), ((1, -1), 1)], (-3, 1))


class TestSeriesArithmetic:
    def test_normalize_divides_out(self):
        s = series_normalize(PoincareSeries((1, 0, 0, 0, 0, 0, -1), 1))
        assert s == PoincareSeries((1, 0, 1, 0, 1), 0)

    def test_shift(self):
        assert series_shift(series_make((1,), 0), 4) == PoincareSeries((0, 0, 0, 0, 1), 0)

    def test_sub_with_cancellation(self):
        a = series_make((1,), 2)
        b = series_make((0, 0, 0, 0, 1), 2)
        assert series_sub(a, b) == PoincareSeries((1, 0, 1), 1)

    def test_zero_conventions(self):
        z = series_sub(series_make((1,), 1), series_make((1,), 1))
        assert z == series_zero()
        assert series_add(z, series_make((2, 1), 0)) == PoincareSeries((2, 1), 0)

    def test_text_rendering(self):
        assert series_text(series_make((1, 0, 1), 0)) == "1 + t^2"
        assert series_text(series_make((1,), 1)) == "1/(1 - t^2)^1"
        assert series_text(series_make((1, 0, 1), 1)) == "(1 + t^2)/(1 - t^2)^1"
        assert series_text(series_zero()) == "0"
        assert series_text(series_make((2, 0, -3), 0)) == "2 - 3*t^2"


class TestEquivariantSeries:
    def test_c3_two_sphere(self):
        s = equivariant_series(c3_spec(), (0, 0))
        assert s == PoincareSeries((1, 0, 1), 0)

    def test_projective_plane(self):
        spec = validate_spec(1, [((1,), 3)], (0,))
        s = equivariant_series(spec, (1,))
        assert s == PoincareSeries((1, 0, 1, 0, 1), 0)

    def test_s1_on_c2_cone_level(self):
        spec = validate_spec(1, [((1,), 1), ((-1,), 1)], (0,))
        s = equivariant_series(spec, (0,))
        assert s == PoincareSeries((1,), 1)

    def test_empty_level_zero_series(self):
        spec = validate_spec(1, [((1,), 1)], (0,))
        assert equivariant_series(spec, (-1,)) == series_zero()

    def test_memoized_matches_unmemoized(self):
        for spec, target in [(c3_spec(), (0, 0)),
                             (validate_spec(1, [((1,), 3)], (0,)), (1,))]:
            assert equivariant_series(spec, target, memoize=True) == \
                equivariant_series(spec, target, memoize=False)

    def test_reconstruction_identity(self):
        # summing shifted component series recovers 1/(1-t^2)^r exactly
        spec = c3_spec()
        total = series_zero()
        for _value, index, piece in component_series(spec, (0, 0)):
            total = series_add(total, series_shift(piece, index))
        assert total == series_make((1,), spec.rank)


class TestRegularValues:
    def test_c3_origin_regular(self):
        assert is_regular_value(c3_spec(), (0, 0))

    def test_s1c2_zero_singular(self):
        spec = validate_spec(1, [((1,), 1), ((-1,), 1)], (0,))
        assert not is_regular_value(spec, (0,))

    def test_shift_always_singular_with_weights(self):
        assert not is_regular_value(c3_spec(), (-3, 1))

    def test_ray_values_singular(self):
        # on the mu_1 ray from the shift
        assert not is_regular_value(c3_spec(), (-1, 1))

    def test_weight_cap(self):
        m = MAX_DISTINCT_WEIGHTS + 1
        spec = validate_spec(1, [((k,), 1) for k in range(1, m + 1)], (0,))
        with pytest.raises(TooManyWeights):
            is_regular_value(spec, (1,))


class TestBettiNumbers:
    def test_two_sphere(self):
        assert betti_numbers(c3_spec(), (0, 0)) == (1, 0, 1)

    def test_projective_plane(self):
        spec = validate_spec(1, [((1,), 3)], (0,))
        assert betti_numbers(spec, (1,)) == (1, 0, 1, 0, 1)

    def test_singular_value_rejected(self):
        spec = validate_spec(1, [((1,), 1), ((-1,), 1)], (0,))
        with pytest.raises(SingularValueError):
            betti_numbers(spec, (0,))

    def test_empty_level_rejected(self):
        spec = validate_spec(1, [((1,), 1)], (0,))
        with pytest.raises(EmptyLevelError):
            betti_numbers(spec, (-1,))

    def test_empty_level_skips_regularity_scan(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("regularity scanned on an empty level")
        monkeypatch.setattr(poincare, "is_regular_value", no_scan)
        spec = validate_spec(1, [((1,), 1)], (0,))
        with pytest.raises(EmptyLevelError):
            betti_numbers(spec, (-1,))

    def test_quotient_betti_reads_the_series(self):
        assert quotient_betti(equivariant_series(c3_spec(), (0, 0))) == (1, 0, 1)
        with pytest.raises(EmptyLevelError):
            quotient_betti(series_zero())
        with pytest.raises(ResidualDenominatorError):
            quotient_betti(series_make((1,), 1))


class TestRandomSpecInvariants:
    def test_polynomial_palindromic_nonnegative(self):
        rng = random.Random(2024)
        for _ in range(12):
            spec, xi = random_polarized_spec(rng)
            series = equivariant_series(spec, xi)
            assert series.is_polynomial()
            coeffs = series.numerator
            assert all(c >= 0 for c in coeffs)
            assert coeffs == tuple(reversed(coeffs))
            expected_deg = 2 * (spec.total_multiplicity - spec.rank)
            assert len(coeffs) - 1 == expected_deg
            euler = sum((-1) ** d * c for d, c in enumerate(coeffs))
            assert euler >= 0
            assert equivariant_series(spec, xi, memoize=False) == series
