"""Equivariant Poincare series of momentum levels and quotient Betti numbers.

The series of a nonempty level is computed by descending induction over the
critical components of |Phi - target|^2.  The ambient space is equivariantly
contractible, so its equivariant Poincare series is 1/(1-t^2)^r; the
stratification by negative-gradient flow is equivariantly perfect over the
rationals, so subtracting the shifted series of every non-minimal critical
component leaves exactly the series of the level:

    P(level) = 1/(1-t^2)^r - sum over components a != target of
               t^(index_a) * P(level of the sub-action on the zero weights
                               of a, at target a).

The recursion terminates because a non-minimal component pairs nonzero with
at least one current weight, so each recursive weight set is strictly
smaller.  Perfection (equality rather than just the Morse inequalities that
surjectivity gives) is assumed throughout; it is validated against
independent oracles in the test suite (two-sphere and projective-plane
quotients).  Coefficients are rational because finite stabilizers act
trivially on rational cohomology; torsion is out of scope.

All series arithmetic is exact integer polynomial arithmetic.  The memo
table used by the recursion is plain insert-if-absent with deterministic
results, so duplicated work is harmless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .critical import check_weight_cap, enumerate_critical_components, weight_flats
from .exactlin import RatVec, as_ratvec, cone_member, vsub, zero_vec
from .weights import ActionSpec


class EmptyLevelError(ValueError):
    """The requested momentum level is empty."""


class SingularValueError(ValueError):
    """Betti numbers requested at a non-regular value."""


class ResidualDenominatorError(ArithmeticError):
    """A (1-t^2) factor survived normalization at a supposedly regular value."""


# -- integer polynomial helpers (coefficient tuples, ascending degree) -------

def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    last = -1
    for i, c in enumerate(coeffs):
        if c:
            last = i
    return tuple(coeffs[: last + 1])


def _padd(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def _pneg(a: Sequence[int]) -> tuple[int, ...]:
    return tuple(-c for c in a)


def _pmul_one_minus_t2(a: Sequence[int]) -> tuple[int, ...]:
    out = [0] * (len(a) + 2)
    for i, c in enumerate(a):
        out[i] += c
        out[i + 2] -= c
    return _trim(out)


def _pdiv_one_minus_t2(a: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Quotient of a by (1 - t^2), or None when it does not divide."""
    if not a:
        return ()
    rem = list(a)
    deg = len(rem) - 1
    if deg < 2 and any(rem):
        return None
    quot = [0] * max(0, deg - 1)
    for d in range(deg, 1, -1):
        c = rem[d]
        if c:
            quot[d - 2] = -c  # leading coefficient of the divisor is -1
            rem[d] = 0
            rem[d - 2] += c
    if any(rem):
        return None
    return _trim(quot)


@dataclass(frozen=True)
class PoincareSeries:
    """An exact series numerator / (1 - t^2)^denom_power.

    Stored in canonical form: the numerator shares no (1 - t^2) factor with
    the denominator, and the zero series is ((), 0).
    """

    numerator: tuple[int, ...]
    denom_power: int

    def is_zero(self) -> bool:
        return not self.numerator

    def is_polynomial(self) -> bool:
        return self.denom_power == 0


def series_make(numerator: Sequence[int], denom_power: int) -> PoincareSeries:
    return series_normalize(PoincareSeries(_trim(numerator), denom_power))


def series_zero() -> PoincareSeries:
    return PoincareSeries((), 0)


def series_normalize(s: PoincareSeries) -> PoincareSeries:
    """Cancel every common (1 - t^2) factor; canonicalize zero."""
    num = _trim(s.numerator)
    if not num:
        return series_zero()
    k = s.denom_power
    while k > 0:
        quot = _pdiv_one_minus_t2(num)
        if quot is None:
            break
        num = quot
        k -= 1
    return PoincareSeries(num, k)


def series_add(a: PoincareSeries, b: PoincareSeries) -> PoincareSeries:
    k = max(a.denom_power, b.denom_power)
    na = a.numerator
    for _ in range(k - a.denom_power):
        na = _pmul_one_minus_t2(na)
    nb = b.numerator
    for _ in range(k - b.denom_power):
        nb = _pmul_one_minus_t2(nb)
    return series_normalize(PoincareSeries(_padd(na, nb), k))


def series_sub(a: PoincareSeries, b: PoincareSeries) -> PoincareSeries:
    return series_add(a, PoincareSeries(_pneg(b.numerator), b.denom_power))


def series_shift(s: PoincareSeries, power: int) -> PoincareSeries:
    """Multiply by t^power."""
    if s.is_zero():
        return s
    return series_normalize(
        PoincareSeries(tuple([0] * power) + tuple(s.numerator), s.denom_power))


def series_text(s: PoincareSeries) -> str:
    """Canonical rendering: terms in increasing degree, e.g. "1 + t^2"."""
    if s.is_zero():
        return "0"
    terms = []
    for deg, c in enumerate(s.numerator):
        if c == 0:
            continue
        if deg == 0:
            body = str(abs(c))
        elif abs(c) == 1:
            body = f"t^{deg}"
        else:
            body = f"{abs(c)}*t^{deg}"
        sign = "-" if c < 0 else "+"
        terms.append((sign, body))
    first_sign, first_body = terms[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    if s.denom_power == 0:
        return text
    if len(terms) > 1 or text.startswith("-"):
        text = f"({text})"
    return f"{text}/(1 - t^2)^{s.denom_power}"


# -- the recursion -----------------------------------------------------------


def _memo_key(spec: ActionSpec, xi: RatVec):
    weights = tuple(sorted((w.weight, w.multiplicity) for w in spec.weights))
    return (weights, xi)


def equivariant_series(spec: ActionSpec, target: Optional[Sequence] = None,
                       memoize: bool = True) -> PoincareSeries:
    """Equivariant Poincare series of the momentum level at the target.

    Returns the zero series when the level is empty.  ``memoize=False``
    recomputes shared sub-levels; the results agree exactly either way.
    """
    xi = as_ratvec(target, spec.rank) if target is not None else zero_vec(spec.rank)
    memo: Optional[dict] = {} if memoize else None
    return _series(spec, xi, memo)


def _series(spec: ActionSpec, xi: RatVec, memo: Optional[dict]) -> PoincareSeries:
    if memo is not None:
        key = _memo_key(spec, xi)
        cached = memo.get(key)
        if cached is not None:
            return cached
    rhs = vsub(xi, spec.shift)
    if not cone_member(rhs, spec.weight_vectors()):
        result = series_zero()
    else:
        result = series_make((1,), spec.rank)
        for comp in enumerate_critical_components(spec, xi):
            if comp.value == xi:
                continue
            if len(comp.zero_weights) >= len(spec.weights):
                # a nonempty level forces every non-minimal component to
                # pair nonzero with some weight; anything else is a bug
                raise RuntimeError("recursive weight set failed to shrink")
            sub = spec.restrict(comp.zero_weights)
            piece = _series(sub, comp.value, memo)
            result = series_sub(result, series_shift(piece, comp.index))
    if memo is not None:
        memo[key] = result
    return result


def is_regular_value(spec: ActionSpec, target: Optional[Sequence] = None) -> bool:
    """No point of the level has a positive-dimensional stabilizer.

    Singular values are exactly the points of shift + cone(F) over weight
    flats F of rank below the torus rank.  Cones grow with the flat, so
    only the largest such flats are tested: those of rank r - 1, or the
    whole weight set when it does not span.
    """
    check_weight_cap(spec)
    xi = as_ratvec(target, spec.rank) if target is not None else zero_vec(spec.rank)
    rhs = vsub(xi, spec.shift)
    mus = spec.weight_vectors()
    flats = weight_flats(mus)
    wall_rank = min(spec.rank - 1, flats[-1].rank)
    return not any(cone_member(rhs, [mus[i] for i in flat.members])
                   for flat in flats if flat.rank == wall_rank)


def quotient_betti(series: PoincareSeries) -> tuple[int, ...]:
    """Betti numbers of the quotient, read off the series of a regular level.

    At a regular value the equivariant cohomology of the level descends to
    the quotient, so the series must normalize to a polynomial; a residual
    (1-t^2) denominator would mean the regularity test and the recursion
    disagree and is reported as an internal error.  The caller has checked
    regularity; the zero series of an empty level is rejected here.
    """
    if series.is_zero():
        raise EmptyLevelError("empty level")
    series = series_normalize(series)
    if not series.is_polynomial():
        raise ResidualDenominatorError(
            f"residual denominator power {series.denom_power}")
    return series.numerator


def betti_numbers(spec: ActionSpec, target: Optional[Sequence] = None
                  ) -> tuple[int, ...]:
    """Betti numbers of the symplectic quotient at a regular value.

    An empty level raises EmptyLevelError before the regularity scan, a
    singular value SingularValueError.
    """
    series = equivariant_series(spec, target)
    if not series.is_zero() and not is_regular_value(spec, target):
        raise SingularValueError("not a regular value")
    return quotient_betti(series)
