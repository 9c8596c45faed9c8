"""Data model of a linear Hamiltonian torus action on a complex vector space.

A rank-r torus acts on V = C^n through integer weight vectors; each distinct
weight mu carries a multiplicity d_mu (the complex dimension of its weight
space), and the momentum map is the shifted quadratic

    Phi(z) = shift + sum_j (|z_j|^2 / 2) mu_(j),

where j runs over complex coordinates and mu_(j) is the weight acting on
coordinate j.  The exact side of the evaluation works on the radial data
q_j = |z_j|^2 / 2 (an ExactSquares vector of nonnegative rationals), which is
all that any criticality predicate ever needs.  The floating-point side
reads the same radial data off complex points with ``squares_of_point``;
its gradient flow integrates them directly and carries the phases along.

Specs are immutable after validation and safe to share across threads; all
evaluation functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .exactlin import (
    DimensionMismatch,
    RatVec,
    as_ratvec,
    lp_max,
    vadd,
    vscale,
    zero_vec,
)


class SpecError(ValueError):
    """Invalid action data (rank mismatch, bad multiplicity, ...)."""


@dataclass(frozen=True)
class WeightDatum:
    """One distinct weight vector together with its multiplicity."""

    weight: RatVec
    multiplicity: int


@dataclass(frozen=True)
class ActionSpec:
    """A validated linear torus action: rank, distinct weights, shift.

    Coordinates of V are indexed in a fixed expansion order: weights in
    input order, the ``multiplicity`` copies of each weight consecutively.
    Every module shares this indexing.
    """

    rank: int
    weights: tuple[WeightDatum, ...]
    shift: RatVec
    merged_duplicates: bool = field(default=False, compare=False)

    @cached_property
    def _hash(self) -> int:
        # specs key the certifier's caches: hash the Fractions once
        return hash((self.rank, self.weights, self.shift))

    def __hash__(self) -> int:
        return self._hash

    @property
    def total_multiplicity(self) -> int:
        return sum(w.multiplicity for w in self.weights)

    def weight_vectors(self) -> tuple[RatVec, ...]:
        return tuple(w.weight for w in self.weights)

    def coordinate_weight_indices(self) -> tuple[int, ...]:
        """Distinct-weight index of each expanded complex coordinate."""
        out: list[int] = []
        for i, w in enumerate(self.weights):
            out.extend([i] * w.multiplicity)
        return tuple(out)

    def coordinates_of_weights(self, indices: Iterable[int]) -> tuple[int, ...]:
        """Expanded coordinates belonging to the given distinct weights."""
        wanted = set(indices)
        return tuple(j for j, wi in enumerate(self.coordinate_weight_indices())
                     if wi in wanted)

    def coordinate_weight_matrix(self) -> np.ndarray:
        """Float (n, r) matrix of per-coordinate weights."""
        idx = self.coordinate_weight_indices()
        return np.array([[float(e) for e in self.weights[wi].weight] for wi in idx],
                        dtype=float)

    def restrict(self, weight_indices: Iterable[int]) -> "ActionSpec":
        """Sub-action keeping only the given distinct weights."""
        keep = sorted(set(weight_indices))
        return ActionSpec(self.rank, tuple(self.weights[i] for i in keep), self.shift)


def validate_spec(rank: int, weights: Iterable[tuple[Sequence, int]],
                  shift: Sequence) -> ActionSpec:
    """Check raw action data and build an ActionSpec.

    Duplicate weight vectors are merged by summing multiplicities; the
    returned spec carries ``merged_duplicates=True`` so callers can warn.
    """
    if rank < 1:
        raise SpecError("rank must be a positive integer")
    shift_vec = as_ratvec(shift)
    if len(shift_vec) != rank:
        raise SpecError(f"shift has length {len(shift_vec)}, expected rank {rank}")
    seen: dict[RatVec, int] = {}
    order: list[RatVec] = []
    merged = False
    for raw_vec, mult in weights:
        vec = as_ratvec(raw_vec)
        if len(vec) != rank:
            raise SpecError(f"weight {tuple(map(str, vec))} has length {len(vec)}, "
                            f"expected rank {rank}")
        if int(mult) != mult or mult < 1:
            raise SpecError(f"multiplicity {mult!r} must be a positive integer")
        if vec in seen:
            seen[vec] += int(mult)
            merged = True
        else:
            seen[vec] = int(mult)
            order.append(vec)
    data = tuple(WeightDatum(v, seen[v]) for v in order)
    return ActionSpec(rank, data, shift_vec, merged_duplicates=merged)


def make_squares(spec: ActionSpec, q: Iterable) -> tuple[Fraction, ...]:
    """Validated exact radial data q_j = |z_j|^2 / 2, one per coordinate."""
    vec = tuple(Fraction(v) for v in q)
    if len(vec) != spec.total_multiplicity:
        raise DimensionMismatch(
            f"expected {spec.total_multiplicity} squares, got {len(vec)}")
    if any(v < 0 for v in vec):
        raise SpecError("squares must be nonnegative")
    return vec


def momentum_value(spec: ActionSpec, q: Sequence[Fraction]) -> RatVec:
    """Exact momentum value shift + sum_j q_j mu_(j)."""
    if len(q) != spec.total_multiplicity:
        raise DimensionMismatch(
            f"expected {spec.total_multiplicity} squares, got {len(q)}")
    value = spec.shift
    idx = spec.coordinate_weight_indices()
    for j, qj in enumerate(q):
        if qj:
            value = vadd(value, vscale(Fraction(qj), spec.weights[idx[j]].weight))
    return value


def squares_of_point(z: np.ndarray) -> np.ndarray:
    """Float radial data |z_j|^2 / 2 of a complex coordinate vector."""
    z = np.asarray(z, dtype=complex)
    return 0.5 * (z.real ** 2 + z.imag ** 2)


def momentum_value_float(spec: ActionSpec, z: np.ndarray) -> np.ndarray:
    """Floating-point momentum value of a complex point."""
    q = squares_of_point(z)
    if q.shape != (spec.total_multiplicity,):
        raise DimensionMismatch(
            f"expected {spec.total_multiplicity} coordinates, got {q.shape}")
    beta = np.array([float(e) for e in spec.shift])
    return beta + q @ spec.coordinate_weight_matrix()


def polarization_certificate(spec: ActionSpec) -> Optional[RatVec]:
    """A functional eta with <mu, eta> >= 1 for every weight, if one exists.

    Such a certificate puts all weights strictly on one side of a
    hyperplane, which makes the norm-square of the momentum map proper:
    negative-gradient trajectories then have limits and symplectic
    quotients are compact.  For an empty weight list the zero vector is
    returned (the condition is vacuous).
    """
    r = spec.rank
    mus = spec.weight_vectors()
    if not mus:
        return zero_vec(r)
    # variables: a_1..a_r, b_1..b_r (eta = a - b), t_1..t_m slack
    m = len(mus)
    A: list[list[Fraction]] = []
    for k, mu in enumerate(mus):
        row = list(mu) + [-e for e in mu] + [Fraction(0)] * m
        row[2 * r + k] = Fraction(-1)
        A.append(row)
    b = [Fraction(1)] * m
    status, x, _ = lp_max(A, b, [Fraction(0)] * (2 * r + m))
    if status != "optimal" or x is None:
        return None
    return tuple(x[i] - x[r + i] for i in range(r))
