"""Walkthrough: numeric certification of the critical structure.

The exact enumeration predicts, for each component, a Morse index, a
negative coordinate subspace and a minimizing subspace.  Here we check all
of it in floating point on the rank-2 action on C^3: Hessian eigenvalue
counts, eigenspace alignment, the minimizing inequality, fibrewise Newton
maximization, and the stratification of the space by negative-gradient
trajectories.
"""

import numpy as np

from momentmorse import (
    enumerate_critical_components,
    fibrewise_critical_locus,
    flow_trajectory,
    hessian_report,
    sample_component_point,
    survey_strata,
    validate_spec,
    verify_minimizing,
)
from momentmorse.cli import format_vector
from momentmorse.degeneracy import rng_stream

spec = validate_spec(2, [((1, 0), 1), ((0, 1), 1), ((1, -1), 1)], (-3, 1))
target = (0, 0)
components = enumerate_critical_components(spec, target)

print("Hessian structure at sampled component points")
print("(negative count must equal the Morse index; the rest splits into")
print(" zero directions along the component and positive ones across it)")
rng = rng_stream(1, 0)
for comp in components:
    z = sample_component_point(spec, comp, rng)
    rep = hessian_report(spec, target, comp, z)
    print(f"  {format_vector(comp.value)}: index {comp.index}, "
          f"eigen counts (neg, zero, pos) = "
          f"({rep.negative_count}, {rep.zero_count}, {rep.positive_count}), "
          f"psd on N: {rep.restricted_psd_on_N}, "
          f"negative definite on E: {rep.negative_definite_on_E}")
print()

print("Minimizing inequality f >= f(C) on the subspace N, with quadratic margin")
for comp in components:
    rep = verify_minimizing(spec, target, comp, radius=0.5, samples=200, seed=2)
    print(f"  {format_vector(comp.value)}: worst margin {rep.worst_margin:.2e}, "
          f"fitted c {rep.fitted_quadratic:.3f} over {rep.off_samples} "
          f"off-component samples")
print()

print("Fibrewise Newton maximization recovers the locus {E-coordinates = 0}")
for comp in components:
    if comp.index == 0:
        continue
    rep = fibrewise_critical_locus(spec, target, comp, grid_size=6, seed=3)
    print(f"  {format_vector(comp.value)}: max |zeta| after Newton "
          f"{rep.max_locus_deviation:.1e} over {rep.fibers} fibers, "
          f"min |det| of the fiber block {rep.min_block_det:.2f}")
print()

print("One trajectory, narrated")
rng = rng_stream(4, 0)
z0 = rng.normal(size=3) + 1j * rng.normal(size=3)
result = flow_trajectory(spec, target, z0)
print(f"  start f = {result.f_start:.4f}, limit f = {result.f_limit:.2e}, "
      f"{result.steps} steps")
print(f"  limit momentum {np.round(result.limit_momentum, 8)} matched to "
      f"{format_vector(result.matched_component)}")
print(f"  f monotone: {result.f_monotone}")
print()

print("Stratification survey (random ball + near-component ensembles)")
report = survey_strata(spec, target, n_random=60, n_near=5, seed=5)
for value, count in report.counts:
    print(f"  stratum of {format_vector(value)}: {count} trajectories")
print(f"  unmatched: {report.unmatched}, monotone: {report.all_monotone}")
print(f"  frontier (stable side): {report.stable_frontier_ok}, "
      f"(descent side): {report.descent_frontier_ok}")
