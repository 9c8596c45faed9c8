"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from fractions import Fraction as F

import numpy as np

from momentmorse.critical import (
    criterion_equivalence_sample,
    enumerate_critical_components,
)
from momentmorse.degeneracy import (
    coordinate_subspace_basis,
    fibrewise_critical_locus,
    flow_trajectory,
    grad_f,
    hess_f,
    hessian_report,
    negative_eigenspace,
    principal_angles,
    rng_stream,
    sample_component_point,
    survey_strata,
    verify_minimizing,
)
from momentmorse.poincare import (
    PoincareSeries,
    betti_numbers,
    equivariant_series,
    is_regular_value,
    series_text,
)
from momentmorse.weights import validate_spec

from specgen import random_polarized_spec
from test_degeneracy import fd_gradient, fd_hessian, phase_change


def c3_spec():
    return validate_spec(2, [((1, 0), 1), ((0, 1), 1), ((1, -1), 1)], (-3, 1))


def cp2_spec():
    return validate_spec(1, [((1,), 3)], (0,))


def s1c2_spec():
    return validate_spec(1, [((1,), 1), ((-1,), 1)], (0,))


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_c3_enumeration():
    start = time.monotonic()
    components = enumerate_critical_components(c3_spec(), (0, 0))
    elapsed = time.monotonic() - start
    values = {c.value for c in components}
    expected = {(F(-3), F(1)), (F(0), F(1)), (F(-1), F(-1)), (F(0), F(0))}
    ok = values == expected and len(components) == 4 and elapsed < 1.0
    report(1, ok, f"4 exact critical values in {elapsed * 1000:.0f} ms")


def test_criterion_2_indices_and_stabilizers():
    spec = c3_spec()
    comps = {c.value: c for c in enumerate_critical_components(spec, (0, 0))}
    order = [(F(-3), F(1)), (F(0), F(1)), (F(-1), F(-1)), (F(0), F(0))]
    indices = tuple(comps[v].index for v in order)
    ranks = tuple(comps[v].stabilizer_rank for v in order)
    minimum = comps[(F(0), F(0))]
    ok = (indices == (4, 2, 4, 0) and ranks == (2, 1, 1, 0)
          and minimum.generic_support == (0, 1, 2)
          and minimum.stabilizer_rank == 0)
    report(2, ok, f"indices {indices}, stabilizer ranks {ranks}, "
                  f"minimum supported on all coordinates")


def test_criterion_3_c3_series():
    spec = c3_spec()
    regular = is_regular_value(spec, (0, 0))
    series = equivariant_series(spec, (0, 0))
    betti = betti_numbers(spec, (0, 0))
    ok = (regular and series == PoincareSeries((1, 0, 1), 0)
          and betti == (1, 0, 1))
    report(3, ok, f"regular, P = {series_text(series)}, betti = {list(betti)}")


def test_criterion_4_projective_plane():
    series = equivariant_series(cp2_spec(), (1,))
    ok = series == PoincareSeries((1, 0, 1, 0, 1), 0)
    report(4, ok, f"P = {series_text(series)}")


def test_criterion_5_s1_on_c2():
    spec = s1c2_spec()
    components = enumerate_critical_components(spec, (0,))
    series = equivariant_series(spec, (0,))
    ok = (len(components) == 1
          and components[0].value == (F(0),)
          and components[0].index == 0
          and components[0].minimizing_coords == (0, 1)
          and not is_regular_value(spec, (0,))
          and series == PoincareSeries((1,), 1))
    report(5, ok, f"one component, index 0, N = C^2, singular, "
                  f"P = {series_text(series)}")


def test_criterion_6_criterion_equivalence():
    ok = True
    counts = []
    for spec in (c3_spec(), cp2_spec(), s1c2_spec()):
        agree, bad = criterion_equivalence_sample(spec, 1000, seed=2026)
        ok = ok and agree
        counts.append(1000)
    report(6, ok, f"predicates agree pairwise on {counts} exact points")


def test_criterion_7_derivative_oracles():
    worst = 0.0
    ok = True
    for spec_idx, spec in enumerate((c3_spec(), cp2_spec(), s1c2_spec())):
        n = spec.total_multiplicity
        target = tuple(0 for _ in range(spec.rank))
        rng = rng_stream(505, spec_idx)
        for _ in range(100):
            z = rng.normal(size=n) + 1j * rng.normal(size=n)
            g = grad_f(spec, target, z)
            g_fd = fd_gradient(spec, target, z)
            rel_g = np.linalg.norm(g - g_fd) / max(1.0, np.linalg.norm(g))
            H = hess_f(spec, target, z)
            H_fd = fd_hessian(spec, target, z)
            rel_h = np.linalg.norm(H - H_fd) / max(1.0, np.linalg.norm(H))
            worst = max(worst, rel_g, rel_h)
            ok = ok and rel_g < 1e-5 and rel_h < 1e-5
    report(7, ok, f"gradient and Hessian match central differences, "
                  f"worst relative error {worst:.2e}")


def test_criterion_8_minimal_degeneracy_certification():
    spec = c3_spec()
    ok = True
    details = []
    for comp in enumerate_critical_components(spec, (0, 0)):
        rng = rng_stream(808, comp.index)
        e_coords = [j for j in range(spec.total_multiplicity)
                    if j not in comp.minimizing_coords]
        e_basis = coordinate_subspace_basis(spec, e_coords)
        for _ in range(3):
            point = sample_component_point(spec, comp, rng)
            hrep = hessian_report(spec, (0, 0), comp, point, tau=1e-9)
            ok = ok and hrep.negative_count == comp.index
            span = negative_eigenspace(spec, (0, 0), point, comp.index)
            angles = principal_angles(span, e_basis)
            angle = float(angles.max()) if angles.size else 0.0
            ok = ok and angle < 1e-6
        minrep = verify_minimizing(spec, (0, 0), comp, radius=0.5,
                                   samples=500, seed=909)
        ok = ok and minrep.passed and minrep.fitted_quadratic > 0
        ok = ok and comp.index % 2 == 0
        details.append(f"{comp.index}")
    report(8, ok, f"eigencounts = indices ({', '.join(details)}), eigenspaces "
                  f"aligned < 1e-6, minimizing margins positive, all even")


def test_criterion_9_flow_completeness():
    spec = c3_spec()
    components = enumerate_critical_components(spec, (0, 0))
    ok = True
    worst_phase = 0.0
    for i in range(200):
        rng = rng_stream(909, i)
        raw = rng.normal(size=3) + 1j * rng.normal(size=3)
        norm = np.linalg.norm(raw)
        z0 = raw / norm * 5.0 * rng.random() ** (1.0 / 6.0)
        result = flow_trajectory(spec, (0, 0), z0, components)
        phase = phase_change(z0, result.limit)
        ok = (ok and result.matched_component is not None
              and result.f_monotone and phase <= 1e-15)
        worst_phase = max(worst_phase, phase)
    survey = survey_strata(spec, (0, 0), n_random=0, n_near=10, seed=910)
    ok = ok and survey.unmatched == 0 and survey.stable_frontier_ok
    ok = ok and survey.min_stable_margin >= -1e-9
    report(9, ok, f"200 trajectories converged and matched, limit phases "
                  f"equal the start's (max change {worst_phase:.1e}), "
                  f"frontier margins >= -1e-9")


def test_criterion_10_fibrewise_locus():
    spec = c3_spec()
    ok = True
    worst = 0.0
    for comp in enumerate_critical_components(spec, (0, 0)):
        if comp.index == 0:
            continue
        rep = fibrewise_critical_locus(spec, (0, 0), comp, grid_size=10,
                                       tol=1e-6, seed=1010)
        ok = (ok and rep.passed and not rep.newton_failures
              and rep.max_locus_deviation < 1e-6 and rep.min_block_det > 1e-9)
        worst = max(worst, rep.max_locus_deviation)
    report(10, ok, f"10x10 grids recover the locus, worst deviation "
                   f"{worst:.1e}, fiber Hessian blocks nondegenerate")


def test_criterion_11_random_spec_invariants():
    rng = random.Random(111)
    ok = True
    for _ in range(50):
        spec, xi = random_polarized_spec(rng)
        series = equivariant_series(spec, xi, memoize=True)
        plain = equivariant_series(spec, xi, memoize=False)
        coeffs = series.numerator
        ok = (ok and series.is_polynomial()
              and all(c >= 0 for c in coeffs)
              and coeffs == tuple(reversed(coeffs))
              and len(coeffs) - 1 == 2 * (spec.total_multiplicity - spec.rank)
              and series == plain)
    report(11, ok, "50 random polarized specs: polynomial, nonnegative, "
                   "palindromic, degree 2(sum d - r), memo = no-memo")
