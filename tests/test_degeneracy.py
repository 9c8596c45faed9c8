"""Numeric certification: derivatives, Hessian structure, flow, fibers."""

import dataclasses
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momentmorse import degeneracy
from momentmorse.critical import enumerate_critical_components
from momentmorse.degeneracy import (
    MATCH_TOL,
    STEP_SLACK,
    NotOnComponent,
    coordinate_subspace_basis,
    f_value,
    fibrewise_critical_locus,
    flow_trajectory,
    grad_f,
    hess_f,
    hessian_report,
    local_coords_check,
    negative_eigenspace,
    principal_angles,
    rng_stream,
    sample_component_point,
    survey_strata,
    verify_component,
    verify_minimizing,
)
from momentmorse.weights import momentum_value_float, validate_spec
from specgen import random_polarized_spec


def c3_spec():
    return validate_spec(2, [((1, 0), 1), ((0, 1), 1), ((1, -1), 1)], (-3, 1))


def c3_components():
    return {c.value: c for c in enumerate_critical_components(c3_spec(), (0, 0))}


def phase_change(z0, limit):
    """Largest |arg(limit_j / z0_j)| over the nonzero coordinates of the limit."""
    moved = limit != 0
    return float(np.max(np.abs(np.angle(limit[moved] / z0[moved])), initial=0.0))


def fd_gradient(spec, target, z, h=1e-5):
    """Central finite differences of f on the real coordinates."""
    n = len(z)
    g = np.zeros(2 * n)
    for j in range(n):
        for a, delta in ((0, h), (1, h * 1j)):
            zp = z.copy()
            zm = z.copy()
            zp[j] += delta
            zm[j] -= delta
            g[2 * j + a] = (f_value(spec, target, zp) -
                            f_value(spec, target, zm)) / (2 * h)
    return g


def fd_hessian(spec, target, z, h=1e-4):
    """Second-order central differences of f (independent of grad_f)."""
    n = len(z)
    dim = 2 * n
    H = np.zeros((dim, dim))

    def shift(i, amount):
        out = z.copy()
        j, a = divmod(i, 2)
        out[j] += amount if a == 0 else amount * 1j
        return out

    for i in range(dim):
        for k in range(i, dim):
            if i == k:
                fp = f_value(spec, target, shift(i, h))
                fm = f_value(spec, target, shift(i, -h))
                f0 = f_value(spec, target, z)
                H[i, i] = (fp - 2 * f0 + fm) / h ** 2
            else:
                zpp = shift(i, h)
                j, a = divmod(k, 2)
                zpp[j] += h if a == 0 else h * 1j
                zpm = shift(i, h)
                zpm[j] -= h if a == 0 else h * 1j
                zmp = shift(i, -h)
                zmp[j] += h if a == 0 else h * 1j
                zmm = shift(i, -h)
                zmm[j] -= h if a == 0 else h * 1j
                val = (f_value(spec, target, zpp) - f_value(spec, target, zpm)
                       - f_value(spec, target, zmp) + f_value(spec, target, zmm)
                       ) / (4 * h ** 2)
                H[i, k] = H[k, i] = val
    return H


class TestDerivatives:
    def test_gradient_zero_at_origin_of_critical_shift(self):
        spec = c3_spec()
        z = np.zeros(3, dtype=complex)
        assert np.linalg.norm(grad_f(spec, (0, 0), z)) == 0.0

    def test_gradient_vanishes_on_component(self):
        spec = c3_spec()
        z = np.array([0, 0, 2.0 * np.exp(0.7j)], dtype=complex)
        assert np.linalg.norm(grad_f(spec, (0, 0), z)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        spec = c3_spec()
        rng = rng_stream(123, 0)
        for _ in range(25):
            z = rng.normal(size=3) + 1j * rng.normal(size=3)
            g = grad_f(spec, (0, 0), z)
            fd = fd_gradient(spec, (0, 0), z)
            assert np.linalg.norm(g - fd) < 1e-5 * max(1.0, np.linalg.norm(g))

    def test_hessian_matches_finite_differences(self):
        spec = c3_spec()
        rng = rng_stream(124, 0)
        for _ in range(10):
            z = rng.normal(size=3) + 1j * rng.normal(size=3)
            H = hess_f(spec, (0, 0), z)
            fd = fd_hessian(spec, (0, 0), z)
            assert np.linalg.norm(H - fd) < 1e-5 * max(1.0, np.linalg.norm(H))

    def test_hessian_exactly_symmetric(self):
        spec = c3_spec()
        rng = rng_stream(125, 0)
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        H = hess_f(spec, (0, 0), z)
        assert np.array_equal(H, H.T)

    def test_hessian_block_diagonal_at_origin(self):
        spec = c3_spec()
        H = hess_f(spec, (0, 0), np.zeros(3, dtype=complex))
        # blocks 2<shift, mu_j> I_2 with shift (-3, 1): pairings -3, 1, -4
        expected = np.diag([-6.0, -6.0, 2.0, 2.0, -8.0, -8.0])
        assert np.array_equal(H, expected)


class TestHessianReports:
    def test_negative_counts_match_indices(self):
        spec = c3_spec()
        comps = c3_components()
        rng = rng_stream(9, 0)
        for value, expected in [((F(-1), F(-1)), 4), ((F(0), F(0)), 0),
                                ((F(0), F(1)), 2), ((F(-3), F(1)), 4)]:
            comp = comps[value]
            z = sample_component_point(spec, comp, rng)
            report = hessian_report(spec, (0, 0), comp, z)
            assert report.negative_count == expected
            assert report.restricted_psd_on_N
            assert report.negative_definite_on_E
            total = report.negative_count + report.zero_count + report.positive_count
            assert total == 6

    def test_specific_points(self):
        spec = c3_spec()
        comps = c3_components()
        z = np.array([0, 0, 2.0 * np.exp(1.1j)], dtype=complex)
        assert hessian_report(spec, (0, 0), comps[(F(-1), F(-1))], z).negative_count == 4
        z = np.array([np.sqrt(6.0) * np.exp(0.3j), 0, 0], dtype=complex)
        assert hessian_report(spec, (0, 0), comps[(F(0), F(1))], z).negative_count == 2

    def test_off_component_point_rejected(self):
        spec = c3_spec()
        comps = c3_components()
        z = np.array([1.0, 1.0, 1.0], dtype=complex)
        with pytest.raises(NotOnComponent):
            hessian_report(spec, (0, 0), comps[(F(0), F(0))], z)


class TestNegativeEigenspace:
    def test_alignment_with_coordinate_subspaces(self):
        spec = c3_spec()
        comps = c3_components()
        rng = rng_stream(11, 0)
        cases = [((F(0), F(1)), [2]), ((F(-1), F(-1)), [0, 1]),
                 ((F(-3), F(1)), [0, 2])]
        for value, e_coords in cases:
            comp = comps[value]
            z = sample_component_point(spec, comp, rng)
            span = negative_eigenspace(spec, (0, 0), z, comp.index)
            predicted = coordinate_subspace_basis(spec, e_coords)
            angles = principal_angles(span, predicted)
            assert angles.max() < 1e-6

    def test_k_zero_gives_empty_basis(self):
        spec = validate_spec(1, [((1,), 2)], (1,))
        span = negative_eigenspace(spec, (0,), np.zeros(2, dtype=complex), 0)
        assert span.shape == (4, 0)


class TestVerifyMinimizing:
    def test_all_c3_components_pass(self):
        spec = c3_spec()
        for comp in c3_components().values():
            report = verify_minimizing(spec, (0, 0), comp, radius=0.5,
                                       samples=120, seed=3)
            assert report.passed
            assert report.fitted_quadratic > 0
            assert report.worst_margin >= -1e-9

    def test_origin_component_margin(self):
        # N of the origin component is the z2 axis; f there exceeds 10 off 0
        spec = c3_spec()
        comp = c3_components()[(F(-3), F(1))]
        report = verify_minimizing(spec, (0, 0), comp, radius=0.5,
                                   samples=60, seed=5)
        assert report.passed

    def test_zero_radius_rejected(self):
        spec = c3_spec()
        comp = c3_components()[(F(0), F(0))]
        with pytest.raises(ValueError):
            verify_minimizing(spec, (0, 0), comp, radius=0.0, samples=10, seed=1)


class TestFlow:
    def test_equilibrium_stays_put(self):
        spec = c3_spec()
        z0 = np.array([0, 0, 2.0 * np.exp(0.25j)], dtype=complex)
        result = flow_trajectory(spec, (0, 0), z0)
        assert result.steps == 0
        assert result.matched_component == (F(-1), F(-1))
        assert np.array_equal(result.limit, z0)

    def test_near_component_in_minimizing_subspace_flows_back(self):
        spec = c3_spec()
        comps = c3_components()
        comp = comps[(F(0), F(1))]
        z0 = np.array([np.sqrt(6.0) + 0.01, 0.01, 0], dtype=complex)
        result = flow_trajectory(spec, (0, 0), z0)
        assert result.matched_component == (F(0), F(1))
        assert result.f_monotone

    def test_random_starts_all_match(self):
        spec = c3_spec()
        comps = enumerate_critical_components(spec, (0, 0))
        for i in range(20):
            rng = rng_stream(77, i)
            raw = rng.normal(size=3) + 1j * rng.normal(size=3)
            z0 = raw / np.linalg.norm(raw) * 5.0 * rng.random() ** (1 / 6)
            result = flow_trajectory(spec, (0, 0), z0, components=comps)
            assert result.matched_component is not None
            assert result.f_monotone
            assert phase_change(z0, result.limit) <= 1e-15
            assert result.f_limit <= result.f_start + 1e-12

    def test_phase_rotation_equivariance(self):
        spec = c3_spec()
        rng = rng_stream(78, 0)
        raw = rng.normal(size=3) + 1j * rng.normal(size=3)
        rotated = raw * np.exp(1j * np.array([0.5, 1.2, -0.7]))
        r1 = flow_trajectory(spec, (0, 0), raw)
        r2 = flow_trajectory(spec, (0, 0), rotated)
        assert np.linalg.norm(r1.limit_momentum - r2.limit_momentum) < 1e-8

    def test_steps_count_accepted_steps_only(self, monkeypatch):
        # _f runs once at the start and once per accepted step; each trial
        # step, accepted or rejected, runs three RK4 evaluations
        counts = {"_f": 0, "_rk4": 0}
        for name in counts:
            original = getattr(degeneracy, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)
            monkeypatch.setattr(degeneracy, name, counted)
        z0 = np.array([4.0, 0.1, 2.0], dtype=complex)
        result = flow_trajectory(c3_spec(), (0, 0), z0)
        assert result.steps == counts["_f"] - 1
        assert counts["_rk4"] // 3 > result.steps  # some trial steps were rejected

    def test_step_budget_exhaustion_raises(self, monkeypatch):
        from momentmorse.degeneracy import FlowNonConvergence
        monkeypatch.setattr(degeneracy, "MAX_FLOW_STEPS", 3)
        spec = c3_spec()
        z0 = np.array([3.0, 2.0, 1.0], dtype=complex)
        with pytest.raises(FlowNonConvergence):
            flow_trajectory(spec, (0, 0), z0)


def z_flow_momentum(spec, target, z0):
    """Limit momentum of the flow integrated in complex coordinates.

    The reference for ``flow_trajectory``, which integrates the radial
    squares instead: zdot_j = -2 <Phi(z) - xi, mu_(j)> z_j by classical
    Runge-Kutta with the same step-doubling control and stiffness cap.
    """
    mu = spec.coordinate_weight_matrix()
    beta = np.array([float(e) for e in spec.shift])
    xi = np.array([float(e) for e in target])
    gram_scale = float(np.max(np.abs(mu @ mu.T)))

    def phi(z):
        return beta + 0.5 * (z.real ** 2 + z.imag ** 2) @ mu

    def rate(z):
        return -2.0 * (mu @ (phi(z) - xi)) * z

    def rk4(z, h):
        k1 = h * rate(z)
        k2 = h * rate(z + 0.5 * k1)
        k3 = h * rate(z + 0.5 * k2)
        k4 = h * rate(z + k3)
        return z + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0

    z = np.asarray(z0, dtype=complex)
    h = degeneracy.FLOW_H0
    for _ in range(degeneracy.MAX_FLOW_STEPS):
        p = mu @ (phi(z) - xi)
        grad_norm = np.sqrt(np.sum((2.0 * p) ** 2 * np.abs(z) ** 2))
        if grad_norm < degeneracy.EPS_GRAD:
            return phi(z)
        stiffest = max(float(np.max(np.abs(2.0 * p))),
                       2.0 * float(np.max(np.abs(z))) ** 2 * gram_scale)
        if stiffest > 0.0:
            h = min(h, 2.5 / stiffest)
        y_full = rk4(z, h)
        y_half = rk4(rk4(z, 0.5 * h), 0.5 * h)
        err = float(np.max(np.abs(y_full - y_half)))
        scale = (degeneracy.FLOW_ATOL
                 + degeneracy.FLOW_RTOL * float(np.max(np.abs(y_half))))
        if err > 15.0 * scale:
            h *= max(0.1, 0.9 * (15.0 * scale / err) ** 0.2)
            continue
        z = y_half
        if err > 0.0:
            h *= min(5.0, max(1.0, 0.9 * (15.0 * scale / err) ** 0.2))
        else:
            h *= 5.0
    raise AssertionError("the complex-coordinate flow did not converge")


class TestFlowAgainstComplexReference:
    def test_same_limits_as_the_complex_flow(self):
        spec = c3_spec()
        comps = enumerate_critical_components(spec, (0, 0))
        for i in range(20):
            rng = rng_stream(4242, i)
            raw = rng.normal(size=3) + 1j * rng.normal(size=3)
            z0 = raw / np.linalg.norm(raw) * 5.0 * rng.random() ** (1 / 6)
            result = flow_trajectory(spec, (0, 0), z0, components=comps)
            momentum = z_flow_momentum(spec, (0, 0), z0)
            matched = [c.value for c in comps
                       if np.linalg.norm(momentum - [float(e) for e in c.value])
                       < MATCH_TOL]
            assert matched == [result.matched_component]
            assert np.linalg.norm(result.limit_momentum - momentum) < MATCH_TOL
            assert phase_change(z0, result.limit) <= 1e-15


# The rank-1 shapes (multiplicities of distinct weights) of the certify
# benchmark.  Rank-3 specgen specs are left out: at their far targets the
# absolute EPS_GRAD takes hundreds of thousands of steps to reach.
RANK1_SHAPES = ((2, 1), (1, 1, 1), (1, 2), (1, 1))


@st.composite
def flow_starts(draw):
    """C3 at target 0, or a polarized rank-1 spec at shift plus a positive
    combination of its weights; and a start with some zero coordinates."""
    if draw(st.booleans()):
        spec, target = c3_spec(), (0, 0)
    else:
        mults = draw(st.sampled_from(RANK1_SHAPES))
        weights = draw(st.permutations([1, 2, 3]))[:len(mults)]
        shift = draw(st.integers(-2, 2))
        coeffs = [F(draw(st.integers(1, 9)), draw(st.integers(1, 4)))
                  for _ in weights]
        spec = validate_spec(1, [((w,), k) for w, k in zip(weights, mults)],
                             (shift,))
        target = (shift + sum(c * w for c, w in zip(coeffs, weights)),)
    n = spec.total_multiplicity
    radii = draw(st.lists(st.just(0.0) | st.floats(0.01, 5.0),
                          min_size=n, max_size=n))
    phases = draw(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=n, max_size=n))
    return spec, target, np.array(radii) * np.exp(1j * np.array(phases))


class TestFlowProperties:
    @settings(max_examples=40, deadline=None, database=None)
    @given(flow_starts())
    def test_limit_is_a_critical_point_below_the_start(self, case):
        spec, target, z0 = case
        comps = enumerate_critical_components(spec, target)
        result = flow_trajectory(spec, target, z0, components=comps)
        assert np.all(np.isfinite(result.limit))
        # the limit's radial squares are the integrated ones
        assert np.allclose(momentum_value_float(spec, result.limit),
                           result.limit_momentum, rtol=1e-12, atol=1e-12)
        assert result.matched_component in {c.value for c in comps}
        assert result.f_limit <= result.f_start + STEP_SLACK
        assert np.all(result.limit[z0 == 0] == 0)


class TestSpectralGap:
    def test_split_inside_degenerate_pair_rejected(self):
        from momentmorse.degeneracy import SpectralGapError
        spec = c3_spec()
        # at the origin the Hessian is diag(-6,-6,2,2,-8,-8): k=1 cuts a pair
        with pytest.raises(SpectralGapError):
            negative_eigenspace(spec, (0, 0), np.zeros(3, dtype=complex), 1)


class TestSurvey:
    def test_c3_all_strata_witnessed(self):
        spec = c3_spec()
        report = survey_strata(spec, (0, 0), n_random=30, n_near=3, seed=17)
        counts = dict(report.counts)
        assert all(count > 0 for count in counts.values())
        assert report.unmatched == 0
        assert report.stable_frontier_ok
        assert report.descent_frontier_ok
        assert report.all_monotone
        assert report.properness_certified
        # the open stratum of the minimum dominates the random ensemble
        assert counts[(F(0), F(0))] >= max(
            count for value, count in report.counts if value != (F(0), F(0)))

    def test_empty_ensemble(self):
        spec = c3_spec()
        report = survey_strata(spec, (0, 0), n_random=0, n_near=0, seed=1)
        assert report.total == 0
        assert report.unmatched == 0

    def test_non_polarized_flagged(self):
        spec = validate_spec(1, [((1,), 1), ((-1,), 1)], (0,))
        report = survey_strata(spec, (0,), n_random=5, n_near=2, seed=2)
        assert not report.properness_certified
        assert report.unmatched == 0


class TestFibrewise:
    def test_non_minimal_components_recover_locus(self):
        spec = c3_spec()
        comps = c3_components()
        for value in [(F(-3), F(1)), (F(0), F(1)), (F(-1), F(-1))]:
            report = fibrewise_critical_locus(spec, (0, 0), comps[value],
                                              grid_size=4, seed=6)
            assert report.passed, (value, report)
            assert report.max_locus_deviation < 1e-6
            assert report.min_block_det > 1e-9
            assert not report.newton_failures

    def test_minimum_component_trivial_fiber(self):
        spec = c3_spec()
        report = fibrewise_critical_locus(spec, (0, 0),
                                          c3_components()[(F(0), F(0))], seed=6)
        assert report.fiber_dim == 0
        assert report.passed

    def test_base_on_component_converges_immediately(self):
        # starting the fiber search at zeta = 0 on a component point, the
        # gradient already vanishes: zero Newton updates
        spec = c3_spec()
        comp = c3_components()[(F(-1), F(-1))]
        report = fibrewise_critical_locus(spec, (0, 0), comp, grid_size=1,
                                          spread=0.0, start_offset=0.0, seed=6)
        assert report.passed
        assert report.max_iterations <= 1

    def test_starved_iteration_budget_reported(self):
        spec = c3_spec()
        comp = c3_components()[(F(0), F(1))]
        report = fibrewise_critical_locus(spec, (0, 0), comp, grid_size=2,
                                          seed=6, max_iter=1)
        assert not report.passed
        assert report.newton_failures


class TestLocalCoords:
    def test_c3_saddle(self):
        spec = c3_spec()
        report = local_coords_check(spec, (0, 0), c3_components()[(F(0), F(1))],
                                    seed=8)
        assert report.passed
        assert report.expected_index == 2
        assert report.fitted_decrease > 0

    def test_morse_bott_circle_minimum_spec(self):
        # one weight, shift -1: f = (q - 1)^2 has an index-2 component at 0
        spec = validate_spec(1, [((1,), 1)], (-1,))
        comps = {c.value: c for c in enumerate_critical_components(spec, (0,))}
        comp = comps[(F(-1),)]
        assert comp.index == 2
        report = local_coords_check(spec, (0,), comp, seed=9)
        assert report.passed


class TestVerifyComponent:
    def test_all_c3_components_verify(self):
        spec = c3_spec()
        for comp in c3_components().values():
            record = verify_component(spec, (0, 0), comp, samples=80,
                                      radius=0.5, seed=21)
            assert record.passed, record

    def test_local_coords_reads_the_index_check(self):
        # local_coords_ok is index_match and condition 2 and the fibre
        # decrease: a wrong index fails it while the decrease still holds
        spec = c3_spec()
        comp = c3_components()[(F(0), F(1))]
        wrong = dataclasses.replace(comp, index=comp.index + 2)
        assert local_coords_check(spec, (0, 0), wrong, seed=21).passed
        record = verify_component(spec, (0, 0), wrong, samples=20, seed=21)
        assert not record.index_match
        assert not record.local_coords_ok


def small_spec(seed):
    """A specgen spec with at most 5 coordinates.

    The polytope projection of verify_minimizing scans 2^k faces for k
    zero coordinates, so larger specs would make each example slow.
    """
    rng = random.Random(seed)
    while True:
        spec, xi = random_polarized_spec(rng)
        if spec.total_multiplicity <= 5:
            return spec, xi


class TestSharedGeometry:
    @settings(max_examples=8, deadline=None, database=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_no_state_leaks_between_components(self, seed):
        spec, xi = small_spec(seed)
        comps = enumerate_critical_components(spec, xi)
        degeneracy._geometry.cache_clear()
        rng = rng_stream(seed, 0)
        for comp in comps:
            for _ in range(5):
                point = sample_component_point(spec, comp, rng)
                degeneracy._check_on_component(spec, xi, comp, point)

        def records(order):
            return [verify_component(spec, xi, comp, samples=5, seed=seed)
                    for comp in order]

        degeneracy._geometry.cache_clear()
        forward = records(comps)
        assert records(comps[::-1]) == forward[::-1]
        assert records(comps + comps) == forward + forward


class TestFlowExactCrossCheck:
    def test_limits_round_to_exactly_critical_points(self):
        # a flow limit, rationalized at denominator <= 1e6 and projected
        # exactly onto its component polytope, is a bona fide critical
        # point in exact arithmetic and sits within 1e-5 of the limit
        from momentmorse.critical import criterion_predicates
        from momentmorse.degeneracy import project_to_component_polytope

        spec = c3_spec()
        comps = {c.value: c for c in enumerate_critical_components(spec, (0, 0))}
        for i in range(8):
            rng = rng_stream(5150, i)
            raw = rng.normal(size=3) + 1j * rng.normal(size=3)
            z0 = raw / np.linalg.norm(raw) * 4.0
            result = flow_trajectory(spec, (0, 0), z0)
            assert result.matched_component is not None
            comp = comps[result.matched_component]
            q = tuple(F(float(v)).limit_denominator(10 ** 6)
                      for v in 0.5 * (result.limit.real ** 2 +
                                      result.limit.imag ** 2))
            dist_sq, projected = project_to_component_polytope(spec, comp, q)
            assert float(dist_sq) < 1e-10
            assert criterion_predicates(spec, projected) == (True,) * 4
