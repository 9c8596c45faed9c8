"""Double-precision certification of the critical structure.

The exact enumeration says what the critical components, indices and
minimizing manifolds of f = |Phi - target|^2 must be; this module checks
those statements against honest floating-point analysis:

* analytic gradients and Hessians of f (validated against finite
  differences in the tests);
* Hessian eigenvalue counts and negative-eigenspace extraction at points
  of a component, compared with the predicted index and the predicted
  coordinate subspace;
* sampling verification that f restricted to the minimizing subspace
  exceeds the critical value away from the component, with a fitted
  quadratic margin (distances measured exactly in radial-square space by
  projection onto the component polytope);
* negative-gradient-flow trajectories in the radial squares q = |z|^2 / 2
  (adaptive classical Runge-Kutta with step doubling; the phases never
  move), stratum assignment by matching limit momenta against the
  enumerated values, and frontier checks;
* fibrewise Newton maximization over the negative coordinate subspace,
  recovering the minimizing manifold as the fibrewise critical locus.

Minimal degeneracy is local, so it is checked one component at a time
from data built once: the numeric model per (spec, target), and per
(spec, component) the exact polytope system, the float interior point and
vertices the sampler mixes, the coordinate splits and the float value.
Both sit in small bounded caches keyed on the immutable inputs; their
arrays are read-only.

Tolerances are module constants, printed by ``verify``: TAU_ZERO for
spectral zero thresholds, EPS_GRAD for flow convergence, MATCH_TOL for
momentum matching, NEWTON_TOL for fiber maximization, STEP_SLACK for the
per-step monotonicity allowance.

Randomness is driven by counter-based Philox streams keyed on a single
64-bit seed plus a stream index, so every trajectory and sample is
reproducible and independent of evaluation order.  All operations leave
the spec untouched and can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import math
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .critical import (
    CriticalComponent,
    _polytope_system,
    component_squares,
    enumerate_critical_components,
    polytope_vertices,
)
from .exactlin import (
    RatVec,
    as_ratvec,
    kernel_basis,
    nearest_affine_point,
    solve_consistent,
    zero_vec,
)
from .weights import ActionSpec, polarization_certificate, squares_of_point

TAU_ZERO = 1e-9
EPS_GRAD = 1e-8
MATCH_TOL = 1e-5
NEWTON_TOL = 1e-10
STEP_SLACK = 1e-12

# the flow: first step, local error tolerances, divergence guard on |z|, budget
# of accepted steps; the survey: random-ball radius, near-component kick size
FLOW_H0 = 0.01
FLOW_ATOL = 1e-10
FLOW_RTOL = 1e-10
DIVERGE_NORM = 1e8
MAX_FLOW_STEPS = 1_000_000
BALL_RADIUS = 5.0
NEAR_DELTA = 1e-2

_MASK64 = (1 << 64) - 1


class FlowDivergence(RuntimeError):
    """A trajectory left the divergence guard radius."""


class FlowNonConvergence(RuntimeError):
    """The gradient norm failed to reach EPS_GRAD within the step budget."""


class SpectralGapError(RuntimeError):
    """Eigenvalue gap too small to split an eigenspace reliably."""


class NotOnComponent(ValueError):
    """The supplied point does not lie on the requested component."""


class NoOffComponentSamples(ValueError):
    """Every minimizing sample fell within dist_floor of the component."""


def rng_stream(seed: int, stream: int) -> np.random.Generator:
    """Counter-based splitting: one Philox stream per (seed, index)."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _floats(vec: Sequence) -> np.ndarray:
    """Read-only float copy of an exact vector, safe to share from a cache."""
    out = np.array([float(e) for e in vec])
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# numeric model of a spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Model:
    mu: np.ndarray        # (n, r) per-coordinate weights
    gram: np.ndarray      # (n, n) pairwise weight inner products
    beta: np.ndarray      # (r,)
    xi: np.ndarray        # (r,)
    n: int
    gram_scale: float


def _model(spec: ActionSpec, target: Optional[Sequence]) -> _Model:
    xi = as_ratvec(target, spec.rank) if target is not None else zero_vec(spec.rank)
    return _model_at(spec, xi)


@lru_cache(maxsize=16)
def _model_at(spec: ActionSpec, xi: RatVec) -> _Model:
    mu = spec.coordinate_weight_matrix()
    gram = mu @ mu.T
    mu.setflags(write=False)
    gram.setflags(write=False)
    return _Model(mu=mu, gram=gram, beta=_floats(spec.shift), xi=_floats(xi),
                  n=spec.total_multiplicity,
                  gram_scale=float(np.max(np.abs(gram))) if len(gram) else 0.0)


def _phi(model: _Model, q: np.ndarray) -> np.ndarray:
    """Momentum value of the radial squares q."""
    return model.beta + q @ model.mu


def _pairings(model: _Model, q: np.ndarray) -> np.ndarray:
    """<Phi(q) - xi, mu_(j)> for every coordinate j."""
    return model.mu @ (_phi(model, q) - model.xi)


def _f(model: _Model, q: np.ndarray) -> float:
    d = _phi(model, q) - model.xi
    return float(d @ d)


def f_value(spec: ActionSpec, target: Optional[Sequence], z: np.ndarray) -> float:
    return _f(_model(spec, target), squares_of_point(z))


def grad_f(spec: ActionSpec, target: Optional[Sequence], z: np.ndarray) -> np.ndarray:
    """Real gradient of f, interleaved as (x_0, y_0, x_1, y_1, ...).

    Coordinate j contributes 2 <Phi(z) - xi, mu_(j)> (x_j, y_j); this is
    the identity d|Phi|^2 = 2 <dPhi, Phi> written out in coordinates.
    """
    model = _model(spec, target)
    z = np.asarray(z, dtype=complex)
    p = _pairings(model, squares_of_point(z))
    g = np.empty(2 * model.n)
    g[0::2] = 2.0 * p * z.real
    g[1::2] = 2.0 * p * z.imag
    return g


def hess_f(spec: ActionSpec, target: Optional[Sequence], z: np.ndarray) -> np.ndarray:
    """Exactly symmetric (2n, 2n) Hessian of f at z.

    Block formula: 2 <Phi - xi, mu_(j)> on the diagonal of each coordinate
    block plus the rank-<=r term 2 <mu_(j), mu_(k)> w_j w_k^T built from the
    real coordinates w_j = (x_j, y_j).
    """
    model = _model(spec, target)
    z = np.asarray(z, dtype=complex)
    p = _pairings(model, squares_of_point(z))
    w = np.empty(2 * model.n)
    w[0::2] = z.real
    w[1::2] = z.imag
    gram2 = np.kron(model.gram, np.ones((2, 2)))
    H = 2.0 * np.outer(w, w) * gram2
    H[np.diag_indices_from(H)] += np.repeat(2.0 * p, 2)
    return H


# ---------------------------------------------------------------------------
# the geometry of one component
# ---------------------------------------------------------------------------

def _real_indices(coords: Sequence[int]) -> list[int]:
    out = []
    for j in coords:
        out.extend((2 * j, 2 * j + 1))
    return out


@dataclass(frozen=True)
class _Geometry:
    polytope: tuple[list[int], list[list[Fraction]], list[Fraction]]
    zero_coords: frozenset[int]
    interior: np.ndarray               # float squares of component_squares
    vertices: tuple[np.ndarray, ...]   # float squares of polytope_vertices
    e_coords: tuple[int, ...]          # complement of the minimizing coords
    n_idx: list[int]                   # real indices of the minimizing coords
    e_idx: list[int]                   # real indices of e_coords
    alpha: np.ndarray                  # component value


@lru_cache(maxsize=128)
def _geometry(spec: ActionSpec, component: CriticalComponent) -> _Geometry:
    polytope = _polytope_system(spec, component)
    e_coords = tuple(j for j in range(spec.total_multiplicity)
                     if j not in component.minimizing_coords)
    return _Geometry(
        polytope=polytope,
        zero_coords=frozenset(polytope[0]),
        interior=_floats(component_squares(spec, component)),
        vertices=tuple(_floats(v) for v in polytope_vertices(spec, component)),
        e_coords=e_coords,
        n_idx=_real_indices(component.minimizing_coords),
        e_idx=_real_indices(e_coords),
        alpha=_floats(component.value))


# ---------------------------------------------------------------------------
# Hessian reports and eigenspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HessianReport:
    point: np.ndarray
    eigenvalues: np.ndarray
    negative_count: int
    zero_count: int
    positive_count: int
    restricted_psd_on_N: bool
    negative_definite_on_E: bool
    tau_zero: float


def _check_on_component(spec: ActionSpec, target: Optional[Sequence],
                        component: CriticalComponent, z: np.ndarray) -> None:
    model, geo = _model(spec, target), _geometry(spec, component)
    if np.linalg.norm(_phi(model, squares_of_point(z)) - geo.alpha) >= 1e-8:
        raise NotOnComponent("momentum value is not the component value")
    for j in range(model.n):
        if j not in geo.zero_coords and abs(z[j]) > 1e-8:
            raise NotOnComponent(f"coordinate {j} is outside the component support")


def _hessian_at(spec: ActionSpec, target: Optional[Sequence],
                component: CriticalComponent, z: np.ndarray,
                tau: float) -> tuple[HessianReport, np.ndarray]:
    """The report at z and the eigenvectors of the same decomposition."""
    _check_on_component(spec, target, component, z)
    geo = _geometry(spec, component)
    H = hess_f(spec, target, z)
    eigenvalues, vectors = np.linalg.eigh(H)
    psd_on_n = True
    if geo.n_idx:
        sub = H[np.ix_(geo.n_idx, geo.n_idx)]
        psd_on_n = bool(np.linalg.eigvalsh(sub).min() > -tau)
    neg_on_e = True
    if geo.e_idx:
        sub = H[np.ix_(geo.e_idx, geo.e_idx)]
        neg_on_e = bool(np.linalg.eigvalsh(sub).max() < -tau)
    report = HessianReport(point=z, eigenvalues=eigenvalues,
                           negative_count=int(np.sum(eigenvalues < -tau)),
                           zero_count=int(np.sum(np.abs(eigenvalues) <= tau)),
                           positive_count=int(np.sum(eigenvalues > tau)),
                           restricted_psd_on_N=psd_on_n,
                           negative_definite_on_E=neg_on_e,
                           tau_zero=tau)
    return report, vectors


def hessian_report(spec: ActionSpec, target: Optional[Sequence],
                   component: CriticalComponent, z: np.ndarray,
                   tau: float = TAU_ZERO) -> HessianReport:
    """Eigenvalue counts of the Hessian at a point of the component.

    The expected picture: negative count equals the Morse index, the
    restriction to the minimizing coordinates is positive semidefinite,
    and the restriction to the complementary coordinates is negative
    definite.
    """
    return _hessian_at(spec, target, component, np.asarray(z, dtype=complex),
                       tau)[0]


def _negative_span(eigenvalues: np.ndarray, vectors: np.ndarray, k: int,
                   tau: float) -> np.ndarray:
    dim = len(eigenvalues)
    if k < 0 or k > dim:
        raise ValueError(f"k={k} out of range for dimension {dim}")
    if 0 < k < dim and eigenvalues[k] - eigenvalues[k - 1] <= tau:
        raise SpectralGapError(
            f"gap {eigenvalues[k] - eigenvalues[k - 1]:.3e} at k={k} "
            f"is below tau={tau:.1e}")
    return vectors[:, :k]


def negative_eigenspace(spec: ActionSpec, target: Optional[Sequence],
                        z: np.ndarray, k: int,
                        tau: float = TAU_ZERO) -> np.ndarray:
    """Orthonormal basis (columns) of the k most negative eigendirections.

    Refuses to answer when the spectral gap between the k-th and (k+1)-st
    eigenvalue is below tau: a split across a near-degenerate pair would
    be numerically meaningless.
    """
    eigenvalues, vectors = np.linalg.eigh(hess_f(spec, target, z))
    return _negative_span(eigenvalues, vectors, k, tau)


def principal_angles(basis_a: np.ndarray, basis_b: np.ndarray) -> np.ndarray:
    """Principal angles between the column spans (ascending, radians)."""
    if basis_a.shape[1] == 0 or basis_b.shape[1] == 0:
        if basis_a.shape[1] != basis_b.shape[1]:
            raise ValueError("cannot compare a zero-dimensional subspace "
                             "with a positive-dimensional one")
        return np.zeros(0)
    qa, _ = np.linalg.qr(basis_a)
    qb, _ = np.linalg.qr(basis_b)
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(s, -1.0, 1.0))[::-1]


def coordinate_subspace_basis(spec: ActionSpec, coords: Sequence[int]) -> np.ndarray:
    """Standard basis of the real span of the given complex coordinates."""
    dim = 2 * spec.total_multiplicity
    idx = _real_indices(coords)
    basis = np.zeros((dim, len(idx)))
    for col, row in enumerate(idx):
        basis[row, col] = 1.0
    return basis


# ---------------------------------------------------------------------------
# sampling points on and near a component
# ---------------------------------------------------------------------------

def sample_component_point(spec: ActionSpec, component: CriticalComponent,
                           rng: np.random.Generator) -> np.ndarray:
    """Random point of the component: random polytope squares, random phases."""
    geo = _geometry(spec, component)
    weights = rng.random(len(geo.vertices) + 1)
    weights /= weights.sum()
    # keep half the mass on the interior point so the generic support stays positive
    q = 0.5 * geo.interior
    mix = 0.5 * weights
    q += mix[0] * geo.interior
    for lam, vert in zip(mix[1:], geo.vertices):
        q += lam * vert
    radii = np.sqrt(2.0 * q)
    phases = rng.uniform(0.0, 2.0 * np.pi, spec.total_multiplicity)
    return radii * np.exp(1j * phases)


def _perturbation(rng: np.random.Generator, coords: Sequence[int], n: int,
                  scale: float) -> np.ndarray:
    """Complex perturbation supported on the given coordinates, |delta| <= scale."""
    delta = np.zeros(n, dtype=complex)
    if not coords:
        return delta
    raw = rng.normal(size=len(coords)) + 1j * rng.normal(size=len(coords))
    norm = np.linalg.norm(raw)
    if norm == 0.0:
        return delta
    radius = scale * rng.random() ** (1.0 / (2 * len(coords)))
    for c, v in zip(coords, raw / norm * radius):
        delta[c] = v
    return delta


# ---------------------------------------------------------------------------
# minimizing-manifold verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinimizingReport:
    passed: bool
    samples: int
    off_samples: int
    worst_margin: float
    fitted_quadratic: float
    radius: float
    dist_floor: float


def project_to_component_polytope(
        spec: ActionSpec, component: CriticalComponent, q: Sequence[Fraction]
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact projection of q onto the component polytope in q-space.

    Returns (squared distance, projected point as a full-length squares
    vector).  The polytope lives on the zero-weight coordinates;
    coordinates outside it are zeroed by the projection and contribute
    their full squares to the distance.  The projection scans the faces:
    every subset of coordinates pinned to zero gives an affine subspace,
    the foot of q on it is exact, and feasible feet are compared.
    """
    geo = _geometry(spec, component)
    coords, A, b = geo.polytope
    n = len(q)
    outside = sum((Fraction(q[j]) ** 2 for j in range(n)
                   if j not in geo.zero_coords), Fraction(0))
    if not coords:
        return (outside, tuple(Fraction(0) for _ in range(n)))
    q_zero = tuple(Fraction(q[j]) for j in coords)
    best: Optional[Fraction] = None
    best_foot: Optional[dict[int, Fraction]] = None
    k = len(coords)
    for pin_count in range(k + 1):
        for pinned in combinations(range(k), pin_count):
            free = [j for j in range(k) if j not in pinned]
            sub_rows = [[A[i][j] for j in free] for i in range(spec.rank)]
            particular = solve_consistent(sub_rows, b)
            if particular is None:
                continue
            kern = kernel_basis([tuple(A[i][j] for j in free)
                                 for i in range(spec.rank)])
            ref = tuple(q_zero[j] for j in free)
            foot = nearest_affine_point(ref, tuple(particular), kern)
            if any(v < 0 for v in foot):
                continue
            d2 = sum(((a - bq) ** 2 for a, bq in zip(foot, ref)), Fraction(0))
            d2 += sum((q_zero[j] ** 2 for j in pinned), Fraction(0))
            if best is None or d2 < best:
                best = d2
                best_foot = {coords[j]: v for j, v in zip(free, foot)}
    if best is None:  # polytope nonempty for witnessed components
        raise RuntimeError("polytope projection found no feasible face")
    projected = tuple(best_foot.get(j, Fraction(0)) for j in range(n))
    return (best + outside, projected)


def verify_minimizing(spec: ActionSpec, target: Optional[Sequence],
                      component: CriticalComponent, radius: float,
                      samples: int, seed: int,
                      dist_floor: float = 1e-6) -> MinimizingReport:
    """Check that f >= f(component) on the minimizing subspace near C.

    Samples points of the minimizing coordinate subspace within ``radius``
    of the component and requires a positive fitted constant c with
    f - f(C) >= c * dist^2, where dist is the exact q-space distance to
    the component polytope of the rationalized sample.  Samples closer
    than ``dist_floor`` (effectively on C) are excluded from the fit;
    NoOffComponentSamples is raised when that leaves none.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if samples < 1:
        raise ValueError("need at least one sample")
    if not component.minimizing_coords:
        # N is the single point at the origin, equal to C: nothing off C exists
        return MinimizingReport(passed=True, samples=0, off_samples=0,
                                worst_margin=0.0, fitted_quadratic=np.inf,
                                radius=radius, dist_floor=dist_floor)
    model = _model(spec, target)
    f_crit = float(component.f_value)
    worst = np.inf
    fitted = np.inf
    off = 0
    rng = rng_stream(seed, 0)
    for _ in range(samples):
        base = sample_component_point(spec, component, rng)
        z = base + _perturbation(rng, component.minimizing_coords, model.n, radius)
        squares = squares_of_point(z)
        margin = _f(model, squares) - f_crit
        worst = min(worst, margin)
        q = tuple(Fraction(float(v)).limit_denominator(10 ** 6) for v in squares)
        dist_sq = float(project_to_component_polytope(spec, component, q)[0])
        if dist_sq > dist_floor ** 2:
            off += 1
            fitted = min(fitted, margin / dist_sq)
    if off == 0:
        raise NoOffComponentSamples("no off-component samples; radius too small")
    passed = worst >= -1e-9 and fitted > 0
    return MinimizingReport(passed=passed, samples=samples, off_samples=off,
                            worst_margin=worst, fitted_quadratic=fitted,
                            radius=radius, dist_floor=dist_floor)


# ---------------------------------------------------------------------------
# negative gradient flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowResult:
    start: np.ndarray
    limit: np.ndarray
    limit_momentum: np.ndarray
    matched_component: Optional[RatVec]
    steps: int
    f_monotone: bool
    f_start: float
    f_limit: float
    grad_norm: float


def _flow_rate(model: _Model, q: np.ndarray) -> np.ndarray:
    """qdot_j = -4 <Phi(q) - xi, mu_(j)> q_j: the negative gradient flow in q."""
    return -4.0 * _pairings(model, q) * q


def _rk4(model: _Model, q: np.ndarray, h: float) -> np.ndarray:
    k1 = h * _flow_rate(model, q)
    k2 = h * _flow_rate(model, q + 0.5 * k1)
    k3 = h * _flow_rate(model, q + 0.5 * k2)
    k4 = h * _flow_rate(model, q + k3)
    return q + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def flow_trajectory(spec: ActionSpec, target: Optional[Sequence],
                    z0: np.ndarray,
                    components: Optional[Sequence[CriticalComponent]] = None
                    ) -> FlowResult:
    """Integrate the negative gradient flow from z0 until the gradient dies.

    zdot_j = -2 <Phi - xi, mu_(j)> z_j scales each coordinate by a real
    factor, so classical Runge-Kutta with step-doubling control integrates
    the radial squares q, and the phases of z0 are carried to the limit.
    The limit momentum is matched against the enumerated critical values
    within MATCH_TOL.
    """
    model = _model(spec, target)
    if components is None:
        components = enumerate_critical_components(spec, target)
    z0 = np.asarray(z0, dtype=complex)
    if not np.all(np.isfinite(z0.real)) or not np.all(np.isfinite(z0.imag)):
        raise ValueError("starting point has non-finite coordinates")
    q0 = squares_of_point(z0)
    q = q0
    f_prev = _f(model, q)
    f_start = f_prev
    monotone = True
    h = FLOW_H0
    steps = 0
    while True:
        p = _pairings(model, q)
        grad_norm = float(np.sqrt(8.0 * np.sum(p ** 2 * q)))
        if grad_norm < EPS_GRAD:
            break
        if math.sqrt(2.0 * float(np.sum(q))) > DIVERGE_NORM:
            raise FlowDivergence(f"|z| exceeded {DIVERGE_NORM:.1e}")
        if steps >= MAX_FLOW_STEPS:
            raise FlowNonConvergence(
                f"gradient norm {grad_norm:.3e} after {steps} steps")
        # keep h inside the RK4 stability region of the stiffest coordinate
        # rate (|4p_j|, plus a margin for the quadratic coupling): outside it
        # the iteration oscillates across flat minima and breaks monotonicity
        stiffest = 4.0 * max(float(np.max(np.abs(p))),
                             float(np.max(q)) * model.gram_scale)
        h = min(h, 2.5 / stiffest)
        y_full = _rk4(model, q, h)
        y_half = _rk4(model, _rk4(model, q, 0.5 * h), 0.5 * h)
        err = float(np.max(np.abs(y_full - y_half)))
        scale = FLOW_ATOL + FLOW_RTOL * float(np.max(np.abs(y_half)))
        if err > 15.0 * scale:
            h *= max(0.1, 0.9 * (15.0 * scale / err) ** 0.2)
            continue
        steps += 1
        q = y_half
        f_new = _f(model, q)
        if f_new > f_prev + STEP_SLACK:
            monotone = False
        f_prev = f_new
        if err > 0.0:
            h *= min(5.0, max(1.0, 0.9 * (15.0 * scale / err) ** 0.2))
        else:
            h *= 5.0
    momentum = _phi(model, q)
    matched = None
    best = MATCH_TOL
    for comp in components:
        dist = float(np.linalg.norm(momentum - _floats(comp.value)))
        if dist < best:
            best = dist
            matched = comp.value
    # z0 * 1.0 is z0 bit for bit, so a start that does not move stays put
    ratio = np.divide(q, q0, out=np.zeros_like(q), where=q0 > 0.0)
    return FlowResult(start=z0, limit=z0 * np.sqrt(ratio),
                      limit_momentum=momentum, matched_component=matched,
                      steps=steps, f_monotone=monotone, f_start=f_start,
                      f_limit=f_prev, grad_norm=grad_norm)


# ---------------------------------------------------------------------------
# stratification survey
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrataReport:
    counts: tuple[tuple[RatVec, int], ...]
    total: int
    unmatched: int
    all_monotone: bool
    stable_frontier_ok: bool
    descent_frontier_ok: bool
    min_stable_margin: float
    properness_certified: bool


def survey_strata(spec: ActionSpec, target: Optional[Sequence] = None,
                  n_random: int = 100, n_near: int = 10,
                  seed: int = 0) -> StrataReport:
    """Flow an ensemble and tabulate the strata it lands in.

    Three families of starting points: random points of the ball of radius
    BALL_RADIUS (these find the open stratum and whatever else has positive
    measure), near-component perturbations of size NEAR_DELTA inside the
    minimizing subspace (the stable side: their limits must not drop below
    the component value; this is the frontier check), and fully generic
    near-component perturbations (descent side: their limits must not
    exceed the component value).
    """
    components = enumerate_critical_components(spec, target)
    counts: dict[RatVec, int] = {comp.value: 0 for comp in components}
    unmatched = 0
    monotone = True
    stable_ok = True
    descent_ok = True
    min_stable_margin = np.inf
    stream = 0
    total = 0

    def run(z0: np.ndarray) -> FlowResult:
        nonlocal unmatched, monotone, total
        result = flow_trajectory(spec, target, z0, components)
        total += 1
        monotone = monotone and result.f_monotone
        if result.matched_component is None:
            unmatched += 1
        else:
            counts[result.matched_component] += 1
        return result

    n = spec.total_multiplicity
    for i in range(n_random):
        rng = rng_stream(seed, stream)
        stream += 1
        raw = rng.normal(size=n) + 1j * rng.normal(size=n)
        norm = np.linalg.norm(raw)
        if norm == 0.0:
            continue
        z0 = raw / norm * BALL_RADIUS * rng.random() ** (1.0 / (2 * n))
        run(z0)

    f_of = {comp.value: float(comp.f_value) for comp in components}
    for comp in components:
        for _ in range(n_near):
            rng = rng_stream(seed, stream)
            stream += 1
            base = sample_component_point(spec, comp, rng)
            stable = base + _perturbation(rng, comp.minimizing_coords, n, NEAR_DELTA)
            result = run(stable)
            if result.matched_component is not None:
                margin = f_of[result.matched_component] - float(comp.f_value)
                min_stable_margin = min(min_stable_margin, margin)
                if margin < -1e-9:
                    stable_ok = False
            generic = base + _perturbation(rng, range(n), n, NEAR_DELTA)
            result = run(generic)
            if result.matched_component is not None:
                if f_of[result.matched_component] > float(comp.f_value) + 1e-9:
                    descent_ok = False

    ordered = tuple((comp.value, counts[comp.value]) for comp in components)
    return StrataReport(
        counts=ordered, total=total, unmatched=unmatched,
        all_monotone=monotone,
        stable_frontier_ok=stable_ok, descent_frontier_ok=descent_ok,
        min_stable_margin=float(min_stable_margin),
        properness_certified=polarization_certificate(spec) is not None)


# ---------------------------------------------------------------------------
# fibrewise critical locus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FibrewiseReport:
    passed: bool
    fiber_dim: int
    fibers: int
    max_locus_deviation: float
    min_block_det: float
    newton_failures: tuple[int, ...]
    tol: float
    max_iterations: int = 0


def fibrewise_critical_locus(spec: ActionSpec, target: Optional[Sequence],
                             component: CriticalComponent, grid_size: int = 10,
                             spread: float = 0.3, start_offset: float = 0.05,
                             tol: float = 1e-6, seed: int = 0,
                             max_iter: int = 50) -> FibrewiseReport:
    """Newton maximization of f along fibers parallel to the negative subspace.

    Base points form a grid on the minimizing subspace near the component;
    each fiber is maximized over the complementary coordinates.  Near the
    component the fibrewise Hessian block is negative definite, so Newton
    converges and the maximizer must sit at zero fiber coordinates: the
    fibrewise critical locus coincides with the minimizing subspace.  The
    block determinant is also checked for nondegeneracy at component points.
    """
    model = _model(spec, target)
    geo = _geometry(spec, component)
    e_coords, e_idx = geo.e_coords, geo.e_idx
    if not e_coords:
        return FibrewiseReport(passed=True, fiber_dim=0, fibers=0,
                               max_locus_deviation=0.0, min_block_det=np.inf,
                               newton_failures=(), tol=tol)
    rng = rng_stream(seed, 0)
    anchor = sample_component_point(spec, component, rng)

    # Shrink the grid spread until the momentum motion it allows cannot flip
    # the sign of any negative pairing: that keeps the whole grid inside a
    # compatibly fibrated neighbourhood, where the fibrewise Hessian stays
    # negative definite and the locus argument applies.
    if component.minimizing_coords:
        gap = min(abs(float(model.mu[j] @ (geo.alpha - model.xi)))
                  for j in e_coords)
        mu_norms = np.linalg.norm(model.mu, axis=1)
        weight_sum = float(sum(mu_norms[j] for j in component.minimizing_coords))
        e_norm = float(max(mu_norms[j] for j in e_coords))
        anchor_scale = float(max(abs(anchor[j])
                                 for j in component.minimizing_coords))
        if weight_sum > 0 and e_norm > 0 and gap > 0:
            budget = gap / (2.0 * weight_sum * e_norm)
            safe = -anchor_scale + math.sqrt(anchor_scale ** 2 + 2.0 * budget)
            spread = min(spread, 0.9 * safe)

    dets = []
    for _ in range(5):
        point = sample_component_point(spec, component, rng)
        block = hess_f(spec, target, point)[np.ix_(e_idx, e_idx)]
        dets.append(abs(float(np.linalg.det(block))))
    min_det = min(dets)

    grid_coords = list(component.minimizing_coords)[:1]
    offsets = np.linspace(-spread, spread, grid_size)
    if grid_coords:
        bases = []
        for dx in offsets:
            for dy in offsets:
                base = anchor.copy()
                base[grid_coords[0]] += dx + 1j * dy
                bases.append(base)
    else:
        bases = [anchor.copy()]

    max_dev = 0.0
    failures = []
    iteration_counts = []
    for fiber_id, base in enumerate(bases):
        zeta = np.full(len(e_coords), start_offset * (1.0 + 1.0j) / np.sqrt(2.0),
                       dtype=complex)
        converged = False
        iterations = 0
        for iterations in range(max_iter):
            z = base.copy()
            for c, v in zip(e_coords, zeta):
                z[c] = v
            g = grad_f(spec, target, z)[e_idx]
            if float(np.linalg.norm(g)) < NEWTON_TOL:
                converged = True
                break
            block = hess_f(spec, target, z)[np.ix_(e_idx, e_idx)]
            try:
                step = np.linalg.solve(block, g)
            except np.linalg.LinAlgError:
                break
            flat = np.empty(2 * len(e_coords))
            flat[0::2] = zeta.real
            flat[1::2] = zeta.imag
            flat -= step
            zeta = flat[0::2] + 1j * flat[1::2]
        if not converged:
            failures.append(fiber_id)
            continue
        iteration_counts.append(iterations)
        max_dev = max(max_dev, float(np.max(np.abs(zeta))))

    passed = (not failures) and max_dev < tol and min_det > TAU_ZERO
    return FibrewiseReport(passed=passed, fiber_dim=2 * len(e_coords),
                           fibers=len(bases), max_locus_deviation=max_dev,
                           min_block_det=min_det,
                           newton_failures=tuple(failures), tol=tol,
                           max_iterations=max(iteration_counts, default=0))


# ---------------------------------------------------------------------------
# local normal-form check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalCoordsReport:
    passed: bool
    expected_index: int
    fitted_decrease: float


def local_coords_check(spec: ActionSpec, target: Optional[Sequence],
                       component: CriticalComponent, radius: float = 0.3,
                       samples: int = 50, seed: int = 0) -> LocalCoordsReport:
    """The maximum half of the local splitting into a minimum and a maximum.

    Along the complementary coordinates f drops at least quadratically:
    the fitted c in f(z) - f(z + zeta) >= c |zeta|^2, over component points
    z and complementary perturbations zeta, must be positive.  The other
    half, the minimum on the minimizing subspace with the index constant
    along the component, is condition 2 and the index check of
    ``verify_component``.
    """
    model = _model(spec, target)
    e_coords = _geometry(spec, component).e_coords
    rng = rng_stream(seed, 1)
    fitted = np.inf
    for _ in range(samples if e_coords else 0):
        point = sample_component_point(spec, component, rng)
        zeta = _perturbation(rng, e_coords, model.n, radius)
        norm_sq = float(np.sum(np.abs(zeta) ** 2))
        if norm_sq < 1e-12:
            continue
        drop = (_f(model, squares_of_point(point))
                - _f(model, squares_of_point(point + zeta)))
        fitted = min(fitted, drop / norm_sq)
    return LocalCoordsReport(passed=fitted > 0, expected_index=component.index,
                             fitted_decrease=float(fitted))


# ---------------------------------------------------------------------------
# per-component certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentVerification:
    value: RatVec
    condition1_ok: bool
    condition2_ok: bool
    index_match: bool
    eigenspace_aligned: bool
    fibrewise_ok: bool
    local_coords_ok: bool
    worst_margin: float
    max_principal_angle: float

    @property
    def passed(self) -> bool:
        return (self.condition1_ok and self.condition2_ok and self.index_match
                and self.eigenspace_aligned and self.fibrewise_ok
                and self.local_coords_ok)


def verify_component(spec: ActionSpec, target: Optional[Sequence],
                     component: CriticalComponent, samples: int = 200,
                     radius: float = 0.5, seed: int = 0) -> ComponentVerification:
    """Run every local check of minimal degeneracy on one component.

    Each check runs once: ``local_coords_ok`` combines the index check,
    condition 2 and the fibre-decrease test of ``local_coords_check``.
    """
    rng = rng_stream(seed, 2)
    e_basis = coordinate_subspace_basis(spec, _geometry(spec, component).e_coords)

    condition1 = True
    index_match = True
    aligned = True
    max_angle = 0.0
    for _ in range(5):
        point = sample_component_point(spec, component, rng)
        report, vectors = _hessian_at(spec, target, component, point, TAU_ZERO)
        condition1 = condition1 and report.restricted_psd_on_N \
            and report.negative_definite_on_E
        index_match = index_match and report.negative_count == component.index
        try:
            span = _negative_span(report.eigenvalues, vectors, component.index,
                                  TAU_ZERO)
            angles = principal_angles(span, e_basis)
            angle = float(angles.max()) if angles.size else 0.0
        except (SpectralGapError, ValueError):
            angle = np.pi  # a corrupted index has no meaningful eigenspace
        max_angle = max(max_angle, angle)
        aligned = aligned and angle < 1e-6

    minimizing = verify_minimizing(spec, target, component, radius=radius,
                                   samples=samples, seed=seed)
    fibrewise = fibrewise_critical_locus(spec, target, component, seed=seed)
    decrease = local_coords_check(spec, target, component, seed=seed)

    return ComponentVerification(
        value=component.value,
        condition1_ok=condition1,
        condition2_ok=minimizing.passed,
        index_match=index_match,
        eigenspace_aligned=aligned,
        fibrewise_ok=fibrewise.passed,
        local_coords_ok=index_match and minimizing.passed and decrease.passed,
        worst_margin=minimizing.worst_margin,
        max_principal_angle=max_angle)
