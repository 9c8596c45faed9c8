"""Spans around the public functions of momentmorse, recorded from outside.

``Tracer.install`` rebinds each traced function at every binding site: in
its defining module and under every name that another module bound with
``from ... import`` (for example ``critical.nearest_affine_point`` and
``poincare.enumerate_critical_components``).  Each wrapper knows its binding
module, so calls made *from* a layer can be told apart from calls made
elsewhere.  ``uninstall`` restores the original objects, so untraced jobs run
the program untouched.

A span is (name, binding, start, end, parent, job, extra); spans are kept in
flat arrays while the run lasts and written out when it ends.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import types
from array import array
from time import perf_counter
from typing import Callable

MODULES = ("cli", "critical", "poincare", "degeneracy", "exactlin", "weights")

# The layer boundaries.  Vector helpers (dot, vsub, ...) and series
# arithmetic are left unwrapped: their time counts as their caller's self
# time, and wrapping them would multiply the tracing overhead.
TRACED = {
    "cli": ("main", "run_analyze", "run_poincare", "run_verify", "run_flow",
            "load_spec_document", "parse_spec_document", "echo_document"),
    "critical": ("enumerate_critical_components", "criterion_predicates",
                 "criterion_equivalence_sample", "polytope_vertices",
                 "component_squares"),
    "poincare": ("equivariant_series", "is_regular_value", "betti_numbers"),
    "degeneracy": ("grad_f", "hess_f", "hessian_report", "negative_eigenspace",
                   "principal_angles", "sample_component_point",
                   "project_to_component_polytope", "verify_minimizing",
                   "flow_trajectory", "survey_strata",
                   "fibrewise_critical_locus", "local_coords_check",
                   "verify_component"),
    "exactlin": ("rational_rank", "solve_consistent", "kernel_basis",
                 "nearest_affine_point", "lp_max", "lp_feasible",
                 "cone_member", "strict_cone_member"),
    "weights": ("validate_spec", "polarization_certificate"),
}

# What a span keeps from its function's result, as one number.
EXTRA: dict[str, Callable] = {
    "critical.enumerate_critical_components": len,
    "degeneracy.flow_trajectory": lambda r: r.steps,
    "degeneracy.fibrewise_critical_locus": lambda r: r.max_iterations,
}

ROOT = "bench.job"


class Tracer:
    def __init__(self):
        self.keys: list[tuple[str, str]] = [(ROOT, "bench")]
        self.key: array = array("i")
        self.parent: array = array("i")
        self.job: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.extra: array = array("d")
        self._stack: list[int] = []
        self._bindings: list[tuple[types.ModuleType, str, object, object]] = []
        self._job_id = -1

    # -- installation ------------------------------------------------------

    def install(self, package: types.ModuleType) -> None:
        """Wrap every traced function at every binding site in the package.

        A traced name the package no longer defines is skipped; its metrics
        then read 0.
        """
        if not self._bindings:
            self._bindings = list(self._find_bindings(package))
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def _find_bindings(self, package: types.ModuleType):
        modules = {name: getattr(package, name) for name in MODULES}
        origins = {}
        for mod_name, names in TRACED.items():
            for fname in names:
                fn = getattr(modules[mod_name], fname, None)
                if callable(fn):
                    origins[id(fn)] = (mod_name, fname)
        for binding, module in [("momentmorse", package)] + list(modules.items()):
            for attr, value in list(vars(module).items()):
                origin = origins.get(id(value))
                if origin is not None:
                    yield module, attr, value, self._wrap(value, *origin, binding)

    def _wrap(self, fn, mod_name: str, fname: str, binding: str):
        name = f"{mod_name}.{fname}"
        self.keys.append((name, binding))
        key = len(self.keys) - 1
        extra = EXTRA.get(name)
        stack, end = self._stack, self.end

        def traced(*args, **kwargs):
            idx = self._open(key)
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    self.extra[idx] = extra(result)
                return result
            finally:
                end[idx] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _open(self, key: int) -> int:
        idx = len(self.start)
        self.key.append(key)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job_id)
        self.extra.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    # -- jobs --------------------------------------------------------------

    def run_job(self, job_id: int, call: Callable):
        """Run call() under a root span for the job."""
        self._job_id = job_id
        idx = self._open(0)
        try:
            return call()
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()

    # -- results -----------------------------------------------------------

    def spans(self):
        """(name, binding, duration, self time, extra) of every span."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        for i in range(len(self.start)):
            name, binding = self.keys[self.key[i]]
            dur = self.end[i] - self.start[i]
            yield name, binding, dur, dur - child[i], self.extra[i]

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tjob\tname\tbinding\tstart\tend\textra\n")
            for i in range(len(self.start)):
                name, binding = self.keys[self.key[i]]
                fh.write(f"{i}\t{self.parent[i]}\t{self.job[i]}\t{name}\t"
                         f"{binding}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                         f"{self.extra[i]:g}\n")


# ---------------------------------------------------------------------------
# the per-layer table
# ---------------------------------------------------------------------------

def _named(*names: str) -> Callable[[str, str], bool]:
    wanted = set(names)
    return lambda name, binding: name in wanted


def _called_from(binding_module: str, *names: str) -> Callable[[str, str], bool]:
    wanted = set(names)
    return lambda name, binding: name in wanted and binding == binding_module


_LP = _named("exactlin.lp_max", "exactlin.lp_feasible", "exactlin.cone_member",
             "exactlin.strict_cone_member")
_ELIM = _named("exactlin.rational_rank", "exactlin.solve_consistent",
               "exactlin.kernel_basis")
_GEOMETRY = _called_from("degeneracy", "critical.component_squares",
                         "critical.polytope_vertices")
_HESSIAN = _named("degeneracy.grad_f", "degeneracy.hess_f",
                  "degeneracy.hessian_report", "degeneracy.negative_eigenspace")

# (metric, unit, selector, statistic); statistic is "calls", "self" or
# "extra", each summed over the selected spans and divided by the job count.
LAYER_SUMS = (
    ("critical.enumerate.calls", "count/job",
     _named("critical.enumerate_critical_components"), "calls"),
    ("critical.enumerate.self_s", "s/job",
     _named("critical.enumerate_critical_components"), "self"),
    ("critical.candidates", "count/job",
     _called_from("critical", "exactlin.nearest_affine_point"), "calls"),
    ("poincare.series.calls", "count/job",
     _named("poincare.equivariant_series"), "calls"),
    ("poincare.series.self_s", "s/job", _named("poincare.equivariant_series"), "self"),
    ("poincare.sublevels", "count/job",
     _called_from("poincare", "critical.enumerate_critical_components"), "calls"),
    ("poincare.regular.calls", "count/job",
     _named("poincare.is_regular_value"), "calls"),
    ("poincare.regular.self_s", "s/job", _named("poincare.is_regular_value"), "self"),
    ("exactlin.lp.calls", "count/job", _named("exactlin.lp_max"), "calls"),
    ("exactlin.lp.self_s", "s/job", _LP, "self"),
    ("exactlin.elim.calls", "count/job", _ELIM, "calls"),
    ("exactlin.elim.self_s", "s/job", _ELIM, "self"),
    ("exactlin.project.calls", "count/job",
     _named("exactlin.nearest_affine_point"), "calls"),
    ("exactlin.project.self_s", "s/job",
     _named("exactlin.nearest_affine_point"), "self"),
    ("critical.geometry.calls", "count/job", _GEOMETRY, "calls"),
    ("critical.geometry.self_s", "s/job", _GEOMETRY, "self"),
    ("degeneracy.sample.self_s", "s/job",
     _named("degeneracy.sample_component_point"), "self"),
    ("degeneracy.project.calls", "count/job",
     _named("degeneracy.project_to_component_polytope"), "calls"),
    ("degeneracy.project.self_s", "s/job",
     _named("degeneracy.project_to_component_polytope"), "self"),
    ("degeneracy.verify_minimizing.calls", "count/job",
     _named("degeneracy.verify_minimizing"), "calls"),
    ("degeneracy.hessian.calls", "count/job", _HESSIAN, "calls"),
    ("degeneracy.hessian.self_s", "s/job", _HESSIAN, "self"),
    ("degeneracy.fibrewise.self_s", "s/job",
     _named("degeneracy.fibrewise_critical_locus"), "self"),
    ("degeneracy.flow.trajectories", "count/job",
     _named("degeneracy.flow_trajectory"), "calls"),
    ("degeneracy.flow.steps", "count/job",
     _named("degeneracy.flow_trajectory"), "extra"),
    ("degeneracy.flow.self_s", "s/job", _named("degeneracy.flow_trajectory"), "self"),
    ("weights.polarization.calls", "count/job",
     _named("weights.polarization_certificate"), "calls"),
    ("weights.polarization.self_s", "s/job",
     _named("weights.polarization_certificate"), "self"),
) + tuple((f"{module}.self_s", "s/job",
           (lambda mod: lambda name, binding: name.startswith(mod + "."))(module),
           "self") for module in MODULES)

DERIVED = (
    ("critical.yield", "ratio"),
    ("degeneracy.newton.max_iters", "count"),
    ("degeneracy.flow.us_per_step", "us"),
    ("trace.job_s", "s/job"),
    ("trace.glue_s", "s/job"),
    ("trace.self_sum_frac", "ratio"),
    ("trace.overhead_s", "s/job"),
    ("trace.overhead_frac", "ratio"),
)

PER_LAYER = tuple((name, unit) for name, unit, _, _ in LAYER_SUMS) + DERIVED


def layer_table(tracer: Tracer, jobs: int, untraced_s: float,
                traced_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, per traced job, from the recorded spans.

    ``untraced_s`` and ``traced_s`` are the summed latencies of the jobs run
    untraced and traced, both at the same reference speed; their difference
    is the tracing overhead.
    """
    per_key: dict[tuple[str, str], list[float]] = {}  # calls, self, extra, max extra
    job_s = glue_s = 0.0
    for name, binding, dur, self_s, extra in tracer.spans():
        if name == ROOT:
            job_s += dur
            glue_s += self_s
            continue
        agg = per_key.setdefault((name, binding), [0.0, 0.0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += self_s
        agg[2] += extra
        agg[3] = max(agg[3], extra)
    column = {"calls": 0, "self": 1, "extra": 2}
    sums = [sum(agg[column[stat]] for (name, binding), agg in per_key.items()
                if selected(name, binding))
            for _, _, selected, stat in LAYER_SUMS]
    enumerated = sum(agg[2] for (name, _), agg in per_key.items()
                     if name == "critical.enumerate_critical_components")
    newton_max = max((agg[3] for (name, _), agg in per_key.items()
                      if name == "degeneracy.fibrewise_critical_locus"), default=0.0)
    out = {metric: (total / jobs, unit)
           for (metric, unit, _, _), total in zip(LAYER_SUMS, sums)}
    candidates = out["critical.candidates"][0] * jobs
    steps = out["degeneracy.flow.steps"][0] * jobs
    flow_self = out["degeneracy.flow.self_s"][0] * jobs
    module_self = sum(out[f"{m}.self_s"][0] for m in MODULES) * jobs
    out["critical.yield"] = (enumerated / candidates if candidates else 0.0, "ratio")
    out["degeneracy.newton.max_iters"] = (newton_max, "count")
    out["degeneracy.flow.us_per_step"] = (
        1e6 * flow_self / steps if steps else 0.0, "us")
    out["trace.job_s"] = (job_s / jobs, "s/job")
    out["trace.glue_s"] = (glue_s / jobs, "s/job")
    out["trace.self_sum_frac"] = (module_self / job_s, "ratio")
    out["trace.overhead_s"] = ((traced_s - untraced_s) / jobs, "s/job")
    out["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    return out
