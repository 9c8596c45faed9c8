"""Command-line front end: analyze, poincare, verify, flow, plot.

The input is a JSON document with exact rationals carried as strings, so
no floating point enters a spec:

    {"rank": 2,
     "weights": [{"weight": [1, 0], "multiplicity": 1}, ...],
     "shift": ["-3", "1"],
     "target": ["0", "0"]}

Unknown keys are rejected.  All output is deterministic: identical inputs,
flags and seeds produce byte-identical text, CSV and SVG.

Exit codes: 0 success, 1 input error (including a flag out of range:
``--samples`` below 1, a ``--radius`` that is not finite and positive,
``--points`` below 0), 2 verification or consistency failure, or a run the
engine cannot finish (too many distinct weights, a flow that diverges or
does not converge, a ``--radius`` too small to sample off a component).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import critical, degeneracy, poincare
from .exactlin import RatVec
from .weights import ActionSpec, SpecError, polarization_certificate, validate_spec


class CliInputError(Exception):
    """Any malformed input: file, JSON schema, rationals, flags."""


# Runs the engine cannot finish: reported on one line with exit 2.
_ENGINE_FAILURES = (critical.TooManyWeights, degeneracy.FlowDivergence,
                    degeneracy.FlowNonConvergence, degeneracy.NotOnComponent,
                    degeneracy.NoOffComponentSamples,
                    poincare.ResidualDenominatorError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors must exit 1, not argparse's 2
        raise CliInputError(message)


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(value, field: str) -> Fraction:
    if isinstance(value, bool):
        raise CliInputError(f"field {field}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str) or not _RATIONAL_RE.match(value):
        raise CliInputError(f"field {field}: {value!r} is not a rational "
                            f"'p' or 'p/q'")
    if "/" in value:
        num, den = value.split("/")
        if int(den) == 0:
            raise CliInputError(f"field {field}: zero denominator in {value!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(value))


def format_rational(x: Fraction) -> str:
    return str(x)


def format_vector(vec: RatVec) -> str:
    return "(" + ", ".join(format_rational(e) for e in vec) + ")"


def format_indices(indices) -> str:
    return "[" + ",".join(str(i) for i in indices) + "]"


def format_witnesses(witnesses) -> str:
    return "[" + ",".join(format_indices(w) for w in witnesses) + "]"


def parse_target_flag(text: str, rank: int) -> RatVec:
    parts = [p.strip() for p in text.split(",")]
    vec = tuple(parse_rational(p, "target") for p in parts)
    if len(vec) != rank:
        raise CliInputError(f"target has {len(vec)} entries, expected {rank}")
    return vec


def load_spec_document(path: str) -> tuple[ActionSpec, Optional[RatVec]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path} is not valid JSON: {exc}") from exc
    return parse_spec_document(doc)


def parse_spec_document(doc) -> tuple[ActionSpec, Optional[RatVec]]:
    if not isinstance(doc, dict):
        raise CliInputError("spec document must be a JSON object")
    allowed = {"rank", "weights", "shift", "target"}
    unknown = set(doc) - allowed
    if unknown:
        raise CliInputError(f"unknown keys: {sorted(unknown)}")
    for key in ("rank", "weights", "shift"):
        if key not in doc:
            raise CliInputError(f"missing key {key!r}")
    rank = doc["rank"]
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise CliInputError("field rank: must be a positive integer")
    if not isinstance(doc["weights"], list):
        raise CliInputError("field weights: must be an array")
    weights = []
    for i, entry in enumerate(doc["weights"]):
        if not isinstance(entry, dict) or set(entry) != {"weight", "multiplicity"}:
            raise CliInputError(f"field weights[{i}]: expected an object with "
                                f"exactly 'weight' and 'multiplicity'")
        vec = entry["weight"]
        if not isinstance(vec, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in vec):
            raise CliInputError(f"field weights[{i}].weight: must be an "
                                f"integer array")
        mult = entry["multiplicity"]
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            raise CliInputError(f"field weights[{i}].multiplicity: must be a "
                                f"positive integer")
        weights.append((tuple(vec), mult))
    if not isinstance(doc["shift"], list):
        raise CliInputError("field shift: must be an array")
    shift = tuple(parse_rational(v, f"shift[{i}]")
                  for i, v in enumerate(doc["shift"]))
    target = None
    if "target" in doc:
        if not isinstance(doc["target"], list):
            raise CliInputError("field target: must be an array")
        target = tuple(parse_rational(v, f"target[{i}]")
                       for i, v in enumerate(doc["target"]))
        if len(target) != rank:
            raise CliInputError(f"field target: has {len(target)} entries, "
                                f"expected {rank}")
    try:
        spec = validate_spec(rank, weights, shift)
    except SpecError as exc:
        raise CliInputError(str(exc)) from exc
    return spec, target


def echo_document(spec: ActionSpec, target: Optional[RatVec]) -> str:
    doc = {
        "rank": spec.rank,
        "weights": [{"weight": [int(e) if e.denominator == 1 else str(e)
                                for e in w.weight],
                     "multiplicity": w.multiplicity} for w in spec.weights],
        "shift": [str(e) for e in spec.shift],
    }
    if target is not None:
        doc["target"] = [str(e) for e in target]
    return json.dumps(doc, separators=(", ", ": "))


def _resolve_target(spec: ActionSpec, file_target: Optional[RatVec],
                    flag: Optional[str]) -> RatVec:
    if flag is not None:
        return parse_target_flag(flag, spec.rank)
    if file_target is not None:
        return file_target
    return tuple(Fraction(0) for _ in range(spec.rank))


def _warnings_line(spec: ActionSpec) -> str:
    notes = []
    if spec.merged_duplicates:
        notes.append("merged duplicate weights")
    if polarization_certificate(spec) is None:
        notes.append("properness not certified")
    return "warnings: " + ("; ".join(notes) if notes else "none")


def _header(command: str, spec: ActionSpec, target: RatVec) -> list[str]:
    return [f"command: {command}",
            f"spec: {echo_document(spec, target)}",
            _warnings_line(spec)]


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def run_analyze(args) -> int:
    spec, file_target = load_spec_document(args.spec)
    target = _resolve_target(spec, file_target, args.target)
    components = critical.enumerate_critical_components(spec, target)
    lines = _header("analyze", spec, target)
    lines.append(f"components: {len(components)}")
    lines.append("value | f-value | index | minimizing-coords | "
                 "stabilizer-rank | witnesses")
    rows = []
    for comp in components:
        row = (format_vector(comp.value), format_rational(comp.f_value),
               str(comp.index), format_indices(comp.minimizing_coords),
               str(comp.stabilizer_rank), format_witnesses(comp.witnesses))
        rows.append(row)
        lines.append(" | ".join(row))
    by_f: dict[Fraction, list[RatVec]] = {}
    for comp in components:
        by_f.setdefault(comp.f_value, []).append(comp.value)
    groups = "; ".join(
        f"{format_rational(fv)} -> " + ", ".join(format_vector(v) for v in vals)
        for fv, vals in sorted(by_f.items()))
    lines.append(f"f-value groups: {groups}")
    sys.stdout.write("\n".join(lines) + "\n")
    if args.csv:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["value", "f_value", "index", "minimizing_coords",
                         "stabilizer_rank", "witnesses"])
        writer.writerows(rows)
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(buffer.getvalue())
    return 0


# ---------------------------------------------------------------------------
# poincare
# ---------------------------------------------------------------------------

def run_poincare(args) -> int:
    spec, file_target = load_spec_document(args.spec)
    target = _resolve_target(spec, file_target, args.target)
    lines = _header("poincare", spec, target)
    series = poincare.equivariant_series(spec, target)
    text = poincare.series_text(series)
    if series.is_zero():
        lines.append(f"empty; P = {text}")
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    if not poincare.is_regular_value(spec, target):
        lines.append(f"singular; P = {text}")
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    betti = poincare.quotient_betti(series)
    betti_text = "[" + ",".join(str(b) for b in betti) + "]"
    lines.append(f"regular; P = {text}; betti = {betti_text}")
    sys.stdout.write("\n".join(lines) + "\n")
    if any(b < 0 for b in betti) or tuple(betti) != tuple(reversed(betti)):
        sys.stderr.write("internal inconsistency: Betti coefficients are not "
                         "a nonnegative palindrome\n")
        return 2
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def run_verify(args) -> int:
    if args.samples < 1:
        raise CliInputError(f"--samples must be at least 1, got {args.samples}")
    if not (math.isfinite(args.radius) and args.radius > 0):
        raise CliInputError(f"--radius must be finite and positive, "
                            f"got {args.radius}")
    spec, file_target = load_spec_document(args.spec)
    target = _resolve_target(spec, file_target, args.target)
    components = critical.enumerate_critical_components(spec, target)
    if args.corrupt:  # test hook: break the table, the checks must notice
        components = tuple(dataclasses.replace(c, index=c.index + 2)
                           for c in components)
    lines = _header("verify", spec, target)
    lines.append(f"seed: {args.seed}; samples: {args.samples}; "
                 f"radius: {args.radius}")
    lines.append(f"tolerances: tau_zero={degeneracy.TAU_ZERO} "
                 f"eps_grad={degeneracy.EPS_GRAD} "
                 f"match_tol={degeneracy.MATCH_TOL} "
                 f"newton_tol={degeneracy.NEWTON_TOL} "
                 f"step_slack={degeneracy.STEP_SLACK}")
    failures = []
    equal, bad = critical.criterion_equivalence_sample(spec, args.samples,
                                                       args.seed)
    lines.append(f"criterion equivalence: {'pass' if equal else 'FAIL'} "
                 f"({args.samples} exact points)")
    if not equal:
        failures.append(f"criterion equivalence at q={bad[0]}")
    for comp in components:
        record = degeneracy.verify_component(spec, target, comp,
                                             samples=args.samples,
                                             radius=args.radius,
                                             seed=args.seed)
        status = {True: "pass", False: "FAIL"}
        lines.append(
            f"component {format_vector(comp.value)}: "
            f"condition1={status[record.condition1_ok]} "
            f"condition2={status[record.condition2_ok]} "
            f"index={status[record.index_match]} "
            f"eigenspace={status[record.eigenspace_aligned]} "
            f"fibrewise={status[record.fibrewise_ok]} "
            f"local-coords={status[record.local_coords_ok]} "
            f"worst-margin={record.worst_margin:.3e} "
            f"max-angle={record.max_principal_angle:.3e}")
        if not record.passed:
            failures.append(f"component {format_vector(comp.value)} "
                            f"worst-margin={record.worst_margin:.3e}")
    if failures:
        lines.append(f"verdict: FAIL ({failures[0]})")
        sys.stdout.write("\n".join(lines) + "\n")
        return 2
    lines.append("verdict: pass")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

def run_flow(args) -> int:
    if args.points < 0:
        raise CliInputError(f"--points must be at least 0, got {args.points}")
    spec, file_target = load_spec_document(args.spec)
    target = _resolve_target(spec, file_target, args.target)
    lines = _header("flow", spec, target)
    lines.append(f"points: {args.points}; seed: {args.seed}")
    if args.points == 0:
        lines.append("no trajectories")
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    n_near = max(1, min(5, args.points // 10))
    report = degeneracy.survey_strata(spec, target, n_random=args.points,
                                      n_near=n_near, seed=args.seed)
    for value, count in report.counts:
        lines.append(f"stratum {format_vector(value)}: {count}")
    lines.append(f"unmatched: {report.unmatched}")
    lines.append(f"monotone: {'pass' if report.all_monotone else 'FAIL'}")
    frontier_ok = report.stable_frontier_ok and report.descent_frontier_ok
    lines.append(f"frontier: {'pass' if frontier_ok else 'FAIL'}")
    failed = report.unmatched > 0 or not frontier_ok or not report.all_monotone
    lines.append(f"verdict: {'FAIL' if failed else 'pass'}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def _primitive_direction(vec: RatVec) -> tuple[int, ...]:
    lcm = 1
    for e in vec:
        lcm = lcm * e.denominator // math.gcd(lcm, e.denominator)
    ints = [int(e * lcm) for e in vec]
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
    if g == 0:
        return tuple(0 for _ in ints)
    return tuple(v // g for v in ints)


def render_momentum_svg(spec: ActionSpec, target: RatVec,
                        width: int = 480, height: int = 360) -> str:
    """SVG of the momentum image, critical rays, and critical dots (rank 2).

    The shaded region is shift + cone(weights) drawn as a fan polygon (the
    cone is clipped by the viewport); the rays are shift + cone(I) for the
    rank-deficient weight subsets, which reduce to the primitive weight
    directions; the dots are the critical values of |Phi - target|^2.
    """
    components = critical.enumerate_critical_components(spec, target)
    beta = (float(spec.shift[0]), float(spec.shift[1]))
    dots = [(float(c.value[0]), float(c.value[1])) for c in components]
    xi = (float(target[0]), float(target[1]))
    directions = sorted({_primitive_direction(w.weight) for w in spec.weights
                         if any(e != 0 for e in w.weight)})
    reach = 1.0
    for x, y in dots + [xi]:
        reach = max(reach, math.hypot(x - beta[0], y - beta[1]))
    reach *= 1.6

    points = [beta] + dots + [xi]
    ray_ends = []
    for d in directions:
        norm = math.hypot(d[0], d[1])
        end = (beta[0] + reach * d[0] / norm, beta[1] + reach * d[1] / norm)
        ray_ends.append(end)
        points.append(end)
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    span_x = max(xs) - min(xs) or 1.0
    span_y = max(ys) - min(ys) or 1.0
    margin_x = 0.1 * span_x
    margin_y = 0.1 * span_y
    x0, x1 = min(xs) - margin_x, max(xs) + margin_x
    y0, y1 = min(ys) - margin_y, max(ys) + margin_y
    scale = min(width / (x1 - x0), height / (y1 - y0))

    def to_svg(p):
        return ((p[0] - x0) * scale, height - (p[1] - y0) * scale)

    def fmt(p):
        x, y = to_svg(p)
        return f"{x:.4f},{y:.4f}"

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="#ffffff"/>']
    if directions:
        by_angle = sorted(directions,
                          key=lambda d: math.atan2(d[1], d[0]))
        fan = [beta]
        for d in by_angle:
            norm = math.hypot(d[0], d[1])
            fan.append((beta[0] + 3 * reach * d[0] / norm,
                        beta[1] + 3 * reach * d[1] / norm))
        polygon = " ".join(fmt(p) for p in fan)
        parts.append(f'<polygon id="momentum-image" points="{polygon}" '
                     f'fill="#d8d8d8" stroke="none"/>')
    for i, end in enumerate(ray_ends):
        bx, by = to_svg(beta)
        ex, ey = to_svg(end)
        parts.append(f'<line id="critical-ray-{i}" x1="{bx:.4f}" y1="{by:.4f}" '
                     f'x2="{ex:.4f}" y2="{ey:.4f}" stroke="#606060" '
                     f'stroke-width="1.5"/>')
    for i, dot in enumerate(dots):
        cx, cy = to_svg(dot)
        parts.append(f'<circle id="critical-dot-{i}" cx="{cx:.4f}" '
                     f'cy="{cy:.4f}" r="4" fill="#000000"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def run_plot(args) -> int:
    spec, file_target = load_spec_document(args.spec)
    if spec.rank != 2:
        raise CliInputError(f"plot requires rank 2, got rank {spec.rank}")
    target = _resolve_target(spec, file_target, args.target)
    svg = render_momentum_svg(spec, target)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(svg)
    sys.stdout.write(f"wrote {args.out}\n")
    return 0


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="momentmorse",
                     description="critical structure of momentum map "
                                 "norm-squares for linear torus actions")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec", help="JSON spec file")
        p.add_argument("--target", default=None,
                       help="comma-separated rationals, overrides the file")

    p = sub.add_parser("analyze", help="enumerate critical components")
    common(p)
    p.add_argument("--csv", default=None, help="also write a CSV table")
    p.set_defaults(func=run_analyze)

    p = sub.add_parser("poincare", help="series and Betti numbers of a level")
    common(p)
    p.set_defaults(func=run_poincare)

    p = sub.add_parser("verify", help="certify minimal degeneracy numerically")
    common(p)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--radius", type=float, default=0.5)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=run_verify)

    p = sub.add_parser("flow", help="stratify by negative gradient flow")
    common(p)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=run_flow)

    p = sub.add_parser("plot", help="SVG of the momentum image (rank 2)")
    common(p)
    p.add_argument("--out", default="momentum.svg")
    p.set_defaults(func=run_plot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliInputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except _ENGINE_FAILURES as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
