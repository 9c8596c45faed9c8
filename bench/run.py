"""Benchmark of momentmorse: seeded workloads checked by an exact oracle.

    python3 bench/run.py --workload exact-scan --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each workload is a closed loop with one client in one process: a job starts
when the previous one returns, until the next job would pass ``--seconds``
of passed-job time.  Every job's output is checked against ``oracle.py``,
which does not import momentmorse.  End-to-end times are scaled to a
reference machine speed (see CAL_REF_S).  ``--workload all`` runs every
workload in turn.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each job
untraced and then traced, prints the per-layer metrics derived from the
spans, and writes the spans to ``.bench_out/``.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

import os

# one BLAS thread, set before numpy is imported by the program
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import gen
import oracle
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

DEADLINE_S = 15.0
SETUP_REPEATS = 11
TAIL_BEYOND = 10

# The machine this runs on shares its cores: the speed of fixed Python code
# changes by up to 2x for tens of seconds at a time.  Every reported time is
# therefore scaled to a reference speed, at which _calibration_loop takes
# CAL_REF_S (its time in the fast phase of a 2-vCPU VM, Python 3.11), using
# calibrations taken just before and after the timed work.  The calibration
# is benchmark code, so a change to the program does not move it.
CAL_REF_S = 0.0018

END_TO_END = (("jobs_per_s", "1/s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
              ("ok_frac", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class JobTimeout(Exception):
    """A job passed DEADLINE_S."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def load_program():
    """The momentmorse package of this checkout, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "momentmorse", "__init__.py")):
        sys.exit(f"error: no momentmorse package under {SRC}")
    sys.path.insert(0, SRC)
    import momentmorse
    import momentmorse.cli
    if not os.path.abspath(momentmorse.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported momentmorse from {momentmorse.__file__}")
    return momentmorse


def _calibration_loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i) * Fraction(i % 7 + 1, 3)
    return total


def calibrate() -> float:
    """Best of three timings of a fixed exact-arithmetic loop of the benchmark."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        _calibration_loop()
        best = min(best, perf_counter() - start)
    return best


def to_reference(seconds: float, before: float, after: float) -> float:
    """Seconds at reference machine speed, from the calibrations around them."""
    return seconds * 2 * CAL_REF_S / (before + after)


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import the package and its CLI,
    at reference speed; each child calibrates itself after the import."""
    code = ("import time; t = time.perf_counter(); "
            "import momentmorse, momentmorse.cli; "
            "took = time.perf_counter() - t; "
            "import run; print(took, run.calibrate())")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE)))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        took, calibration = map(float, done.stdout.split())
        times.append(took * CAL_REF_S / calibration)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# calling the program and reading its output
# ---------------------------------------------------------------------------

def run_cli(mm, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mm.cli.main(argv)
    return code, out.getvalue()


def parse_vector(text: str) -> tuple:
    return tuple(Fraction(e) for e in text.strip().strip("()").split(", "))


def parse_ints(text: str) -> list[int]:
    body = text.strip().strip("[]")
    return [int(e) for e in body.split(",")] if body else []


def check_analyze(level: oracle.Level, out: str):
    lines = out.splitlines()
    count = next((int(line.split(": ")[1]) for line in lines
                  if line.startswith("components: ")), None)
    header = next((i for i, line in enumerate(lines)
                   if line.startswith("value | ")), None)
    if count is None or header is None:
        return "analyze printed no component table"
    rows = []
    for line in lines[header + 1: header + 1 + count]:
        fields = line.split(" | ")
        if len(fields) != 6:
            return f"analyze row {line!r} has {len(fields)} fields"
        rows.append((parse_vector(fields[0]), Fraction(fields[1]),
                     int(fields[2]), parse_ints(fields[3])))
    if len(rows) != count:
        return f"analyze announced {count} components and printed {len(rows)}"
    return oracle.check_components(level, rows)


def check_poincare(level: oracle.Level, out: str):
    last = out.splitlines()[-1]
    kind = last.split(";")[0]
    if kind != level.kind():
        return f"poincare says {kind}, oracle says {level.kind()}"
    if kind == oracle.REGULAR:
        return oracle.check_betti(level, parse_ints(last.split("betti = ")[1]))
    return None


def check_certify(level: oracle.Level, verify_out: str, flow_out: str):
    if verify_out.splitlines()[-1] != "verdict: pass":
        return f"verify: {verify_out.splitlines()[-1]}"
    flow_lines = flow_out.splitlines()
    if flow_lines[-1] != "verdict: pass":
        return f"flow: {flow_lines[-1]}"
    if "unmatched: 0" not in flow_lines:
        return "flow left trajectories unmatched"
    points = next(int(line.split(";")[0].split(": ")[1]) for line in flow_lines
                  if line.startswith("points: "))
    strata = {}
    for line in flow_lines:
        if line.startswith("stratum "):
            value, count = line[len("stratum "):].rsplit(": ", 1)
            strata[parse_vector(value)] = int(count)
    near = max(1, min(5, points // 10))
    flowed = points + 2 * near * len(strata)
    if sum(strata.values()) != flowed:
        return f"strata hold {sum(strata.values())} of {flowed} trajectories"
    verified = {parse_vector(line[len("component "):].split(":")[0])
                for line in verify_out.splitlines() if line.startswith("component ")}
    if verified != set(strata):
        return "verify and flow report different critical values"
    if (level.target in strata) != (level.kind() != oracle.EMPTY):
        return "minimum component present iff the level is nonempty: violated"
    return None


# ---------------------------------------------------------------------------
# workloads: each builds (call, check) for one job from its spec document;
# ``shared`` lives as long as the run
# ---------------------------------------------------------------------------

def exact_scan(mm, index: int, path: str, level: oracle.Level, shared: dict):
    def call():
        return run_cli(mm, ["analyze", path]), run_cli(mm, ["poincare", path])

    def check(outcome):
        (code_a, out_a), (code_p, out_p) = outcome
        if code_a != 0 or code_p != 0:
            return f"exit codes {code_a}, {code_p}"
        return check_analyze(level, out_a) or check_poincare(level, out_p)
    return call, check


def chamber_sweep(mm, index: int, path: str, level: oracle.Level, shared: dict):
    # one ActionSpec object per spec, reused across its targets as a library
    # user sweeping chambers would
    key = (tuple(level.weights), tuple(level.mults), level.shift)
    if key not in shared:
        shared[key] = mm.validate_spec(level.rank, zip(level.weights, level.mults),
                                       level.shift)
    spec, target = shared[key], level.target

    def call():
        poincare = mm.poincare
        series = poincare.equivariant_series(spec, target)
        regular = poincare.is_regular_value(spec, target)
        betti = (poincare.betti_numbers(spec, target)
                 if regular and not series.is_zero() else None)
        return series.is_zero(), regular, betti

    def check(outcome):
        empty, regular, betti = outcome
        kind = level.kind()
        if empty != (kind == oracle.EMPTY) or regular != (kind != oracle.SINGULAR):
            return f"series zero={empty}, regular={regular}; oracle says {kind}"
        return oracle.check_betti(level, betti) if kind == oracle.REGULAR else None
    return call, check


def certify(mm, index: int, path: str, level: oracle.Level, shared: dict):
    verify, flow = ["verify", path], ["flow", path]
    if index > 0:  # job 0 is C3 at CLI defaults
        verify += ["--samples", str(gen.CERTIFY_SAMPLES)]
        flow += ["--points", str(gen.CERTIFY_POINTS)]

    def call():
        return run_cli(mm, verify), run_cli(mm, flow)

    def check(outcome):
        (code_v, out_v), (code_f, out_f) = outcome
        if code_v != 0 or code_f != 0:
            return f"exit codes {code_v}, {code_f}"
        return check_certify(level, out_v, out_f)
    return call, check


WORKLOADS = {"exact-scan": exact_scan, "chamber-sweep": chamber_sweep,
             "certify": certify}


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def timed(call):
    """(latency, outcome, failure) of one job under the deadline."""
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    start = perf_counter()
    try:
        outcome, failure = call(), None
    except JobTimeout:
        outcome, failure = None, f"passed the {DEADLINE_S:g} s deadline"
    except Exception as exc:  # the run goes on; the job counts as failed
        outcome, failure = None, f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return perf_counter() - start, outcome, failure


def checked(check, outcome):
    """The check's verdict on an outcome; unreadable output is a failure."""
    try:
        return check(outcome)
    except Exception as exc:
        return f"output could not be checked: {type(exc).__name__}: {exc}"


def run_workload(mm, workload: str, seed: int, seconds: float, traced: bool):
    folder = os.path.join(OUT, "inputs", f"{workload}-{seed}")
    os.makedirs(folder, exist_ok=True)
    setup = None if traced else setup_seconds()
    stream = gen.jobs(workload, seed)
    shared: dict = {}
    tracer = tracing.Tracer() if traced else None
    measured, scaled, failures, kinds = [], [], [], {}
    passed_s = spent_s = passed_scaled_s = traced_scaled_s = 0.0
    index = 0
    while True:
        doc = next(stream)
        path = os.path.join(folder, f"{index}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(gen.dump(doc))
        level = oracle.Level(doc)
        call, check = WORKLOADS[workload](mm, index, path, level, shared)
        kinds[level.kind()] = kinds.get(level.kind(), 0) + 1
        before = calibrate()
        latency, outcome, failure = timed(call)
        latency_scaled = to_reference(latency, before, calibrate())
        failure = failure or checked(check, outcome)
        job_s = latency
        if traced:
            tracer.install(mm)
            before = calibrate()
            try:
                traced_latency, outcome, traced_failure = timed(
                    lambda: tracer.run_job(index, call))
            finally:
                tracer.uninstall()
            traced_scaled_s += to_reference(traced_latency, before, calibrate())
            failure = failure or traced_failure or checked(check, outcome)
            job_s += traced_latency
        measured.append(latency)
        scaled.append(latency_scaled)
        spent_s += job_s
        if failure:
            failures.append((index, failure))
        else:
            passed_s += job_s
            passed_scaled_s += latency_scaled
        index += 1
        # The budget is passed-job time, so that a job stopped at the
        # deadline (a time the benchmark sets, not the program) costs the
        # run no jobs; all job time together is capped one deadline later.
        # A traced run does not look ahead: its first certify job, C3 twice,
        # would otherwise end it.
        next_s = 0.0 if traced else statistics.median(measured)
        if passed_s + next_s > seconds or spent_s + next_s > seconds + DEADLINE_S:
            break

    print(f"workload {workload}, seed {seed}: {len(measured)} jobs in "
          f"{spent_s:.2f} s of job time, closed loop with 1 client; "
          f"target mix {json.dumps(kinds, sort_keys=True)}")
    print(f"  job p50 {statistics.median(measured):.4f} s measured, "
          f"{statistics.median(scaled):.4f} s at reference speed")
    if workload == "certify":
        print(f"  C3 job (verify + flow at CLI defaults): {measured[0]:.3f} s "
              f"measured, {scaled[0]:.3f} s at reference speed")
    for index, failure in failures[:10]:
        print(f"  FAILED job {index}: {failure}")
    if traced:
        metrics = tracing.layer_table(tracer, len(measured), sum(scaled),
                                      traced_scaled_s)
        path = os.path.join(OUT, f"trace-{workload}-{seed}.tsv.gz")
        tracer.write(path)
        print(f"  spans written to {os.path.relpath(path, ROOT)}")
        print(f"  module self times sum to "
              f"{metrics['trace.self_sum_frac'][0]:.4f} of traced job time; "
              f"tracing overhead {metrics['trace.overhead_s'][0]:.4f} s/job "
              f"({100 * metrics['trace.overhead_frac'][0]:.1f}%)")
    else:
        metrics = end_to_end(scaled, len(failures), passed_scaled_s, setup)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    return {"correct": not failures, "attempted": len(measured),
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def end_to_end(latencies, failed: int, passed_s: float, setup: float):
    n = len(latencies)
    ordered = sorted(latencies)
    if n > TAIL_BEYOND:
        tail, share = ordered[n - TAIL_BEYOND - 1], (n - TAIL_BEYOND) / n
    else:
        tail, share = ordered[-1], 1.0
    print(f"  job_tail_s is p{100 * share:.0f} of {n} jobs")
    values = {
        "jobs_per_s": (n - failed) / passed_s,
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail,
        "ok_frac": (n - failed) / n,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    mm = load_program()
    signal.signal(signal.SIGALRM, _on_alarm)
    names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(mm, name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
