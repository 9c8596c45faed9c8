"""Tests of the benchmark itself: oracle, generator, deadline and tracer.

    python3 -m pytest bench
"""

import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

import gen
import oracle
import run
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))

C3 = gen.C3_DOC
CP2 = {"rank": 1, "weights": [{"weight": [1], "multiplicity": 3}],
       "shift": ["0"], "target": ["1"]}
S1_C2 = {"rank": 1, "weights": [{"weight": [1], "multiplicity": 1},
                                {"weight": [-1], "multiplicity": 1}],
         "shift": ["0"], "target": ["0"]}


def test_oracle_c3_two_vertices():
    level = oracle.Level(C3)
    assert level.kind() == oracle.REGULAR
    assert level.vertex_count() == 2
    assert oracle.check_betti(level, (1, 0, 1)) is None
    assert oracle.check_betti(level, (1, 0, 0, 0, 1)) is not None
    assert oracle.check_betti(level, (1, 1, 1)) is not None


def test_oracle_cp2_three_vertices():
    level = oracle.Level(CP2)
    assert level.kind() == oracle.REGULAR
    assert level.vertex_count() == 3
    assert oracle.check_betti(level, (1, 0, 1, 0, 1)) is None
    assert oracle.check_betti(level, (1, 0, 2, 0, 1)) is not None


def test_oracle_s1_on_c2_at_zero_is_singular():
    assert oracle.Level(S1_C2).kind() == oracle.SINGULAR


def test_oracle_empty_level():
    assert oracle.Level(CP2, ["-1"]).kind() == oracle.EMPTY


def test_oracle_c3_components():
    level = oracle.Level(C3)
    rows = [((F(-3), F(1)), F(10), 4, [1]), ((F(-1), F(-1)), F(2), 4, [2]),
            ((F(0), F(0)), F(0), 0, [0, 1, 2]), ((F(0), F(1)), F(1), 2, [0, 1])]
    assert oracle.check_components(level, rows) is None
    wrong_index = rows[:3] + [((F(0), F(1)), F(1), 4, [0, 1])]
    assert "index" in oracle.check_components(level, wrong_index)
    not_critical = rows + [((F(1), F(1)), F(2), 0, [0, 1, 2])]
    assert oracle.check_components(level, not_critical) is not None
    assert "minimum" in oracle.check_components(level, rows[:2] + rows[3:])


def test_generator_is_deterministic_per_seed():
    for workload in gen.WORKLOADS:
        first = [gen.dump(doc) for doc, _ in zip(gen.jobs(workload, 5), range(12))]
        again = [gen.dump(doc) for doc, _ in zip(gen.jobs(workload, 5), range(12))]
        other = [gen.dump(doc) for doc, _ in zip(gen.jobs(workload, 6), range(12))]
        assert first == again
        assert first != other


def test_generated_targets_have_their_kind():
    specs = gen.sweep_specs(3)
    for index in range(len(gen.SWEEP_KINDS)):
        doc = gen.sweep_job(3, index, specs)
        want = gen.SWEEP_KINDS[index % len(gen.SWEEP_KINDS)]
        assert oracle.Level(doc).kind() == want


def test_generator_does_not_import_the_program(tmp_path):
    code = ("import sys, gen; "
            "assert not any(m.startswith('momentmorse') for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True)
    subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), "--seed", "1",
                    "--jobs", "2", "--out", str(tmp_path)], check=True,
                   capture_output=True)
    mix = json.loads((tmp_path / "mix.json").read_text())
    assert sorted(mix) == sorted(gen.WORKLOADS)
    assert (tmp_path / "certify" / "0.json").read_text() == gen.dump(C3)


def test_job_past_deadline_counts_as_failed(monkeypatch):
    monkeypatch.setattr(run, "DEADLINE_S", 0.05)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        latency, outcome, failure = run.timed(lambda: time.sleep(2))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert outcome is None and "deadline" in failure
    assert latency < 1.0


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    def listed(key):
        return [(m["name"], m["unit"]) for m in spec[key]]
    assert listed("end_to_end") == list(run.END_TO_END)
    assert listed("per_layer") == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


def test_tracer_counts_calls_from_each_binding(tmp_path):
    mm = run.load_program()
    path = tmp_path / "c3.json"
    path.write_text(gen.dump(C3))
    originals = (mm.critical.nearest_affine_point, mm.cli.main)
    tracer = tracing.Tracer()
    tracer.install(mm)
    try:
        code, out = tracer.run_job(0, lambda: run.run_cli(mm, ["analyze", str(path)]))
    finally:
        tracer.uninstall()
    assert (mm.critical.nearest_affine_point, mm.cli.main) == originals
    assert code == 0 and run.check_analyze(oracle.Level(C3), out) is None
    table = tracing.layer_table(tracer, 1, 1.0, 1.0)
    assert table["critical.candidates"][0] == 8  # 2^3 weight subsets
    assert table["critical.enumerate.calls"][0] == 1
    assert table["critical.yield"][0] == 4 / 8
    assert table["degeneracy.flow.trajectories"][0] == 0
    assert abs(table["trace.self_sum_frac"][0] - 1.0) < 0.01


@pytest.mark.xfail(strict=True, reason="program defect: verify's fixed radii "
                   "leave the normal-form region of a component whose "
                   "negative pairing is small (-1/39 here)")
def test_known_defect_verify_small_negative_pairing(tmp_path):
    mm = run.load_program()
    doc = {"rank": 2, "weights": [{"weight": [1, -1], "multiplicity": 2},
                                  {"weight": [3, -2], "multiplicity": 1},
                                  {"weight": [1, 0], "multiplicity": 1}],
           "shift": ["2", "-2"], "target": ["49/12", "-7/2"]}
    assert oracle.Level(doc).kind() == oracle.REGULAR
    path = tmp_path / "spec.json"
    path.write_text(gen.dump(doc))
    code, out = run.run_cli(mm, ["verify", str(path), "--samples", "10"])
    assert code == 0 and out.splitlines()[-1] == "verdict: pass"
