"""CLI contract: formats, exit codes, determinism, round-trip."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import momentmorse
from momentmorse import degeneracy
from momentmorse.critical import MAX_DISTINCT_WEIGHTS
from momentmorse.cli import (
    load_spec_document,
    main,
    parse_rational,
    parse_spec_document,
)

C3_DOC = {
    "rank": 2,
    "weights": [
        {"weight": [1, 0], "multiplicity": 1},
        {"weight": [0, 1], "multiplicity": 1},
        {"weight": [1, -1], "multiplicity": 1},
    ],
    "shift": ["-3", "1"],
    "target": ["0", "0"],
}

C3_ECHO = ('spec: {"rank": 2, "weights": [{"weight": [1, 0], "multiplicity": 1}, '
           '{"weight": [0, 1], "multiplicity": 1}, '
           '{"weight": [1, -1], "multiplicity": 1}], '
           '"shift": ["-3", "1"], "target": ["0", "0"]}\n')

_ALL_PASS = ("condition1=pass condition2=pass index=pass eigenspace=pass "
             "fibrewise=pass local-coords=pass")

# Full stdout and CSV of `analyze` on C3.  A witness is a weight flat whose
# foot is the value; (0, 0) has the one witness [0,1,2].
C3_ANALYZE = (
    "command: analyze\n" + C3_ECHO +
    "warnings: none\n"
    "components: 4\n"
    "value | f-value | index | minimizing-coords | stabilizer-rank | witnesses\n"
    "(-3, 1) | 10 | 4 | [1] | 2 | [[]]\n"
    "(-1, -1) | 2 | 4 | [2] | 1 | [[2]]\n"
    "(0, 0) | 0 | 0 | [0,1,2] | 0 | [[0,1,2]]\n"
    "(0, 1) | 1 | 2 | [0,1] | 1 | [[0]]\n"
    "f-value groups: 0 -> (0, 0); 1 -> (0, 1); 2 -> (-1, -1); 10 -> (-3, 1)\n")

C3_ANALYZE_CSV = (
    "value,f_value,index,minimizing_coords,stabilizer_rank,witnesses\n"
    '"(-3, 1)",10,4,[1],2,[[]]\n'
    '"(-1, -1)",2,4,[2],1,[[2]]\n'
    '"(0, 0)",0,0,"[0,1,2]",0,"[[0,1,2]]"\n'
    '"(0, 1)",1,2,"[0,1]",1,[[0]]\n')

# Full stdout of `verify --samples 40 --seed 42` and `flow --points 40
# --seed 7` on C3, pinned byte for byte: the certification refactors must
# leave every printed figure unchanged.
C3_VERIFY_40 = (
    "command: verify\n" + C3_ECHO +
    "warnings: none\n"
    "seed: 42; samples: 40; radius: 0.5\n"
    "tolerances: tau_zero=1e-09 eps_grad=1e-08 match_tol=1e-05 "
    "newton_tol=1e-10 step_slack=1e-12\n"
    "criterion equivalence: pass (40 exact points)\n"
    f"component (-3, 1): {_ALL_PASS} worst-margin=3.573e-04 max-angle=0.000e+00\n"
    f"component (-1, -1): {_ALL_PASS} worst-margin=1.315e-04 max-angle=0.000e+00\n"
    f"component (0, 0): {_ALL_PASS} worst-margin=2.361e-03 max-angle=0.000e+00\n"
    f"component (0, 1): {_ALL_PASS} worst-margin=4.131e-02 max-angle=0.000e+00\n"
    "verdict: pass\n")

C3_FLOW_40 = (
    "command: flow\n" + C3_ECHO +
    "warnings: none\n"
    "points: 40; seed: 7\n"
    "stratum (-3, 1): 4\n"
    "stratum (-1, -1): 4\n"
    "stratum (0, 0): 60\n"
    "stratum (0, 1): 4\n"
    "unmatched: 0\n"
    "monotone: pass\n"
    "frontier: pass\n"
    "verdict: pass\n")


@pytest.fixture
def c3_file(tmp_path):
    path = tmp_path / "c3.json"
    path.write_text(json.dumps(C3_DOC), encoding="utf-8")
    return str(path)


@pytest.fixture
def s1c2_file(tmp_path):
    doc = {"rank": 1,
           "weights": [{"weight": [1], "multiplicity": 1},
                       {"weight": [-1], "multiplicity": 1}],
           "shift": ["0"], "target": ["0"]}
    path = tmp_path / "s1c2.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestSpecParsing:
    def test_round_trip_through_echo(self, c3_file, capsys):
        assert main(["analyze", c3_file]) == 0
        out = capsys.readouterr().out
        echo_line = next(l for l in out.splitlines() if l.startswith("spec: "))
        doc = json.loads(echo_line[len("spec: "):])
        spec, target = parse_spec_document(doc)
        original, orig_target = load_spec_document(c3_file)
        assert spec == original
        assert target == orig_target

    def test_unknown_key_rejected(self, tmp_path):
        doc = dict(C3_DOC)
        doc["extra"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["analyze", str(path)]) == 1

    def test_zero_denominator_names_field(self, tmp_path, capsys):
        doc = dict(C3_DOC)
        doc["shift"] = ["1/0", "1"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert "shift[0]" in err

    def test_missing_file(self):
        assert main(["analyze", "/nonexistent/spec.json"]) == 1

    def test_rational_parsing(self):
        from fractions import Fraction
        assert parse_rational("-3", "x") == Fraction(-3)
        assert parse_rational("1/2", "x") == Fraction(1, 2)
        assert parse_rational(7, "x") == Fraction(7)
        from momentmorse.cli import CliInputError
        with pytest.raises(CliInputError):
            parse_rational("0.5", "x")


class TestAnalyze:
    def test_c3_table(self, c3_file, capsys):
        assert main(["analyze", c3_file]) == 0
        out = capsys.readouterr().out
        assert "components: 4" in out
        assert "(-3, 1) | 10 | 4 | [1] | 2 | [[]]" in out
        assert "(-1, -1) | 2 | 4 | [2] | 1 | [[2]]" in out
        assert "(0, 0) | 0 | 0 | [0,1,2] | 0 | [[0,1,2]]" in out
        assert "(0, 1) | 1 | 2 | [0,1] | 1 | [[0]]" in out

    def test_c3_output_and_csv_pinned(self, c3_file, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        assert main(["analyze", c3_file, "--csv", str(csv_path)]) == 0
        assert capsys.readouterr().out == C3_ANALYZE
        assert csv_path.read_text(encoding="utf-8") == C3_ANALYZE_CSV

    def test_empty_weights_single_row(self, tmp_path, capsys):
        doc = {"rank": 2, "weights": [], "shift": ["5", "-1"]}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "components: 1" in out
        assert "(5, -1)" in out

    def test_csv_output(self, c3_file, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        assert main(["analyze", c3_file, "--csv", str(csv_path)]) == 0
        capsys.readouterr()
        content = csv_path.read_text(encoding="utf-8")
        lines = content.splitlines()
        assert lines[0] == "value,f_value,index,minimizing_coords," \
                           "stabilizer_rank,witnesses"
        assert len(lines) == 5
        assert '"(-3, 1)",10,4,[1],2,[[]]' in lines

    def test_byte_determinism(self, c3_file, capsys):
        main(["analyze", c3_file])
        first = capsys.readouterr().out
        main(["analyze", c3_file])
        second = capsys.readouterr().out
        assert first == second


class TestPoincare:
    def test_c3_regular_line(self, c3_file, capsys):
        assert main(["poincare", c3_file]) == 0
        out = capsys.readouterr().out
        assert "regular; P = 1 + t^2; betti = [1,0,1]" in out

    def test_projective_plane(self, tmp_path, capsys):
        doc = {"rank": 1, "weights": [{"weight": [1], "multiplicity": 3}],
               "shift": ["0"], "target": ["1"]}
        path = tmp_path / "cp2.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["poincare", str(path)]) == 0
        out = capsys.readouterr().out
        assert "regular; P = 1 + t^2 + t^4; betti = [1,0,1,0,1]" in out

    def test_singular_cone(self, s1c2_file, capsys):
        assert main(["poincare", s1c2_file]) == 0
        out = capsys.readouterr().out
        assert "singular; P = 1/(1 - t^2)^1" in out

    def test_target_flag_overrides(self, c3_file, capsys):
        assert main(["poincare", c3_file, "--target=-3,1"]) == 0
        out = capsys.readouterr().out
        assert "singular" in out

    def test_empty_level(self, tmp_path, capsys):
        doc = {"rank": 1, "weights": [{"weight": [1], "multiplicity": 1}],
               "shift": ["0"], "target": ["-1"]}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["poincare", str(path)]) == 0
        out = capsys.readouterr().out
        assert "empty; P = 0" in out


class TestVerify:
    def test_c3_passes(self, c3_file, capsys):
        assert main(["verify", c3_file, "--seed", "42",
                     "--samples", "60"]) == 0
        out = capsys.readouterr().out
        assert "verdict: pass" in out
        assert out.count("condition1=pass") == 4

    def test_s1c2_passes_without_manifold(self, s1c2_file, capsys):
        assert main(["verify", s1c2_file, "--samples", "40"]) == 0
        out = capsys.readouterr().out
        assert "verdict: pass" in out
        assert ("tolerances: tau_zero=1e-09 eps_grad=1e-08 match_tol=1e-05 "
                "newton_tol=1e-10 step_slack=1e-12\n") in out

    def test_c3_output_pinned(self, c3_file, capsys):
        assert main(["verify", c3_file, "--samples", "40", "--seed", "42"]) == 0
        assert capsys.readouterr().out == C3_VERIFY_40

    def test_corrupted_table_exits_2(self, c3_file, capsys):
        assert main(["verify", c3_file, "--samples", "40", "--corrupt"]) == 2
        out = capsys.readouterr().out
        assert "verdict: FAIL" in out


class TestFlow:
    def test_c3_strata(self, c3_file, capsys):
        assert main(["flow", c3_file, "--points", "40", "--seed", "7"]) == 0
        assert capsys.readouterr().out == C3_FLOW_40

    def test_zero_points(self, c3_file, capsys):
        assert main(["flow", c3_file, "--points", "0"]) == 0
        out = capsys.readouterr().out
        assert "no trajectories" in out

    def test_non_polarized_warning(self, s1c2_file, capsys):
        assert main(["flow", s1c2_file, "--points", "10"]) == 0
        out = capsys.readouterr().out
        assert "properness not certified" in out

    def test_byte_determinism(self, c3_file, capsys):
        main(["flow", c3_file, "--points", "15", "--seed", "3"])
        first = capsys.readouterr().out
        main(["flow", c3_file, "--points", "15", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second


class TestPlot:
    def test_c3_svg_structure(self, c3_file, tmp_path, capsys):
        out_path = tmp_path / "c3.svg"
        assert main(["plot", c3_file, "--out", str(out_path)]) == 0
        svg = out_path.read_text(encoding="utf-8")
        assert svg.startswith("<svg")
        assert 'id="momentum-image"' in svg
        assert svg.count("critical-ray-") == 3
        assert svg.count("critical-dot-") == 4

    def test_rank3_rejected(self, tmp_path):
        doc = {"rank": 3, "weights": [{"weight": [1, 0, 0], "multiplicity": 1}],
               "shift": ["0", "0", "0"]}
        path = tmp_path / "r3.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["plot", str(path)]) == 1

    def test_empty_weights_single_dot(self, tmp_path, capsys):
        doc = {"rank": 2, "weights": [], "shift": ["1", "1"]}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out_path = tmp_path / "empty.svg"
        assert main(["plot", str(path), "--out", str(out_path)]) == 0
        svg = out_path.read_text(encoding="utf-8")
        assert svg.count("critical-dot-") == 1
        assert "critical-ray-" not in svg

    def test_svg_determinism(self, c3_file, tmp_path, capsys):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        main(["plot", c3_file, "--out", str(a)])
        main(["plot", c3_file, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestEngineFailures:
    @pytest.fixture
    def over_cap_file(self, tmp_path):
        m = MAX_DISTINCT_WEIGHTS + 1
        doc = {"rank": 1,
               "weights": [{"weight": [k], "multiplicity": 1}
                           for k in range(1, m + 1)],
               "shift": ["0"], "target": ["1"]}
        path = tmp_path / "over_cap.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("command", ["analyze", "poincare"])
    def test_over_cap_exits_2_with_one_line(self, over_cap_file, command, capsys):
        start = time.perf_counter()
        assert main([command, over_cap_file]) == 2
        assert time.perf_counter() - start < 10.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {MAX_DISTINCT_WEIGHTS + 1} distinct "
                                f"weights exceeds the desk-scale cap of "
                                f"{MAX_DISTINCT_WEIGHTS}\n")

    def test_flow_nonconvergence_exits_2(self, c3_file, capsys, monkeypatch):
        def stalled(*args, **kwargs):
            raise degeneracy.FlowNonConvergence("gradient norm 1e-3 after 100 steps")
        monkeypatch.setattr(degeneracy, "survey_strata", stalled)
        assert main(["flow", c3_file, "--points", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: gradient norm 1e-3 after 100 steps\n"


class TestFlagRanges:
    @pytest.mark.parametrize("flags", [
        ["verify", "--samples", "0"], ["verify", "--samples", "-2"],
        ["verify", "--radius", "0"], ["verify", "--radius", "-0.5"],
        ["verify", "--radius", "nan"], ["verify", "--radius", "inf"],
        ["flow", "--points", "-3"]])
    def test_out_of_range_flag_is_an_input_error(self, c3_file, flags, capsys):
        assert main([flags[0], c3_file] + flags[1:]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flags[1]} must be ")
        assert captured.err.count("\n") == 1

    def test_radius_too_small_exits_2(self, c3_file, capsys):
        assert main(["verify", c3_file, "--samples", "5",
                     "--radius", "1e-9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: no off-component samples; "
                                "radius too small\n")


class TestModuleEntryPoint:
    def test_python_m_runs_the_cli(self, c3_file, capsys):
        src = str(Path(momentmorse.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "momentmorse.cli", "analyze", c3_file],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert main(["analyze", c3_file]) == 0
        assert proc.stdout == capsys.readouterr().out
        assert proc.stdout.startswith("command: analyze\n")
