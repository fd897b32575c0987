import json
import math

import pytest

from chebgap import green
from chebgap.chebyshev import cheb_T
from chebgap.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestGreenCommand:
    def test_symmetric_value(self, capsys):
        rc, out, _ = run(capsys, "green", "--alpha", "0", "--delta", "0.5", "--x", "0")
        assert rc == 0
        payload = json.loads(out)
        assert payload["g"] == pytest.approx(0.5 * math.log(3.0), abs=1e-10)
        assert payload["c_dot"] > 1.0

    def test_gap_endpoint(self, capsys):
        rc, out, _ = run(capsys, "green", "--alpha", "0", "--delta", "0.5", "--x", "0.5")
        assert rc == 0
        payload = json.loads(out)
        assert payload["g"] == 0.0
        assert payload["dg_dalpha"] is None

    def test_bad_delta_exits_2_and_names_it(self, capsys):
        rc, _, err = run(capsys, "green", "--alpha", "0", "--delta", "1.5", "--x", "0")
        assert rc == 2
        assert "delta" in err

    def test_csv_format(self, capsys):
        rc, out, _ = run(capsys, "green", "--alpha", "-0.3", "--delta", "0.4",
                         "--x", "-0.2", "--format", "csv")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha,delta,x,g,dg_dalpha,c,c_dot,err_estimate"
        assert len(lines) == 2
        assert "\r" not in out

    def test_quadrature_failure_exits_3(self, capsys, monkeypatch):
        for name, value in (("_MAX_DEPTH", 1), ("_ABS_TOL", 1e-300),
                            ("_REL_TOL", 1e-300), ("_BASE_NODES", 4)):
            monkeypatch.setattr(green, name, value)
        rc, _, err = run(capsys, "green", "--alpha", "-0.599999", "--delta", "0.4",
                         "--x", "-0.9")
        assert rc == 3
        assert "numerical failure" in err


class TestDiagramCommand:
    def test_row_count(self, capsys):
        rc, out, _ = run(capsys, "diagram", "--delta", "0.4", "--points", "40",
                         "--format", "csv")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,g_remez,phi,source,alpha,region"
        assert len(lines) == 1 + 40 + 3  # grid points plus three breakpoints

    def test_svg_structure(self, capsys):
        rc, out, _ = run(capsys, "diagram", "--delta", "0.4", "--points", "24",
                         "--format", "svg")
        assert rc == 0
        assert out.startswith("<svg")
        assert out.count("<polyline") == 2
        assert out.count("<line") == 3
        assert out.rstrip().endswith("</svg>")

    def test_degenerate_delta_warns(self, capsys):
        rc, out, err = run(capsys, "diagram", "--delta", "0.6", "--points", "8",
                           "--format", "csv")
        assert rc == 0
        assert "0.6" in err and "region" in err
        for line in out.strip().split("\n")[1:]:
            assert line.endswith(",")  # region column empty

    def test_json_format(self, capsys):
        rc, out, _ = run(capsys, "diagram", "--delta", "0.45", "--points", "8",
                         "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["delta"] == 0.45
        assert len(payload["rows"]) == 11

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        rc, out, _ = run(capsys, "diagram", "--delta", "0.6", "--points", "4",
                         "--format", "csv", "--output", str(target))
        assert rc == 0
        assert out == ""
        assert target.read_text().startswith("x,g_remez")


class TestExtremalCommand:
    def test_symmetric_akhiezer_value(self, capsys):
        rc, out, _ = run(capsys, "extremal", "--set", "[[-1,-0.5],[0.5,1]]",
                         "--x0", "0", "--n", "6")
        assert rc == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(cheb_T(3, 5.0 / 3.0), rel=1e-9)
        assert payload["case_tag"] == "none"

    def test_extension_at_degree_50(self, capsys):
        rc, out, _ = run(capsys, "extremal", "--set", "[[-1,-0.7],[0.1,1]]",
                         "--x0", "-0.3", "--n", "50")
        assert rc == 0
        comps = json.loads(out)["n_extension"]
        for lo, hi in ((-1.0, -0.7), (0.1, 1.0)):
            assert any(a - 1e-6 <= lo and hi <= b + 1e-6 for a, b in comps)

    def test_set_file(self, capsys, tmp_path):
        f = tmp_path / "set.json"
        f.write_text("[[-1,-0.5],[0.5,1]]")
        rc, out, _ = run(capsys, "extremal", "--set-file", str(f),
                         "--x0", "0", "--n", "4", "--format", "csv")
        assert rc == 0
        assert out.startswith("value,case_tag")

    def test_missing_set(self, capsys):
        rc, _, err = run(capsys, "extremal", "--x0", "0", "--n", "4")
        assert rc == 2
        assert "set" in err

    def test_malformed_set(self, capsys):
        rc, _, err = run(capsys, "extremal", "--set", "oops", "--x0", "0", "--n", "4")
        assert rc == 2


class TestAndrievskiiCommand:
    def test_left_endpoint_remez(self, capsys):
        rc, out, _ = run(capsys, "andrievskii", "--x0", "-1", "--delta", "0.4",
                         "--n", "10")
        assert rc == 0
        payload = json.loads(out)
        assert payload["best"] == "remez"
        assert payload["value"] == pytest.approx(cheb_T(10, 7.0 / 3.0), rel=1e-10)

    def test_json_carries_the_alpha_certificate(self, capsys):
        rc, out, _ = run(capsys, "andrievskii", "--x0", "-0.25", "--delta", "0.4",
                         "--n", "6")
        assert rc == 0
        payload = json.loads(out)
        assert payload["best"] == "akhiezer"
        left, right = payload["dvalue_dalpha"]
        assert left >= 0.0 >= right

    def test_csv(self, capsys):
        rc, out, _ = run(capsys, "andrievskii", "--x0", "-1", "--delta", "0.4",
                         "--n", "6", "--format", "csv")
        assert rc == 0
        assert out.splitlines()[0] == "x0,delta,n,value,best,best_alpha"


class TestVerifyCommand:
    def test_closed_forms_suite_passes(self, capsys):
        rc, out, _ = run(capsys, "verify", "--suite", "closed-forms")
        assert rc == 0
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_brute_force_suite_deterministic(self, capsys):
        rc1, out1, _ = run(capsys, "verify", "--suite", "brute-force",
                           "--trials", "10", "--seed", "42", "--n", "4")
        rc2, out2, _ = run(capsys, "verify", "--suite", "brute-force",
                           "--trials", "10", "--seed", "42", "--n", "4")
        assert rc1 == rc2 == 0
        assert out1 == out2


class TestArgumentHandling:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
