import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chebgap import cli, green
from chebgap.chebyshev import cheb_T
from chebgap.cli import build_parser, main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_process(*argv):
    """`python -m chebgap.cli` in a subprocess; a timeout turns a hang into
    a failure."""
    src = str(Path(green.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "chebgap.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


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

    def test_alpha_within_an_ulp_of_the_clip_exits_2(self):
        # 1 + alpha - delta rounds to 0 here
        proc = run_process("green", "--alpha=-0.49999999999999994", "--delta=0.5", "--x=-0.9")
        assert proc.returncode == 2, proc.stderr
        assert "alpha" in proc.stderr

    def test_csv_format(self, capsys):
        rc, out, _ = run(capsys, "green", "--alpha", "-0.3", "--delta", "0.4",
                         "--x", "-0.2", "--format", "csv")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha,delta,x,g,dg_dalpha,c,c_dot,err_estimate"
        assert len(lines) == 2
        assert "\r" not in out

    def test_quadrature_failure_exits_3(self, capsys, monkeypatch):
        for name, value in (("_MAX_PANELS", 7), ("_ABS_TOL", 1e-300),
                            ("_REL_TOL", 1e-300), ("_BASE_NODES", 4)):
            monkeypatch.setattr(green, name, value)
        rc, _, err = run(capsys, "green", "--alpha", "-0.599999", "--delta", "0.4",
                         "--x", "-0.9")
        assert rc == 3
        assert "numerical failure" in err


class TestStatsFlag:
    EXTREMAL = ("extremal", "--set", "[[-1,-0.7],[0.1,1]]", "--x0", "-0.3", "--n", "50")

    def test_stdout_is_unchanged_and_counters_go_to_stderr(self, capsys):
        rc, out, err = run(capsys, *self.EXTREMAL)
        rc_s, out_s, err_s = run(capsys, *self.EXTREMAL, "--stats")
        assert rc == rc_s == 0
        assert out_s == out
        assert err == ""
        counts = json.loads(err_s)
        assert counts["lp.solves"] == 1
        assert counts["lp.pivots"] == counts["lp.grid_pivots"]
        assert counts["lp.nodes_moved"] > 0

    def test_every_subcommand_takes_it(self, capsys):
        rc, _, err = run(capsys, "green", "--alpha", "-0.3", "--delta", "0.4",
                         "--x", "-0.2", "--stats")
        assert rc == 0
        assert json.loads(err)["quad.calls"] >= 1
        rc, _, err = run(capsys, "andrievskii", "--x0", "-0.1", "--delta", "0.4",
                         "--n", "12", "--format", "csv", "--stats")
        assert rc == 0
        counts = json.loads(err)
        assert counts["Ln.calls"] == 1
        assert counts["Ln.solves"] == counts["lp.solves"]

    def test_counters_follow_a_failure(self, capsys):
        rc, _, err = run(capsys, "green", "--alpha", "0", "--delta", "1.5", "--x", "0",
                         "--stats")
        assert rc == 2
        message, counters = err.strip().split("\n")
        assert message.startswith("error:")
        assert json.loads(counters) == {}


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

    def test_too_few_points_exit_2(self):
        # M_n is unbounded on one point at n = 2: a domain error, not a
        # numerical failure
        proc = run_process("extremal", "--set", "[[0.5,0.5]]", "--x0", "0", "--n", "2")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and "unbounded" in proc.stderr
        proc = run_process("extremal", "--set", "[[0.5,0.5],[0.7,0.7]]", "--x0", "0", "--n", "1")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["value"] == pytest.approx(6.0, rel=1e-14)

    @pytest.mark.parametrize("set_, x0, word", [
        ("[[-1,-0.5],[0.5,Infinity]]", "0", "finite"),   # used to die in np.linalg
        ("[[-1,-0.5],[0.5,1]]", "nan", "x0"),            # in an empty argmax
        ("[[-1,-0.5],[0.5,1]]", "inf", "x0"),            # in math.log
    ])
    def test_non_finite_input_exits_2(self, set_, x0, word):
        proc = run_process("extremal", "--set", set_, "--x0", x0, "--n", "6")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and word in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_value_beyond_the_float_range_exits_2(self):
        # T_200(39) = exp(870.616) overflowed in the value's math.exp
        proc = run_process("extremal", "--set", "[[0.9,1.0]]", "--x0", "-1", "--n", "200")
        assert proc.returncode == 2, proc.stderr
        assert "exp(870.616)" in proc.stderr and "float range" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_json_keys(self, capsys):
        rc, out, _ = run(capsys, "extremal", "--set", "[[-1,-0.5],[0.5,1]]",
                         "--x0", "0", "--n", "6")
        assert rc == 0
        payload = json.loads(out)
        assert set(payload) == {"value", "degree", "degree_deficient", "active_points",
                                "active_signs", "n_extension", "case_tag", "value_lo",
                                "value_hi", "rel_gap"}
        assert (payload["degree"], payload["degree_deficient"]) == (6, False)

    def test_csv_header(self, capsys):
        rc, out, _ = run(capsys, "extremal", "--set", "[[-1,-0.5],[0.5,1]]",
                         "--x0", "0", "--n", "5", "--format", "csv")
        assert rc == 0
        header, row = out.splitlines()
        assert header == "value,case_tag,degree,degree_deficient"
        assert row.split(",")[1:] == ["none", "5", "true"]


class TestAndrievskiiCommand:
    def test_left_endpoint_remez(self, capsys):
        rc, out, _ = run(capsys, "andrievskii", "--x0", "-1", "--delta", "0.4",
                         "--n", "10")
        assert rc == 0
        payload = json.loads(out)
        assert payload["best"] == "remez"
        assert payload["value"] == pytest.approx(cheb_T(10, 7.0 / 3.0), rel=1e-10)

    def test_value_beyond_the_float_range_exits_2(self):
        # the Remez value T_200(38.98) overflowed in cheb_T's math.cosh
        proc = run_process("andrievskii", "--x0", "-0.999", "--delta", "0.95", "--n", "200")
        assert proc.returncode == 2, proc.stderr
        assert "float range" in proc.stderr
        assert "Traceback" not in proc.stderr

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

    def test_residuals_suite_passes(self, capsys):
        rc, out, err = run(capsys, "verify", "--suite", "residuals")
        assert rc == 0, err


class TestArgumentHandling:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_main_builds_only_the_leading_subcommand(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_parser",
                            lambda command=None: built.append(command) or build_parser(command))
        main(["green", "--alpha", "-0.3", "--delta", "0.4", "--x", "-0.3"])
        main(["--help"])
        main(["frobnicate"])
        assert built == ["green", None, None]

    @pytest.mark.parametrize("argv", [
        ["green", "--help"],
        ["green"],
        ["green", "--alpha", "-0.3", "--delta", "0.4", "--x", "-0.3", "--bogus"],
        ["diagram", "--delta", "x"],
        ["extremal", "--x0", "1"],
        ["andrievskii", "-h"],
        ["verify", "--suite", "nope"],
    ])
    def test_one_subcommand_parser_words_like_the_full_one(self, argv, capsys):
        rc = main(argv)
        out, err = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert (rc, out, err) == (exc.value.code, *capsys.readouterr())


@pytest.mark.parametrize("argv", [
    ["extremal", "--set=[[-1,-0.7],[0.1,1]]", "--x0=-0.3", "--n=12"],
    ["diagram", "--delta=0.3", "--points=20", "--format=svg"],
])
def test_a_run_leaves_numpy_ma_unimported(argv):
    # np.unique imports numpy.ma, which costs a fresh process about 0.7 MB
    # of peak RSS; the n-extension's sample and the SVG alpha grid drop
    # their repeats by a sort and a mask instead
    script = ("import sys\n"
              "from chebgap.cli import main\n"
              f"assert main({argv!r}) == 0\n"
              "print('numpy.ma' in sys.modules, file=sys.stderr)\n")
    src = str(Path(green.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "False"
