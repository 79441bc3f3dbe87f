import csv
import json
import math
import os
import subprocess
import sys
from collections import Counter

import pytest

import fbmsig
from fbmsig import cli, cubature, sde
from fbmsig import gridapprox as ga
from fbmsig.cli import main
from fbmsig.expected import decay_bound_check
from fbmsig.tensor import Word


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    rc = main(list(argv) + ["--out", str(out)])
    return rc, out.read_text() if out.exists() else ""


def read_csv(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    return list(csv.reader(lines))


class TestExpectedSig:
    def test_table_rows(self, tmp_path):
        rc, text = run(
            tmp_path, "expected-sig", "--H", "0.75", "--words", "1,1;1;1,2",
            "--no-timestamp",
        )
        assert rc == 0
        rows = read_csv(text)
        assert rows[0][0] == "word"
        body = {r[0]: r for r in rows[1:]}
        assert float(body["1,1"][2]) == 0.5
        assert float(body["1"][2]) == 0.0
        assert float(body["1,2"][2]) == 0.0

    def test_tolerance_exit_code(self, tmp_path, capsys):
        rc, _ = run(
            tmp_path, "expected-sig", "--H", "0.75", "--words", "1,2,1,2",
            "--tol", "1e-18",
        )
        assert rc == 3
        capsys.readouterr()
        rc = main(["convergence", "--H", "0.75", "--words", "1,2,1,2",
                   "--m", "4,8,16,32", "--tol", "1e-18"])
        out, err = capsys.readouterr()
        assert rc == 3
        assert out == ""
        assert err.startswith("error: quadrature for word (1,2,1,2)")

    def test_nan_tolerance_is_usage_error(self, tmp_path, capsys):
        # with the gate off this printed the even moment E[B^6]/6! as -0.0179
        rc, text = run(tmp_path, "expected-sig", "--H", "0.5001", "--words",
                       "1,1,1,1,1,1", "--tol", "nan")
        assert rc == 2 and text == ""
        assert "tolerance must be > 0" in capsys.readouterr().err

    def test_bound_columns_match_decay_bound_check(self, tmp_path):
        words = "1,1;1,1,1,1;1,1,2,2;1,2,1,2"
        rc, text = run(tmp_path, "expected-sig", "--H", "0.6,0.9", "--words",
                       words, "--no-timestamp")
        assert rc == 0
        rows = read_csv(text)
        header = rows[0]
        assert len(rows) == 1 + 4 * 2
        for row in rows[1:]:
            col = dict(zip(header, row))
            rep = decay_bound_check(Word.parse(col["word"]), float(col["H"]))
            assert float(col["value"]) == rep.value
            assert float(col["err_bar"]) == rep.quad_error
            assert float(col["bound"]) == rep.bound
            assert float(col["refined_bound"]) == rep.refined_bound
            assert col["pass"] == str(rep.passed)


class TestApproxSig:
    def test_values(self, tmp_path):
        rc, text = run(
            tmp_path, "approx-sig", "--H", "0.8", "--words", "1,1,2,2",
            "--m", "1,2", "--no-timestamp",
        )
        assert rc == 0
        rows = read_csv(text)
        assert float(rows[1][3]) == pytest.approx(1.0 / 24.0, abs=1e-15)


class TestConvergence:
    def test_one_letter_word_is_usage_error(self, tmp_path, capsys):
        rc, text = run(tmp_path, "convergence", "--words", "1", "--no-timestamp")
        assert rc == 2 and text == ""
        assert "error: coefficient bound needs at least 2 letters, got word (1)" in \
            capsys.readouterr().err

    def test_time_letter_word_is_named(self, tmp_path, capsys):
        rc, text = run(tmp_path, "convergence", "--words", "1,1;0", "--no-timestamp")
        assert rc == 2 and text == ""
        assert "pure-fBm words, got word (0)" in capsys.readouterr().err

    def test_summary_row(self, tmp_path):
        rc, text = run(
            tmp_path, "convergence", "--H", "0.6", "--words", "1,1,2,2",
            "--m", "4,8,16,32", "--no-timestamp",
        )
        assert rc == 0
        rows = read_csv(text)
        header = rows[0]
        summary = [r for r in rows[1:] if r[header.index("kind")] == "summary"]
        assert len(summary) == 1
        slope = float(summary[0][header.index("slope")])
        assert -1.5 < slope < -0.8
        assert summary[0][header.index("bound_pass")] == "True"

    def test_summary_max_is_the_largest_row_value(self, tmp_path):
        rc, text = run(
            tmp_path, "convergence", "--H", "0.6,0.75", "--words", "1,2,1,2;1,1,2,2",
            "--m", "4,8,16,32", "--no-timestamp",
        )
        assert rc == 0
        rows = read_csv(text)
        header = rows[0]
        col = lambda name: header.index(name)
        for r in rows[1:]:
            if r[col("kind")] == "summary":
                scaled = [float(x[col("m2H_gap")]) for x in rows[1:]
                          if x[col("kind")] == "row" and x[1:3] == r[1:3]]
                assert len(scaled) == 4
                assert float(r[col("max_m2H_gap")]) == max(scaled)

    def test_zero_gap_word_notes_refusal(self, tmp_path):
        rc, text = run(
            tmp_path, "convergence", "--H", "0.75", "--words", "1,1",
            "--m", "4,8,16,32", "--no-timestamp",
        )
        assert rc == 0
        rows = read_csv(text)
        header = rows[0]
        summary = [r for r in rows[1:] if r[header.index("kind")] == "summary"][0]
        assert "identically zero" in summary[header.index("note")]

    def test_needs_four_grids(self, tmp_path):
        rc, _ = run(tmp_path, "convergence", "--m", "4,8,16")
        assert rc == 2

    @pytest.mark.parametrize("ms", ["4,4,4,4", "8,8,16,16", "4,8,16,8"])
    def test_repeated_grid_sizes_count_once(self, tmp_path, capsys, ms):
        rc, text = run(tmp_path, "convergence", "--H", "0.75", "--words", "1,2,1,2",
                       "--m", ms)
        assert rc == 2 and text == ""
        assert "4 distinct grid sizes" in capsys.readouterr().err

    def test_grid_beyond_budget_is_usage_error(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "convergence", "--m", "4,8,16,8192")
        assert rc == 2
        assert "budget" in capsys.readouterr().err

    def test_each_value_computed_once(self, tmp_path, monkeypatch):
        calls = Counter()

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                calls[key(*args)] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ga, "expected_word", counted(
            ga.expected_word, lambda w, H, *rest: ("exact", str(w), H)))
        monkeypatch.setattr(ga, "approx_expected_word", counted(
            ga.approx_expected_word, lambda w, H, m, *rest: ("approx", str(w), H, m)))
        rc, _ = run(
            tmp_path, "convergence", "--H", "0.6,0.75", "--words", "1,2,1,2;1,1,2,2",
            "--m", "4,8,16,32", "--no-timestamp",
        )
        assert rc == 0
        assert sum(1 for key in calls if key[0] == "exact") == 2 * 2
        assert sum(1 for key in calls if key[0] == "approx") == 2 * 2 * 4
        assert set(calls.values()) == {1}


class TestCubature:
    def test_verify_pass(self, tmp_path):
        rc, text = run(
            tmp_path, "cubature", "verify", "--H", "0.5", "--degree", "5",
            "--no-timestamp",
        )
        assert rc == 0
        rows = read_csv(text)
        assert all(r[-1] == "True" for r in rows[1:])

    def test_verify_failure_exit_code(self, tmp_path):
        rc, _ = run(tmp_path, "cubature", "verify", "--H", "0.5", "--degree", "6")
        assert rc == 1

    def test_negative_degree_is_usage_error(self, tmp_path, capsys):
        # an empty table must not count as a pass
        rc, text = run(tmp_path, "cubature", "verify", "--H", "0.6", "--degree", "-3")
        assert rc == 2 and text == ""
        assert "degree must be >= 0" in capsys.readouterr().err

    def test_degree_zero_checks_the_empty_word(self, tmp_path):
        rc, text = run(tmp_path, "cubature", "verify", "--H", "0.6", "--degree", "0",
                       "--no-timestamp")
        assert rc == 0
        rows = read_csv(text)
        assert len(rows) == 2
        assert rows[1][rows[0].index("word")] == "" and rows[1][-1] == "True"

    def test_solve_both_branches(self, tmp_path):
        rc, text = run(
            tmp_path, "cubature", "solve", "--H", "0.6", "--branch", "both",
            "--no-timestamp",
        )
        assert rc == 0
        rows = read_csv(text)
        assert [r[1] for r in rows[1:]] == ["minus", "plus"]
        assert all(float(r[-1]) < 1e-10 for r in rows[1:])


class TestSde:
    def test_compare_quadratic(self, tmp_path):
        rc, text = run(
            tmp_path, "sde", "compare", "--H", "0.75", "--T", "1", "--paths",
            "500", "--steps", "16", "--seed", "7", "--x0", "0.3",
            "--no-timestamp",
        )
        assert rc == 0
        rows = read_csv(text)
        header, row = rows[0], rows[1]
        cub = float(row[header.index("cubature_value")])
        assert cub == pytest.approx(0.09 + 1.0, abs=1e-10)
        mc = float(row[header.index("mc_value")])
        se = float(row[header.index("mc_stderr")])
        assert abs(mc - cub) < 5 * se

    @pytest.mark.parametrize("flag", ["--x0", "--T", "--M", "--gamma"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_input_is_usage_error(self, tmp_path, capsys, flag, value):
        rc, text = run(tmp_path, "sde", "compare", "--paths", "8", "--steps", "4",
                       f"{flag}={value}")
        assert rc == 2 and text == ""
        assert f"{flag} must be finite" in capsys.readouterr().err

    def test_single_path_is_usage_error(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "sde", "compare", "--paths", "1", "--steps", "4")
        assert rc == 2
        assert "n_paths must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["0", "-3", str(ga._MAX_GRID + 1)])
    def test_steps_out_of_range_fails_before_any_solve(self, tmp_path, capsys,
                                                       monkeypatch, steps):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking --steps")

        monkeypatch.setattr(sde, "cubature_weak_value", no_solve)
        monkeypatch.setattr(sde, "mc_weak_value", no_solve)
        rc, text = run(tmp_path, "sde", "compare", "--paths", "8", "--steps", steps)
        assert rc == 2 and text == ""
        assert f"--steps must lie in [1, {ga._MAX_GRID}], got {steps}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("H", ["0.5", "1", "nan"])
    def test_hurst_out_of_range_fails_before_any_solve(self, tmp_path, capsys,
                                                       monkeypatch, H):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking --H")

        monkeypatch.setattr(sde, "cubature_weak_value", no_solve)
        monkeypatch.setattr(sde, "mc_weak_value", no_solve)
        rc, text = run(tmp_path, "sde", "compare", "--H", H, "--paths", "8",
                       "--steps", "4")
        assert rc == 2 and text == ""
        assert "H must lie in (1/2, 1)" in capsys.readouterr().err

    def test_steps_at_the_cap_reach_the_solver(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(sde, "cubature_weak_value", lambda *args: 1.0)
        monkeypatch.setattr(sde, "mc_weak_value",
                            lambda *args: seen.append(args[6]) or (1.0, 0.1))
        rc, _ = run(tmp_path, "sde", "compare", "--paths", "8", "--steps",
                    str(ga._MAX_GRID))
        assert rc == 0 and seen == [ga._MAX_GRID]

    @pytest.mark.parametrize("flag, value", [("--x0", "1e200")])
    def test_overflowing_weak_value_is_usage_error(self, tmp_path, capsys, flag, value):
        # y^2 overflows at x0 = 1e200
        with pytest.warns(RuntimeWarning, match="overflow"):
            rc, text = run(tmp_path, "sde", "compare", "--paths", "8", "--steps", "4",
                           flag, value)
        assert rc == 2 and text == ""
        assert "reduce --x0 or --T" in capsys.readouterr().err

    @pytest.mark.parametrize("T", ["1e300", "1e-300"])
    def test_covariance_scale_outside_float_range_is_usage_error(self, tmp_path,
                                                                 capsys, T):
        rc, text = run(tmp_path, "sde", "compare", "--problem", "zero", "--paths", "8",
                       "--steps", "4", "--T", T)
        assert rc == 2 and text == ""
        assert "covariance scale" in capsys.readouterr().err

    @pytest.mark.parametrize("H, T, problem", [("0.75", "1e150", "zero"),
                                               ("0.75", "1e150", "quadratic"),
                                               ("0.6", "1e100", "quadratic")])
    def test_huge_horizon_prints_finite_values_and_inf_bound(self, tmp_path, H, T,
                                                             problem):
        rc, text = run(tmp_path, "sde", "compare", "--H", H, "--T", T, "--problem",
                       problem, "--paths", "8", "--steps", "4", "--x0", "0.5",
                       "--no-timestamp")
        assert rc == 0
        header, row = read_csv(text)
        for col in ("cubature_value", "mc_value", "mc_stderr"):
            assert math.isfinite(float(row[header.index(col)]))
        assert row[header.index("bound_value")] == "inf"

    def test_tiny_horizon_has_a_nonzero_standard_error(self, tmp_path):
        # the squared deviations (~1e-602) underflow inside a plain std
        rc, text = run(tmp_path, "sde", "compare", "--T", "1e-200", "--paths", "100",
                       "--steps", "8", "--no-timestamp")
        assert rc == 0
        header, row = read_csv(text)
        cub, mc, se = (float(row[header.index(c)])
                       for c in ("cubature_value", "mc_value", "mc_stderr"))
        assert se > 0.0
        assert abs(mc - cub) <= 4.0 * se

    @pytest.mark.parametrize("H, T, problem, seed", [("0.75", "1", "quadratic", "7"),
                                                     ("0.6", "0.3", "quadratic", "8"),
                                                     ("0.9", "2.5", "zero", "9")])
    def test_printed_values_are_the_library_calls(self, tmp_path, H, T, problem, seed):
        rc, text = run(tmp_path, "sde", "compare", "--H", H, "--T", T, "--problem",
                       problem, "--paths", "50", "--steps", "8", "--seed", seed,
                       "--x0", "0.3", "--M", "0.7", "--gamma", "0.1",
                       "--no-timestamp")
        assert rc == 0
        header, row = read_csv(text)
        h, t = float(H), float(T)
        vf, f, state0 = cli._sde_problem(problem, 0.3)
        formula = cubature.three_path_formula(h)
        mc, se = sde.mc_weak_value(vf, f, state0, h, t, 50, 8, int(seed))
        shape = sde.error_bound_shape(
            sde.ErrorBoundParams(0.7, 0.1, d=1, degree=formula.claimed_degree, H=h), t)
        want = {"cubature_value": sde.cubature_weak_value(vf, f, state0, formula, t),
                "mc_value": mc, "mc_stderr": se, "bound_value": shape.value}
        for col, value in want.items():
            assert float(row[header.index(col)]) == value
        assert row[header.index("bound_branch")] == shape.branch


class TestBounds:
    def test_columns(self, tmp_path):
        rc, text = run(
            tmp_path, "bounds", "--H", "0.75", "--T", "0.5,2", "--no-timestamp",
        )
        assert rc == 0
        rows = read_csv(text)
        assert rows[0][:2] == ["H", "A"]
        assert len(rows) == 3
        assert rows[1][-1] == "T<1" and rows[2][-1] == "T>=1"

    @pytest.mark.parametrize("flag", ["--T", "--M", "--gamma"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_input_is_usage_error(self, tmp_path, capsys, flag, value):
        rc, text = run(tmp_path, "bounds", "--H", "0.75", f"{flag}={value}")
        assert rc == 2 and text == ""
        assert f"{flag} must be finite" in capsys.readouterr().err

    def test_overflowing_horizon_prints_inf(self, tmp_path):
        rc, text = run(tmp_path, "bounds", "--H", "0.75", "--T", "1e150",
                       "--no-timestamp")
        assert rc == 0
        rows = read_csv(text)
        assert rows[1][rows[0].index("bound_shape")] == "inf"

    def test_overflowing_series_prints_inf(self, tmp_path):
        rc, text = run(
            tmp_path, "bounds", "--H", "0.501", "--T", "3", "--M", "2",
            "--gamma", "0.2", "--no-timestamp",
        )
        assert rc == 0
        rows = read_csv(text)
        assert rows[1][rows[0].index("bound_shape")] == "inf"

    def test_negative_degree_is_usage_error(self, tmp_path, capsys):
        rc, text = run(tmp_path, "bounds", "--H", "0.75", "--degree", "-9")
        assert rc == 2 and text == ""
        assert "degree must be >= 0" in capsys.readouterr().err

    def test_degree_zero_is_valid(self, tmp_path):
        rc, text = run(tmp_path, "bounds", "--H", "0.75", "--T", "0.5,2",
                       "--degree", "0", "--no-timestamp")
        assert rc == 0
        rows = read_csv(text)
        assert len(rows) == 3
        assert all(math.isfinite(float(r[rows[0].index("bound_shape")])) for r in rows[1:])


class TestHarness:
    def test_byte_identical_reruns(self, tmp_path):
        args = ("expected-sig", "--H", "0.6,0.9", "--words", "1,1;1,0,1",
                "--no-timestamp")
        _, a = run(tmp_path, *args)
        _, b = run(tmp_path, *args)
        assert a == b

    def test_csv_json_encode_identical_values(self, tmp_path):
        args = ("expected-sig", "--H", "0.75", "--words", "1,0,1", "--no-timestamp")
        _, text_csv = run(tmp_path, *args)
        _, text_json = run(tmp_path, *args, "--format", "json")
        csv_rows = read_csv(text_csv)
        payload = json.loads(text_json)
        assert payload["columns"] == csv_rows[0]
        assert payload["rows"] == csv_rows[1:]

    def test_timestamp_header_present_by_default(self, tmp_path):
        _, text = run(tmp_path, "expected-sig", "--H", "0.75", "--words", "1")
        assert text.startswith("# generated ")

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("H=0.9\nwords=1,1;1,0,1\nm=1,2\n")
        rc, text = run(
            tmp_path, "approx-sig", "--config", str(cfg), "--words", "1,1",
            "--no-timestamp",
        )
        assert rc == 0
        rows = read_csv(text)
        assert {r[0] for r in rows[1:]} == {"1,1"}            # flag wins
        assert {float(r[1]) for r in rows[1:]} == {0.9}       # config fills H
        assert {r[2] for r in rows[1:]} == {"1", "2"}         # config fills m

    def test_unknown_problem_is_usage_error(self, tmp_path):
        rc, _ = run(tmp_path, "sde", "compare", "--problem", "cubic")
        assert rc == 2

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", (
        ["bounds", "--tol", "1e-3"],
        ["approx-sig", "--tol", "1e-3"],
        ["sde", "compare", "--tol", "1e-3"],
        ["cubature", "solve", "--H", "0.6", "--tol", "banana"],
        ["cubature", "solve", "--H", "0.6", "--degree", "3"],
    ))
    def test_tol_refused_without_quadrature(self, argv, capsys):
        # only expected-sig, convergence and cubature verify read a tolerance
        # (and only cubature verify a degree)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert argv[-2] in capsys.readouterr().err


def test_import_leaves_scipy_stats_unloaded():
    # the runtime needs numpy and the standard library only, so neither
    # importing the CLI nor running any command may load a scipy module
    src = os.path.dirname(os.path.dirname(fbmsig.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    commands = (
        ["expected-sig", "--words", "1,2,1,2"],
        ["convergence", "--m", "4,8,16,32"],
        ["approx-sig", "--words", "1,1,2,2", "--m", "4,8"],
        ["bounds", "--H", "0.6,0.9"],
        ["cubature", "verify", "--H", "0.5", "--degree", "5"],
        ["cubature", "solve", "--H", "0.6", "--branch", "both"],
        ["sde", "compare", "--paths", "8", "--steps", "16"],
    )
    code = (
        "import os, sys\n"
        "from fbmsig.cli import main\n"
        "def scipy_modules():\n"
        "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not scipy_modules(), scipy_modules()\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv + ['--out', os.devnull]) == 0, argv\n"
        "    assert not scipy_modules(), (argv, scipy_modules())\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
