import csv
import importlib
import importlib.util
import io
import itertools
import json
import math
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import fbmsig
from fbmsig import cli, cubature, sde
from fbmsig import gridapprox as ga
from fbmsig import simplexquad as sq
from fbmsig.cli import main
from fbmsig.expected import decay_bound_check, expected_word
from fbmsig.tensor import Word


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    rc = main(list(argv) + ["--out", str(out)])
    return rc, out.read_text() if out.exists() else ""


CEILING = "m = 262145 exceeds the grid ceiling of 262144 cells"
SIX = "word length capped at 4 (grid approximation), got word (1,1,1,1,1,1)"


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

    def test_refused_word_is_named(self, tmp_path, capsys):
        rc, text = run(tmp_path, "expected-sig", "--words", "1,1;1,1,1,1,1,1,1,1,1,1",
                       "--no-timestamp")
        assert rc == 2 and text == ""
        assert "at most 8 nonzero letters supported, got word (1,1,1,1,1,1,1,1,1,1)" in \
            capsys.readouterr().err

    def test_eight_letter_word_meets_its_bound(self, tmp_path):
        # E[B_1^8] / 8! = 105 / 40320 = 1 / 384, the k = 4 decay bound itself
        rc, text = run(tmp_path, "expected-sig", "--H", "0.7", "--words",
                       "1,1,1,1,1,1,1,1", "--no-timestamp")
        assert rc == 0
        header, row = read_csv(text)
        assert float(row[header.index("bound")]) == 1.0 / 384.0
        assert row[header.index("pass")] == "True"

    def test_eight_letters_near_half_miss_the_tolerance(self, tmp_path, capsys):
        # the reversal gap of 1^8 at H = 0.5001 is far above the default tol
        rc, text = run(tmp_path, "expected-sig", "--H", "0.5001", "--words",
                       "1,1,1,1,1,1,1,1", "--no-timestamp")
        assert rc == 3 and text == ""
        assert capsys.readouterr().err.startswith(
            "error: quadrature for word (1,1,1,1,1,1,1,1)")

    def test_odd_word_beyond_letter_cap_is_zero(self, tmp_path):
        # letter 1 occurs nine times, so the value is exactly 0 without
        # quadrature; ten letters stay refused (test_refused_word_is_named)
        rc, text = run(tmp_path, "expected-sig", "--H", "0.7", "--words",
                       "1,1,1,1,1,1,1,1,1", "--no-timestamp")
        assert rc == 0
        header, row = read_csv(text)
        assert float(row[header.index("value")]) == 0.0
        assert float(row[header.index("err_bar")]) == 0.0

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
            rep = decay_bound_check(cli._parse_words(col["word"])[0][0], float(col["H"]))
            assert float(col["value"]) == rep.value
            assert float(col["err_bar"]) == rep.quad_error
            assert float(col["bound"]) == rep.bound
            assert float(col["refined_bound"]) == rep.refined_bound
            assert col["pass"] == str(rep.passed)


    def test_labels_are_canonical(self, tmp_path):
        # a row is labelled with its word's letters, not the text as typed
        args = ("expected-sig", "--H", "0.7", "--words", "1, 1;+1,0,1",
                "--no-timestamp")
        rc, text = run(tmp_path, *args)
        assert rc == 0
        rows = read_csv(text)
        assert [r[0] for r in rows[1:]] == ["1,1", "1,0,1"]
        _, text_json = run(tmp_path, *args, "--format", "json")
        assert json.loads(text_json)["rows"] == rows[1:]

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    def test_bytes_match_a_reference_written_through_fmt(self, tmp_path, fmt):
        # odd words (value 0), a pure time word, time-letter words, decay-bound
        # words with their pass cell, and a word typed non-canonically
        texts = [" 1, +1", "1,2,1", "1,1,1", "0,0,0", "1,0,1", "0,1,1,0",
                 "1,1,2,2", "1,2,1,2", "1,2,2,1,3,3", "1,1,1,1,1,1"]
        want, passed = _reference_table(texts, (0.6, 0.7341), fmt)
        out = tmp_path / f"out.{fmt}"
        rc = main(["expected-sig", "--H", "0.6,0.7341", "--words", ";".join(texts),
                   "--no-timestamp", "--format", fmt, "--out", str(out)])
        assert rc == (0 if passed else 1)
        assert out.read_bytes() == want

    @pytest.mark.parametrize("table", ("pairs", 4, 5, 6))
    def test_benchmark_tables_match_the_reference_after_warming(self, tmp_path, table):
        # the exact workload's 16-, 51-, 187- and 715-word tables: each word's
        # cells are kept from a table at another H, and the rows at a fresh
        # H must still be those built word by word
        if table == "pairs":
            words = [",".join(map(str, w)) for w in itertools.product((1, 2), repeat=4)]
        else:
            words = _canonical_words(table)
        assert len(words) == {"pairs": 16, 4: 51, 5: 187, 6: 715}[table]
        out = tmp_path / "out"
        assert main(["expected-sig", "--H", "0.7341", "--words", ";".join(words),
                     "--out", str(out)]) == 0
        for H in ("0.55", "0.6123", "0.9999"):
            for fmt in ("csv", "json"):
                want, passed = _reference_table(words, (float(H),), fmt)
                rc = main(["expected-sig", "--H", H, "--words", ";".join(words),
                           "--no-timestamp", "--format", fmt, "--out", str(out)])
                assert rc == (0 if passed else 1)
                assert out.read_bytes() == want, (H, fmt)

    @pytest.mark.parametrize("H, words, code, message", (
        ("0.5001,1.5", "1,1,1,1,1,1,1,1", 3, "error: quadrature for word (1,1,1,1,1,1,1,1)"),
        ("0.7,1.5", "1,2;1,1,1,1,1,1,1,1,1,1", 2, "error: H must lie in (1/2, 1), got 1.5"),
        ("1.5", "1,1,1,1,1,1,1,1,1,1", 2, "error: H must lie in (1/2, 1), got 1.5"),
        ("0.7", "1,2;1,1,1,1,1,1,1,1,1,1", 2, "error: at most 8 nonzero letters"),
    ))
    def test_first_error_is_kept(self, tmp_path, capsys, H, words, code, message):
        # the H of each (word, H) is checked before the word's plan is read,
        # whether or not the word's cells are kept from an earlier table
        for _ in range(2):
            rc, text = run(tmp_path, "expected-sig", "--H", H, "--words", words)
            assert rc == code and text == ""
            assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("n", (14, 36, 302))
    def test_long_odd_word_is_zero(self, tmp_path, capsys, n):
        # letter 1 occurs n - 1 times and letter 2 once: the value and its
        # candidate are 0 without enumerating the n positions; from n = 302
        # the bound 1/(k! 2^k) is subnormal
        text = ",".join(["1"] * (n - 1) + ["2"])
        rc, out = run(tmp_path, "expected-sig", "--H", "0.7", "--words", text,
                      "--no-timestamp")
        assert rc == 0
        header, row = read_csv(out)
        col = dict(zip(header, row))
        assert (col["value"], col["err_bar"], col["pass"]) == ("0", "0", "True")
        k = n // 2
        assert 0 < float(col["bound"]) == 1 / (math.factorial(k) * 2**k)
        assert main(["expected-sig", "--H", "0.7", "--words", ",".join(["1"] * n),
                     "--out", str(tmp_path / "refused.csv")]) == 2
        assert not (tmp_path / "refused.csv").exists()
        assert "at most 8 nonzero letters" in capsys.readouterr().err

    @pytest.mark.parametrize("n", (171, 200))
    def test_long_time_word_underflows(self, tmp_path, n):
        # 1/n! is below the smallest normal double from n = 171 on: it
        # rounds to a subnormal, then to 0, instead of overflowing
        rc, out = run(tmp_path, "expected-sig", "--H", "0.7", "--words",
                      ",".join(["0"] * n), "--no-timestamp")
        assert rc == 0
        header, row = read_csv(out)
        col = dict(zip(header, row))
        assert float(col["value"]) == 1 / math.factorial(n)
        assert (n == 171) == (float(col["value"]) > 0)
        assert (col["err_bar"], col["pass"]) == ("0", "")


def _canonical_words(length):
    """Words over {0,1,2,3} whose nonzero letters first appear as 1, 2, 3."""
    out = []
    for word in itertools.product(range(4), repeat=length):
        seen = [x for i, x in enumerate(word) if x and x not in word[:i]]
        if seen == list(range(1, len(seen) + 1)):
            out.append(",".join(map(str, word)))
    return out


def _reference_table(texts, hs, fmt):
    """The --no-timestamp bytes of an expected-sig table built word by word
    through expected_word / decay_bound_check and _fmt, and whether every
    decay check passes."""
    columns = ["word", "H", "value", "err_bar", "bound", "refined_bound", "pass"]
    rows, passed = [], True
    for text in texts:
        letters = tuple(int(t) for t in text.split(","))
        word = Word(letters, max(1, *letters))
        for H in hs:
            if len(letters) % 2 == 0 and 0 not in letters:
                rep = decay_bound_check(word, H)
                cells = [rep.value, rep.quad_error, rep.bound, rep.refined_bound,
                         rep.passed]
                passed &= rep.passed
            else:
                cells = [*expected_word(word, H), None, None, None]
            label = ",".join(str(x) for x in letters)
            rows.append([cli._fmt(x) for x in [label, H, *cells]])
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([columns, *rows])
        return buf.getvalue().encode(), passed
    return (json.dumps({"columns": columns, "rows": rows}, indent=1) + "\n").encode(), passed


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
        rc, _ = run(tmp_path, "convergence", "--m", "4,8,16,262145")
        assert rc == 2
        assert "grid ceiling of 262144 cells" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["convergence", "--H", "0.6,0.75", "--words", "1,2,1,2",
          "--m", "16384,65536,262144,262145"], CEILING),
        (["convergence", "--m", "0,4,8,16"], "m must be >= 1, got 0"),
        (["convergence", "--H", "0.75,0.4", "--m", "4,8,16,262145"],
         "H must lie in (1/2, 1), got 0.4"),
        (["approx-sig", "--m", "262144,262145"], CEILING),
        (["approx-sig", "--words", "1,1;1,2,1,2", "--m", "4,-3"],
         "m must be >= 1, got -3"),
        # a word the grid engine cannot take, after the H and m checks
        (["convergence", "--words", "1,1,1,1,1,1", "--m", "4,8,16,32"], SIX),
        (["convergence", "--words", "1,2,1,2;1,1,1,1,1,1,1,1", "--m", "4,8,16,32"],
         "word length capped at 4 (grid approximation), got word (1,1,1,1,1,1,1,1)"),
        (["convergence", "--words", "1,1;0,1,1", "--m", "4,8,16,32"],
         "approximation values are defined for pure-fBm words, got word (0,1,1)"),
        (["convergence", "--H", "0.4", "--words", "1,1,1,1,1,1", "--m", "4,8,16,32"],
         "H must lie in (1/2, 1), got 0.4"),
        (["convergence", "--words", "1,1,1,1,1,1", "--m", "0,8,16,32"],
         "m must be >= 1, got 0"),
        (["approx-sig", "--words", "1,1;1,1,1,1,1,1", "--m", "4,8"], SIX),
    ])
    def test_grid_outside_range_refused_before_any_value(self, tmp_path, capsys,
                                                          monkeypatch, argv, message):
        calls = Counter()

        def counted(name):
            fn = getattr(ga, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("expected_word", "approx_expected_word"):
            monkeypatch.setattr(ga, name, counted(name))
        rc, text = run(tmp_path, *argv)
        assert rc == 2 and text == ""
        assert f"error: {message}" in capsys.readouterr().err
        assert not calls

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

    def test_verify_refuses_both_branches(self, tmp_path, capsys):
        # verify checks one formula; only solve tabulates both roots
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "cubature", "verify", "--H", "0.6", "--branch", "both")
        assert exc.value.code == 2
        assert "argument --branch: invalid choice: 'both'" in capsys.readouterr().err

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

    def test_unallocatable_paths_is_usage_error(self, tmp_path, capsys):
        # 10^17 paths need 800 PB for their endpoints alone, more than any
        # address space, so the first allocation fails at once, also for the
        # zero problem, which draws nothing
        for problem in ("quadratic", "zero"):
            rc, text = run(tmp_path, "sde", "compare", "--paths", "100000000000000000",
                           "--steps", "4096", "--problem", problem)
            assert rc == 2 and text == ""
            err = capsys.readouterr().err
            assert "--paths 100000000000000000 with --steps 4096" in err

    @pytest.mark.parametrize("problem", ["quadratic", "zero"])
    def test_problem_fields_are_constants(self, problem):
        # no field is callable, so the solver takes the closed form
        fields, _, _ = cli._sde_problem(problem, 0.3)
        for field in fields:
            assert not callable(field) and np.ndim(field) == 0

    @pytest.mark.parametrize("problem", ["quadratic", "zero"])
    @pytest.mark.parametrize("seed, paths, steps", [("3", "50", "16"),
                                                    ("4", "20", "64"),
                                                    ("5", "7", "1536")])
    def test_constant_fields_print_what_array_fields_print(self, capsys, monkeypatch,
                                                           problem, seed, paths, steps):
        argv = ["sde", "compare", "--H", "0.65", "--T", "1.3", "--problem", problem,
                "--paths", paths, "--steps", steps, "--seed", seed, "--no-timestamp"]
        assert main(argv) == 0
        constant = capsys.readouterr().out
        problem_of = cli._sde_problem

        def array_fields(name, x0):
            _, f, state0 = problem_of(name, x0)
            zero = lambda y: np.zeros_like(y)
            v1 = (lambda y: np.ones_like(y)) if name == "quadratic" else zero
            return (zero, v1), f, state0

        monkeypatch.setattr(cli, "_sde_problem", array_fields)
        assert main(argv) == 0
        array = capsys.readouterr().out
        if problem == "zero":
            assert array == constant
            return
        # the closed form and RK4 differ by rounding only: by at most
        # (2 * 1536 + 14) u, 3.4e-13, of each endpoint's magnitude sum here
        # (_closed_form_bar in test_sde.py), so the printed values agree to
        # 1e-10 relative, where another sample would differ at 1e-2
        (head, got), (_, want) = (text.splitlines() for text in (constant, array))
        for name, a, b in zip(head.split(","), got.split(","), want.split(",")):
            if name in ("cubature_value", "mc_value", "mc_stderr"):
                assert abs(float(a) - float(b)) <= 1e-10 * abs(float(b))
            else:
                assert a == b

    @pytest.mark.parametrize("flag, value", [("--x0", "1e200")])
    def test_overflowing_weak_value_is_usage_error(self, tmp_path, capsys, flag, value):
        # y^2 overflows at x0 = 1e200; warnings are errors under pytest, so
        # this also checks that numpy's overflow warning stays silent
        rc, text = run(tmp_path, "sde", "compare", "--paths", "8", "--steps", "4",
                       flag, value)
        assert rc == 2 and text == ""
        assert capsys.readouterr().err == ("error: a weak value or its standard "
                                           "error overflows a double; reduce --x0 "
                                           "or --T\n")

    def test_mean_of_values_near_the_top_of_the_range(self, tmp_path):
        # every path value is 1e308: their sum overflows, their mean does not
        rc, text = run(tmp_path, "sde", "compare", "--H", "0.7", "--T", "2",
                       "--paths", "5", "--steps", "8", "--seed", "1", "--x0", "1e308",
                       "--problem", "zero")
        assert rc == 0
        header, values = read_csv(text)
        row = dict(zip(header, values))
        assert abs(float(row["mc_value"]) - 1e308) <= math.ulp(1e308)
        assert float(row["mc_stderr"]) == 0.0

    @pytest.mark.parametrize("problem", ["quadratic", "zero"])
    @pytest.mark.parametrize("T", ["1e300", "1e-300"])
    def test_covariance_scale_outside_float_range_is_usage_error(
            self, tmp_path, capsys, monkeypatch, problem, T):
        # refused before any solve, so the cubature side cannot overflow first
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking (T/steps)^(2H)")

        monkeypatch.setattr(sde, "cubature_weak_value", no_solve)
        monkeypatch.setattr(sde, "mc_weak_value", no_solve)
        rc, text = run(tmp_path, "sde", "compare", "--problem", problem, "--paths",
                       "8", "--steps", "4", "--T", T)
        assert rc == 2 and text == ""
        assert capsys.readouterr().err == (f"error: T = {float(T)} puts the "
                                           "covariance scale (T/m)^2H out of range\n")

    @pytest.mark.parametrize("T", ["-1", "0"])
    def test_non_positive_horizon_fails_before_any_solve(self, tmp_path, capsys,
                                                         monkeypatch, T):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking --T")

        monkeypatch.setattr(sde, "cubature_weak_value", no_solve)
        monkeypatch.setattr(sde, "mc_weak_value", no_solve)
        rc, text = run(tmp_path, "sde", "compare", "--paths", "8", "--steps", "4",
                       "--T", T)
        assert rc == 2 and text == ""
        assert capsys.readouterr().err == f"error: T must be positive, got {float(T)}\n"

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


# every command's flags with their defaults typed out (cubature verify's
# --degree, left to the formula's claimed degree, has none to type)
DEFAULTS = {
    "expected-sig": {"H": "0.75", "words": "1,1"},
    "approx-sig": {"H": "0.75", "words": "1,1", "m": "4,8,16,32,64"},
    "convergence": {"H": "0.75", "words": "1,2,1,2;1,1,2,2", "m": "4,8,16,32,64"},
    "cubature verify": {"H": "0.5", "branch": "minus"},
    "cubature solve": {"H": "0.5", "branch": "minus"},
    "sde compare": {"H": "0.75", "T": "1.0", "paths": "10000", "steps": "64",
                    "seed": "12345", "x0": "0.0", "problem": "quadratic",
                    "M": "1.0", "gamma": "0.0"},
    "bounds": {"H": "0.6,0.75,0.9", "T": "0.5,1,2", "M": "1.0", "gamma": "0.0",
               "degree": "5"},
}
# for each flag a value other than its default, for a config file to set
OTHER = {"H": "0.9", "words": "1,2", "m": "2,4,8,16", "branch": "plus",
         "degree": "3", "T": "2.0", "paths": "100", "steps": "8", "seed": "1",
         "x0": "0.5", "problem": "zero", "M": "2.0", "gamma": "0.5",
         "format": "json", "tol": "1e-3"}
# (command, flag, default, a value to type: the default where there is
# one): the flags above, cubature verify's --degree, --format for every
# command and --tol for the three that run quadrature
PRECEDENCE = ([(c, f, d, d) for c, flags in DEFAULTS.items() for f, d in flags.items()]
              + [("cubature verify", "degree", None, "5")]
              + [(c, "format", "csv", "csv") for c in DEFAULTS]
              + [(c, "tol", None, "1e-6")
                 for c in ("expected-sig", "convergence", "cubature verify")])


class TestHarness:
    def test_byte_identical_reruns(self, tmp_path):
        args = ("expected-sig", "--H", "0.6,0.9", "--words", "1,1;1,0,1",
                "--no-timestamp")
        _, a = run(tmp_path, *args)
        _, b = run(tmp_path, *args)
        assert a == b

    def test_csv_json_encode_identical_values(self, tmp_path):
        # convergence summaries carry empty cells, booleans and a refused
        # fit's note
        for args in (("expected-sig", "--H", "0.75", "--words", "1,0,1"),
                     ("convergence", "--H", "0.75", "--words", "1,1;1,2,1,2",
                      "--m", "4,8,16,32")):
            _, text_csv = run(tmp_path, *args, "--no-timestamp")
            _, text_json = run(tmp_path, *args, "--no-timestamp", "--format", "json")
            csv_rows = read_csv(text_csv)
            payload = json.loads(text_json)
            assert payload["columns"] == csv_rows[0]
            assert payload["rows"] == csv_rows[1:]

    @pytest.mark.parametrize("timestamp", [False, True])
    def test_json_is_json_dump_with_indent_one(self, monkeypatch, timestamp):
        # the writer lays the table out itself; json.dump(..., indent=1) of
        # the same payload, escapes, non-ASCII cells, shared-cell rows and
        # an empty table included
        monkeypatch.setattr(cli, "_now", lambda: "2026-01-01T00:00:00+00:00")
        around = cli._Around.of(("h\u00e9",), ('t"1', "\\"))
        full = [["1.5", "x\ny", "", "0"], (around, "\u2603"), ["", "\t", "0", ""]]
        for rows in (full, []):
            table = cli.TableWriter(["a", "b\u00e9", 'q"x', "d"])
            table.rows = rows
            got = io.StringIO()
            table.write(got, "json", timestamp)
            payload = {"columns": table.columns,
                       "rows": [r if type(r) is list else [*r[0].head, r[1], *r[0].tail]
                                for r in table.rows]}
            if timestamp:
                payload["generated"] = "2026-01-01T00:00:00+00:00"
            want = io.StringIO()
            json.dump(payload, want, indent=1)
            assert got.getvalue() == want.getvalue() + "\n"

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

    def test_config_key_of_no_command_is_usage_error(self, tmp_path, capsys):
        # a misspelled key ("word" for "words") must not leave the default word
        cfg = tmp_path / "run.cfg"
        cfg.write_text("word=1,2,1,2\nH=0.7\n")
        rc, text = run(tmp_path, "expected-sig", "--config", str(cfg), "--no-timestamp")
        assert rc == 2 and text == ""
        assert capsys.readouterr().err == \
            "error: config key 'word' is not an option of any command\n"

    def test_config_key_of_another_command_is_ignored(self, tmp_path):
        # one file can serve several commands: expected-sig takes no m or paths
        cfg = tmp_path / "run.cfg"
        cfg.write_text("words=1,2,1,2\nH=0.7\nm=4,8\npaths=5\n")
        rc, text = run(tmp_path, "expected-sig", "--config", str(cfg), "--no-timestamp")
        assert rc == 0
        assert [(r[0], float(r[1])) for r in read_csv(text)[1:]] == [("1,2,1,2", 0.7)]

    @pytest.mark.parametrize("fmt", ("xml", "CSV"))
    def test_config_format_outside_choices_is_usage_error(self, tmp_path, capsys, fmt):
        # argparse checks the choices of --format, not a config file's value
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"format={fmt}\n")
        rc = main(["expected-sig", "--config", str(cfg), "--no-timestamp"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == f"error: format must be csv or json, got '{fmt}'\n"

    def test_config_format_json(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=json\n")
        assert main(["expected-sig", "--config", str(cfg), "--no-timestamp"]) == 0
        from_config = capsys.readouterr().out
        assert main(["expected-sig", "--format", "json", "--no-timestamp"]) == 0
        assert from_config == capsys.readouterr().out
        assert json.loads(from_config)["columns"][0] == "word"

    @pytest.mark.parametrize("command, flag, default, typed", PRECEDENCE,
                             ids=[f"{c}-{f}" for c, f, _, _ in PRECEDENCE])
    def test_config_fills_each_flag_and_a_typed_flag_wins(self, tmp_path, command,
                                                          flag, default, typed):
        # a typed default, which argparse cannot tell from an omitted flag,
        # beats the config file too
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag}={OTHER[flag]}\n")

        def resolved(*argv):
            args = cli.build_parser().parse_args([*command.split(), *argv])
            cli._apply_config(args)
            return getattr(args, flag)

        assert resolved("--config", str(cfg)) == OTHER[flag]
        assert resolved("--config", str(cfg), f"--{flag}", typed) == typed
        assert resolved() == default

    @pytest.mark.parametrize("key", ("no-timestamp", "config"))
    def test_config_key_that_is_a_flag_only_is_usage_error(self, tmp_path, capsys,
                                                           key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=1\n")
        rc = main(["expected-sig", "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == f"error: config key {key!r} is not an option of any command\n"

    @pytest.mark.parametrize("command", DEFAULTS)
    def test_defaults_are_the_typed_values(self, capsys, command):
        typed = [a for flag, value in DEFAULTS[command].items()
                 for a in (f"--{flag}", value)]
        rc = main([*command.split(), "--no-timestamp"])
        default_out = capsys.readouterr().out
        assert main([*command.split(), *typed, "--no-timestamp"]) == rc
        assert capsys.readouterr().out == default_out

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


def _benchmark_requests(rounds: int) -> list[list[str]]:
    """Every request of the first rounds of each benchmark workload, as the
    benchmark's worker passes it to main."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [argv + ["--no-timestamp"] for name in workloads.WORKLOADS
            for r in workloads.generate(name, 3, rounds) for argv in r]


class TestDispatch:
    def test_each_request_parses_to_the_root_parsers_namespace(self):
        requests = _benchmark_requests(4)
        assert len(requests) == 4 * (8 + 21 + 13)
        for argv in requests:
            assert cli._parse(argv) == cli.build_parser().parse_args(argv), argv

    USAGE = ("usage: fbmsig [-h]\n"
             "              {expected-sig,approx-sig,convergence,cubature,sde,bounds} ...\n")

    @pytest.mark.parametrize("argv, err", [
        (["approx-sig", "--bogus", "1"],
         USAGE + "fbmsig: error: unrecognized arguments: --bogus 1\n"),
        (["cubature", "verify", "--bogus"],
         USAGE + "fbmsig: error: unrecognized arguments: --bogus\n"),
        (["sde", "compare", "extra"],
         USAGE + "fbmsig: error: unrecognized arguments: extra\n"),
        ([], USAGE + "fbmsig: error: the following arguments are required: command\n"),
        (["bogus"],
         USAGE + "fbmsig: error: argument command: invalid choice: 'bogus' (choose from "
         "'expected-sig', 'approx-sig', 'convergence', 'cubature', 'sde', 'bounds')\n"),
        (["cubature"],
         "usage: fbmsig cubature [-h] {verify,solve} ...\n"
         "fbmsig cubature: error: the following arguments are required: action\n"),
        (["cubature", "verify", "--branch", "both"],
         "usage: fbmsig cubature verify [-h] [--config CONFIG] [--out OUT]\n"
         "                              [--format {csv,json}] [--no-timestamp]\n"
         "                              [--tol TOL] [--H H] [--branch {minus,plus}]\n"
         "                              [--degree DEGREE]\n"
         "fbmsig cubature verify: error: argument --branch: invalid choice: 'both' "
         "(choose from 'minus', 'plus')\n"),
    ], ids=["leftover-flag", "leftover-action-flag", "leftover-positional", "no-command",
            "unknown-command", "no-action", "action-choice"])
    def test_usage_errors_keep_their_text(self, capsys, monkeypatch, argv, err):
        # leftovers are reported by the root parser, as parse_args reports
        # them, the rest by the parser that meets them; the width of the
        # usage lines follows COLUMNS
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", err)


class TestListFlags:
    @pytest.mark.parametrize("argv, flag", [
        (["expected-sig", "--words", ";"], "--words"),
        (["expected-sig", "--words", " ; ;"], "--words"),
        (["expected-sig", "--H", ","], "--H"),
        (["approx-sig", "--words", ";"], "--words"),
        (["approx-sig", "--m", ","], "--m"),
        (["approx-sig", "--H", ""], "--H"),
        (["bounds", "--T", ","], "--T"),
        (["bounds", "--H", ",,"], "--H"),
        (["convergence", "--H", ","], "--H"),
        (["convergence", "--m", ","], "--m"),
        (["cubature", "solve", "--H", ","], "--H"),
        (["cubature", "verify", "--H", ","], "--H"),
    ])
    def test_empty_list_is_usage_error(self, tmp_path, capsys, argv, flag):
        rc, text = run(tmp_path, *argv, "--no-timestamp")
        assert rc == 2 and text == ""
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} lists no ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, gappy, plain", [
        (["expected-sig", "--words", "1,1"], ["--H", "0.6,,0.7"], ["--H", "0.6,0.7"]),
        (["expected-sig", "--H", "0.7"], ["--words", "1,1;;1,2,1,2;"],
         ["--words", "1,1;1,2,1,2"]),
        (["approx-sig", "--H", "0.7"], ["--m", "4,,8,"], ["--m", "4,8"]),
        (["bounds", "--H", "0.7"], ["--T", ",0.5,1"], ["--T", "0.5,1"]),
        (["cubature", "solve"], ["--H", "0.6,"], ["--H", "0.6"]),
    ])
    def test_empty_items_are_skipped(self, tmp_path, argv, gappy, plain):
        got = run(tmp_path, *argv, *gappy, "--no-timestamp")
        assert got[0] == 0
        assert got == run(tmp_path, *argv, *plain, "--no-timestamp")


class TestNumberFlags:
    @pytest.mark.parametrize("argv, message", [
        (["sde", "compare", "--paths", "1.5"], "--paths must be an integer, got '1.5'"),
        (["sde", "compare", "--steps", "1e3"], "--steps must be an integer, got '1e3'"),
        (["sde", "compare", "--seed", "-1"],
         "--seed must be a non-negative integer, got '-1'"),
        (["bounds", "--degree", "x"], "--degree must be an integer, got 'x'"),
        (["approx-sig", "--m", "4,x"], "--m must be an integer, got 'x'"),
        (["convergence", "--m", "4,8,x"], "--m must be an integer, got 'x'"),
        (["expected-sig", "--H", "0.7,x"], "--H must be a number, got 'x'"),
        (["cubature", "verify", "--degree", "2.5"], "--degree must be an integer, got '2.5'"),
        (["expected-sig", "--tol", "tiny"], "--tol must be a number, got 'tiny'"),
        (["expected-sig", "--words", "1,a"], "--words must be an integer, got 'a'"),
        (["expected-sig", "--words", "1,,1"], "--words must be an integer, got ''"),
        (["expected-sig", "--words", "1,1.5"], "--words must be an integer, got '1.5'"),
        (["expected-sig", "--words", "1,-1;1,x"], "--words must be an integer, got 'x'"),
        (["expected-sig", "--words", "1,1;2,-1"], "letter -1 outside alphabet {0,...,2}"),
    ])
    def test_malformed_number_names_its_flag(self, tmp_path, capsys, argv, message):
        rc, text = run(tmp_path, *argv, "--no-timestamp")
        assert rc == 2 and text == ""
        assert capsys.readouterr().err == f"error: {message}\n"


HALF, ONE = "0.50000000000000001", "0.99999999999999999"
TYPED = "H must lie in (1/2, 1), got {} (parsed from --H '{}')"


@pytest.mark.parametrize("argv, message", [
    (["expected-sig", "--H", HALF], TYPED.format(0.5, HALF)),
    (["expected-sig", "--H", f"0.7,{ONE}"], TYPED.format(1.0, ONE)),
    (["approx-sig", "--H", ONE], TYPED.format(1.0, ONE)),
    (["convergence", "--H", HALF], TYPED.format(0.5, HALF)),
    (["bounds", "--H", ONE], TYPED.format(1.0, ONE)),
    (["sde", "compare", "--H", HALF, "--paths", "8", "--steps", "4"], TYPED.format(0.5, HALF)),
    (["cubature", "solve", "--H", ONE],
     f"cubature requires H in [1/2, 1), got 1.0 (parsed from --H '{ONE}')"),
    (["expected-sig", "--H", "1"], TYPED.format(1.0, 1)),
    (["expected-sig", "--H", "0.4"], "H must lie in (1/2, 1), got 0.4"),
])
def test_hurst_refusal_quotes_the_typed_text(tmp_path, capsys, argv, message):
    # the decimals typed above lie in (1/2, 1), but the double nearest to each
    # is an end point; the refusal shows both, and the text only when it
    # reads as another number than the one parsed
    rc, text = run(tmp_path, *argv, "--no-timestamp")
    assert rc == 2 and text == ""
    assert capsys.readouterr().err == f"error: {message}\n"


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


SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(fbmsig.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_exported_name_resolves(name):
    # the benchmark tracer wraps every name in a module's __all__ by getattr,
    # so a stale entry would crash every benchmark run
    module = importlib.import_module(f"fbmsig.{name}")
    stale = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert stale == []


# Every process-global memo of the package.  A new memo is added here on
# purpose, so whatever reads cache_info() has a fixed list of sources.
MEMOS = {
    "cli._level_cells", "cli._word", "cli.build_parser",
    "expected._word_plan", "expected.closed_form_table",
    "gridapprox._grid_cells", "gridapprox._power_table",
    "gridapprox._series_coefficients", "gridapprox._tie_table",
    "simplexquad._beta_axis", "simplexquad._beta_product",
    "simplexquad._core_numeric", "simplexquad._gauss_legendre",
    "simplexquad._link_grid", "simplexquad._reduce_terms",
    "simplexquad._reduced_integral",
    "sde._log_factorial_table",  # one table of 1024 doubles (8 KiB)
}


def test_memo_inventory():
    found = set()
    for name in SUBMODULES:
        module = importlib.import_module(f"fbmsig.{name}")
        found |= {f"{name}.{attr}" for attr, obj in vars(module).items()
                  if hasattr(obj, "cache_info")
                  and getattr(obj, "__module__", None) == module.__name__}
    assert found == MEMOS


def _clear_memos():
    for name in MEMOS:
        module, attr = name.split(".")
        getattr(importlib.import_module(f"fbmsig.{module}"), attr).cache_clear()


def test_level_table_bytes_do_not_depend_on_memo_state(tmp_path):
    # the 715-word table at three fresh H, once with every memo warm from
    # other H and other tables and once with every memo cleared first; the
    # first cold table makes one Beta closure per distinct separable integrand
    words = ";".join(_canonical_words(6))
    out = tmp_path / "out"

    def table(H, fmt):
        rc = main(["expected-sig", "--H", H, "--words", words, "--no-timestamp",
                   "--format", fmt, "--out", str(out)])
        return rc, out.read_bytes()

    for H, table_words in (("0.7341", words), ("0.8123", ";".join(_canonical_words(5)))):
        assert main(["expected-sig", "--H", H, "--words", table_words,
                     "--out", str(out)]) == 0
    hs = ("0.5513", "0.6711", "0.9423")
    warm = {(H, fmt): table(H, fmt) for H in hs for fmt in ("csv", "json")}
    for H in hs:
        for fmt in ("csv", "json"):
            _clear_memos()
            assert table(H, fmt) == warm[H, fmt], (H, fmt)
            if (H, fmt) == (hs[0], "csv"):
                assert sq._beta_product.cache_info().misses == 34


def test_link_grid_memo_keeps_only_two_axis_grids_within_its_bound(monkeypatch):
    # the 274 canonical pure eight-letter words over {1, 2, 3} reach links
    # over three axes too, and more two-axis grids than the memo keeps
    words = [w for w in itertools.product((1, 2, 3), repeat=8)
             if [x for i, x in enumerate(w) if x not in w[:i]] == list(range(1, max(w) + 1))
             and all(w.count(x) % 2 == 0 for x in set(w))]
    assert len(words) == 274
    memo, grids = sq._link_grid, {}

    def spy(*key):
        grids[key] = memo(*key)
        return grids[key]

    for name in ("_reduced_integral", "_core_numeric", "_link_grid"):
        getattr(sq, name).cache_clear()
    monkeypatch.setattr(sq, "_link_grid", spy)
    for w in words:
        expected_word(Word(w, 3), 0.6789, sq.QuadConfig(tol=1))
    info = memo.cache_info()
    assert info.misses >= len(grids) > info.maxsize == info.currsize
    assert {N for *_, N in grids} == {sq.POINTS_PER_AXIS, sq.POINTS_PER_AXIS + 16}
    for (*_, N), grid in grids.items():
        assert grid.shape == (N, N) and not grid.flags.writeable


GRID_WORDS = "1,1;1,1,1,1;1,1,2,2;1,2,1,2;1,2,2,1"


def test_grid_bytes_do_not_depend_on_memo_state(tmp_path):
    # approx-sig over the five grid words at the smallest grids and m = 64,
    # and a convergence ladder to 65536 over the four-letter words, at three
    # fresh H: once with every memo warm from other H and once with every
    # memo cleared first
    out = tmp_path / "out"
    runs = (["approx-sig", "--words", GRID_WORDS, "--m", "1,2,3,4,64"],
            ["convergence", "--words", GRID_WORDS[4:], "--m", "4,64,1024,4096,65536"])

    def output(argv, H, fmt):
        rc = main(argv + ["--H", H, "--no-timestamp", "--format", fmt, "--out", str(out)])
        return rc, out.read_bytes()

    for H in ("0.7341", "0.8123"):
        for argv in runs:
            main(argv + ["--H", H, "--out", str(out)])
    hs = ("0.5513", "0.6711", "0.9423")
    warm = {(i, H, fmt): output(argv, H, fmt)
            for i, argv in enumerate(runs) for H in hs for fmt in ("csv", "json")}
    for (i, H, fmt), want in warm.items():
        _clear_memos()
        assert output(runs[i], H, fmt) == want, (runs[i][0], H, fmt)


def test_grid_memos_hold_read_only_arrays_within_their_bound():
    # the bound the memos state: 64 grids of up to 1024 cells, each at most
    # 10 arrays of fewer than m 8-byte numbers, and one table of 256 rows of
    # series powers; larger grids are not kept
    import tracemalloc

    words = [Word(tuple(map(int, w.split(","))), 2) for w in GRID_WORDS.split(";")]
    ga._grid_cells.cache_clear()
    ga._power_table.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for m in range(1024 - 63, 1024 + 1):
            for w in words:
                ga.approx_expected_word(w, 0.6, m)
        full = tracemalloc.get_traced_memory()[0] - base
        for w in words:
            ga.approx_expected_word(w, 0.6, 2**18)
        after = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    info = ga._grid_cells.cache_info()
    assert info.currsize == info.maxsize == 64
    cells = ga._grid_cells(1024)
    held = [*cells._chain_weights.values(), cells.rest, *cells.crossing]
    assert sorted(cells._chain_weights) == [(2, 1), (3, 1), (3, 2)] and len(held) == 10
    assert all(not a.flags.writeable and a.nbytes < 8 * 1024 for a in held)
    rows = ga._series_powers(62)
    assert not rows.flags.writeable and rows.base.shape == (256, 24)
    bound = 64 * 10 * 8 * 1024 + 256 * 24 * 8
    # the arrays' headers, the entries and the word tables take the rest
    assert full <= bound + 2**18, full
    # nothing of the 2^18-cell grid stays: one of its kernels is 2 MiB
    assert after - full < 2**16, after - full
