"""Tests of the benchmark itself: run with `python3 -m pytest perfbench -q`
from the repository root."""
from __future__ import annotations

import contextlib
import csv
import io
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TABLE = checks.load_closed_forms(SRC / "fbmsig" / "data" / "closed_forms.json")


def _flag_values(argv, flag):
    return argv[argv.index(flag) + 1].split(",") if flag in argv else []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    assert workloads.generate(workload, 7, 4) == workloads.generate(workload, 7, 4)
    assert workloads.generate(workload, 7, 4) != workloads.generate(workload, 8, 4)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_request_draws_its_own_h(workload):
    reqs = [argv for rnd in workloads.generate(workload, 3, 30) for argv in rnd]
    hs = [h for argv in reqs for h in _flag_values(argv, "--H")]
    assert len(hs) == len(set(hs)) >= len(reqs)
    assert all(workloads.H_LO <= float(h) <= workloads.H_HI for h in hs)
    seeds = [s for argv in reqs for s in _flag_values(argv, "--seed")]
    assert len(seeds) == len(set(seeds))
    assert (workload == "sde") == bool(seeds)


def test_round_templates_are_fixed():
    for workload in workloads.WORKLOADS:
        shapes = {tuple(sorted(argv[0] for argv in rnd))
                  for rnd in workloads.generate(workload, 5, 10)}
        assert len(shapes) == 1


# -- output checks ----------------------------------------------------------


@pytest.fixture(scope="module")
def cli():
    import fbmsig.cli

    return fbmsig.cli


def _run(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv + ["--no-timestamp"])
    return rc, out.getvalue()


def _perturb(stdout, column, new_value, row=0):
    rows = list(csv.reader(io.StringIO(stdout)))
    rows[row + 1][rows[0].index(column)] = new_value(rows[row + 1][rows[0].index(column)])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _nudge(rel):
    return lambda text: repr(float(text) * (1.0 + rel) + rel)


CASES = [
    (["expected-sig", "--H", "0.7", "--words", "1,1,1,1;1,0,1;1,2,1,2"], "value", _nudge(1e-9), 0),
    (["expected-sig", "--H", "0.7", "--words", "1,0,1"], "value", _nudge(1e-9), 0),
    (["expected-sig", "--H", "0.7", "--words", "1,2,1,2"], "pass", lambda t: "False", 0),
    (["approx-sig", "--H", "0.8", "--words", "1,1,1,1", "--m", "4,7"], "approx", _nudge(1e-9), 1),
    (["convergence", "--H", "0.6", "--words", "1,2,2,1", "--m", "4,5,6,8"], "approx",
     _nudge(1e-9), 2),
    (["convergence", "--H", "0.6", "--words", "1,1,2,2", "--m", "4,5,6,8"], "bound_pass",
     lambda t: "False", 4),
    (["bounds", "--H", "0.9", "--T", "0.5,2"], "Atilde", _nudge(1e-9), 1),
    (["bounds", "--H", "0.9", "--T", "0.5,2"], "A", _nudge(1e-9), 0),
    (["cubature", "verify", "--H", "0.6"], "passed", lambda t: "False", 3),
    (["cubature", "verify", "--H", "0.8"], "lhs", _nudge(1e-9), 2),
    (["cubature", "solve", "--H", "0.7", "--branch", "both"], "max_residual",
     lambda t: "1e-6", 1),
    (["sde", "compare", "--H", "0.7", "--T", "1.5", "--paths", "2000", "--steps", "16",
      "--seed", "4", "--x0", "0.3", "--problem", "quadratic"], "cubature_value", _nudge(1e-9), 0),
    (["sde", "compare", "--H", "0.7", "--T", "1.5", "--paths", "2000", "--steps", "16",
      "--seed", "4", "--x0", "0.3", "--problem", "quadratic"], "mc_value", _nudge(0.2), 0),
    (["sde", "compare", "--H", "0.7", "--T", "0.7", "--paths", "6", "--steps", "64",
      "--seed", "4", "--x0", "-0.5", "--problem", "quadratic"], "mc_value", _nudge(30.0), 0),
    (["sde", "compare", "--H", "0.9", "--T", "1.2", "--paths", "100", "--steps", "8",
      "--seed", "4", "--x0", "0.25", "--problem", "zero"], "mc_value", _nudge(1e-9), 0),
]


@pytest.mark.parametrize("argv,column,change,row", CASES, ids=lambda c: str(c)[:40])
def test_check_passes_and_catches_perturbation(cli, argv, column, change, row):
    rc, out = _run(cli, argv)
    assert checks.check(argv, rc, out, TABLE) == []
    assert checks.check(argv, rc, _perturb(out, column, change, row), TABLE) != []


def test_check_catches_exit_code_and_empty_output(cli):
    argv = ["expected-sig", "--H", "0.7", "--words", "1,1"]
    rc, out = _run(cli, argv)
    assert checks.check(argv, 3, out, TABLE) != []
    assert checks.check(argv, rc, "word,H,value,err_bar,bound,refined_bound,pass\n", TABLE)


def test_reference_values():
    assert checks.single_letter_value(4) == 1 / 8
    assert abs(checks.zeta(2.0) - 3.141592653589793**2 / 6) < 1e-14
    assert checks.known_value("1,2,1", 0.7, TABLE) == 0.0
    assert checks.known_value("0,0,0", 0.7, TABLE) == 1 / 6


def test_mc_bound_accepts_true_draws_and_rejects_shift():
    rng = random.Random(1)
    for _ in range(2000):
        n, x0, var = rng.randint(2, 50), rng.uniform(-1, 1), rng.uniform(0.3, 4.0)
        mean = sum((x0 + rng.gauss(0.0, var**0.5)) ** 2 for _ in range(n)) / n
        assert checks.quadratic_mc_plausible(mean, n, x0, var)
    assert not checks.quadratic_mc_plausible(3.0, 5000, 0.0, 1.0)
    assert not checks.quadratic_mc_plausible(0.5, 5000, 0.0, 1.0)


# -- tracing ----------------------------------------------------------------


def _bindings():
    return {(m.__name__, k): v for m in tracing.package_modules() for k, v in vars(m).items()}


def test_tracer_replaces_every_binding_and_restores(cli):
    originals = tracing.traced_functions()
    assert "simplexquad.matching_simplex_integral" in originals
    assert "gridapprox.sample_fbm_batch" in originals
    before = _bindings()
    bound_at = {k for k, v in before.items() if any(v is f for f in originals.values())}
    # the same function is bound in several modules, and all are covered
    assert ("fbmsig.gridapprox", "expected_word") in bound_at
    assert ("fbmsig.sde", "sample_fbm_batch") in bound_at
    tracer = tracing.Tracer()
    tracer.install()
    try:
        after = _bindings()
        for key in bound_at:
            assert after[key].__wrapped__ is before[key]
        escaped = [k for k, v in after.items() if any(v is f for f in originals.values())]
        assert escaped == []
        argv = ["convergence", "--H", "0.7", "--words", "1,2,1,2", "--m", "4,5,6,8",
                "--no-timestamp"]
        with contextlib.redirect_stdout(io.StringIO()):
            rc, start, end = tracer.request(0, cli.main, argv)
    finally:
        tracer.remove()
    assert rc == 0
    restored = _bindings()
    assert all(restored[key] is before[key] for key in bound_at)
    assert not any(hasattr(v, "__wrapped__") for v in restored.values())
    names = [s[0] for s in tracer.spans]
    assert names[0] == tracing.REQUEST_SPAN
    assert names.count("gridapprox.signature_gap") == 12
    assert "simplexquad.matching_simplex_integral" in names
    assert all(s[4] == 0 for s in tracer.spans)
    selfs = tracing.self_times(tracer.spans)
    assert min(selfs) >= 0.0
    assert sum(selfs) == pytest.approx(end - start, rel=1e-9)


def test_self_times_subtract_children():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 2.0, 3.0, 1, 0],
             ["d", 3.5, 6.0, 0, 0]]  # d overlaps b, as from a second thread
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.5])


def test_parse_importtime_and_quantile():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       512 |     235686 |           scipy.special\n"
            "import time:      4230 |     843459 | fbmsig.cli\n")
    assert run.parse_importtime(text) == {"scipy.special": 0.235686, "fbmsig.cli": 0.843459}
    assert run.quantile([3.0, 1.0, 2.0, 4.0], 0.5) == 2.5
    assert run.quantile(list(range(101)), 0.9) == 90.0


def test_timings_scale_with_the_kernel_around_them():
    ref = speed.REF_KERNEL_S
    assert speed.scaled(3.0, ref, ref) == pytest.approx(3.0)
    # a host at half speed doubles both the kernel and the request
    assert speed.scaled(6.0, 2 * ref, 2 * ref) == pytest.approx(3.0)
    assert speed.scaled(6.0, ref, 3 * ref) == pytest.approx(3.0)
    reqs = [{"round": 0, "latency_s": 2.0, "kernel_s": [2 * ref, 2 * ref]},
            {"round": 0, "latency_s": 0.5, "kernel_s": [ref, ref]},
            {"round": 1, "latency_s": 4.0, "kernel_s": [ref, ref]}]
    assert run.round_walls(reqs, run.scaled_latency) == pytest.approx([1.5, 4.0])
    assert run.round_walls(reqs) == pytest.approx([2.5, 4.0])
    assert speed.kernel_time() > 0.0
