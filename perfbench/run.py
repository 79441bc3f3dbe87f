"""fbmsig benchmark: three seeded workloads of README CLI requests.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact|grid|sde --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics: a fresh worker process runs whole
rounds of generated requests for S seconds (and at least MIN_REQUESTS
requests), then fresh interpreters time the import of `fbmsig.cli`.  Timings
are reported in reference seconds, scaled by the calibration kernel timed
around each request (see speed.py).
--trace 1 runs a fixed list of TRACE_ROUNDS rounds twice, untraced and then
traced, each in its own fresh process, and reports the per-layer metrics.
Every request's output is checked (see checks.py).  perfbench/out/ keeps
the job file each worker ran (replay one with `python3 perfbench/worker.py
JOB RESULT`) and a record of the run: environment, executed argv lists,
latencies, problems and, when traced, spans.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_REQUESTS = 100      # so that ten requests lie beyond request_s.p90
MAX_ROUNDS = 300        # rounds generated for a time-bound run
TRACE_ROUNDS = {"exact": 6, "grid": 4, "sde": 4}
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0     # every child process is done by then
IMPORT_PROBE = ("import time, fbmsig.cli; "
                "print(time.perf_counter()); print(fbmsig.cli.__file__)")


class BenchError(RuntimeError):
    pass


def _deadline_left(t_start: float) -> float:
    left = RUN_LIMIT_S - (time.monotonic() - t_start)
    if left <= 1.0:
        raise BenchError("out of time")
    return left


def _child_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread: two on two shared vCPUs time the scheduler, not the code
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{extra}" if extra else str(SRC)
    return env


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    env = _child_env()
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_1min_at_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "FBMSIG_MAX_WORKERS": env.get("FBMSIG_MAX_WORKERS", "unset (default 1)"),
        "blas_thread_env": {k: env[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in env},
        "git_sha": _git_sha(),
    }


def run_worker(rounds, seconds, trace: bool, tag: str, t_start: float) -> dict:
    OUT.mkdir(exist_ok=True)
    tag += "-traced" if trace else "-untraced"
    job_path, result_path = OUT / f"{tag}.job.json", OUT / f"{tag}.result.json"
    job_path.write_text(json.dumps({"rounds": rounds, "seconds": seconds, "trace": trace,
                                    "min_requests": MIN_REQUESTS, "src": str(SRC)}))
    result_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(job_path),
                               str(result_path)], env=_child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=_deadline_left(t_start))
    except subprocess.TimeoutExpired as err:
        raise BenchError("worker ran out of time") from err
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result


def _probe(args, t_start: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run([sys.executable, *args], env=_child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=min(60.0, _deadline_left(t_start)))
    except subprocess.TimeoutExpired as err:
        raise BenchError("import probe ran out of time") from err
    if proc.returncode != 0:
        raise BenchError(f"import probe failed: {proc.stderr.strip()[-2000:]}")
    return proc


def setup_times(t_start: float) -> list[float]:
    """Fresh interpreter start -> `fbmsig.cli` imported, per probe, in raw
    seconds."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
        lines = _probe(["-c", IMPORT_PROBE], t_start).stdout.split()
        if not Path(lines[1]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"fbmsig imported from {lines[1]}, not from {SRC}")
        out.append(float(lines[0]) - t0)
    return out


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative seconds per module from `python -X importtime` output."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        try:
            out[name.strip()] = int(cumulative) / 1e6
        except ValueError:
            continue  # the header line
    return out


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (the 'inclusive' method)."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def scaled_latency(r) -> float:
    """A request's latency in reference seconds (see speed.py)."""
    return speed.scaled(r["latency_s"], *r["kernel_s"])


def round_walls(requests, latency=lambda r: r["latency_s"]) -> list[float]:
    """Wall time of each round's request list: the sum of its latencies."""
    walls = defaultdict(float)
    for r in requests:
        walls[r["round"]] += latency(r)
    return [walls[k] for k in sorted(walls)]


def check_requests(requests, table) -> int:
    """Check every request in place; returns the number that failed."""
    failed = 0
    for r in requests:
        r["problems"] = checks.check(r["argv"], r["rc"], r["stdout"], table)
        failed += bool(r["problems"])
    return failed


def end_to_end(result, setups) -> dict[str, float]:
    """The end-to-end metrics, every timing in reference seconds.

    Set-up is scaled by the run's median kernel time.  A probe's own kernel
    tracked its import worse than no scaling at all, since a short-lived
    process may run on either vCPU and the two differ in speed; the run's
    median follows the host's drift from one run to the next.
    """
    reqs = result["requests"]
    lat = [scaled_latency(r) for r in reqs]
    kernel = statistics.median(r["kernel_s"][1] for r in reqs)
    return {
        "setup_s": speed.scaled(statistics.median(setups), kernel, kernel),
        "wall_s": statistics.median(round_walls(reqs, scaled_latency)),
        "request_s.p50": quantile(lat, 0.5),
        "request_s.p90": quantile(lat, 0.9),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": sum(not r["problems"] for r in reqs) / len(reqs),
    }


def raw_timings(result, setups) -> dict[str, float]:
    """The end-to-end timings in unscaled seconds, for the record."""
    lat = [r["latency_s"] for r in result["requests"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(round_walls(result["requests"])),
        "request_s.p50": quantile(lat, 0.5),
        "request_s.p90": quantile(lat, 0.9),
        "kernel_s.median": statistics.median(r["kernel_s"][1] for r in result["requests"]),
    }


def _key(value) -> str:
    return json.dumps(value, sort_keys=True, default=repr)


def per_layer(traced, untraced, importtime) -> tuple[dict[str, float], dict]:
    """The per-layer metrics, and calls and self time of every span name."""
    spans = traced["spans"]
    selfs = tracing.self_times(spans)
    calls, self_s = defaultdict(int), defaultdict(float)
    for span, st in zip(spans, selfs):
        calls[span[0]] += 1
        self_s[span[0]] += st
    obs = defaultdict(list)
    for name, o in traced["observed"]:
        obs[name].append(o)

    def distinct(name, field="key"):
        keys = [_key(o[field]) for o in obs[name]]
        return len(set(keys)) / len(keys) if keys else 0.0

    def total(name, field):
        return float(sum(o[field] for o in obs[name]))

    msi, fbm = "simplexquad.matching_simplex_integral", "gridapprox.sample_fbm_batch"
    consts = ("gridapprox.constant_A", "gridapprox.constant_Atilde")
    m = {
        "setup.import.scipy_stats_s": importtime.get("scipy.stats", 0.0),
        "setup.import.fbmsig_s": importtime.get("fbmsig.cli", 0.0),
        "cli.self_s": self_s[tracing.REQUEST_SPAN],
        "cli.rows": float(sum(max(r["stdout"].count("\n") - 1, 0) for r in traced["requests"])),
    }
    for name in ("matchings.compatible_matchings", msi, "expected.expected_word",
                 "gridapprox.approx_expected_word", fbm, "sde.ode_along_path",
                 "tensor.path_signature"):
        m[f"{name}.calls"] = float(calls[name])
        m[f"{name}.self_s"] = self_s[name]
    m["matchings.compatible_matchings.returned"] = total("matchings.compatible_matchings",
                                                         "returned")
    m[f"{msi}.distinct_ratio"] = distinct(msi)
    m[f"{msi}.distinct_ratio_reversal"] = distinct(msi, "key_reversal")
    m["expected.expected_word.distinct_ratio"] = distinct("expected.expected_word")
    m["gridapprox.approx_expected_word.distinct_ratio"] = distinct(
        "gridapprox.approx_expected_word")
    m["gridapprox.signature_gap.calls"] = float(calls["gridapprox.signature_gap"])
    m["gridapprox.constants.calls"] = float(sum(calls[c] for c in consts))
    m["gridapprox.constants.self_s"] = sum(self_s[c] for c in consts)
    m[f"{fbm}.jitter"] = total(fbm, "jitter")
    m[f"{fbm}.flops"] = total(fbm, "flops")
    m["sde.mc_weak_value.self_s"] = self_s["sde.mc_weak_value"]
    m["sde.mc_weak_value.field_evals"] = total("sde.mc_weak_value", "field_evals")
    m["cubature.verify_formula.self_s"] = self_s["cubature.verify_formula"]
    # in reference seconds, like wall_s, so that host drift between the two
    # passes does not pass for tracing overhead
    traced_wall = statistics.median(round_walls(traced["requests"], scaled_latency))
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - statistics.median(
        round_walls(untraced["requests"], scaled_latency))
    layers = {name: {"calls": calls[name], "self_s": self_s[name]} for name in sorted(calls)}
    return m, layers


def _spec_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json asks of this mode, in order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {e["name"]: e["unit"] for e in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.monotonic()

    if not (SRC / "fbmsig" / "cli.py").is_file():
        print(f"error: no fbmsig sources under {SRC}", file=sys.stderr)
        return 2
    units = _spec_metrics(args.trace)
    table = checks.load_closed_forms(SRC / "fbmsig" / "data" / "closed_forms.json")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment()}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        rounds = workloads.generate(args.workload, args.seed, TRACE_ROUNDS[args.workload])
    else:
        rounds = workloads.generate(args.workload, args.seed, MAX_ROUNDS)

    try:
        first = run_worker(rounds, None if args.trace else args.seconds, False, tag, t_start)
        record["env"].update(first["env"])
        failed = check_requests(first["requests"], table)
        checked = first["requests"]
        consistent = True
        if args.trace:
            traced = run_worker(rounds, None, True, tag, t_start)
            failed += check_requests(traced["requests"], table)
            checked = checked + traced["requests"]
            imports = parse_importtime(
                _probe(["-X", "importtime", "-c", "import fbmsig.cli"], t_start).stderr)
            metrics, record["layers"] = per_layer(traced, first, imports)
            record["spans"] = traced["spans"]
            # self times partition the request spans, so they add up to them
            self_sum = sum(tracing.self_times(traced["spans"]))
            lat_sum = sum(r["latency_s"] for r in traced["requests"])
            record["self_sum_s"], record["traced_latency_sum_s"] = self_sum, lat_sum
            consistent = abs(self_sum - lat_sum) <= 1e-6 * max(1.0, lat_sum)
        else:
            record["setup_probes_s"] = setup_times(t_start)
            metrics = end_to_end(first, record["setup_probes_s"])
            record["raw_seconds"] = raw_timings(first, record["setup_probes_s"])
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    metrics = {name: metrics[name] for name in units}

    executed = sorted({r["round"] for r in first["requests"]})
    record["rounds"] = [rounds[i] for i in executed]
    record["requests"] = [{k: r[k] for k in ("round", "argv", "rc", "latency_s", "kernel_s",
                                             "problems")}
                          for r in checked]
    record["metrics"] = metrics
    (OUT / f"{tag}.json").write_text(json.dumps(record, default=repr))

    for r in checked:
        if r["problems"]:
            print(f"FAILED {' '.join(r['argv'])[:120]}: {r['problems'][:3]}")
    print(f"{args.workload}: {len(checked)} requests, {len(executed)} rounds, "
          f"{failed} failed; record in {OUT / (tag + '.json')}")
    for name, value in metrics.items():
        print(f"  {name:<62} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
