"""The workload process: one client, closed loop, one fresh interpreter.

Usage: python3 worker.py JOB.json RESULT.json

JOB.json holds the generated rounds (lists of CLI argv lists), the source
directory to import `fbmsig` from, whether to trace, and when to stop: after
`seconds` of requests once at least `min_requests` have run (whole rounds
only), or after every round when `seconds` is null.  Each request runs in
process through `fbmsig.cli.main(argv + ["--no-timestamp"])` with its output
captured.  Around every request the calibration kernel of speed.py is timed,
outside the request's latency.  The result file holds every request's exit
code, output, latency and the kernel times around it, the process's peak RSS,
library versions and, when tracing, the spans.  Nothing is checked here: the
caller checks the outputs.
"""
from __future__ import annotations

import contextlib
import ctypes
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed


def _blas_threads() -> str:
    """OpenBLAS thread count as the loaded library reports it."""
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return "unknown"
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in names:
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def _library_env() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    t0 = perf_counter()
    import fbmsig.cli as cli

    import_s = perf_counter() - t0
    src = Path(job["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"error: fbmsig imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    def run_request(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(argv) + ["--no-timestamp"])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed request, not a failed run
                traceback.print_exc()
                rc = "exception"
        return rc, out.getvalue(), err.getvalue()

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    def timed(request_id, argv):
        if tracer is not None:
            return tracer.request(request_id, run_request, argv)
        start = perf_counter()
        result = run_request(argv)
        return result, start, perf_counter()

    seconds, min_requests = job["seconds"], job["min_requests"]
    requests = []
    begin = perf_counter()
    kernel_before = speed.kernel_time()
    try:
        for r, round_ in enumerate(job["rounds"]):
            for argv in round_:
                (rc, out, err), start, end = timed(len(requests), argv)
                kernel_after = speed.kernel_time()
                requests.append({"round": r, "argv": argv, "rc": rc, "stdout": out,
                                 "stderr": err, "latency_s": end - start,
                                 "kernel_s": [kernel_before, kernel_after]})
                kernel_before = kernel_after
            if (seconds is not None and perf_counter() - begin >= seconds
                    and len(requests) >= min_requests):
                break
    finally:
        if tracer is not None:
            tracer.remove()

    result = {
        "import_s": import_s,
        "fbmsig_file": cli.__file__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _library_env(),
        "requests": requests,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["observed"] = tracer.observed
    Path(result_path).write_text(json.dumps(result, default=repr))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
