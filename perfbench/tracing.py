"""Spans around the public functions of every fbmsig module, from outside.

`Tracer.install()` replaces each public function of the traced modules at every
module namespace that binds it (for example `expected_word` in
`fbmsig.expected`, `fbmsig.gridapprox`, `fbmsig.cubature` and `fbmsig`), so
no call through a module attribute escapes the trace.  `Tracer.remove()` puts
the original objects back.  Nothing in `src/fbmsig` is edited.

A span is (name, start, end, parent index, request id).  Spans are kept in
memory; the caller writes them out when the run ends.  A few functions also
record per-call observations (keys for distinct-ratio counts, computed work).
"""
from __future__ import annotations

import functools
import inspect
import sys
import threading
import warnings
from time import perf_counter

PACKAGE = "fbmsig"
LAYERS = ("matchings", "simplexquad", "expected", "gridapprox", "cubature", "tensor", "sde")
REQUEST_SPAN = "cli.request"


def _msi_keys(a):
    """matching_simplex_integral key (n, sorted pairs, exponent), and the same
    key with the reversal i -> n-1-i folded in."""
    n = a["n"]
    pairs = tuple(sorted((int(x), int(y)) for x, y in a["pairs"]))
    mirrored = tuple(sorted((n - 1 - y, n - 1 - x) for x, y in pairs))
    key = (n, pairs, a["exponent"])
    return {"key": key, "key_reversal": min(key, (n, mirrored, a["exponent"]))}


def _fbm_batch_work(a):
    m, paths, d = a["m"], a["n_paths"], a["d"]
    return {"flops": m**3 / 3.0 + 2.0 * paths * d * m * m}


def _mc_work(a):
    return {"field_evals": a["n_paths"] * a["n_steps"] * 4 * a["steps_per_piece"]}


# Per-function observations, computed from the bound call arguments.
OBSERVE_ARGS = {
    "simplexquad.matching_simplex_integral": _msi_keys,
    "expected.expected_word": lambda a: {"key": (a["word"].letters, a["H"], a["config"])},
    "gridapprox.approx_expected_word": lambda a: {"key": (a["word"].letters, a["H"], a["m"])},
    "gridapprox.sample_fbm_batch": _fbm_batch_work,
    "sde.mc_weak_value": _mc_work,
}
OBSERVE_RESULT = {"matchings.compatible_matchings": lambda r: {"returned": len(r)}}
# RuntimeWarnings raised inside these calls are counted, then re-emitted.
COUNT_WARNINGS = {"gridapprox.sample_fbm_batch"}


def traced_functions() -> dict[str, object]:
    """Span name -> original function, for the public functions (module
    `__all__`, defined in that module) of every traced layer."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[f"{layer}.{name}"] = obj
    return out


def package_modules() -> list:
    """The loaded `fbmsig` package and its submodules."""
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


class Tracer:
    """Owns the spans, the per-call observations and the installed wrappers."""

    def __init__(self):
        self.spans: list = []
        self.observed: list = []  # (span name, {field: value})
        self.request_id = -1
        self._root = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._bindings: list = []  # (module, attribute, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.request_id])
        stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self._stack().pop()
        span = self.spans[idx]
        span[1], span[2] = start, end

    def request(self, request_id: int, fn, *args):
        """Run fn(*args) as the root span of one request; returns
        (result, start, end)."""
        self.request_id = request_id
        idx = self._open(REQUEST_SPAN)
        self._root = idx
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            end = perf_counter()
            self._close(idx, start, end)
            self._root = -1
        return result, start, end

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        on_args = OBSERVE_ARGS.get(name)
        on_result = OBSERVE_RESULT.get(name)
        count_warnings = name in COUNT_WARNINGS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            start = perf_counter()
            try:
                if count_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                self._close(idx, start, perf_counter())
            if on_args or on_result or count_warnings:
                obs = {}
                if on_args:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    obs.update(on_args(bound.arguments))
                if on_result:
                    obs.update(on_result(result))
                if count_warnings:
                    obs["jitter"] = sum(issubclass(w.category, RuntimeWarning) for w in caught)
                    for w in caught:
                        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
                self.observed.append((name, obs))
            return result

        return wrapper

    def install(self) -> None:
        """Replace every module-level binding of every traced function."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        targets = {id(fn): (name, fn) for name, fn in traced_functions().items()}
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        for mod in package_modules():
            for attr, value in list(vars(mod).items()):
                if id(value) in targets and value is targets[id(value)][1]:
                    self._bindings.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def remove(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list] = {}
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out
