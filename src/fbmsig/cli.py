"""Batch command-line front end.

Every experiment is a subcommand writing a machine-readable table (CSV or
JSON).  Each cell is formatted once, when its row is added (expected-sig
formats each H once for all its words, and a word's cells that hold at every
H once per process), and both encodings carry those strings.  Options can
come from a flat key=value config file; explicit flags win, and a key that no
command takes is a usage error.  Words are exchanged as comma-separated
letter strings ("1,0,1", letter 0 being the time coordinate); lists of words
are separated by semicolons, other lists by commas.  A row is labelled with
its word's canonical letter text ("1,1" for the input " 1,+1"); a word text
met again is read, label included, from a memo of parsed words.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 quadrature
tolerance failure.
"""
from __future__ import annotations

import argparse
import csv
import datetime
import functools
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from . import cubature as cb
from . import expected as ex
from . import gridapprox as ga
from . import sde
from .simplexquad import QuadConfig
from .tensor import Word

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_TOLERANCE = 3


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return "" if x is None else str(x)


class TableWriter:
    """Collects rows of one fixed column set and writes CSV or JSON."""

    def __init__(self, columns):
        self.columns = list(columns)
        self.rows = []

    def add(self, **kw):
        self.rows.append([_fmt(kw.get(c)) for c in self.columns])

    def write(self, stream, fmt: str, timestamp: bool):
        if fmt == "csv":
            if timestamp:
                stream.write(f"# generated {_now()}\n")
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(self.columns)
            writer.writerows(self.rows)
        else:
            payload = {"columns": self.columns, "rows": self.rows}
            if timestamp:
                payload["generated"] = _now()
            json.dump(payload, stream, indent=1)
            stream.write("\n")


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _number(flag: str, text, cast):
    """cast(text) for the value of --flag; a malformed number is a usage
    error that names the flag."""
    try:
        return cast(text)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise ValueError(f"--{flag} must be {kind}, got {text!r}") from None


def _parse_list(text: str, cast, flag: str) -> list:
    # empty items are skipped, but a list with none left is a usage error
    values = [_number(flag, t, cast) for t in str(text).split(",") if t != ""]
    if not values:
        raise ValueError(f"--{flag} lists no values")
    return values


# A word's text parses to the same Word and canonical label at every H, and a
# level table is asked again at each fresh H.  The bound holds the 961 word
# texts of the benchmark's exact workload.
@functools.lru_cache(maxsize=2048)
def _word(text: str) -> tuple[Word, str]:
    letters = tuple(map(int, text.split(",")))
    w = Word(letters, max(1, *letters))
    return w, str(w)


def _parse_words(text: str) -> list[tuple[Word, str]]:
    """(word, canonical label) for each item of a --words list."""
    items = [w for w in str(text).split(";") if w.strip() != ""]
    if not items:
        raise ValueError("--words lists no words")
    try:
        return [_word(w) for w in items]
    except ValueError:
        # a malformed letter in any word is reported before a letter out of
        # range
        for w in items:
            for t in w.split(","):
                _number("words", t, int)  # raises, naming the malformed letter
        raise


def _read_config(path: str) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


# Option defaults live here rather than in argparse so that the precedence
# "explicit flag > config file > default" is decidable (argparse cannot tell
# an explicit flag equal to its default from an omitted one).
_DEFAULTS = {
    "format": "csv",
    "H": "0.75",
    "words": "1,1",
    "m": "4,8,16,32,64",
    "degree": None,
    "branch": "minus",
    "T": "1.0",
    "paths": "10000",
    "steps": "64",
    "seed": "12345",
    "x0": "0.0",
    "problem": "quadratic",
    "M": "1.0",
    "gamma": "0.0",
}
_COMMAND_DEFAULTS = {
    "convergence": {"words": "1,2,1,2;1,1,2,2"},
    "cubature": {"H": "0.5"},
    "bounds": {"H": "0.6,0.75,0.9", "T": "0.5,1,2", "degree": "5"},
}


# A config key outside this set would be dropped silently (a misspelling such
# as "word" for "words"), so it is refused; a key of another command is
# ignored, so that one file can serve several commands.
_CONFIG_KEYS = frozenset(_DEFAULTS) | {"out", "tol"}


def _apply_config(args: argparse.Namespace):
    """Resolve each option as: explicit flag, else config value, else default."""
    cfg = _read_config(args.config) if getattr(args, "config", None) else {}
    for key, raw in cfg.items():
        attr = key.replace("-", "_")
        if attr not in _CONFIG_KEYS:
            raise ValueError(f"config key {key!r} is not an option of any command")
        if hasattr(args, attr) and getattr(args, attr) is None:
            setattr(args, attr, raw)
    defaults = dict(_DEFAULTS)
    defaults.update(_COMMAND_DEFAULTS.get(args.command, {}))
    for attr, value in defaults.items():
        if hasattr(args, attr) and getattr(args, attr) is None:
            setattr(args, attr, value)
    # a config file bypasses argparse's choices for --format
    if args.format not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {args.format!r}")


def _quad_config(args) -> QuadConfig:
    if args.tol is None:
        return QuadConfig()
    return QuadConfig(tol=_number("tol", args.tol, float))


def _emit(args, table: TableWriter) -> None:
    timestamp = not args.no_timestamp
    if args.out:
        with open(args.out, "w") as fh:
            table.write(fh, args.format, timestamp)
    else:
        table.write(sys.stdout, args.format, timestamp)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


class _LevelCells(NamedTuple):
    """A word's level-table cells that hold at every H."""

    fixed: tuple[str, ...] | None  # value, err_bar, bound, refined_bound, pass
    bounds: tuple[str, str] | None  # bound, refined_bound under the decay bound


# A level table asks every word again at each fresh H, and 609 of the 715
# six-letter words have a value that holds at every H (an odd letter count, a
# pure time word), so their rows are formatted once per process; the others
# keep their bound cells.  Such a value under the decay bound is 0 and passes.
# Keyed by the label (a str caches its hash, a Word does not); the bound holds
# the 961 word texts of the benchmark's exact workload.
@functools.lru_cache(maxsize=2048)
def _level_cells(label: str) -> _LevelCells:
    w = _word(label)[0]
    value = ex._word_plan(w.letters).value
    if not ex.decay_bound_applies(w):
        fixed = None if value is None else (_fmt(value.value), _fmt(value.error), "", "", "")
        return _LevelCells(fixed, None)
    c = ex._decay_constants(w.letters)
    bounds = (_fmt(c.bound), _fmt(c.refined_bound))
    if value is None:
        return _LevelCells(None, bounds)
    rep = ex._decay_report(w.letters, value)
    return _LevelCells((_fmt(rep.value), _fmt(rep.quad_error), *bounds, _fmt(rep.passed)),
                       bounds)


def cmd_expected_sig(args) -> int:
    words = _parse_words(args.words)
    hs = _parse_list(args.H, float, "H")
    config = _quad_config(args)
    cols = ["word", "H", "value", "err_bar", "bound", "refined_bound", "pass"]
    table = TableWriter(cols)
    h_cells = [_fmt(H) for H in hs]  # every word's row shares its H cell
    failures = 0
    for w, label in words:
        for H, h_cell in zip(hs, h_cells):
            ex.check_hurst(H)  # before the word's plan is read
            cells = _level_cells(label)
            if cells.fixed is not None:
                table.rows.append([label, h_cell, *cells.fixed])
            elif cells.bounds is not None:
                # pure-fBm even words get the decay-bound report (one
                # quadrature each), every other word just its value
                rep = ex.decay_bound_check(w, H, config)
                failures += not rep.passed
                table.rows.append([label, h_cell, _fmt(rep.value), _fmt(rep.quad_error),
                                   *cells.bounds, _fmt(rep.passed)])
            else:
                res = ex.expected_word(w, H, config)
                table.rows.append([label, h_cell, _fmt(res.value), _fmt(res.error),
                                   "", "", ""])
    _emit(args, table)
    return EXIT_VERIFICATION if failures else EXIT_OK


def _check_grids(hs, ms, words) -> None:
    """Refuse an H outside (1/2, 1), a grid size outside [1, _MAX_CELLS],
    then a word the grid engine cannot take, before any value is computed:
    the messages a full run would stop at, in the order it checks them."""
    for H in hs:
        ex.check_hurst(H)
    for m in ms:
        ga._check_cells(m)
    for w, _ in words:
        ga._check_word(w)


def cmd_approx_sig(args) -> int:
    words = _parse_words(args.words)
    hs = _parse_list(args.H, float, "H")
    ms = _parse_list(args.m, int, "m")
    _check_grids(hs, ms, words)
    table = TableWriter(["word", "H", "m", "approx"])
    for w, label in words:
        for H in hs:
            for m in ms:
                table.add(word=label, H=H, m=m,
                          approx=ga.approx_expected_word(w, H, m))
    _emit(args, table)
    return EXIT_OK


def cmd_convergence(args) -> int:
    words = _parse_words(args.words)
    hs = _parse_list(args.H, float, "H")
    ms = sorted(set(_parse_list(args.m, int, "m")))
    if len(ms) < 4:
        print("error: convergence needs at least 4 distinct grid sizes", file=sys.stderr)
        return EXIT_USAGE
    config = _quad_config(args)
    _check_grids(hs, ms, words)
    cols = ["kind", "word", "H", "m", "exact", "approx", "gap", "m2H_gap",
            "err_bar", "slope", "slope_residual", "coeff_bound",
            "max_m2H_gap", "bound_pass", "note"]
    table = TableWriter(cols)
    any_fail = False
    for w, label in words:
        for H in hs:
            rows = ga.gap_rows(w, H, ms, config)
            bound = ga.coefficient_bound_check(w, H, rows)
            for (m, g), (_, _, m2H_gap) in zip(rows, bound.rows):
                table.add(kind="row", word=label, H=H, m=m, exact=g.exact,
                          approx=g.approx, gap=g.gap, m2H_gap=m2H_gap,
                          err_bar=g.err_bar)
            fit = ga.convergence_slope(rows)
            any_fail |= not bound.passed
            table.add(kind="summary", word=label, H=H,
                      slope=fit.slope if fit.ok else None,
                      slope_residual=fit.residual if fit.ok else None,
                      coeff_bound=bound.bound,
                      max_m2H_gap=bound.max_scaled_gap,
                      bound_pass=bound.passed,
                      note="" if fit.ok else f"fit refused: {fit.reason}")
    _emit(args, table)
    return EXIT_VERIFICATION if any_fail else EXIT_OK


def cmd_cubature(args) -> int:
    hs = _parse_list(args.H, float, "H")
    if args.action == "solve":
        branches = ("minus", "plus") if args.branch == "both" else (args.branch,)
        table = TableWriter(["H", "branch", "lam1", "lam3", "a", "b1", "b0",
                             "c1", "c0", "max_residual"])
        for H in hs:
            for br in branches:
                s = cb.solve_ansatz(H, br)
                table.add(H=H, branch=br, lam1=s.lam1, lam3=s.lam3, a=s.a,
                          b1=s.b1, b0=s.b0, c1=s.c1, c0=s.c0,
                          max_residual=max(abs(r) for r in cb.system_residuals(s)))
        _emit(args, table)
        return EXIT_OK
    # verify
    config = _quad_config(args)
    table = TableWriter(["H", "degree", "word", "weight", "lhs", "rhs",
                         "abs_err", "lhs_source", "passed"])
    all_ok = True
    for H in hs:
        formula = cb.formula_from_solution(cb.solve_ansatz(H, args.branch))
        degree = (_number("degree", args.degree, int) if args.degree is not None
                  else formula.claimed_degree)
        rep = cb.verify_formula(formula, degree, config)
        all_ok &= rep.passed
        for r in rep.rows:
            table.add(H=H, degree=degree, word=str(r.word), weight=r.weight,
                      lhs=r.lhs, rhs=r.rhs, abs_err=r.abs_err,
                      lhs_source=r.lhs_source, passed=r.passed)
    _emit(args, table)
    return EXIT_OK if all_ok else EXIT_VERIFICATION


def _sde_problem(name: str, x0: float):
    # additive noise: every field is a constant, so the solver sums the
    # increments instead of running RK4's stages
    if name == "quadratic":
        fields = (0.0, 1.0)
        f = lambda y: y[..., 0] ** 2
    elif name == "zero":
        fields = (0.0, 0.0)
        f = lambda y: y[..., 0]
    else:
        raise ValueError(f"unknown problem {name!r} (expected quadratic or zero)")
    return fields, f, np.array([x0])


def _finite(name: str, text) -> float:
    value = _number(name, text, float)
    if not math.isfinite(value):
        raise ValueError(f"--{name} must be finite, got {value}")
    return value


def cmd_sde(args) -> int:
    H = _number("H", args.H, float)
    ex.check_hurst(H)
    x0 = _finite("x0", args.x0)
    fields, f, state0 = _sde_problem(args.problem, x0)
    formula = cb.three_path_formula(H)
    T = _finite("T", args.T)
    n_paths = _number("paths", args.paths, int)
    n_steps = _number("steps", args.steps, int)
    seed = _number("seed", args.seed, int)
    if seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed!r}")
    if not 1 <= n_steps <= ga._MAX_GRID:
        raise ValueError(f"--steps must lie in [1, {ga._MAX_GRID}], got {n_steps}")
    ga._covariance_scale(H, n_steps, T)  # the sampler's range check, before any solve
    M, gamma = _finite("M", args.M), _finite("gamma", args.gamma)
    # f may overflow (a huge --x0); the finiteness check below reports that
    with np.errstate(over="ignore"):
        cub = sde.cubature_weak_value(fields, f, state0, formula, T)
        try:
            mc, se = sde.mc_weak_value(fields, f, state0, H, T, n_paths, n_steps, seed)
        except MemoryError:
            raise ValueError(f"--paths {n_paths} with --steps {n_steps} needs more "
                             "memory than is available") from None
    shape = sde.error_bound_shape(sde.ErrorBoundParams(
        M, gamma, d=len(fields) - 1, degree=formula.claimed_degree, H=H), T)
    if not all(map(math.isfinite, (cub, mc, se))):
        raise ValueError("a weak value or its standard error overflows a double; "
                         "reduce --x0 or --T")
    table = TableWriter(["H", "T", "problem", "x0", "cubature_value", "mc_value",
                         "mc_stderr", "bound_value", "bound_branch", "n_paths",
                         "n_steps", "seed"])
    table.add(H=H, T=T, problem=args.problem, x0=x0, cubature_value=cub,
              mc_value=mc, mc_stderr=se, bound_value=shape.value,
              bound_branch=shape.branch, n_paths=n_paths, n_steps=n_steps,
              seed=seed)
    _emit(args, table)
    return EXIT_OK


def cmd_bounds(args) -> int:
    hs = _parse_list(args.H, float, "H")
    ts = [_finite("T", t) for t in _parse_list(args.T, float, "T")]
    M, gamma = _finite("M", args.M), _finite("gamma", args.gamma)
    degree = _number("degree", args.degree, int)
    table = TableWriter(["H", "A", "A_err", "Atilde", "Atilde_err", "K", "T",
                         "bound_shape", "branch"])
    for H in hs:
        a = ga.constant_A(H)
        at = ga.constant_Atilde(H)
        params = sde.ErrorBoundParams(M=M, gamma=gamma, d=1, degree=degree, H=H)
        for T in ts:
            shape = sde.error_bound_shape(params, T)
            table.add(H=H, A=a.value, A_err=a.error, Atilde=at.value,
                      Atilde_err=at.error, K=params.K, T=T,
                      bound_shape=shape.value, branch=shape.branch)
    _emit(args, table)
    return EXIT_OK


# ---------------------------------------------------------------------------


# Building the parser costs about 2 ms, half of a small request, and parsing
# leaves it unchanged, so main() builds it once per process.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--out", help="output path (default stdout)")
    common.add_argument("--format", choices=("csv", "json"), default=None)
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit the generated-at header for byte-identical reruns")
    # only the commands that run quadrature take a tolerance
    quad = argparse.ArgumentParser(add_help=False)
    quad.add_argument("--tol", help="quadrature tolerance")

    p = argparse.ArgumentParser(prog="fbmsig", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("expected-sig", parents=[common, quad],
                       help="exact expected signature coefficients")
    s.add_argument("--H")
    s.add_argument("--words")
    s.set_defaults(fn=cmd_expected_sig)

    s = sub.add_parser("approx-sig", parents=[common],
                       help="grid-approximation expected coefficients")
    s.add_argument("--H")
    s.add_argument("--words")
    s.add_argument("--m")
    s.set_defaults(fn=cmd_approx_sig)

    s = sub.add_parser("convergence", parents=[common, quad],
                       help="gap table, fitted rate and coefficient bound")
    s.add_argument("--H")
    s.add_argument("--words")
    s.add_argument("--m")
    s.set_defaults(fn=cmd_convergence)

    s = sub.add_parser("cubature",
                       help="verify the cubature identity or solve the ansatz")
    actions = s.add_subparsers(dest="action", required=True)
    # only verify runs quadrature, so only verify takes --tol and --degree;
    # it checks one formula, so only solve tabulates both branches
    a = actions.add_parser("verify", parents=[common, quad])
    a.add_argument("--H")
    a.add_argument("--branch", choices=("minus", "plus"))
    a.add_argument("--degree")
    a = actions.add_parser("solve", parents=[common])
    a.add_argument("--H")
    a.add_argument("--branch", choices=("minus", "plus", "both"))
    s.set_defaults(fn=cmd_cubature)

    s = sub.add_parser("sde", parents=[common],
                       help="weak approximation vs Monte-Carlo reference")
    s.add_argument("action", choices=("compare",))
    s.add_argument("--H")
    s.add_argument("--T")
    s.add_argument("--paths")
    s.add_argument("--steps")
    s.add_argument("--seed")
    s.add_argument("--x0")
    s.add_argument("--problem")
    s.add_argument("--M")
    s.add_argument("--gamma")
    s.set_defaults(fn=cmd_sde)

    s = sub.add_parser("bounds", parents=[common],
                       help="explicit constants and error-bound shapes")
    s.add_argument("--H")
    s.add_argument("--T")
    s.add_argument("--M")
    s.add_argument("--gamma")
    s.add_argument("--degree")
    s.set_defaults(fn=cmd_bounds)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return args.fn(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ex.QuadratureToleranceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
