"""Batch command-line front end.

Every experiment is a subcommand writing a machine-readable table (CSV or
JSON).  Each cell is formatted once, when its row is added (expected-sig
formats each H once for all its words, and a word's cells that hold at every
H once per process, with their CSV text), and both encodings carry those
strings.  Options can come from a flat key=value config file; explicit flags
win, and a key that no command takes is a usage error.  Words are exchanged
as comma-separated letter strings ("1,0,1", letter 0 being the time
coordinate); lists of words are separated by semicolons, other lists by
commas.  A row is labelled with its word's canonical letter text ("1,1" for
the input " 1,+1"); a word text met again is read, label included, from a
memo of parsed words.  An --H value outside its range is refused with the
text typed for it when that reads as another number.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 quadrature
tolerance failure.
"""
from __future__ import annotations

import argparse
import csv
import datetime
import functools
import io
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


def _csv_line(cells) -> str:
    """The CSV text of one row of cells, line end included."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


class _Around(NamedTuple):
    """The cells of a row on either side of its one varying cell, and their
    CSV text, encoded once for every row that shares them.  Within a row of
    two or more cells each cell's text does not depend on its neighbours."""

    head: tuple[str, ...]
    tail: tuple[str, ...]
    csv_head: str  # the head's text and the delimiter after it
    csv_tail: str  # the delimiter before the tail, its text and the line end

    @classmethod
    def of(cls, head: tuple[str, ...], tail: tuple[str, ...]) -> _Around:
        return cls(head, tail, _csv_line([*head, ""])[:-1], _csv_line(["", *tail]))


class TableWriter:
    """Collects rows of one fixed column set and writes CSV or JSON.  A row
    is a list of cells, or a tuple (around, cell) of an _Around and the cell
    between its sides, whose CSV text is joined, not encoded again."""

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
            middle = {}  # each varying cell's text between two delimiters
            for row in self.rows:
                if type(row) is list:
                    writer.writerow(row)
                    continue
                around, cell = row
                if cell not in middle:
                    middle[cell] = _csv_line([cell, ""])[:-2]
                stream.write(around.csv_head + middle[cell] + around.csv_tail)
        else:
            # json.dump(..., indent=1) of {"columns", "rows"[, "generated"]}:
            # every cell is a string, encoded by the json module's C string
            # encoder, where json.dump with an indent runs its Python encoder
            text = json.encoder.encode_basestring_ascii
            rows = [_json_array(map(text, r if type(r) is list
                                    else [*r[0].head, r[1], *r[0].tail]), 2)
                    for r in self.rows]
            stream.write('{\n "columns": ' + _json_array(map(text, self.columns), 1)
                         + ',\n "rows": ' + _json_array(rows, 1))
            if timestamp:
                stream.write(',\n "generated": ' + text(_now()))
            stream.write("\n}\n")


def _json_array(items, depth: int) -> str:
    """A JSON array of encoded items as json.dump(..., indent=1) lays it out
    at the given nesting depth: one item a line, "[]" when empty."""
    items = list(items)
    if not items:
        return "[]"
    gap = "\n" + " " * (depth + 1)
    return "[" + gap + ("," + gap).join(items) + "\n" + " " * depth + "]"


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


def _hurst_list(text: str) -> list[tuple[float, str]]:
    """(H, its typed text) for each item of an --H list."""
    items = [t for t in str(text).split(",") if t != ""]
    return list(zip(_parse_list(text, float, "H"), items))


def _check_hurst(H: float, typed: str, check=ex.check_hurst) -> None:
    """check(H); a refusal also quotes the typed text when it reads as
    another number, as 0.50000000000000001 does, which parses to 0.5."""
    try:
        check(H)
    except ValueError as err:
        if typed.strip() == str(H):
            raise
        raise ValueError(f"{err} (parsed from --H {typed.strip()!r})") from None


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


# Each command's flags, and each cubature action's, in --help order, with
# their defaults.  A default fills its flag after the config file, not in
# argparse, which cannot tell an explicit flag equal to its default from an
# omitted one; a None default is left to the command (cubature verify checks
# its formula's claimed degree).
_FLAGS = {
    "expected-sig": {"H": "0.75", "words": "1,1"},
    "approx-sig": {"H": "0.75", "words": "1,1", "m": "4,8,16,32,64"},
    "convergence": {"H": "0.75", "words": "1,2,1,2;1,1,2,2", "m": "4,8,16,32,64"},
    "cubature verify": {"H": "0.5", "branch": "minus", "degree": None},
    "cubature solve": {"H": "0.5", "branch": "minus"},
    "sde": {"H": "0.75", "T": "1.0", "paths": "10000", "steps": "64",
            "seed": "12345", "x0": "0.0", "problem": "quadratic", "M": "1.0",
            "gamma": "0.0"},
    "bounds": {"H": "0.6,0.75,0.9", "T": "0.5,1,2", "M": "1.0", "gamma": "0.0",
               "degree": "5"},
}
# A config file may set these flags and format, out and tol.  Another key
# (a misspelling such as "word" for "words") is refused, not dropped; a key
# of another command is ignored, so that one file serves several commands.
_CONFIG_KEYS = frozenset({"format", "out", "tol"}).union(*_FLAGS.values())


def _apply_config(args: argparse.Namespace):
    """Resolve each option as: explicit flag, else config value, else default."""
    cfg = _read_config(args.config) if args.config else {}
    for key, raw in cfg.items():
        attr = key.replace("-", "_")
        if attr not in _CONFIG_KEYS:
            raise ValueError(f"config key {key!r} is not an option of any command")
        if hasattr(args, attr) and getattr(args, attr) is None:
            setattr(args, attr, raw)
    for attr, value in {"format": "csv", **args.flags}.items():
        if getattr(args, attr) is None:
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

    fixed: _Around | None  # word | H | value, err_bar, bound, refined_bound, pass
    bounds: tuple[str, str] | None  # bound, refined_bound under the decay bound


# A level table asks every word again at each fresh H, and 609 of the 715
# six-letter words have a value that holds at every H (an odd letter count, a
# pure time word), so their rows are formatted and CSV-encoded once per
# process, all but the H cell; the others keep their bound cells.  Both come
# from the word's plan, which holds its value and decay constants.  Such a
# value under the decay bound is 0 and passes.  Keyed by the label (a str
# caches its hash, a Word does not); the bound holds the 961 word texts of
# the benchmark's exact workload.
@functools.lru_cache(maxsize=2048)
def _level_cells(label: str) -> _LevelCells:
    plan = ex._word_plan(_word(label)[0].letters)
    value = plan.value
    if plan.decay is None:
        fixed = (None if value is None else
                 _Around.of((label,), (_fmt(value.value), _fmt(value.error), "", "", "")))
        return _LevelCells(fixed, None)
    bounds = (_fmt(plan.decay[0]), _fmt(plan.decay[1]))
    if value is None:
        return _LevelCells(None, bounds)
    rep = ex._decay_report(plan, value)
    fixed = (_fmt(rep.value), _fmt(rep.quad_error), *bounds, _fmt(rep.passed))
    return _LevelCells(_Around.of((label,), fixed), bounds)


def cmd_expected_sig(args) -> int:
    words = _parse_words(args.words)
    hs = _hurst_list(args.H)
    config = _quad_config(args)
    cols = ["word", "H", "value", "err_bar", "bound", "refined_bound", "pass"]
    table = TableWriter(cols)
    h_cells = [_fmt(H) for H, _ in hs]  # every word's row shares its H cell
    failures = 0
    for n, (w, label) in enumerate(words):
        for (H, typed), h_cell in zip(hs, h_cells):
            if not n:  # the first word meets each H first, before a plan is read
                _check_hurst(H, typed)
            cells = _level_cells(label)
            if cells.fixed is not None:
                table.rows.append((cells.fixed, h_cell))
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
    for H, typed in hs:
        _check_hurst(H, typed)
    for m in ms:
        ga._check_cells(m)
    for w, _ in words:
        ga._check_word(w)


def cmd_approx_sig(args) -> int:
    words = _parse_words(args.words)
    hs = _hurst_list(args.H)
    ms = _parse_list(args.m, int, "m")
    _check_grids(hs, ms, words)
    table = TableWriter(["word", "H", "m", "approx"])
    for w, label in words:
        for H, _ in hs:
            for m in ms:
                table.add(word=label, H=H, m=m,
                          approx=ga.approx_expected_word(w, H, m))
    _emit(args, table)
    return EXIT_OK


def cmd_convergence(args) -> int:
    words = _parse_words(args.words)
    hs = _hurst_list(args.H)
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
        for H, _ in hs:
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
    hs = _hurst_list(args.H)
    if args.action == "solve":
        branches = ("minus", "plus") if args.branch == "both" else (args.branch,)
        table = TableWriter(["H", "branch", "lam1", "lam3", "a", "b1", "b0",
                             "c1", "c0", "max_residual"])
        for H, typed in hs:
            _check_hurst(H, typed, cb._check_H_cubature)
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
    for H, typed in hs:
        _check_hurst(H, typed, cb._check_H_cubature)
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
    _check_hurst(H, args.H)
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
    hs = _hurst_list(args.H)
    ts = [_finite("T", t) for t in _parse_list(args.T, float, "T")]
    M, gamma = _finite("M", args.M), _finite("gamma", args.gamma)
    degree = _number("degree", args.degree, int)
    table = TableWriter(["H", "A", "A_err", "Atilde", "Atilde_err", "K", "T",
                         "bound_shape", "branch"])
    for H, typed in hs:
        _check_hurst(H, typed)
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
# leaves it unchanged, so main() builds it once per process.  main() parses
# a request with the parser of the command it names (_parse): 23-30 us for
# an exact or grid request against 53-55 us for the root's parse_args, which
# scans every flag and hands them to that parser to parse again (2-vCPU VM).
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

    def add(parser, fn, **choices):
        """Add _FLAGS[key] to parser, that of `fbmsig <key>`, which runs fn."""
        flags = _FLAGS[parser.prog.removeprefix("fbmsig ")]
        for flag in flags:
            parser.add_argument(f"--{flag}", choices=choices.get(flag))
        parser.set_defaults(fn=fn, flags=flags)

    p = argparse.ArgumentParser(prog="fbmsig", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    add(sub.add_parser("expected-sig", help="exact expected signature coefficients",
                       parents=[common, quad]), cmd_expected_sig)
    add(sub.add_parser("approx-sig", help="grid-approximation expected coefficients",
                       parents=[common]), cmd_approx_sig)
    add(sub.add_parser("convergence", help="gap table, fitted rate and coefficient bound",
                       parents=[common, quad]), cmd_convergence)
    s = sub.add_parser("cubature", help="verify the cubature identity or solve the ansatz")
    actions = s.add_subparsers(dest="action", required=True)
    # only verify runs quadrature, so only verify takes --tol and --degree;
    # it checks one formula, so only solve tabulates both branches
    add(actions.add_parser("verify", parents=[common, quad]), cmd_cubature,
        branch=("minus", "plus"))
    add(actions.add_parser("solve", parents=[common]), cmd_cubature,
        branch=("minus", "plus", "both"))
    s = sub.add_parser("sde", help="weak approximation vs Monte-Carlo reference",
                       parents=[common])
    s.add_argument("action", choices=("compare",))
    add(s, cmd_sde)
    add(sub.add_parser("bounds", help="explicit constants and error-bound shapes",
                       parents=[common]), cmd_bounds)
    return p


def _parse(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), parsed by the parser of the command
    (and cubature action) that argv names: the leading command words are
    walked down the subparsers' choices, their dests set, and the rest
    parsed once by the deepest parser named.  Leftover arguments are
    reported by the root parser, as parse_args reports them, and an argv
    that names no command is the root's."""
    root = parser = build_parser()
    args, i = argparse.Namespace(), 0
    while i < len(argv):
        subs = next((a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)), None)
        if subs is None or argv[i] not in subs.choices:
            break
        setattr(args, subs.dest, argv[i])
        parser, i = subs.choices[argv[i]], i + 1
    if parser is root:
        return root.parse_args(argv)
    args, extras = parser.parse_known_args(argv[i:], args)
    if extras:
        root.error("unrecognized arguments: " + " ".join(extras))
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
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
