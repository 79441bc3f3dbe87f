"""Output checks that share no code with the timed path.

Every check parses the CLI's CSV output and compares it with values computed
here from first principles: the shipped closed-form table (read as data, not
through `fbmsig`), the even-moment formula 1/(k! 2^k), an Euler-Maclaurin
zeta for the bound constants, and exact distributional bounds for the
Monte-Carlo column.  `check(argv, rc, stdout, table)` returns a list of
problems; an empty list means the request passed.
"""
from __future__ import annotations

import csv
import io
import json
import math

EXPECTED_RC = 0
ABS_TOL = 1e-12


def load_closed_forms(path) -> dict[str, tuple[list[float], list[float]]]:
    """The shipped closed-form table: word -> ascending coefficients of the
    numerator and denominator polynomials in H."""
    with open(path) as fh:
        data = json.load(fh)
    return {e["word"]: (e["num"], e["den"]) for e in data["entries"]}


def _poly(coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _letters(word: str) -> list[int]:
    return [int(x) for x in word.split(",")]


def known_value(word: str, H: float, table) -> float | None:
    """Exact expected coefficient when a closed form is known, else None."""
    if word in table:
        num, den = table[word]
        return _poly(num, H) / _poly(den, H)
    letters = _letters(word)
    nonzero = [x for x in letters if x != 0]
    if any(nonzero.count(c) % 2 for c in set(nonzero)):
        return 0.0
    if not nonzero:
        return 1.0 / math.factorial(len(letters))
    if len(nonzero) == len(letters) and len(set(nonzero)) == 1:
        return single_letter_value(len(letters))
    return None


def single_letter_value(two_k: int) -> float:
    """E B_1^(2k) / (2k)! = 1 / (k! 2^k) for a word of 2k equal letters."""
    k = two_k // 2
    return 1.0 / (math.factorial(k) * 2**k)


def zeta(s: float, n: int = 50) -> float:
    """Riemann zeta for s > 1 by Euler-Maclaurin after n terms."""
    head = sum(i**-s for i in range(1, n))
    tail = n ** (1.0 - s) / (s - 1.0) + 0.5 * n**-s
    # Bernoulli corrections B_2j / (2j)! * s(s+1)...(s+2j-2) * n^(-s-2j+1)
    rising = s
    for j, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30), start=1):
        tail += b / math.factorial(2 * j) * rising * n ** (-s - 2 * j + 1)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return head + tail


def bound_constants(H: float) -> tuple[float, float]:
    """The gap-bound constants (A, A-tilde) from their defining formulas."""
    hh = H * (2.0 * H - 1.0)
    two_h = 2.0 * H
    S = zeta(3.0 - two_h)
    a = 2.0 * (1.0 / hh + (2.0**two_h + 2.0) / hh + (4.0 - 4.0 * H) * S)
    a += (3.0**two_h + 10.0 * 2.0**two_h + 2.0) / (2.0 * hh)
    at = 56.0 * (1.0 + 2.0**two_h) + 4.0 * 3.0**two_h + 16.0 * hh * (4.0 - 4.0 * H) * S
    return a, at


def _flags(argv) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(len(argv) - 1)
            if argv[i].startswith("--")}


def _close(x: float, y: float, tol: float) -> bool:
    return math.isfinite(x) and abs(x - y) <= tol


class _Problems(list):
    def need(self, ok: bool, what: str) -> None:
        if not ok:
            self.append(what)


def check(argv, rc, stdout: str, table) -> list[str]:
    """Problems found in one request's exit code and output (empty: passed)."""
    p = _Problems()
    if rc != EXPECTED_RC:
        return [f"exit code {rc}, expected {EXPECTED_RC}"]
    rows = list(csv.DictReader(io.StringIO(stdout)))
    p.need(len(rows) > 0, "no output rows")
    flags = _flags(argv)
    command = argv[0]
    try:
        if command == "expected-sig":
            _check_expected(rows, flags, table, p)
        elif command == "approx-sig":
            _check_approx(rows, flags, p)
        elif command == "convergence":
            _check_convergence(rows, flags, table, p)
        elif command == "bounds":
            _check_bounds(rows, flags, p)
        elif command == "cubature":
            _check_cubature(argv[1], rows, flags, table, p)
        elif command == "sde":
            _check_sde(rows, flags, p)
        else:
            p.append(f"no check for command {command!r}")
    except (KeyError, ValueError, TypeError) as err:
        p.append(f"unparsable output: {err!r}")
    return p


def _words(flags) -> list[str]:
    return [w for w in flags["words"].split(";") if w]


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


def _check_expected(rows, flags, table, p: _Problems) -> None:
    jobs = [(w, H) for w in _words(flags) for H in _floats(flags["H"])]
    p.need(len(rows) == len(jobs), f"{len(rows)} rows for {len(jobs)} jobs")
    for (w, H), row in zip(jobs, rows):
        p.need(row["word"] == w and float(row["H"]) == H, f"row order at {w}")
        value, err = float(row["value"]), float(row["err_bar"])
        p.need(err >= 0.0, f"{w}: negative err_bar")
        exact = known_value(w, H, table)
        if exact is not None:
            p.need(_close(value, exact, err + ABS_TOL),
                   f"{w} at H={H}: {value!r} vs closed form {exact!r}")
        if row["pass"] != "":
            p.need(row["pass"] == "True", f"{w}: pass column {row['pass']}")


def _check_approx(rows, flags, p: _Problems) -> None:
    jobs = [(w, H, m) for w in _words(flags) for H in _floats(flags["H"])
            for m in _floats(flags["m"])]
    p.need(len(rows) == len(jobs), f"{len(rows)} rows for {len(jobs)} jobs")
    for (w, H, m), row in zip(jobs, rows):
        p.need(row["word"] == w and int(row["m"]) == m, f"row order at {w}, m={m}")
        approx = float(row["approx"])
        letters = _letters(w)
        if len(set(letters)) == 1 and len(letters) % 2 == 0:
            ref = single_letter_value(len(letters))
            p.need(_close(approx, ref, ABS_TOL), f"{w}, m={m}: {approx!r} vs {ref!r}")
        p.need(math.isfinite(approx) and approx >= 0.0, f"{w}, m={m}: approx {approx!r}")


def _check_convergence(rows, flags, table, p: _Problems) -> None:
    ms = sorted(int(m) for m in _floats(flags["m"]))
    hs = _floats(flags["H"])
    data = [r for r in rows if r["kind"] == "row"]
    summaries = [r for r in rows if r["kind"] == "summary"]
    words = _words(flags)
    p.need(len(data) == len(words) * len(hs) * len(ms), "row count")
    p.need(len(summaries) == len(words) * len(hs), "summary count")
    for row in data:
        w, H, m = row["word"], float(row["H"]), int(row["m"])
        exact, approx = float(row["exact"]), float(row["approx"])
        gap, err = float(row["gap"]), float(row["err_bar"])
        p.need(gap == abs(exact - approx), f"{w}, m={m}: gap is not |exact - approx|")
        scaled = float(row["m2H_gap"])
        p.need(_close(scaled, m ** (2 * H) * gap, 1e-12 * max(1.0, scaled)),
               f"{w}, m={m}: m2H_gap")
        ref = known_value(w, H, table)
        if ref is not None:
            p.need(_close(exact, ref, err + ABS_TOL), f"{w}: exact {exact!r} vs {ref!r}")
        letters = _letters(w)
        if len(set(letters)) == 1:
            p.need(_close(approx, single_letter_value(len(letters)), ABS_TOL),
                   f"{w}, m={m}: approx {approx!r}")
    for row in summaries:
        w, H = row["word"], float(row["H"])
        p.need(row["bound_pass"] == "True", f"{w} at H={H}: bound_pass {row['bound_pass']}")
        k = len(_letters(w)) // 2
        _, at = bound_constants(H)
        ref = at * k * (2 * k - 1) / (math.factorial(k - 1) * 2**k)
        p.need(_close(float(row["coeff_bound"]), ref, 1e-9 * ref),
               f"{w} at H={H}: coeff_bound {row['coeff_bound']} vs {ref!r}")
        scaled = [float(r["m2H_gap"]) for r in data if r["word"] == w and float(r["H"]) == H]
        p.need(scaled != [] and float(row["max_m2H_gap"]) == max(scaled), f"{w}: max_m2H_gap")


def _check_bounds(rows, flags, p: _Problems) -> None:
    jobs = [(H, T) for H in _floats(flags["H"]) for T in _floats(flags["T"])]
    p.need(len(rows) == len(jobs), f"{len(rows)} rows for {len(jobs)} jobs")
    for (H, T), row in zip(jobs, rows):
        a, at = bound_constants(H)
        p.need(_close(float(row["A"]), a, float(row["A_err"]) + 1e-12 * a),
               f"H={H}: A {row['A']} vs {a!r}")
        p.need(_close(float(row["Atilde"]), at, float(row["Atilde_err"]) + 1e-12 * at),
               f"H={H}: Atilde {row['Atilde']} vs {at!r}")
        K = math.sqrt(2.0 / (H * (2.0 * H - 1.0)))
        p.need(_close(float(row["K"]), K, 1e-12 * K), f"H={H}: K")
        p.need(float(row["T"]) == T and row["branch"] == ("T>=1" if T >= 1.0 else "T<1"),
               f"H={H}, T={T}: branch {row['branch']}")
        p.need(float(row["bound_shape"]) > 0.0, f"H={H}, T={T}: bound_shape")


def _check_cubature(action, rows, flags, table, p: _Problems) -> None:
    H = float(flags["H"])
    if action == "solve":
        p.need([r["branch"] for r in rows] == ["minus", "plus"], "solve branches")
        for row in rows:
            p.need(float(row["max_residual"]) <= 1e-9, f"{row['branch']}: residual")
            p.need(float(row["lam1"]) == 1 / 6 and float(row["lam3"]) == 2 / 3, "weights")
        return
    degree = 5 if H < 2.0 / 3.0 else 4
    for row in rows:
        w = row["word"]
        p.need(int(row["degree"]) == degree, f"degree {row['degree']}")
        p.need(row["passed"] == "True", f"{w}: passed {row['passed']}")
        lhs, rhs = float(row["lhs"]), float(row["rhs"])
        p.need(float(row["abs_err"]) == abs(lhs - rhs), f"{w}: abs_err")
        if row["lhs_source"] == "closed-form":
            ref = known_value(w, H, table) if w else 1.0
            p.need(ref is not None and _close(lhs, ref, ABS_TOL), f"{w}: lhs {lhs!r}")


def quadratic_mc_plausible(mean: float, n: int, x0: float, var: float,
                           log_inv_alpha: float = 21.0) -> bool:
    """Is `mean` a plausible average of n draws of (x0 + N(0, var))^2?

    n * mean / var is noncentral chi-square with n degrees of freedom and
    noncentrality n x0^2 / var.  The Laurent-Massart / Birge tail bounds
    P(X >= n + l + 2 sqrt((n + 2l) x) + 2x) <= e^-x and
    P(X <= n + l - 2 sqrt((n + 2l) x)) <= e^-x give an acceptance interval
    with a false-alarm rate below 2 e^-21 (about 1.5e-9) whatever n is.
    """
    lam = n * x0 * x0 / var
    x = log_inv_alpha
    spread = 2.0 * math.sqrt((n + 2.0 * lam) * x)
    stat = n * mean / var
    return n + lam - spread <= stat <= n + lam + spread + 2.0 * x


# Below this many paths the skewed sample mean makes a 5-sigma z-test fail
# far more often than a normal tail would suggest; the exact bound above
# covers those requests.
Z_TEST_MIN_PATHS = 1000


def _check_sde(rows, flags, p: _Problems) -> None:
    p.need(len(rows) == 1, "one row")
    row = rows[0]
    H, T, x0 = float(flags["H"]), float(flags["T"]), float(flags["x0"])
    n = int(flags["paths"])
    p.need(int(row["n_paths"]) == n and int(row["n_steps"]) == int(flags["steps"])
           and row["seed"] == flags["seed"], "echoed parameters")
    cub, mc, se = float(row["cubature_value"]), float(row["mc_value"]), float(row["mc_stderr"])
    if flags["problem"] == "zero":
        tol = ABS_TOL * max(1.0, abs(x0))
        p.need(_close(cub, x0, tol) and _close(mc, x0, tol), f"zero problem: {cub!r}, {mc!r}")
        return
    var = T ** (2.0 * H)
    exact = x0 * x0 + var
    p.need(_close(cub, exact, 1e-10), f"cubature_value {cub!r} vs {exact!r}")
    p.need(quadratic_mc_plausible(mc, n, x0, var), f"mc_value {mc!r} implausible")
    if n >= Z_TEST_MIN_PATHS:
        p.need(_close(mc, exact, 5.0 * se), f"mc_value {mc!r} beyond 5 stderr of {exact!r}")
