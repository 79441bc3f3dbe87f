"""Degree bookkeeping, the explicit three-path cubature formula, the ansatz
solver behind it, and verification of the cubature identity.

A cubature formula of degree m at time 1 is a set of positive weights and
time-augmented bounded-variation paths whose deterministic iterated integrals
match the expected fBm values for every word whose weight
2Hk + (2-2H) * #time-letters is at most m.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .expected import closed_form_value, expected_word
from .simplexquad import MAX_PAIRS, QuadConfig
from .tensor import Word, all_words, batch_grid_signatures, word_index

__all__ = [
    "CubatureFormula",
    "AnsatzSolution",
    "word_weight",
    "words_of_degree",
    "three_path_formula",
    "solve_ansatz",
    "system_residuals",
    "formula_from_solution",
    "rescale_formula",
    "verify_formula",
    "VerifyReport",
    "VerifyRow",
    "empirical_degree",
    "DegreeScan",
]

SQRT3 = math.sqrt(3.0)
# verify_formula accepts a word when |lhs - rhs| <= BASE_TOL plus the error
# bar of the expected side; degrees are capped at SCAN_CAP, the exact side's reach.
BASE_TOL = 1e-9
SCAN_CAP = 2 * MAX_PAIRS


def _check_H_cubature(H: float) -> None:
    if not 0.5 <= H < 1.0:
        raise ValueError(f"cubature requires H in [1/2, 1), got {H}")


@dataclass(frozen=True)
class CubatureFormula:
    """Positive weights summing to one and piecewise-linear paths on the
    shared breakpoints `times`; `spatial` holds their spatial values, shape
    (paths, breakpoints, d), and every path starts at the origin.  The time
    coordinate is implied by `times`."""

    H: float
    weights: tuple[float, ...]
    times: tuple[float, ...]
    spatial: np.ndarray
    claimed_degree: int

    def __post_init__(self):
        _check_H_cubature(self.H)
        spatial = np.asarray(self.spatial, dtype=float)
        if spatial.ndim != 3 or 0 in spatial.shape or spatial.shape[:2] != (
                len(self.weights), len(self.times)):
            raise ValueError("spatial must have shape (weights, breakpoints, d >= 1)")
        if not all(b > a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("breakpoint times must be strictly increasing")
        if not np.abs(spatial[:, 0]).max() <= 1e-12:  # NaN fails too
            raise ValueError("every cubature path must start at the origin")
        if not all(w > 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if not abs(sum(self.weights) - 1.0) <= 1e-12:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "spatial", spatial)


def word_weight(word: Word, H: float) -> float:
    """Degree weight 2Hk + (2-2H) * (number of time letters)."""
    return _weight(H, len(word), word.zero_count)


def _weight(H: float, length: int, zeros: int) -> float:
    return 2.0 * H * length + (2.0 - 2.0 * H) * zeros


# Each word over {0, ..., d} of one length with its number of time letters,
# in all_words' order.  words_of_degree reaches d <= 2 and lengths up to
# SCAN_CAP (at H = 1/2): 18 entries of 10352 words in all, 2.5 MB (0.13 MB
# for d = 1, the only width the CLI asks).
@functools.lru_cache(maxsize=18)
def _words_of_length(d: int, length: int) -> tuple[tuple[int, Word], ...]:
    return tuple((w.zero_count, w) for w in all_words(d, length))


def words_of_degree(m: int, H: float, d: int) -> list[Word]:
    """All words (including the empty one) of weight <= m, deterministic order.

    Finite because every letter adds at least 2H >= 1 to the weight.
    """
    _check_H_cubature(H)
    if m < 0:
        raise ValueError(f"cubature degree must be >= 0, got {m}")
    if m > SCAN_CAP or d > 2:
        raise ValueError(f"degree capped at {SCAN_CAP} and d at 2 (enumeration budget)")
    out = []
    length = 0
    while 2.0 * H * length <= m + 1e-9:
        fits = [_weight(H, length, z) <= m + 1e-9 for z in range(length + 1)]
        out += [w for z, w in _words_of_length(d, length) if fits[z]]
        length += 1
    return out


def three_path_formula(H: float) -> CubatureFormula:
    """The explicit three-path formula: two opposite piecewise-linear paths
    with breakpoints at thirds and one zero path, weights (1/6, 1/6, 2/3).

    It is the "minus" root of the ansatz system.  Degree 5 for
    1/2 <= H < 2/3, degree 4 for 2/3 <= H < 1.
    """
    return formula_from_solution(solve_ansatz(H, "minus"))


@dataclass(frozen=True)
class AnsatzSolution:
    """Solution of the six-equation system for the symmetric three-path ansatz
    with slopes a, b1, c1 on [0,1/3], [1/3,2/3], [2/3,1]."""

    H: float
    branch: str
    lam1: float
    lam3: float
    a: float
    b1: float
    b0: float
    c1: float
    c0: float


def solve_ansatz(H: float, branch: str = "minus") -> AnsatzSolution:
    """Solve the ansatz system; both quadratic roots are valid formulas.

    branch "minus" gives three_path_formula; "plus" is the second root.
    The returned solution satisfies all six system residuals to 1e-10 and the
    derived identities a = c1, b0 = -c0.
    """
    _check_H_cubature(H)
    if branch not in ("minus", "plus"):
        raise ValueError(f"branch must be 'minus' or 'plus', got {branch!r}")
    disc = math.sqrt((57.0 - 48.0 * H) / (2.0 * H + 1.0))
    c1 = 2.0 * SQRT3 - disc if branch == "minus" else 2.0 * SQRT3 + disc
    sol = AnsatzSolution(
        H=H,
        branch=branch,
        lam1=1.0 / 6.0,
        lam3=2.0 / 3.0,
        a=c1,
        b1=3.0 * SQRT3 - 2.0 * c1,
        b0=c1 - SQRT3,
        c1=c1,
        c0=SQRT3 - c1,
    )
    res = system_residuals(sol)
    if max(abs(r) for r in res) > 1e-10:
        raise AssertionError(f"ansatz residuals too large at H={H}: {res}")
    return sol


def system_residuals(sol: AnsatzSolution) -> tuple[float, ...]:
    """Residuals of the six defining equations (zero at a valid solution)."""
    H = sol.H
    lam1, lam3 = sol.lam1, sol.lam3
    a, b1, b0, c1, c0 = sol.a, sol.b1, sol.b0, sol.c1, sol.c0
    w1 = c1 + c0  # endpoint value of the first path
    quad_b = 7.0 * b1 * b1 / 27.0 + b1 * b0 + b0 * b0
    lin = a / 18.0 + b1 / 6.0 + b0 / 3.0
    r1 = 2.0 * lam1 + lam3 - 1.0
    r2 = 2.0 * lam1 * w1 * w1 - 1.0
    r3 = (
        a * a / 81.0
        + quad_b / 3.0
        + (19.0 * c1 * c1 / 27.0 + 5.0 * c1 * c0 / 3.0 + c0 * c0) / 3.0
        - 1.0 / (2.0 * lam1 * (2.0 * H + 1.0))
    )
    r4 = (
        a * a / 81.0
        - 2.0 * w1 * lin
        + quad_b / 3.0
        + 55.0 * c1 * c1 / 81.0
        + 2.0 * c0 * c0 / 3.0
        + 4.0 * c1 * c0 / 3.0
        - 1.0 / (2.0 * lam1 * (2.0 * H + 1.0))
    )
    r5 = (
        w1 * lin
        - a * a / 81.0
        - quad_b / 3.0
        + 7.0 * c1 * c1 / 162.0
        + c1 * c0 / 18.0
        - (2.0 * H - 1.0) / (4.0 * lam1 * (2.0 * H + 1.0))
    )
    r6 = lam1 * w1**4 - 1.5
    return (r1, r2, r3, r4, r5, r6)


def formula_from_solution(sol: AnsatzSolution) -> CubatureFormula:
    """Build the three-path formula realized by an ansatz solution."""
    vals = [0.0, sol.a / 3.0, 2.0 * sol.b1 / 3.0 + sol.b0, sol.c1 + sol.c0]
    degree = 5 if sol.H < 2.0 / 3.0 else 4
    return CubatureFormula(
        H=sol.H,
        weights=(sol.lam1, sol.lam1, sol.lam3),
        times=(0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0),
        spatial=np.array([vals, [-x for x in vals], [0.0] * 4])[:, :, None],
        claimed_degree=degree,
    )


def rescale_formula(formula: CubatureFormula, T: float) -> CubatureFormula:
    """Carry a unit-interval formula to [0, T]: time scales by T, spatial
    coordinates by T^H with H = formula.H, weights unchanged."""
    if not 0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T}")
    return replace(formula, times=tuple(t * T for t in formula.times),
                   spatial=formula.spatial * T**formula.H)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyRow:
    word: Word
    weight: float
    lhs: float
    rhs: float
    abs_err: float
    lhs_source: str  # "closed-form" or "quadrature"
    passed: bool


@dataclass(frozen=True)
class VerifyReport:
    rows: tuple[VerifyRow, ...]
    max_abs_err: float
    passed: bool


def _expected_side(word: Word, H: float, config: QuadConfig | None):
    cf = closed_form_value(word, H)
    if cf is not None:
        return cf, 0.0, "closed-form"
    val, err = expected_word(word, H, config)
    return val, err, "quadrature"


def verify_formula(
    formula: CubatureFormula,
    degree: int,
    config: QuadConfig | None = None,
) -> VerifyReport:
    """Check the cubature identity at H = formula.H for every word of weight
    <= degree over the formula's d letters.

    The expected side prefers a closed form (exact in H, and available for
    every word at H = 1/2); quadrature is the fallback, and its error bar is
    added to the per-word tolerance.
    Mismatches are report content, never exceptions.
    """
    H = formula.H
    d = formula.spatial.shape[2]
    words = words_of_degree(degree, H, d)
    depth = max(len(w) for w in words)  # the empty word is always there
    levels = batch_grid_signatures(formula.times, formula.spatial, depth)
    # per level, each word's coefficients on the paths
    columns = [lv.T.tolist() for lv in levels]
    rows: list[VerifyRow] = []
    for w in words:  # by length, then letters
        lhs, lhs_err, source = _expected_side(w, H, config)
        coeffs = columns[len(w)][word_index(w.letters, d)]
        rhs = sum(map(operator.mul, formula.weights, coeffs))
        err = abs(lhs - rhs)
        rows.append(
            VerifyRow(
                word=w,
                weight=word_weight(w, H),
                lhs=lhs,
                rhs=rhs,
                abs_err=err,
                lhs_source=source,
                passed=err <= BASE_TOL + lhs_err,
            )
        )
    max_err = max((r.abs_err for r in rows), default=0.0)
    return VerifyReport(
        rows=tuple(rows),
        max_abs_err=max_err,
        passed=all(r.passed for r in rows),
    )


@dataclass(frozen=True)
class DegreeScan:
    claimed_degree: int
    measured_degree: int
    first_failure: Word | None


def empirical_degree(
    formula: CubatureFormula,
    config: QuadConfig | None = None,
) -> DegreeScan:
    """Measure the largest integer degree up to SCAN_CAP at which every
    word still matches, instead of assuming the claimed degree."""
    report = verify_formula(formula, SCAN_CAP, config)
    # rows come by length, then letters; min keeps that order among equal weights
    first = min((r for r in report.rows if not r.passed), key=lambda r: r.weight,
                default=None)
    fail_weight = first.weight if first else math.inf
    measured = 0
    for m in range(1, SCAN_CAP + 1):
        if m + 1e-9 < fail_weight:
            measured = m
    return DegreeScan(
        claimed_degree=formula.claimed_degree,
        measured_degree=measured,
        first_failure=first.word if first else None,
    )
