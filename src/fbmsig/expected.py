"""Exact expected signature coefficients of time-augmented fBm for H > 1/2.

The coefficient attached to a word is the expectation of the iterated Young
integral over the ordered simplex on [0, 1].  Writing 2k for the number of
nonzero letters, the Gaussian pairing expansion gives

    E = (H(2H-1))^k * sum over compatible matchings M of the nonzero positions
        of  integral over the simplex of prod_{(a,b) in M} |t_b - t_a|^(2H-2),

time positions contributing unit density.  Any word in which some nonzero
letter occurs an odd number of times has expectation exactly zero and is
short-circuited without quadrature.
"""
from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

import numpy as np

from . import matchings as mt
from . import simplexquad as sq
from .simplexquad import MAX_PAIRS, CertifiedValue, QuadConfig
from .tensor import Word, all_words

__all__ = [
    "QuadratureToleranceError",
    "check_hurst",
    "expected_word",
    "expected_tensor",
    "closed_form_value",
    "closed_form_table",
    "decay_bound_check",
    "decay_bound_applies",
    "DecayReport",
    "canonical_relabel",
]


def check_hurst(H: float) -> None:
    """Reject H outside the Young range (1/2, 1) (NaN included)."""
    if not 0.5 < H < 1.0:
        raise ValueError(f"H must lie in (1/2, 1), got {H}")


class QuadratureToleranceError(RuntimeError):
    """Raised when the quadrature error estimate exceeds the requested
    tolerance; carries the value actually achieved."""

    def __init__(self, word, value, error, tol):
        super().__init__(
            f"quadrature for word ({word}) achieved error {error:.3e} "
            f"above tolerance {tol:.3e}"
        )
        self.word = word
        self.value = value
        self.error = error
        self.tol = tol


def _odd_letter(letters: tuple[int, ...]) -> bool:
    counts = Counter(x for x in letters if x != 0)
    return any(c % 2 for c in counts.values())


class _WordPlan(NamedTuple):
    """Everything about a word that does not depend on H: either a value that
    holds at every H (an odd letter count, a pure time word), or the word
    length n, the pair count k and, per compatible matching in enumeration
    order, its shape from simplexquad._shape; and, when decay_bound_applies,
    the decay triple (bound 1/(k! 2^k), refined bound, candidate
    permutation_count / (k! 2^k (2k)!)), else None."""

    value: CertifiedValue | None
    n: int
    k: int
    shapes: tuple
    decay: tuple[float, float, float] | None


# A level table asks every word again at each fresh H, and only the matching
# integrals depend on H.  The bound holds without eviction the 961 distinct
# words of the benchmark's exact workload (the canonical tables over {0..3}
# of length 4, 5 and 6, the words over {1,2} of length 4, the cubature
# verify words) and the 1093 words of expected_tensor(H, 2, 6); the 1518
# plans of both together measured 0.64 MB.
@functools.lru_cache(maxsize=2048)
def _word_plan(letters: tuple[int, ...]) -> _WordPlan:
    n = len(letters)
    positions = tuple(i for i, x in enumerate(letters) if x != 0)
    if not positions:
        # pure time word: volume of the ordered simplex
        return _WordPlan(CertifiedValue(1 / math.factorial(n), 0.0), n, 0, (), None)
    if _odd_letter(letters):
        value, k, shapes = CertifiedValue(0.0, 0.0), 0, ()
    elif len(positions) > 2 * MAX_PAIRS:
        raise ValueError(f"at most {2 * MAX_PAIRS} nonzero letters supported, "
                         f"got word ({','.join(map(str, letters))})")
    else:
        sub = tuple(letters[i] for i in positions)
        shapes = tuple(sq._shape(n, tuple((positions[a], positions[b]) for a, b in m))
                       for m in mt.compatible_matchings(Word(sub, max(sub))))
        value, k = None, len(positions) // 2
    decay = None
    if len(positions) == n and n % 2 == 0:  # decay_bound_applies
        # an odd letter count has no matching, so its candidate is 0 at any
        # length; integer true division underflows instead of overflowing
        half = n // 2
        norm = math.factorial(half) * 2**half
        counted = norm * math.factorial(n)
        decay = (1 / norm, mt.refined_count_bound(half, len(set(letters))) / counted,
                 norm * len(shapes) / counted)
    return _WordPlan(value, n, k, shapes, decay)


def expected_word(
    word: Word, H: float, config: QuadConfig | None = None
) -> CertifiedValue:
    """Expected iterated-integral coefficient of the word over [0, 1].

    Raises QuadratureToleranceError when the quadrature error estimate misses
    config.tol; the failure carries the achieved value and error.
    """
    check_hurst(H)  # before any shortcut
    config = config or QuadConfig()
    plan = _word_plan(word.letters)
    if plan.value is not None:
        return plan.value
    exponent = float(2.0 * H - 2.0)
    value = 0.0
    error = 0.0
    for shape in plan.shapes:
        res = sq._shape_integral(plan.n, shape, exponent)
        value += res.value
        error += res.error
    c_H = H * (2.0 * H - 1.0)
    value *= c_H**plan.k
    error *= c_H**plan.k
    if error > config.tol:
        raise QuadratureToleranceError(word, value, error, config.tol)
    return CertifiedValue(value, error)


def canonical_relabel(word: Word) -> Word:
    """Relabel nonzero letters by order of first appearance (expectation is
    invariant under any permutation of the nonzero alphabet)."""
    mapping: dict[int, int] = {}
    out = []
    for x in word.letters:
        if x == 0:
            out.append(0)
            continue
        if x not in mapping:
            mapping[x] = len(mapping) + 1
        out.append(mapping[x])
    return Word(tuple(out), word.d)


def expected_tensor(
    H: float, d: int, depth: int, config: QuadConfig | None = None
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Expected signature of d-dimensional fBm up to the given depth, as
    (values, errors): level arrays in the layout of a batch_grid_signatures
    row, holding expected_word's values and bars.  Each word's H-independent
    plan (its value when that holds at every H, its matching shapes and its
    decay constants) is kept in a memo of 2048 words, so while the words fit
    it (d = 2 at depth 6 asks 1093) a call at a new H computes only the
    matching integrals, and words that agree after relabelling the nonzero
    alphabet share those through the quadrature memo.  Depth reaches
    2 * MAX_PAIRS = 8: d = 1 at depth 8 asks 511 words over all 1107 shapes
    of up to four pairs, whose 10409 closed cores are 300 distinct Beta
    products at each H.  On a 2-vCPU VM that takes 1.4-1.5 s in a fresh
    process, which also builds the plans, and 0.8-1.0 s at each further H."""
    check_hurst(H)
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth > 2 * MAX_PAIRS:
        raise ValueError(f"depth capped at {2 * MAX_PAIRS}")
    cells = [np.array([expected_word(w, H, config) for w in all_words(d, length)])
             for length in range(depth + 1)]
    return [c[:, 0] for c in cells], [c[:, 1] for c in cells]


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


@functools.cache
def closed_form_table() -> dict[str, dict]:
    """The shipped table of closed-form coefficients (rational functions of H),
    read once per process; callers must not mutate it."""
    with resources.files("fbmsig.data").joinpath("closed_forms.json").open() as fh:
        data = json.load(fh)
    return {e["word"]: e for e in data["entries"]}


def _brownian_value(letters: tuple[int, ...]) -> float:
    """Coefficient of E S = exp(e_0 + 1/2 sum_i e_i e_i) at H = 1/2: a word
    that splits left to right into z letters 0 and p doubled letters i,i has
    2^-p / (z+p)!, every other word 0."""
    z = p = j = 0
    while j < len(letters):
        if letters[j] == 0:
            z, j = z + 1, j + 1
        elif j + 1 < len(letters) and letters[j + 1] == letters[j]:
            p, j = p + 1, j + 2
        else:
            return 0.0
    return 1 / (2**p * math.factorial(z + p))


def closed_form_value(word: Word, H: float) -> float | None:
    """Closed-form expectation when one is known, else None.

    Sources: the Brownian expected signature at H = 1/2 (every word), the
    shipped table, the even-moment formula for single-letter words
    (E B_1^{2k} / (2k)! = 1/(k! 2^k)), pure-time words (1/n!), and the
    exact-zero rule for odd letter counts.  Valid for H >= 1/2.
    """
    if H == 0.5:
        return _brownian_value(word.letters)
    e = closed_form_table().get(str(word))
    if e is not None:
        num = np.polynomial.polynomial.polyval(H, e["num"])
        den = np.polynomial.polynomial.polyval(H, e["den"])
        return float(num / den)
    if _odd_letter(word.letters):
        return 0.0
    letters = word.letters
    if not letters:
        return 1.0
    if all(x == 0 for x in letters):
        return 1 / math.factorial(len(letters))
    nz = [x for x in letters if x != 0]
    if len(nz) == len(letters) and len(set(nz)) == 1:
        k = len(nz) // 2
        return 1 / (math.factorial(k) * 2**k)
    return None


# ---------------------------------------------------------------------------
# decay bound report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayReport:
    value: float
    quad_error: float
    bound: float              # 1 / (k! 2^k)
    refined_bound: float      # letter-multiplicity refinement of the bound
    candidate_difference: float  # value - permutation_count / (k! 2^k (2k)!)
    passed: bool


def decay_bound_applies(word: Word) -> bool:
    """Whether the decay bound covers the word: non-empty, of even length,
    and without the time letter 0."""
    return bool(word.letters) and len(word) % 2 == 0 and 0 not in word.letters


def _decay_report(plan: _WordPlan, value: CertifiedValue) -> DecayReport:
    """The decay report of a pure-fBm word with this plan and expected value."""
    bound, refined, candidate = plan.decay
    val, err = value
    return DecayReport(
        value=val,
        quad_error=err,
        bound=bound,
        refined_bound=refined,
        candidate_difference=val - candidate,
        passed=val <= bound + err,
    )


def decay_bound_check(
    word: Word, H: float, config: QuadConfig | None = None
) -> DecayReport:
    """Check the sharp decay bound value <= 1/(k! 2^k) for a pure-fBm word.

    The report also carries the word-dependent refined bound and the
    difference from the H-independent candidate permutation_count /
    (k! 2^k (2k)!); whether the candidate equals the true value for mixed
    words is not assumed, only measured.
    """
    if not decay_bound_applies(word):
        raise ValueError("decay bound applies to even-length words with nonzero letters")
    value = expected_word(word, H, config)
    return _decay_report(_word_plan(word.letters), value)
