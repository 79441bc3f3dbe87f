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

import numpy as np

from . import matchings as mt
from .simplexquad import CertifiedValue, QuadConfig, matching_simplex_integral
from .tensor import TruncatedTensor, Word, all_words

__all__ = [
    "QuadratureToleranceError",
    "check_hurst",
    "expected_word",
    "expected_tensor",
    "closed_form_value",
    "closed_form_table",
    "decay_bound_check",
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


def _odd_letter(word: Word) -> bool:
    counts = Counter(x for x in word.letters if x != 0)
    return any(c % 2 for c in counts.values())


def expected_word(
    word: Word, H: float, config: QuadConfig | None = None
) -> CertifiedValue:
    """Expected iterated-integral coefficient of the word over [0, 1].

    Raises QuadratureToleranceError when the quadrature error estimate misses
    config.tol; the failure carries the achieved value and error.
    """
    check_hurst(H)  # before any shortcut
    c_H, exponent = H * (2.0 * H - 1.0), 2.0 * H - 2.0
    config = config or QuadConfig()
    positions = word.nonzero_positions
    if len(positions) > 6:
        raise ValueError("at most 6 nonzero letters supported")
    if _odd_letter(word):
        return CertifiedValue(0.0, 0.0)
    n = len(word)
    if not positions:
        # pure time word: volume of the ordered simplex
        return CertifiedValue(1.0 / math.factorial(n), 0.0)
    sub = Word(tuple(word.letters[i] for i in positions), word.d)
    k = len(positions) // 2
    value = 0.0
    error = 0.0
    for m in mt.compatible_matchings(sub):
        pairs = [(positions[a], positions[b]) for a, b in m]
        res = matching_simplex_integral(n, pairs, exponent)
        value += res.value
        error += res.error
    value *= c_H**k
    error *= c_H**k
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
) -> TruncatedTensor:
    """Expected signature tensor of d-dimensional fBm up to the given depth,
    deduplicating words that agree after relabeling the nonzero alphabet."""
    check_hurst(H)
    if depth > 6:
        raise ValueError("depth capped at 6")
    out = TruncatedTensor.identity(d, depth)
    cache: dict[tuple[int, ...], float] = {}
    for length in range(1, depth + 1):
        for w in all_words(d, length):
            key = canonical_relabel(w).letters
            if key not in cache:
                cache[key] = expected_word(Word(key, d), H, config).value
            out.set_coeff(w, cache[key])
    return out


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
    return 2.0**-p / math.factorial(z + p)


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
    if _odd_letter(word):
        return 0.0
    letters = word.letters
    if not letters:
        return 1.0
    if all(x == 0 for x in letters):
        return 1.0 / math.factorial(len(letters))
    nz = [x for x in letters if x != 0]
    if len(nz) == len(letters) and len(set(nz)) == 1:
        k = len(nz) // 2
        return 1.0 / (math.factorial(k) * 2**k)
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


def decay_bound_check(
    word: Word, H: float, config: QuadConfig | None = None
) -> DecayReport:
    """Check the sharp decay bound value <= 1/(k! 2^k) for a pure-fBm word.

    The report also carries the word-dependent refined bound and the
    difference from the H-independent candidate permutation_count /
    (k! 2^k (2k)!); whether the candidate equals the true value for mixed
    words is not assumed, only measured.
    """
    letters = word.letters
    if any(x == 0 for x in letters) or len(letters) % 2 != 0 or not letters:
        raise ValueError("decay bound applies to even-length words with nonzero letters")
    k = len(letters) // 2
    val, err = expected_word(word, H, config)
    norm = math.factorial(k) * 2**k
    bound = 1.0 / norm
    counted = norm * math.factorial(2 * k)
    refined = mt.refined_count_bound(k, len(set(letters))) / counted
    candidate = mt.permutation_count(word) / counted
    return DecayReport(
        value=val,
        quad_error=err,
        bound=bound,
        refined_bound=refined,
        candidate_difference=val - candidate,
        passed=val <= bound + err,
    )
