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
    "FbmParams",
    "KernelConstant",
    "QuadratureToleranceError",
    "check_hurst",
    "covariance",
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


@dataclass(frozen=True)
class FbmParams:
    """Hurst parameter and number of spatial components."""

    H: float
    d: int = 1

    def __post_init__(self):
        check_hurst(self.H)
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")


@dataclass(frozen=True)
class KernelConstant:
    """Prefactor c_H = H(2H-1) and exponent 2H-2 of the increment covariance
    density E[dB_s dB_t] = c_H |t-s|^(2H-2) ds dt."""

    c_H: float
    exponent: float

    @classmethod
    def from_hurst(cls, H: float) -> "KernelConstant":
        check_hurst(H)
        return cls(H * (2.0 * H - 1.0), 2.0 * H - 2.0)


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


def covariance(s: float, t: float, H: float) -> float:
    """fBm covariance (t^2H + s^2H - |t-s|^2H) / 2."""
    if not 0.0 < H < 1.0:
        raise ValueError(f"H must lie in (0, 1), got {H}")
    if s < 0 or t < 0:
        raise ValueError("times must be nonnegative")
    return 0.5 * (t ** (2 * H) + s ** (2 * H) - abs(t - s) ** (2 * H))


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
    kernel = KernelConstant.from_hurst(H)  # checks H before any shortcut
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
        res = matching_simplex_integral(n, pairs, kernel.exponent)
        value += res.value
        error += res.error
    value *= kernel.c_H**k
    error *= kernel.c_H**k
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
    params: FbmParams, depth: int, config: QuadConfig | None = None
) -> TruncatedTensor:
    """Expected signature tensor up to the given depth, deduplicating words
    that agree after relabeling the nonzero alphabet."""
    if depth > 6:
        raise ValueError("depth capped at 6")
    out = TruncatedTensor.identity(params.d, depth)
    cache: dict[tuple[int, ...], float] = {}
    for length in range(1, depth + 1):
        for w in all_words(params.d, length):
            key = canonical_relabel(w).letters
            if key not in cache:
                cache[key] = expected_word(Word(key, params.d), params.H, config).value
            out.set_coeff(w, cache[key])
    return out


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def closed_form_table() -> dict[str, dict]:
    """The shipped table of closed-form coefficients (rational functions of H)."""
    with resources.files("fbmsig.data").joinpath("closed_forms.json").open() as fh:
        data = json.load(fh)
    return {e["word"]: e for e in data["entries"]}


_TABLE: dict[str, dict] | None = None


def closed_form_value(word: Word, H: float) -> float | None:
    """Closed-form expectation when one is known, else None.

    Sources: the shipped table, the even-moment formula for single-letter
    words (E B_1^{2k} / (2k)! = 1/(k! 2^k)), pure-time words (1/n!), and the
    exact-zero rule for odd letter counts.  Valid for H >= 1/2.
    """
    global _TABLE
    if _TABLE is None:
        _TABLE = closed_form_table()
    key = str(word)
    if key in _TABLE:
        e = _TABLE[key]
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
    word: Word
    H: float
    value: float
    quad_error: float
    bound: float              # 1 / (k! 2^k)
    refined_bound: float      # letter-multiplicity refinement of the bound
    candidate_h_independent: float  # permutation_count / (k! 2^k (2k)!)
    candidate_difference: float
    passed: bool


def decay_bound_check(
    word: Word, H: float, config: QuadConfig | None = None
) -> DecayReport:
    """Check the sharp decay bound value <= 1/(k! 2^k) for a pure-fBm word.

    The report also carries the word-dependent refined bound and the
    H-independent candidate value permutation_count / (k! 2^k (2k)!); whether
    the candidate equals the true value for mixed words is not assumed, only
    measured (the difference is reported).
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
        word=word,
        H=H,
        value=val,
        quad_error=err,
        bound=bound,
        refined_bound=refined,
        candidate_h_independent=candidate,
        candidate_difference=val - candidate,
        passed=val <= bound + err,
    )
