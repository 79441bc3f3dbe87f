import csv
import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from fbmsig import cli
from fbmsig import expected as ex
from fbmsig import matchings as mt
from fbmsig.expected import (
    DecayReport,
    QuadratureToleranceError,
    canonical_relabel,
    check_hurst,
    closed_form_table,
    closed_form_value,
    decay_bound_check,
    expected_tensor,
    expected_word,
)
from fbmsig import gridapprox as ga
from fbmsig import sde
from fbmsig import simplexquad as sq
from fbmsig.cli import _parse_words, main
from fbmsig.cubature import word_weight
from fbmsig.matchings import enumerate_matchings, permutation_count
from fbmsig.simplexquad import QuadConfig, _reduce_terms, matching_simplex_integral
from fbmsig.tensor import Word, all_words, batch_grid_signatures, word_index
from oracles import (
    axis_parts_direct,
    axis_rules_direct,
    beta_map_direct,
    cell_covariance_matrix,
    cell_pair_integral,
    core_numeric_full_grid,
    exponent_parts,
    expected_word_by_matchings,
    reduce_terms_numeric,
    shuffle_class,
)

H_GRID = (0.6, 0.75, 0.9)


def W(*letters, d=2):
    return Word(tuple(letters), d)


# Independent closed forms for the three level-4 simplex pair integrals,
# derived by iterated Beta integration (integrate the innermost/outermost
# variables analytically).  Cross-validated below by the sum identity
# J1 + J2 + J3 = 1 / (8 c_H^2), which follows from the level-4 single-letter
# value being exactly 1/8.
def level4_closed(H):
    mu = 2 * H - 2
    nu = 2 * H - 1
    B = lambda a, b: math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    J1 = B(nu + 2, mu + 1) / (nu * (nu + 1) * (mu + nu + 3))          # (0,1),(2,3)
    J3 = 1.0 / (nu * (nu + 1) * (4 * H - 1) * (4 * H))                # (0,3),(1,2)
    T1 = (1 / (nu + 1)) * (1 / (nu + 1) - B(nu + 1, nu + 2))
    T23 = 2.0 / ((nu + 1) * (2 * nu + 2))
    T4 = 1.0 / ((2 * nu + 1) * (2 * nu + 2))
    J2 = (T1 - T23 + T4) / nu**2                                      # (0,2),(1,3)
    return J1, J2, J3


class TestClosedFormTable:
    def test_shipped_entry_count(self):
        assert len(closed_form_table()) == 17

    def test_read_once(self):
        assert closed_form_table() is closed_form_table()

    @pytest.mark.parametrize("H", H_GRID)
    def test_table_values(self, H):
        assert closed_form_value(Word((1, 1), 1), H) == 0.5
        assert closed_form_value(Word((1, 0, 1), 1), H) == pytest.approx(
            (2 * H - 1) / (2 * (2 * H + 1)), abs=1e-15
        )
        assert closed_form_value(Word((0, 1, 1), 1), H) == pytest.approx(
            1 / (2 * (2 * H + 1)), abs=1e-15
        )
        assert closed_form_value(Word((1, 1, 1, 1), 1), H) == 0.125
        assert closed_form_value(Word((1,), 1), H) == 0.0

    def test_rules_beyond_table(self):
        # single letter, pure time, odd count, and the genuinely unknown case
        assert closed_form_value(Word((1,) * 6, 1), 0.7) == pytest.approx(1 / 48)
        assert closed_form_value(Word((0, 0), 1), 0.7) == 0.5
        assert closed_form_value(Word((1, 2), 2), 0.7) == 0.0
        assert closed_form_value(Word((1, 2, 1, 2), 2), 0.7) is None

    @pytest.mark.parametrize("H", (0.5, 0.7))
    def test_long_words_underflow(self, H):
        # 1/171! is subnormal and 1/(200! 2^200) is 0: both round once from
        # the exact integers instead of overflowing on the conversion
        assert closed_form_value(Word((0,) * 171, 1), H) == 1 / math.factorial(171) > 0
        assert closed_form_value(Word((1,) * 400, 1), H) == 0.0
        assert closed_form_value(Word((1,) * 302, 1), H) == \
            1 / (math.factorial(151) * 2**151) > 0

    def test_brownian_rule_equals_table_at_half(self):
        polyval = np.polynomial.polynomial.polyval
        for key, e in closed_form_table().items():
            want = float(polyval(0.5, e["num"]) / polyval(0.5, e["den"]))
            assert closed_form_value(_parse_words(key)[0][0], 0.5) == want, key

    def test_brownian_rule_every_word_at_half(self):
        # exp(e_0 + 1/2 sum_i e_i e_i): z time letters and p pairs i,i give
        # 2^-p / (z+p)!; a word that does not split that way gives 0
        assert closed_form_value(Word((1, 2, 1, 2), 2), 0.5) == 0.0
        assert closed_form_value(Word((1, 1, 0, 2, 2), 2), 0.5) == 1.0 / 24.0
        assert closed_form_value(Word((0, 1, 1, 0), 1), 0.5) == 1.0 / 12.0
        assert closed_form_value(Word((2, 2, 1, 1), 2), 0.5) == 1.0 / 8.0
        assert closed_form_value(Word((1, 0, 1), 1), 0.5) == 0.0
        assert closed_form_value(Word((1, 1, 1, 1, 1, 1), 1), 0.5) == 1.0 / 48.0

    @pytest.mark.parametrize("H", (0.5001, 0.501))
    def test_brownian_rule_is_the_limit_at_half(self, H):
        # every d = 1 word of length <= 5 with at most four letters 1
        # (measured worst case 0.49995 (H - 1/2))
        for n in range(6):
            for w in all_words(1, n):
                if w.letters.count(1) <= 4:
                    gap = abs(expected_word(w, H).value - closed_form_value(w, 0.5))
                    assert gap <= H - 0.5, w


class TestExpectedWord:
    @pytest.mark.parametrize("H", H_GRID)
    def test_matches_closed_forms(self, H):
        for text in ("1", "1,1", "1,0", "0,1", "1,1,1", "1,1,0", "1,0,1",
                     "0,1,1", "1,1,1,1", "1,1,1,0", "1,1,1,1,1"):
            (w, _), = _parse_words(text)
            want = closed_form_value(w, H)
            got, err = expected_word(w, H)
            assert got == pytest.approx(want, abs=1e-10), text
            assert err < 1e-9

    @pytest.mark.parametrize("H", H_GRID)
    def test_level4_matching_oracle(self, H):
        J1, J2, J3 = level4_closed(H)
        c2 = (H * (2 * H - 1)) ** 2
        # nested-adjacent, crossing, and fully nested pair structures
        assert expected_word(W(1, 1, 2, 2), H).value == pytest.approx(c2 * J1, abs=1e-12)
        assert expected_word(W(1, 2, 1, 2), H).value == pytest.approx(c2 * J2, abs=1e-12)
        assert expected_word(W(1, 2, 2, 1), H).value == pytest.approx(c2 * J3, abs=1e-12)

    @pytest.mark.parametrize("H", H_GRID)
    def test_level4_sum_identity(self, H):
        J1, J2, J3 = level4_closed(H)
        c2 = (H * (2 * H - 1)) ** 2
        assert c2 * (J1 + J2 + J3) == pytest.approx(0.125, abs=1e-13)

    def test_crossing_value_frozen(self):
        # c_H^2 (2/3 - pi/6) at H = 3/4, from the iterated Beta reduction
        want = 0.375**2 * (2.0 / 3.0 - math.pi / 6.0)
        assert expected_word(W(1, 2, 1, 2), 0.75).value == pytest.approx(
            want, abs=1e-14
        )

    def test_odd_letter_vanishes_exactly(self):
        # also beyond the cap on nonzero letters, which applies to even words
        for letters in [(1,), (1, 2), (1, 1, 2), (1, 2, 2, 2), (1, 0, 2), (1,) * 7,
                        (1, 2, 1, 2, 1, 2, 1, 0)]:
            res = expected_word(W(*letters), 0.75)
            assert res.value == 0.0 and res.error == 0.0

    def test_pure_time_words(self):
        for n in (1, 2, 3):
            res = expected_word(Word((0,) * n, 1), 0.6)
            assert res.value == pytest.approx(1.0 / math.factorial(n), abs=0)

    def test_six_letters_single(self):
        res = expected_word(Word((1,) * 6, 1), 0.6)
        assert res.value == pytest.approx(1.0 / 48.0, abs=1e-10)

    def test_relabel_invariance(self):
        for letters in [(1, 1, 2, 2), (1, 2, 1, 2), (2, 2, 1, 1)]:
            a = expected_word(W(*letters), 0.8).value
            b = expected_word(canonical_relabel(W(*letters)), 0.8).value
            assert a == pytest.approx(b, abs=1e-13)

    def test_H_range_enforced(self):
        with pytest.raises(ValueError):
            expected_word(W(1, 1), 0.5)

    def test_tolerance_failure_is_loud(self):
        cfg = QuadConfig(tol=1e-18)
        with pytest.raises(QuadratureToleranceError) as exc:
            expected_word(W(1, 2, 1, 2), 0.6, cfg)
        assert exc.value.error > 1e-18
        assert math.isfinite(exc.value.value)


NEAR_HALF = (0.5001, 0.5003, 0.501, 0.502, 0.505, 0.51, 0.52, 0.55, 0.6, 0.75,
             0.9, 0.95, 0.99)


class TestReversalBar:
    """Time reversal maps a matching M to R(M) with the same integral; the
    bar carries |I(M) - I(R(M))|, the error near H = 1/2 that the
    two-resolution estimate cannot see."""

    @pytest.mark.parametrize("H", NEAR_HALF)
    def test_bar_covers_even_moments(self, H):
        for k in (1, 2, 3):
            value, err = expected_word(Word((1,) * (2 * k), 1), H, QuadConfig(tol=1))
            assert abs(value - 1.0 / (math.factorial(k) * 2**k)) <= err, k

    @pytest.mark.parametrize("H", NEAR_HALF)
    def test_reversed_words_agree_within_bars(self, H):
        a = expected_word(W(1, 1, 2, 2, 2, 2), H, QuadConfig(tol=1))
        b = expected_word(W(1, 1, 1, 1, 2, 2), H, QuadConfig(tol=1))
        assert abs(a.value - b.value) <= a.error + b.error

    @pytest.mark.parametrize("H", (0.5001, 0.75))
    def test_value_is_the_unmirrored_integral(self, H):
        # the reversal only widens the bar, and only for asymmetric matchings
        e = 2.0 * H - 2.0
        for subset in itertools.combinations(range(7), 6):
            for matching in enumerate_matchings(6):
                pairs = [(subset[a], subset[b]) for a, b in matching]
                ones = tuple((a + 1, b + 1) for a, b in pairs)
                mirrored = sorted((6 - b, 6 - a) for a, b in pairs)
                got = matching_simplex_integral(7, pairs, e)
                own = sq._reduced_integral(7, ones, e)
                assert got.value == own.value
                if mirrored == sorted(pairs):
                    assert got.error == own.error
                else:
                    assert got.error >= own.error


def _matched_shapes(n, size):
    """(n, pairs) for every matching of `size` of the n positions."""
    for subset in itertools.combinations(range(n), size):
        for matching in enumerate_matchings(size):
            yield n, [(subset[a], subset[b]) for a, b in matching]


class TestMatchingIntegralAudit:
    """I_M(e), the integral of prod (t_b - t_a)^e over the ordered n-simplex
    with e = 2H - 2, needs no reference value: every factor lies in (0, 1],
    so I_M(e) >= I_M(0) = 1/n!, and I_M(e) = int exp(e sum log(t_b - t_a))
    is completely monotone in e, so (-1)^j D^j I_M >= 0 for every forward
    difference of order j on an evenly spaced grid (Bernstein).  A value
    passes when its bar reaches the floor, and a difference when it misses
    the sign by at most the binomially weighted sum of the bars.  Near
    H = 1/2 both fail today; from H = 0.53 up no violation is known, also
    at steps of 0.01 and 0.005 through 0.8-0.9."""

    @staticmethod
    def _violations(shapes, grid):
        found = []
        for n, pairs in shapes:
            res = [matching_simplex_integral(n, pairs, 2.0 * H - 2.0) for H in grid]
            value = np.array([r.value for r in res])
            bar = np.array([r.error for r in res])
            if np.any(value + bar < 1.0 / math.factorial(n)):
                found.append((n, pairs, "floor"))
            for j in (1, 2, 3):
                w = np.array([(-1) ** k * math.comb(j, k) for k in range(j + 1)])
                signed = np.correlate(value, w, mode="valid")  # (-1)^j D^j
                slack = np.correlate(bar, np.abs(w), mode="valid")
                if np.any(signed < -slack):
                    found.append((n, pairs, j))
        return found

    def test_six_and_seven_positions(self):
        # H = 0.53, 0.55, ..., 0.99 (step 0.02): the 15 matchings on six
        # positions and the 105 that match six of seven
        grid = 0.53 + 0.02 * np.arange(24)
        shapes = [*_matched_shapes(6, 6), *_matched_shapes(7, 6)]
        assert len(shapes) == 120
        assert self._violations(shapes, grid) == []

    def test_eight_positions(self):
        # the 105 matchings on eight positions at four H values, step 0.46/3:
        # enough for differences of order three
        grid = np.linspace(0.53, 0.99, 4)
        shapes = list(_matched_shapes(8, 8))
        assert len(shapes) == 105
        assert self._violations(shapes, grid) == []


class TestScalingExponent:
    def test_values(self):
        # exponent of T in the expectation over [0, T]: kH + (1-H) * #zeros,
        # which is half the cubature degree weight
        H = 0.7
        assert word_weight(W(1, 1), H) / 2 == pytest.approx(2 * H)
        assert word_weight(W(0), H) / 2 == pytest.approx(1.0)
        assert word_weight(W(1, 0, 1), H) / 2 == pytest.approx(2 * H + 1)


class TestScalingLaw:
    @pytest.mark.parametrize("T", (0.5, 2.0))
    def test_level2_rescaled_brute_force(self, T):
        # kernel mass over the ordered 2-simplex of [0, T], by midpoint
        # summation with two-stage Richardson, against T^(2H) * value on [0, 1];
        # the exponent of T is half the cubature degree weight
        H = 0.75
        c = H * (2 * H - 1)

        def brute(G):
            t = (np.arange(G) + 0.5) * (T / G)
            diff = t[None, :] - t[:, None]
            safe = np.where(diff > 0, diff, 1.0)
            K = np.where(diff > 0, safe ** (2 * H - 2.0), 0.0)
            return c * K.sum() * (T / G) ** 2

        v = [brute(G) for G in (2000, 4000, 8000)]
        r1 = 2.0 ** -(2 * H - 1)
        R1 = [(v[i + 1] - r1 * v[i]) / (1 - r1) for i in range(2)]
        r2 = 2.0 ** -(2 * H)
        extrap = (R1[1] - r2 * R1[0]) / (1 - r2)
        want = T ** (word_weight(W(1, 1), H) / 2) * expected_word(W(1, 1), H).value
        assert extrap == pytest.approx(want, abs=1e-6)


def level_coeff(levels, w):
    """The cell of word w in a list of level arrays indexed by word_index."""
    return levels[len(w)][..., word_index(w.letters, w.d)]


class TestExpectedTensor:
    def test_depth2_structure(self):
        t, _ = expected_tensor(0.75, 2, depth=2)
        assert [len(level) for level in t] == [1, 3, 9]
        assert level_coeff(t, Word((), 2)) == 1.0
        for i in range(3):
            assert level_coeff(t, Word((i,), 2)) == (1.0 if i == 0 else 0.0)
        for i in (1, 2):
            assert level_coeff(t, Word((i, i), 2)) == pytest.approx(0.5, abs=1e-12)
        assert level_coeff(t, Word((1, 2), 2)) == 0.0
        assert level_coeff(t, Word((2, 1), 2)) == 0.0
        assert level_coeff(t, Word((0, 0), 2)) == pytest.approx(0.5, abs=0)

    @pytest.mark.parametrize("d, depth", ((2, 4), (1, 6)))
    def test_every_cell_is_expected_word(self, d, depth):
        values, errors = expected_tensor(0.8, d, depth)
        assert len(values) == len(errors) == depth + 1
        for length in range(depth + 1):
            for w in all_words(d, length):
                cell = (level_coeff(values, w), level_coeff(errors, w))
                assert cell == expected_word(w, 0.8), str(w)
                assert level_coeff(errors, w) >= 0.0

    def test_relabelled_words_share_cells(self):
        values, errors = expected_tensor(0.8, 2, depth=4)
        for a, b in (((2, 1, 2, 1), (1, 2, 1, 2)), ((2, 2, 1, 1), (1, 1, 2, 2))):
            assert level_coeff(values, W(*a)) == level_coeff(values, W(*b)) != 0.0
            assert level_coeff(errors, W(*a)) == level_coeff(errors, W(*b))

    def test_depth_cap(self):
        with pytest.raises(ValueError):
            expected_tensor(0.75, 1, depth=9)

    def test_negative_depth_refused_as_for_signatures(self):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            expected_tensor(0.75, 2, depth=-1)
        with pytest.raises(ValueError, match="depth must be >= 0"):
            batch_grid_signatures([0.0, 1.0], np.zeros((1, 2, 2)), -1)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError, match="H must lie in"):
            expected_tensor(0.5, 2, depth=2)
        with pytest.raises(ValueError, match="d must be >= 1"):
            expected_tensor(0.7, 0, depth=2)


class TestDecayBound:
    def test_single_letter_attains_bound(self):
        rep = decay_bound_check(Word((1, 1, 1, 1), 1), 0.75)
        assert rep.bound == pytest.approx(0.125)
        assert rep.value == pytest.approx(rep.bound, abs=1e-10)
        assert rep.refined_bound == pytest.approx(rep.bound, abs=1e-15)
        assert rep.candidate_difference == pytest.approx(0.0, abs=1e-10)
        assert rep.passed

    def test_mixed_word_strictly_below(self):
        rep = decay_bound_check(W(1, 1, 2, 2), 0.75)
        assert rep.value < rep.bound - 1e-3
        assert rep.passed
        # the H-independent candidate does not describe mixed words
        assert abs(rep.candidate_difference) > 1e-3

    def test_zero_word_trivially_passes(self):
        rep = decay_bound_check(W(1, 2), 0.75)
        assert rep.value == 0.0 and rep.passed

    def test_rejects_time_letters(self):
        with pytest.raises(ValueError):
            decay_bound_check(W(1, 0), 0.75)

    def test_refined_bound_reported_not_asserted(self):
        # The letter-multiplicity refinement is carried as report content; it
        # is measurably NOT a valid value bound for mixed words (the value at
        # H = 0.75 exceeds it), so pass/fail stays tied to the uniform bound.
        rep = decay_bound_check(W(1, 1, 2, 2), 0.75)
        assert rep.refined_bound == pytest.approx(1.0 / 24.0, abs=1e-15)
        assert rep.refined_bound < rep.bound
        assert rep.value > rep.refined_bound
        assert rep.passed


class TestMatchingIntegralValidation:
    def test_pair_validation(self):
        with pytest.raises(ValueError):
            matching_simplex_integral(3, [(0, 3)], -0.5)
        with pytest.raises(ValueError):
            matching_simplex_integral(4, [(0, 1), (1, 2)], -0.5)
        with pytest.raises(ValueError, match="at most 4 pairs"):
            matching_simplex_integral(10, [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)], -0.5)

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            QuadConfig(tol=0.0)

    def test_nan_tolerance_rejected(self):
        # a NaN tolerance would switch the tolerance gate off
        with pytest.raises(ValueError, match="tolerance must be > 0"):
            QuadConfig(tol=float("nan"))

    @pytest.mark.parametrize("exponent", [-1.5, -1.0, -math.inf, math.inf, math.nan])
    def test_divergent_exponent_refused(self, exponent):
        # the integral of (t_2 - t_1)**e diverges for e <= -1: -1.5 gave
        # -4.0, B(e + 1, 2) continued past its pole, and -1.0 divided by zero
        with pytest.raises(ValueError, match="finite number > -1"):
            matching_simplex_integral(2, [(0, 1)], exponent)

    def test_positive_exponent_accepted(self):
        # B(3/2, 2) = 4/15 for the one pair on two positions
        assert matching_simplex_integral(2, [(0, 1)], 0.5).value == 4.0 / 15.0


def _perfect_matchings(points):
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for i, partner in enumerate(rest):
        for tail in _perfect_matchings(rest[:i] + rest[i + 1 :]):
            yield ((first, partner),) + tail


class TestReducedCores:
    def test_every_core_has_at_most_three_dimensions(self):
        # the deterministic scheme evaluates each core on one N**dim grid,
        # which is sized for dim <= 3
        dims = set()
        for n in range(2, 10):
            for k in (1, 2, 3):
                for positions in itertools.combinations(range(1, n + 1), 2 * k):
                    for matching in _perfect_matchings(positions):
                        dims.update(len(axes) for _, axes, _ in
                                    _reduce_terms(n, matching).terms)
        assert max(dims) <= 3


def _shapes(n_max, max_pairs=3):
    """Every (n, pairs) of <= max_pairs pairs on n <= n_max positions
    (1-based, pairs sorted by first position), the unmatched positions being
    time letters."""
    for n in range(2, n_max + 1):
        for size in range(2, min(n, 2 * max_pairs) + 1, 2):
            for subset in itertools.combinations(range(1, n + 1), size):
                for matching in enumerate_matchings(size):
                    yield n, tuple((subset[a], subset[b]) for a, b in matching)


def _numeric_cores(n, factors):
    """The terms of the numeric reduction, in its order, as (coeff, m,
    core): each core relabelled so that its variables are 1..m and the
    sentinels 0 and m+1."""
    for coeff, fs, vs in reduce_terms_numeric(n, factors, range(1, n + 1)):
        m = len(vs)
        idx = {0: 0, n + 1: m + 1} | {x: i + 1 for i, x in enumerate(vs)}
        yield coeff, m, tuple((idx[a], idx[b], e) for a, b, e in fs)


def _sum_of_numeric_terms(n, pairs, e):
    """The matching integral summed over the terms of the numeric reduction,
    in its order: each core's integrand built from its factors, a separable
    core (every span over one axis) as its product of Beta functions and the
    others at both resolutions."""
    total = err = scale = 0.0
    for coeff, m, core in _numeric_cores(n, tuple((a, b, e) for a, b in pairs)):
        parts, spans = axis_parts_direct(m, core, e)
        if all(len(ax) == 1 for ax, _ in spans):
            # prod_i B(gam_i + 1, b_i + 1), b_i the sum of axis i's spans
            closed = []
            for i, gam in enumerate(parts):
                tail = [exponent_parts(f, e) for ax, f in spans if ax == (i,)]
                closed.append(gam + (sum(k for k, _ in tail), sum(c for _, c in tail)))
            w, rel = sq._beta_product(e, tuple(closed))
            v = coeff * w
            err += rel * abs(v)
        else:
            hi, lo = sq._core_numeric(axis_rules_direct(m, core, e)[0], spans)
            v = coeff * hi
            err += abs(v - coeff * lo)
        total += v
        scale += abs(v)
    return sq.CertifiedValue(total, err + 1e-15 * scale)


class TestShapePlan:
    def test_replay_equals_numeric_reduction_and_plans_once(self):
        # the plan forms each exponent as the correctly rounded c + k e, and
        # the numeric reduction each divisor e + j as float(Fraction(e) + j),
        # so every value and bar is the same double.  One plan serves every H
        shapes = list(_shapes(7))
        assert len(set(shapes)) == len(shapes) == 344
        sq._reduce_terms.cache_clear()
        sq._reduced_integral.cache_clear()
        for H in (0.5001, 0.6, 0.75, 0.999):
            e = 2.0 * H - 2.0
            for n, pairs in shapes:
                assert sq._reduced_integral(n, pairs, e) == _sum_of_numeric_terms(n, pairs, e)
        sq._reduced_integral.cache_clear()
        assert sq._reduce_terms.cache_info().misses == len(shapes)

    @pytest.mark.parametrize("H", (0.5001, 0.999))
    def test_replay_equals_numeric_reduction_on_eight_positions(self, H):
        # the 105 pure four-pair shapes, whose cores reach four axes and
        # whose spans three; their divisors stop at e + 8
        e = 2.0 * H - 2.0
        shapes = [(8, tuple((a + 1, b + 1) for a, b in matching))
                  for matching in enumerate_matchings(8)]
        assert len(shapes) == 105
        sq._reduced_integral.cache_clear()
        for n, pairs in shapes:
            assert sq._reduced_integral(n, pairs, e) == _sum_of_numeric_terms(n, pairs, e)
        sq._reduced_integral.cache_clear()

    @pytest.mark.parametrize("H", (0.5513, 0.9423))
    def test_replay_equals_numeric_reduction_on_nine_and_ten_positions(self, H):
        # one and two pairs among 9 and 10 positions, the others time
        # letters: divisors reach e + 10, where adding 1.0 ten times to e
        # misses the double nearest e + 10 for about one e in eight (at
        # these H, 70 and 68 of the values would differ)
        shapes = [shape for shape in _shapes(10, max_pairs=2) if shape[0] >= 9]
        assert len(shapes) == 36 + 378 + 45 + 630
        e = 2.0 * H - 2.0
        sq._reduced_integral.cache_clear()
        for n, pairs in shapes:
            assert sq._reduced_integral(n, pairs, e) == _sum_of_numeric_terms(n, pairs, e)
        sq._reduced_integral.cache_clear()

    def test_exponent_is_correctly_rounded(self):
        # c + k e as the double nearest the exact value, for kernel exponents
        # 2H - 2 and for other e, negative and positive, of every magnitude
        rng = np.random.default_rng(43)
        es = ([2.0 * H - 2.0 for H in rng.uniform(0.5, 1.0, 40)]
              + list(rng.uniform(-1.0, 0.0, 40)) + list(rng.uniform(0.0, 4.0, 40))
              + list(rng.uniform(-1.0, 1.0, 40) * 2.0 ** rng.integers(-40, 40, 40))
              + [-0.3, 0.37, 2.0 * 0.5001 - 2.0, 2.0 * 0.999 - 2.0])
        for e in map(float, es):
            for k in range(9):
                for c in range(-3, 13):
                    want = float(Fraction(c) + k * Fraction(e))
                    assert sq._exponent(k, c, e) == want, (k, c, e)


class TestSeparableCores:
    @pytest.mark.parametrize("H", (0.5001, 0.53, 0.6, 0.75, 0.9, 0.99))
    def test_beta_products_within_rounding_bar(self, H, monkeypatch):
        # every separable term of the 344 shapes against the 40-digit product
        # of Beta functions at the exact exponents c + k e; the bar is
        # derived, and the misses measured at most 0.15 of it
        mpmath = pytest.importorskip("mpmath")
        closed = {}
        beta_product = sq._beta_product

        def recording(e, axes):
            closed[axes] = beta_product(e, axes)
            return closed[axes]

        monkeypatch.setattr(sq, "_beta_product", recording)
        monkeypatch.setattr(sq, "_core_numeric", lambda gam, spans: (1.0, 1.0))
        e = 2.0 * H - 2.0
        for n, pairs in _shapes(7):
            sq._reduced_integral.__wrapped__(n, pairs, e)
        assert {len(axes) for axes in closed} == {0, 1, 2}
        worst = 0.0
        with mpmath.workdps(40):
            x = lambda k, c: c + k * mpmath.mpf(e)
            for axes, (got, rel) in closed.items():
                want = mpmath.fprod(mpmath.beta(x(kg, cg) + 1, x(kb, cb) + 1)
                                    for kg, cg, kb, cb in axes)
                miss = float(abs(got - want) / want)
                assert miss <= rel, axes
                worst = max(worst, miss / rel)
        assert worst > 0.0

    def test_only_linked_cores_reach_the_quadrature(self, monkeypatch):
        # over every shape of up to four pairs on up to eight positions, a
        # term of the numeric reduction reaches _core_numeric exactly when one
        # of its spans covers two or more axes, and is closed otherwise
        shapes = list(_shapes(8, max_pairs=4))
        assert len(shapes) == 1107
        routes = []
        monkeypatch.setattr(sq, "_core_numeric",
                            lambda gam, spans: routes.append("quadrature") or (1.0, 1.0))
        monkeypatch.setattr(sq, "_beta_product",
                            lambda *core: routes.append("closed") or (1.0, 0.0))
        e = 2.0 * 0.7 - 2.0
        for n, pairs in shapes:
            routes.clear()
            sq._reduced_integral.__wrapped__(n, pairs, e)
            factors = tuple((a, b, e) for a, b in pairs)
            assert routes == [
                "quadrature" if any(len(ax) > 1 for ax, _ in axis_parts_direct(m, core, e)[1])
                else "closed" for _, m, core in _numeric_cores(n, factors)], (n, pairs)


def _gaussian_moment(c):
    """E[G^c] for a standard normal G: (c - 1)!! for even c, else 0."""
    return 0 if c % 2 else math.prod(range(c - 1, 0, -2))


class TestShuffleSumRules:
    """For any path the words of one class (fixed letter counts c_0, c_1,
    ...) sum to prod_i S^(i^c_i) = (1/c_0!) prod_i (X^i)^c_i / c_i!, so the
    expected signatures of the class sum to (1/c_0!) prod_i E[G^c_i] / c_i!
    at every H."""

    @pytest.mark.parametrize("H", (0.5001, 0.55, 0.75, 0.99))
    def test_class_sums_within_bars(self, H):
        for letters in ((1, 1, 2, 2), (1, 1, 2, 2, 0), (1, 1, 1, 1, 0),
                        (1, 1, 1, 1, 2, 2), (1, 1, 2, 2, 3, 3)):
            assert _class_sum_within_bars(letters, H), letters

    @pytest.mark.parametrize("H", (0.6, 0.75, 0.9))
    def test_insertion_rule_within_bars(self, H):
        # S^0 = 1 on [0, 1], and S^0 S^w is the sum of the shuffles 0 ш w,
        # the words with 0 inserted at each of the len(w) + 1 places: one
        # identity per word, summed over its insertions
        words = _even_words(4) + _even_words(6)
        assert len(words) == 35
        for w in words:
            base = expected_word(w, H, QuadConfig(tol=1))
            values = [expected_word(Word(w.letters[:i] + (0,) + w.letters[i:], w.d), H,
                                    QuadConfig(tol=1))
                      for i in range(len(w) + 1)]
            gap = abs(math.fsum(v.value for v in values) - base.value)
            assert gap <= math.fsum(v.error for v in values) + base.error, w


def _class_sum_within_bars(letters, H):
    """Whether the expected words of the shuffle class of letters sum to the
    class rule within the sum of their bars."""
    counts = Counter(letters)
    rule = math.prod(_gaussian_moment(c) / math.factorial(c)
                     for x, c in counts.items() if x) / math.factorial(counts[0])
    values = [expected_word(w, H, QuadConfig(tol=1))
              for w in shuffle_class(letters, max(letters))]
    total = math.fsum(v.value for v in values)
    return abs(total - rule) <= math.fsum(v.error for v in values)


# The eight-letter guards share these H, so each table's cores are computed
# once for the whole module (the core memo holds about three such tables).
EIGHT_H = (0.55, 0.7, 0.9)


def _even_words(length):
    """The canonical pure words of the given length over {1, ..., 4} in which
    every letter occurs an even number of times."""
    words = []
    for letters in itertools.product(range(1, 5), repeat=length):
        seen = [x for i, x in enumerate(letters) if x not in letters[:i]]
        if (seen == list(range(1, len(seen) + 1))
                and all(letters.count(x) % 2 == 0 for x in seen)):
            words.append(Word(letters, 4))
    return words


def _eight_letter_words():
    """The 379 canonical pure eight-letter words over {1, ..., 4} in which
    every letter occurs an even number of times."""
    return _even_words(8)


class TestEightLetters:
    """The exact side at k = 4: the paper bounds every eight-letter term by
    1/(4! 2^4) = 1/384, and 1^8 attains it (E[B_1^8] / 8! = 105 / 40320)."""

    @pytest.mark.parametrize("H", EIGHT_H)
    def test_single_letter_attains_the_bound(self, H):
        value, error = expected_word(Word((1,) * 8, 1), H)
        assert abs(value - 1.0 / 384.0) <= 1e-13
        assert error <= 1e-10

    @pytest.mark.parametrize("H", EIGHT_H)
    def test_decay_bound_at_k4(self, H):
        words = _eight_letter_words()
        assert len(words) == 379
        for w in words:
            rep = decay_bound_check(w, H)
            assert rep.bound == 1.0 / 384.0
            assert rep.passed, str(w)

    @pytest.mark.parametrize("H", EIGHT_H)
    def test_class_sums_within_bars(self, H):
        for letters in ((1, 1, 1, 1, 2, 2, 2, 2), (1, 1, 1, 1, 1, 1, 2, 2),
                        (1, 1, 2, 2, 3, 3, 4, 4)):
            assert _class_sum_within_bars(letters, H), letters


class TestHurstOneLimit:
    @pytest.mark.parametrize("H", (0.99, 0.999, 0.9999, 0.99999))
    def test_words_approach_the_straight_line(self, H):
        # at H = 1 fBm is t G, so E S^w = prod_i E[G^n_i] / |w|!, n_i the
        # count of letter i; near H = 1 every word with at least two nonzero
        # letters lies within 0.15 (1 - H) of that limit
        checked = 0
        for length in (2, 4, 6):
            for letters in itertools.product(range(3), repeat=length):
                counts = Counter(letters)
                if length - counts[0] < 2:
                    continue
                limit = (_gaussian_moment(counts[1]) * _gaussian_moment(counts[2])
                         / math.factorial(length))
                value = expected_word(Word(letters, 2), H).value
                assert abs(value - limit) <= 0.15 * (1.0 - H), letters
                checked += 1
        assert checked == 792

    # Every canonical even word of up to eight letters over {1, ..., 4}, and
    # every d = 1 word of up to eight letters with a time letter (a time
    # letter contributes t, so its count adds nothing to the product).  The
    # worst (|value - limit| - bar) / (1 - H) measured is 0.224 at H = 0.99,
    # set by 1,0,1; pure words reach 0.098.  L = 0.3 leaves a third on top.
    @pytest.mark.parametrize("H", (0.99, 0.999, 0.9999))
    def test_sweep_within_bar_and_distance(self, H):
        words = [w for n in (2, 4, 6, 8) for w in _even_words(n)]
        assert len(words) == 415
        words += [Word(letters, 1) for n in range(1, 9)
                  for letters in itertools.product((0, 1), repeat=n)
                  if 0 in letters and letters.count(1) % 2 == 0]
        assert len(words) == 666
        for w in words:
            counts = Counter(x for x in w.letters if x)
            limit = (math.prod(map(_gaussian_moment, counts.values()))
                     / math.factorial(len(w.letters)))
            value, bar = expected_word(w, H)
            assert abs(value - limit) <= bar + 0.3 * (1.0 - H), w.letters


def _canonical_words(length):
    """Words over {0,1,2,3} whose nonzero letters first appear as 1, 2, 3."""
    for word in itertools.product(range(4), repeat=length):
        seen = [x for i, x in enumerate(word) if x and x not in word[:i]]
        if seen == list(range(1, len(seen) + 1)):
            yield ",".join(map(str, word))


class TestQuadratureReuse:
    def test_rule_built_once_per_size(self, monkeypatch, tmp_path):
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def counting(N):
            calls.append(N)
            return leggauss(N)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        sq._gauss_legendre.cache_clear()
        sq._beta_axis.cache_clear()
        sq._core_numeric.cache_clear()
        sq._reduced_integral.cache_clear()
        # length 6: a length-5 table has only separable cores and builds no rule
        words = ";".join(_canonical_words(6))
        rc = main(["expected-sig", "--H", "0.75", "--words", words,
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 0
        assert sorted(calls) == [sq.POINTS_PER_AXIS, sq.POINTS_PER_AXIS + 16]

    @pytest.mark.parametrize("H", (0.52, 0.75, 0.98))
    def test_core_memo_is_exact(self, H, monkeypatch):
        texts = ("1,1,1,1,1,1", "1,2,3,1,2,3", "1,2,1,3,3,2",  # six letters
                 "1,0,1", "0,1,1,0", "1,1,0,0,1,1",            # time letters
                 "1,0,2,1,0,2", "0,1,2,0,0,2,1")              # mixed
        words = [w for w, _ in _parse_words(";".join(texts))]
        sq._reduced_integral.cache_clear()
        memo = [expected_word(w, H) for w in words]
        assert sq._reduced_integral.cache_info().hits > 0
        assert [expected_word(w, H) for w in words] == memo
        monkeypatch.setattr(sq, "_reduced_integral", sq._reduced_integral.__wrapped__)
        assert [expected_word(w, H) for w in words] == memo

    def test_six_letter_table_reduces_each_matching_once(self, tmp_path):
        # 180 matching integrals over 75 distinct matchings, and every
        # reversal partner is one of them
        sq._reduced_integral.cache_clear()
        words = ";".join(_canonical_words(6))
        rc = main(["expected-sig", "--H", "0.7341", "--words", words, "--tol", "1",
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 0
        assert sq._reduced_integral.cache_info().misses == 75

    def test_six_letter_table_fits_the_core_memo(self, tmp_path):
        # one fresh-H table looks its 18 linked cores up once each, both
        # resolutions in one entry (separable cores close as Beta products
        # and skip the memo).  Cores at different positions can share an
        # integrand, which sums to the same floats at every position: the 18
        # have 15 distinct ones at every H.  Three such tables fit the bound
        sq._core_numeric.cache_clear()
        words = ";".join(_canonical_words(6))
        added = 0
        for H, fresh in (("0.7341", 15), ("0.6123", 15), ("0.8321", 15)):
            sq._reduced_integral.cache_clear()
            before = sq._core_numeric.cache_info()
            rc = main(["expected-sig", "--H", H, "--words", words, "--tol", "1",
                       "--out", str(tmp_path / "out.csv")])
            assert rc == 0
            info = sq._core_numeric.cache_info()
            assert info.misses - before.misses == fresh, H
            assert info.hits + info.misses - before.hits - before.misses == 18, H
            added += fresh
        assert info.currsize == added <= info.maxsize
        sq._reduced_integral.cache_clear()


def _table_words():
    """The canonical words over {0,1,2,3} of length 4, 5 and 6."""
    return [Word(tuple(map(int, t.split(","))), 3)
            for n in (4, 5, 6) for t in _canonical_words(n)]


def _bits(fn, word, H):
    """fn(word, H) as the hex of its value and bar; a tolerance failure as
    the hex of the value and error it carries."""
    try:
        value, error = fn(word, H)
    except QuadratureToleranceError as err:
        return "tol", err.value.hex(), err.error.hex()
    return value.hex(), error.hex()


class TestWordPlan:
    @pytest.mark.parametrize("H", (0.55, 0.7341, 0.95))
    def test_table_words_match_the_matching_sum(self, H):
        # bit for bit, with the plan built on the first call and read on
        # the repeat; each side starts from an empty integral memo
        words = _table_words()
        assert len(words) == 51 + 187 + 715
        sq._reduced_integral.cache_clear()
        want = [_bits(expected_word_by_matchings, w, H) for w in words]
        ex._word_plan.cache_clear()
        sq._reduced_integral.cache_clear()
        assert [_bits(expected_word, w, H) for w in words] == want
        assert ex._word_plan.cache_info().misses == len(words)
        assert [_bits(expected_word, w, H) for w in words] == want
        assert ex._word_plan.cache_info().misses == len(words)
        sq._reduced_integral.cache_clear()

    @pytest.mark.parametrize("H", (0.55, 0.7341, 0.95))
    def test_decay_candidate_counts_the_matchings(self, H):
        # the report subtracts the candidate from the value, and the plan's
        # triple is the bound and the refined and plain permutation counts
        # over k! 2^k (2k)!; the eight-letter words (k = 4) need no quadrature
        pure = [w for w in _table_words() if 0 not in w.letters and len(w) % 2 == 0]
        assert len(pure) == 14 + 122
        for w in pure:
            rep = decay_bound_check(w, H, QuadConfig(tol=1.0))
            k = len(w) // 2
            counted = math.factorial(k) * 2**k * math.factorial(2 * k)
            assert rep.candidate_difference == rep.value - permutation_count(w) / counted
        for w in pure + _eight_letter_words():
            k = len(w) // 2
            norm = math.factorial(k) * 2**k
            counted = norm * math.factorial(2 * k)
            refined = mt.refined_count_bound(k, len(set(w.letters)))
            assert ex._word_plan(w.letters).decay == \
                (1 / norm, refined / counted, permutation_count(w) / counted)

    @pytest.mark.parametrize("n", (14, 36, 302))
    def test_decay_check_answers_long_odd_words(self, n, monkeypatch):
        # an odd count has no compatible matching, so its permutation count
        # is 0 without the enumeration, which refuses more than 12 positions
        def no_enumeration(word):
            raise AssertionError(f"enumerated ({word})")

        monkeypatch.setattr(mt, "compatible_matchings", no_enumeration)
        ex._word_plan.cache_clear()
        letters = (1,) * (n - 1) + (2,)
        rep = decay_bound_check(Word(letters, 2), 0.7)
        k = len(letters) // 2
        assert (rep.value, rep.quad_error, rep.candidate_difference, rep.passed) == \
            (0.0, 0.0, 0.0, True)
        assert rep.bound == 1 / (math.factorial(k) * 2**k)
        with pytest.raises(ValueError, match="at most 8 nonzero letters"):
            decay_bound_check(Word((1,) * len(letters), 1), 0.7)

    def test_fresh_h_table_builds_nothing_new(self, tmp_path):
        words = ";".join(_canonical_words(6))
        out = str(tmp_path / "out.csv")
        assert main(["expected-sig", "--H", "0.6123", "--words", words, "--out", out]) == 0
        plans = ex._word_plan.cache_info().misses
        shapes = sq._reduce_terms.cache_info().misses
        assert main(["expected-sig", "--H", "0.8321", "--words", words, "--out", out]) == 0
        assert ex._word_plan.cache_info().misses == plans
        assert sq._reduce_terms.cache_info().misses == shapes

    def test_each_plan_built_once_across_h(self, tmp_path):
        # a word whose level-table cells are kept reads no plan, so the
        # cells are cleared too
        ex._word_plan.cache_clear()
        cli._level_cells.cache_clear()
        words = ";".join(_canonical_words(6))
        rc = main(["expected-sig", "--H", "0.6,0.7,0.8", "--words", words,
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 0
        info = ex._word_plan.cache_info()
        assert info.misses == info.currsize == 715

    def test_bound_holds_the_exact_workload_words(self):
        # the benchmark's exact workload asks the canonical tables of length
        # 4, 5 and 6, the words over {1,2} of length 4 and the cubature
        # verify words, over {0,1} of length at most 5
        words = {w.letters for w in _table_words()}
        words |= set(itertools.product((1, 2), repeat=4))
        words |= {p for n in range(6) for p in itertools.product((0, 1), repeat=n)}
        ex._word_plan.cache_clear()
        for _ in range(2):
            for letters in sorted(words):
                ex._word_plan(letters)
        info = ex._word_plan.cache_info()
        assert info.misses == info.currsize == len(words) <= info.maxsize

    def test_level_cells_hold_the_exact_workload_words(self):
        # the exact workload's level tables and spot queries ask the
        # canonical words of length 4, 5 and 6 and the words over {1,2} of
        # length 4: 961 texts, 144 of them under the decay bound
        words = {w.letters for w in _table_words()}
        words |= set(itertools.product((1, 2), repeat=4))
        labels = sorted(",".join(map(str, w)) for w in words)
        cli._level_cells.cache_clear()
        ex._word_plan.cache_clear()
        for _ in range(2):
            for label in labels:
                cli._level_cells(label)
        info = cli._level_cells.cache_info()
        assert info.misses == info.currsize == len(labels) == 961 <= info.maxsize
        info = ex._word_plan.cache_info()
        assert info.misses == info.currsize == 961 <= info.maxsize
        assert sum(ex._word_plan(w).decay is not None for w in words) == 144

    def test_bound_holds_a_two_letter_depth_six_tensor(self):
        # expected_tensor(H, 2, 6) walks 1093 words in the same order on
        # every call; a repeat at a fresh H builds no plan
        ex._word_plan.cache_clear()
        expected_tensor(0.6123, 2, 6)
        assert ex._word_plan.cache_info().misses == 1093
        expected_tensor(0.8321, 2, 6)
        assert ex._word_plan.cache_info().misses == 1093


class TestBetaAxis:
    def test_closed_form_cdf_against_mpmath(self):
        # x = I_u(p, q) and 1 - x = I_{1-u}(q, p) on both rules, for every
        # (p, q) the Beta-map can choose, against 30-digit mpmath
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(30):
            for N in (sq.POINTS_PER_AXIS, sq.POINTS_PER_AXIS + 16):
                u, _ = sq._gauss_legendre(N)
                for p in range(1, 7):
                    for q in range(1, sq.QCAP + 1):
                        n = p + q - 1
                        x = sq._binomial_tail(p, n, u, 1.0 - u)
                        cx = sq._binomial_tail(q, n, 1.0 - u, u)
                        for ui, xi, ci in zip(u, x, cx):
                            ui = mpmath.mpf(float(ui))
                            want = mpmath.betainc(p, q, 0, ui, regularized=True)
                            want_c = mpmath.betainc(q, p, 0, 1 - ui, regularized=True)
                            worst = max(worst, abs(xi / want - 1), abs(ci / want_c - 1))
        assert worst <= 1e-13

    @pytest.mark.parametrize("H", (0.5001, 0.6, 0.95))
    def test_six_letter_cores_take_integer_exponents(self, H, monkeypatch):
        # the closed-form map needs integer p and q; every core of every
        # matching on six positions (time letters included) stays within
        # p <= 6 and q <= QCAP
        seen = []
        beta_axis = sq._beta_axis

        def recording(p, q, N):
            seen.append((p, q))
            return beta_axis(p, q, N)

        monkeypatch.setattr(sq, "_beta_axis", recording)
        sq._core_numeric.cache_clear()
        sq._reduced_integral.cache_clear()
        for size in (2, 4, 6):
            for subset in itertools.combinations(range(6), size):
                for matching in enumerate_matchings(size):
                    pairs = [(subset[a], subset[b]) for a, b in matching]
                    sq.matching_simplex_integral(6, pairs, 2.0 * H - 2.0)
        sq._reduced_integral.cache_clear()
        assert seen
        for p, q in seen:
            assert type(p) is int and type(q) is int
            assert 1 <= p <= 6 and 1 <= q <= sq.QCAP

    def test_axis_built_once_per_key(self, monkeypatch, tmp_path):
        # one length-6 table evaluates each (p, q, N) closed form exactly
        # once, and reuses it across its linked cores (a length-5 table has
        # none)
        built = []
        tail = sq._binomial_tail

        def counting(k, n, u, v):
            built.append((k, n, len(u)))
            return tail(k, n, u, v)

        monkeypatch.setattr(sq, "_binomial_tail", counting)
        sq._beta_axis.cache_clear()
        sq._core_numeric.cache_clear()
        sq._reduced_integral.cache_clear()
        words = ";".join(_canonical_words(6))
        rc = main(["expected-sig", "--H", "0.75", "--words", words,
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 0
        info = sq._beta_axis.cache_info()
        assert info.misses == info.currsize > 0
        assert info.hits > 0
        # two binomial tails (x and 1 - x) per distinct key
        assert len(built) == 2 * info.currsize


def _matching_cores(monkeypatch, H, shapes):
    """Every distinct (gam, spans) integrand that _reduced_integral hands to
    _core_numeric for the 1-based shapes (n, pairs), the unmatched positions
    being time letters."""
    seen = set()

    def recording(gam, spans):
        seen.add((gam, spans))
        return 1.0, 1.0

    # a warm memo would skip the recorder, and the recorder's values must not
    # outlive it
    sq._reduced_integral.cache_clear()
    with monkeypatch.context() as mp:
        mp.setattr(sq, "_core_numeric", recording)
        for n, pairs in shapes:
            sq.matching_simplex_integral(n, [(a - 1, b - 1) for a, b in pairs],
                                         2.0 * H - 2.0)
    sq._reduced_integral.cache_clear()
    return seen


def _core_values_full_grid(gam, spans):
    """core_numeric_full_grid at the two resolutions _core_numeric returns."""
    return tuple(core_numeric_full_grid(gam, spans, N)
                 for N in (sq.POINTS_PER_AXIS + 16, sq.POINTS_PER_AXIS))


class TestCoreContraction:
    def test_matches_full_grid_oracle(self, monkeypatch):
        cores = set()
        for H in (0.5001, 0.6, 0.75, 0.98):
            cores |= _matching_cores(monkeypatch, H, _shapes(7))
        assert {len(gam) for gam, _ in cores} == {2, 3}
        worst = 0.0
        for gam, spans in cores:
            got = sq._core_numeric(gam, spans)
            for g, want in zip(got, _core_values_full_grid(gam, spans), strict=True):
                assert math.isfinite(g)
                worst = max(worst, abs(g / want - 1.0))
        assert worst <= 1e-13

    def test_planned_rules_equal_direct_rules(self, monkeypatch):
        # the rules planned once per shape give, at each exponent, the very
        # floats and spans that building each linked core's integrand (one
        # span covers two or more axes; separable cores close as Beta
        # products) from its factors gives, and _core_numeric maps its axes
        # with the p and q that the integrand asks for and reads each
        # two-axis link over those maps; a first evaluation builds the link
        # grids, so the counted one calls _beta_axis once per axis and N
        beta_axis, link_grid = sq._beta_axis, sq._link_grid
        for H in (0.5001, 0.6, 0.75, 0.98):
            e = 2.0 * H - 2.0
            planned = _matching_cores(monkeypatch, H, _shapes(7))
            direct = {rules
                      for n, pairs in _shapes(7)
                      for _, m, core in _numeric_cores(n, tuple((a, b, e) for a, b in pairs))
                      for rules in [axis_rules_direct(m, core, e)]
                      if any(len(ax) > 1 for ax, _ in rules[1])}
            assert planned == direct
            for gam, spans in planned:
                assert all(type(g) is float for g in gam)
                assert all(type(x) is float for _, x in spans)
                sq._core_numeric.__wrapped__(gam, spans)
                calls, links = [], []
                with monkeypatch.context() as mp:
                    mp.setattr(sq, "_beta_axis",
                               lambda p, q, N: calls.append((p, q, N)) or beta_axis(p, q, N))
                    mp.setattr(sq, "_link_grid",
                               lambda *key: links.append(key) or link_grid(*key))
                    sq._core_numeric.__wrapped__(gam, spans)
                p, q = beta_map_direct(gam, spans)
                sizes = (sq.POINTS_PER_AXIS + 16, sq.POINTS_PER_AXIS)
                assert calls == [(pi, qi, N) for N in sizes
                                 for pi, qi in zip(p, q)], (gam, spans)
                two = [ax for ax, _ in spans if len(ax) == 2]
                assert links == [(p[a], q[a], p[b], q[b], N)
                                 for N in sizes for a, b in two], (gam, spans)

    def test_spans_cover_at_most_two_axes(self):
        # up to three pairs on eight positions, every span covers one axis or
        # two neighbouring ones and a core has at most one N x N link, so
        # each contraction step is a sum or one vector-matrix product
        for n, pairs in _shapes(8):
            for _, axes, spans in sq._reduce_terms(n, pairs).terms:
                for ax, _ in spans:
                    assert len(ax) <= 2 and ax == tuple(range(ax[0], ax[0] + len(ax)))
                    assert ax[-1] < len(axes), (n, pairs)
                assert sum(len(ax) == 2 for ax, _ in spans) <= 1, (n, pairs)

    @pytest.mark.parametrize("H", ("0.7341", "0.5001"))
    def test_level_table_within_tenth_of_err_bar(self, H, monkeypatch, tmp_path):
        # the contraction reorders each core's sums, so the printed table moves
        # by rounding only: far inside every err_bar, and no pass cell flips
        # (at H = 0.5001 the reversal term widens the bar of 1,1,2,2,2,2 enough
        # for it to pass its bound, so both tables exit 0)
        words = ";".join(_canonical_words(6))

        def table(name):
            out = tmp_path / name
            rc = main(["expected-sig", "--H", H, "--words", words, "--tol", "1",
                       "--no-timestamp", "--out", str(out)])
            header, *rows = csv.reader(out.read_text().splitlines())
            return rc, [dict(zip(header, row)) for row in rows]

        sq._reduced_integral.cache_clear()
        rc, new = table("new.csv")
        with monkeypatch.context() as mp:
            mp.setattr(sq, "_core_numeric", functools.cache(_core_values_full_grid))
            sq._reduced_integral.cache_clear()
            rc_old, old = table("oracle.csv")
        sq._reduced_integral.cache_clear()
        assert rc == rc_old == 0
        assert len(new) == len(old) == 715
        for a, b in zip(new, old):
            assert (a["word"], a["pass"]) == (b["word"], b["pass"])
            diff = abs(float(a["value"]) - float(b["value"]))
            assert diff <= 0.1 * float(a["err_bar"]), a["word"]

    def test_three_axis_span_plans(self):
        # (t_8 - t_3) leaves a core whose span covers three axes, and the
        # shape plans like any other
        plan = sq._reduce_terms(8, ((1, 2), (3, 8), (4, 6), (5, 7)))
        assert (0, 1, 2) in {ax for _, _, spans in plan.terms for ax, _ in spans}

    def test_four_pair_three_axis_spans_are_counted(self):
        # every four-pair matching on eight positions plans; 52 of the 105
        # leave a span over three axes, and none a longer one
        carried = 0
        for matching in enumerate_matchings(8):
            plan = sq._reduce_terms(8, tuple((a + 1, b + 1) for a, b in matching))
            lengths = {len(ax) for _, _, spans in plan.terms for ax, _ in spans}
            assert max(lengths) <= 3
            carried += 3 in lengths
        assert (carried, len(list(enumerate_matchings(8)))) == (52, 105)

    def test_three_axis_cores_match_full_grid_oracle(self, monkeypatch):
        # every 3-D core with a three-axis span that the eight-letter
        # matchings leave, at both resolutions; 4-D cores only at the
        # coarse one, where the full grid has 48**4 points (about 120 MB)
        shapes = [(8, tuple((a + 1, b + 1) for a, b in m)) for m in enumerate_matchings(8)]
        cores = _matching_cores(monkeypatch, EIGHT_H[1], shapes)
        three = [c for c in cores if len(c[0]) == 3 and any(len(ax) == 3 for ax, _ in c[1])]
        assert len(three) == 53
        worst = 0.0
        for gam, spans in three:
            got = sq._core_numeric(gam, spans)
            for g, want in zip(got, _core_values_full_grid(gam, spans), strict=True):
                worst = max(worst, abs(g / want - 1.0))
        # the planned core of ((1, 5), (2, 8), (3, 6), (4, 7)) keeps axis 0
        # open under the link (0, 1), then closes axes 0 and 1 under (0, 1, 2)
        # and (1, 2) together; the synthetic spans (0, 1, 2) and (1, 2, 3)
        # close axis 0 and keep axes 1 and 2 in one step, which no plan does
        e = 2.0 * EIGHT_H[1] - 2.0
        planned = next(c for c in _matching_cores(monkeypatch, EIGHT_H[1],
                                                  [(8, ((1, 5), (2, 8), (3, 6), (4, 7)))])
                       if len(c[0]) == 4)
        assert sorted(ax for ax, _ in planned[1] if len(ax) > 1) == [(0, 1), (0, 1, 2), (1, 2)]
        mixed = ((0.0, 1.0, 2.0 + e, 3.0 + e), (((0, 1, 2), e), ((1, 2, 3), e)))
        for gam, spans in (planned, mixed):
            want = core_numeric_full_grid(gam, spans, sq.POINTS_PER_AXIS)
            worst = max(worst, abs(sq._core_numeric(gam, spans)[1] / want - 1.0))
        assert worst <= 1e-13


def _mc_weak_value(H):
    fields = (np.zeros_like, np.ones_like)
    return sde.mc_weak_value(fields, lambda y: y[..., 0], [0.0], H, 1.0, 4, 4, 0)


HURST_ENTRY_POINTS = {
    "check_hurst": check_hurst,
    "expected_word": lambda H: expected_word(W(1, 1), H),
    "expected_tensor": lambda H: expected_tensor(H, 1, 2),
    "cell_pair_integral": lambda H: cell_pair_integral(0, 1, 4, H),
    "cell_covariance_matrix": lambda H: cell_covariance_matrix(H, 4),
    "approx_expected_word": lambda H: ga.approx_expected_word(W(1, 1), H, 4),
    "constant_A": ga.constant_A,
    "constant_Atilde": ga.constant_Atilde,
    "sample_fbm_batch": lambda H: ga.sample_fbm_batch(H, 4, 1, 2, 0),
    "mc_weak_value": _mc_weak_value,
    "ErrorBoundParams": lambda H: sde.ErrorBoundParams(1.0, 0.0, 1, 5, H),
}


@pytest.mark.parametrize("H", (0.5, 1.0, math.nan), ids=("half", "one", "nan"))
@pytest.mark.parametrize("entry", sorted(HURST_ENTRY_POINTS))
def test_entry_points_reject_hurst_outside_young_range(entry, H):
    with pytest.raises(ValueError, match="H must lie in"):
        HURST_ENTRY_POINTS[entry](H)
