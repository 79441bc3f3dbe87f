import itertools
import math

import numpy as np
import pytest

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
from fbmsig.cli import main
from fbmsig.cubature import word_weight
from fbmsig.matchings import enumerate_matchings
from fbmsig.simplexquad import QuadConfig, _reduce_terms, matching_simplex_integral
from fbmsig.tensor import Word, all_words

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
        assert closed_form_value(Word.parse("1,1"), H) == 0.5
        assert closed_form_value(Word.parse("1,0,1"), H) == pytest.approx(
            (2 * H - 1) / (2 * (2 * H + 1)), abs=1e-15
        )
        assert closed_form_value(Word.parse("0,1,1"), H) == pytest.approx(
            1 / (2 * (2 * H + 1)), abs=1e-15
        )
        assert closed_form_value(Word.parse("1,1,1,1"), H) == 0.125
        assert closed_form_value(Word.parse("1"), H) == 0.0

    def test_rules_beyond_table(self):
        # single letter, pure time, odd count, and the genuinely unknown case
        assert closed_form_value(Word((1,) * 6, 1), 0.7) == pytest.approx(1 / 48)
        assert closed_form_value(Word((0, 0), 1), 0.7) == 0.5
        assert closed_form_value(Word((1, 2), 2), 0.7) == 0.0
        assert closed_form_value(Word((1, 2, 1, 2), 2), 0.7) is None

    def test_brownian_rule_equals_table_at_half(self):
        polyval = np.polynomial.polynomial.polyval
        for key, e in closed_form_table().items():
            want = float(polyval(0.5, e["num"]) / polyval(0.5, e["den"]))
            assert closed_form_value(Word.parse(key), 0.5) == want, key

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
            w = Word.parse(text)
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
        for letters in [(1,), (1, 2), (1, 1, 2), (1, 2, 2, 2), (1, 0, 2)]:
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


class TestExpectedTensor:
    def test_depth2_structure(self):
        t = expected_tensor(0.75, 2, depth=2)
        assert t.coeff(Word((), 2)) == 1.0
        for i in range(3):
            assert t.coeff(Word((i,), 2)) == (1.0 if i == 0 else 0.0)
        for i in (1, 2):
            assert t.coeff(Word((i, i), 2)) == pytest.approx(0.5, abs=1e-12)
        assert t.coeff(Word((1, 2), 2)) == 0.0
        assert t.coeff(Word((2, 1), 2)) == 0.0
        assert t.coeff(Word((0, 0), 2)) == pytest.approx(0.5, abs=0)

    def test_depth4_matches_expected_word(self):
        t = expected_tensor(0.8, 2, depth=4)
        for letters in [(1, 2, 1, 2), (1, 1, 2, 2), (2, 1, 1, 2), (1, 0, 1)]:
            w = W(*letters)
            assert t.coeff(w) == pytest.approx(expected_word(w, 0.8).value, abs=1e-12)

    def test_depth_cap(self):
        with pytest.raises(ValueError):
            expected_tensor(0.75, 1, depth=7)

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
        with pytest.raises(ValueError, match="at most 3 pairs"):
            matching_simplex_integral(8, [(0, 4), (1, 5), (2, 6), (3, 7)], -0.5)

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            QuadConfig(tol=0.0)

    def test_nan_tolerance_rejected(self):
        # a NaN tolerance would switch the tolerance gate off
        with pytest.raises(ValueError, match="tolerance must be > 0"):
            QuadConfig(tol=float("nan"))


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
                        factors = tuple((a, b, -0.5) for a, b in matching)
                        terms = _reduce_terms(n, factors, tuple(range(1, n + 1)))
                        dims.update(len(vs) for _, _, vs in terms)
        assert max(dims) <= 3


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
        words = ";".join(_canonical_words(5))
        rc = main(["expected-sig", "--H", "0.75", "--words", words,
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 0
        assert sorted(calls) == [sq.POINTS_PER_AXIS, sq.POINTS_PER_AXIS + 16]

    @pytest.mark.parametrize("H", (0.52, 0.75, 0.98))
    def test_core_memo_is_exact(self, H, monkeypatch):
        texts = ("1,1,1,1,1,1", "1,2,3,1,2,3", "1,2,1,3,3,2",  # six letters
                 "1,0,1", "0,1,1,0", "1,1,0,0,1,1",            # time letters
                 "1,0,2,1,0,2", "0,1,2,0,0,2,1")              # mixed
        words = [Word.parse(t) for t in texts]
        sq._core_numeric.cache_clear()
        memo = [expected_word(w, H) for w in words]
        assert sq._core_numeric.cache_info().hits > 0
        assert [expected_word(w, H) for w in words] == memo
        monkeypatch.setattr(sq, "_core_numeric", sq._core_numeric.__wrapped__)
        assert [expected_word(w, H) for w in words] == memo


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
        axis_rules = sq._axis_rules

        def recording(m, factors):
            out = axis_rules(m, factors)
            seen.extend(zip(out[2], out[3]))
            return out

        monkeypatch.setattr(sq, "_axis_rules", recording)
        sq._core_numeric.cache_clear()
        for size in (2, 4, 6):
            for subset in itertools.combinations(range(6), size):
                for matching in enumerate_matchings(size):
                    pairs = [(subset[a], subset[b]) for a, b in matching]
                    sq.matching_simplex_integral(6, pairs, 2.0 * H - 2.0)
        sq._core_numeric.cache_clear()
        assert seen
        for p, q in seen:
            assert type(p) is int and type(q) is int
            assert 1 <= p <= 6 and 1 <= q <= sq.QCAP

    def test_axis_built_once_per_key(self, monkeypatch, tmp_path):
        # one length-5 table evaluates each (p, q, N) closed form exactly
        # once, and reuses it across cores
        built = []
        tail = sq._binomial_tail

        def counting(k, n, u, v):
            built.append((k, n, len(u)))
            return tail(k, n, u, v)

        monkeypatch.setattr(sq, "_binomial_tail", counting)
        sq._beta_axis.cache_clear()
        sq._core_numeric.cache_clear()
        words = ";".join(_canonical_words(5))
        rc = main(["expected-sig", "--H", "0.75", "--words", words,
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 0
        info = sq._beta_axis.cache_info()
        assert info.misses == info.currsize > 0
        assert info.hits > 0
        # two binomial tails (x and 1 - x) per distinct key
        assert len(built) == 2 * info.currsize


def _mc_weak_value(H):
    vf = sde.VectorFieldSet(1, (np.zeros_like, np.ones_like))
    return sde.mc_weak_value(vf, lambda y: y[..., 0], [0.0], H, 1.0, 4, 4, 0)


HURST_ENTRY_POINTS = {
    "check_hurst": check_hurst,
    "expected_word": lambda H: expected_word(W(1, 1), H),
    "expected_tensor": lambda H: expected_tensor(H, 1, 2),
    "cell_pair_integral": lambda H: ga.cell_pair_integral(0, 1, 4, H),
    "cell_covariance_matrix": lambda H: ga.cell_covariance_matrix(H, 4),
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
