import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import zeta

from fbmsig import gridapprox as ga
from fbmsig import matchings as mt
from fbmsig.expected import expected_word
from fbmsig.gridapprox import (
    approx_expected_word,
    coefficient_bound_check,
    constant_A,
    constant_Atilde,
    convergence_slope,
    gap_rows,
    sample_fbm_batch,
)
from fbmsig.tensor import Word, batch_grid_signatures, word_index
import oracles
from oracles import (
    cell_covariance_matrix,
    cell_pair_integral,
    crossing_sum_brute,
    endpoint_sum_bar,
    crossing_sum_by_loop,
    fgn_cholesky_t,
    shuffle_class,
    split_normals,
)


def W(*letters, d=2):
    return Word(tuple(letters), d)


def cell_integral_by_quadrature(i, j, m, H):
    """Independent evaluation: reduce the cell-pair double integral to 1-d
    using the level-set length of |x - y|, with an endpoint-weighted rule for
    the algebraic singularity."""
    w = 1.0 / m
    mu = 2 * H - 2.0
    r = abs(i - j)
    if r == 0:
        # length of {x - y = u} in the square is (w - u), both signs of x - y
        val, _ = quad(lambda u: 2.0 * (w - u), 0, w, weight="alg", wvar=(mu, 0))
        return val
    if r == 1:
        v1, _ = quad(lambda u: u, 0, w, weight="alg", wvar=(mu, 0))
        v2, _ = quad(lambda u: (2 * w - u) * u**mu, w, 2 * w, limit=200)
        return v1 + v2
    lo, hi = (r - 1) * w, (r + 1) * w
    tent = lambda u: (w - abs(u - r * w))
    val, _ = quad(lambda u: tent(u) * u**mu, lo, hi, limit=200)
    return val


class TestCellPairIntegral:
    def test_unit_grid_value(self):
        assert cell_pair_integral(0, 0, 1, 0.75) == pytest.approx(8.0 / 3.0, abs=1e-14)

    @pytest.mark.parametrize("H", (0.6, 0.75, 0.9))
    def test_against_independent_quadrature(self, H):
        m = 5
        for i, j in [(0, 0), (0, 1), (1, 3), (0, 4), (2, 2)]:
            closed = cell_pair_integral(i, j, m, H)
            direct = cell_integral_by_quadrature(i, j, m, H)
            assert closed == pytest.approx(direct, abs=1e-10)

    @pytest.mark.parametrize("H", (0.6, 0.9))
    def test_total_mass_identity(self, H):
        for m in (1, 3, 8):
            D = cell_covariance_matrix(H, m)
            assert D.sum() == pytest.approx(1.0 / (H * (2 * H - 1)), rel=1e-12)

    def test_symmetry_and_translation(self):
        D = cell_covariance_matrix(0.75, 6)
        assert np.allclose(D, D.T)
        assert D[0, 2] == pytest.approx(D[1, 3], abs=1e-16)
        assert D[2, 2] == pytest.approx(D[0, 0], abs=1e-16)

    def test_index_range(self):
        with pytest.raises(ValueError):
            cell_pair_integral(0, 5, 5, 0.75)

    @pytest.mark.parametrize("rows", (0, 1, 2, 256, 300, 4094, 65534, 262142))
    def test_power_table_is_vanders_bit_for_bit(self, rows):
        # the kept 256-row table, the sampler's long grids and the grid
        # engine's largest kernel
        r = np.arange(2.0, rows + 2)
        want = np.vander(1.0 / (r * r), 24, increasing=True)
        got = ga._power_table.__wrapped__(rows)
        assert np.array_equal(got, want) and got.flags.c_contiguous
        assert not got.flags.writeable

    @pytest.mark.parametrize("H", (0.501, 0.6, 0.75, 0.9, 0.999))
    def test_second_differences_against_high_precision(self, H):
        # (r+1)^2H - 2 r^2H + (r-1)^2H cancels to about 2H(2H-1) r^(2H-2);
        # the engine kernel and cell_pair_integral must keep full relative
        # precision over every distance of the largest grid
        from fbmsig.gridapprox import _second_differences

        mpmath = pytest.importorskip("mpmath")
        m = 4096
        got = _second_differences(H, m)[1:]
        with mpmath.workdps(40):
            a = 2 * mpmath.mpf(H)
            want = [(k + 1) ** a - 2 * mpmath.mpf(k) ** a + (k - 1) ** a
                    for k in range(1, m)]
            rel = max(abs((float(g) - w) / w) for g, w in zip(got, want))
            scale = mpmath.mpf(m) ** -a / (a * (a - 1))
            for k in (1, 2, 3, m - 1):
                cell = cell_pair_integral(0, k, m, H)
                assert abs((cell - want[k - 1] * scale) / (want[k - 1] * scale)) <= 1e-12
        assert rel <= 1e-12

    def test_series_coefficients_are_read_only(self):
        # the array is cached per H; a write would change every later kernel
        c = ga._series_coefficients(0.7)
        with pytest.raises(ValueError, match="read-only"):
            c[0] = 0.0
        assert ga._series_coefficients(0.7) is c

    def test_diagonal_triangle_exactness(self):
        # inside one diagonal cell the ordered-triangle kernel mass equals
        # half the full cell mass, which is exactly what the cell-averaged
        # density assigns to the triangle: the per-box difference vanishes
        for H in (0.6, 0.75):
            for m in (2, 5):
                w = 1.0 / m
                triangle = w ** (2 * H) / (2 * H * (2 * H - 1))  # int over 0<s<t<w
                cell = cell_pair_integral(0, 0, m, H)
                approx_triangle = (m * m * cell) * (w * w / 2.0)
                assert triangle == pytest.approx(cell / 2.0, rel=1e-12)
                assert approx_triangle == pytest.approx(triangle, rel=1e-12)


def enumerated_approx(word, H, m):
    """Reference value of B^m by direct enumeration of every weakly
    increasing cell assignment c_1 <= ... <= c_2k (O(m^2k) work): per
    compatible matching, prod H(2H-1) m^2 D[c_a][c_b] times the ordered
    volume prod over tie runs of (1/m)^s / s!."""
    two_k = len(word.letters)
    rho = H * (2.0 * H - 1.0) * m * m * cell_covariance_matrix(H, m)
    terms = []
    for cells in itertools.combinations_with_replacement(range(m), two_k):
        runs = [len(list(g)) for _, g in itertools.groupby(cells)]
        vol = m ** (-float(two_k)) / math.prod(math.factorial(s) for s in runs)
        for matching in mt.compatible_matchings(word):
            terms.append(vol * math.prod(rho[cells[a], cells[b]] for a, b in matching))
    return math.fsum(terms)


class TestApproxExpectedWord:
    @settings(max_examples=60, deadline=None)
    @given(
        letters=st.lists(st.sampled_from((1, 2)), min_size=2, max_size=4).filter(
            lambda x: len(x) != 3
        ),
        m=st.integers(1, 24),
        H=st.floats(0.501, 0.999),
    )
    def test_matches_enumeration(self, letters, m, H):
        word = W(*letters)
        want = enumerated_approx(word, H, m)
        got = approx_expected_word(word, H, m)
        assert abs(got - want) <= max(1e-13 * abs(want), 1e-15)

    def test_large_grid_within_default_budget(self):
        value = approx_expected_word(W(1, 2, 1, 2), 0.75, ga._MAX_CELLS)
        assert ga._MAX_CELLS == 2**18
        assert 0.0 < value < 1.0 / 8.0

    @pytest.mark.parametrize("m", (1, 2, 7, 16))
    def test_level2_exact_half(self, m):
        assert approx_expected_word(W(1, 1), 0.75, m) == pytest.approx(0.5, abs=1e-14)

    def test_single_cell_level4(self):
        # on one cell the interpolation is the chord, so every level-4
        # coefficient collapses to a product of increments over 4!
        assert approx_expected_word(W(1, 1, 2, 2), 0.8, 1) == pytest.approx(
            1.0 / 24.0, abs=1e-15
        )
        assert approx_expected_word(W(1, 2, 1, 2), 0.8, 1) == pytest.approx(
            1.0 / 24.0, abs=1e-15
        )

    def test_odd_word_zero(self):
        assert approx_expected_word(W(1, 1, 2), 0.75, 3) == 0.0

    @pytest.mark.parametrize("k", [5, 7])
    def test_odd_word_beyond_length_cap_zero(self, k):
        assert approx_expected_word(W(*[1] * k), 0.75, 3) == 0.0

    def test_budget_enforced(self):
        with pytest.raises(ValueError, match=r"m = 262145 exceeds the grid ceiling of 262144"):
            approx_expected_word(W(1, 1, 2, 2), 0.75, 2**18 + 1)

    def test_rejects_time_letters(self):
        with pytest.raises(ValueError, match=r"pure-fBm words, got word \(1,0\)"):
            approx_expected_word(W(1, 0), 0.75, 4)

    def test_rejects_six_letters(self):
        with pytest.raises(ValueError, match=r"capped at 4 .*, got word \(1,2,1,2,1,2\)"):
            approx_expected_word(W(1, 2, 1, 2, 1, 2), 0.75, 4)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="m must be"):
            approx_expected_word(W(1, 1), 0.75, 0)

    @pytest.mark.parametrize("letters", [(1, 1, 2, 2), (1, 2, 1, 2)])
    def test_monte_carlo_cross_check(self, letters):
        # the sampled interpolation IS B^m, so signature means must match the
        # cell-combinatorics value within Monte-Carlo error
        H, m, n = 0.75, 8, 40_000
        paths = sample_fbm_batch(H, m, 2, n, seed=2024)
        lev = batch_grid_signatures(np.arange(m + 1) / m, paths, 4)
        vals = lev[4][:, word_index(letters, 2)]
        mean, se = vals.mean(), vals.std(ddof=1) / math.sqrt(n)
        want = approx_expected_word(W(*letters), H, m)
        assert abs(mean - want) <= 4.0 * se

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_brownian_oracle_against_gauss_hermite(self, m):
        # three Gauss-Hermite nodes per normal integrate exactly every
        # coefficient up to level 4, a polynomial of degree 4 at most in
        # each increment, so the weighted signatures of the node paths are
        # the expected ones, time letters included (measured within 6.6e-15
        # relative, and 4.1e-16 of the zeros)
        x, w = np.polynomial.hermite_e.hermegauss(3)
        nodes = np.array(list(itertools.product(x, repeat=2 * m))).reshape(-1, m, 2)
        weights = np.prod(list(itertools.product(w / w.sum(), repeat=2 * m)), axis=1)
        spatial = np.concatenate([np.zeros((len(nodes), 1, 2)),
                                  np.cumsum(nodes / math.sqrt(m), axis=1)], axis=1)
        levels = batch_grid_signatures(np.arange(m + 1) / m, spatial, 4)
        for got, want in zip(oracles.brownian_grid_signature(m, 2, 4), levels):
            assert np.allclose(got[0], weights @ want, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 16, 64, 4096, 2**18])
    def test_approaches_the_brownian_grid_values(self, m):
        # the engine is continuous as H -> 1/2, so at H = 1/2 + delta it
        # lies within c delta of the Brownian grid values, besides its
        # rounding.  Measured |difference| / delta at delta = 1e-9: at most
        # 0.2500 (1,1,2,2 and 1,2,2,1 at m = 2^18), rising with m (0.12 at
        # m = 2, 0.22 at 16, 0.2497 at 4096), 0 for 1,1 and 1,1,1,1
        c, delta = 0.26, 1e-9
        levels = oracles.brownian_grid_signature(m, 2, 4)
        value = lambda *letters: levels[len(letters)][0, word_index(letters, 2)]
        for letters in ((1, 1), (1, 1, 1, 1), (1, 1, 2, 2), (1, 2, 1, 2), (1, 2, 2, 1)):
            got = approx_expected_word(W(*letters), 0.5 + delta, m)
            assert abs(got - value(*letters)) <= ga._rounding_bar(got, m) + c * delta
        # item 11's hand-computed Brownian grid values
        assert value(1, 2, 1, 2) == pytest.approx(1.0 / (24 * m), rel=1e-14, abs=0.0)
        assert value(1, 1, 2, 2) == pytest.approx(0.125 - 1.0 / (12 * m), rel=1e-14,
                                                  abs=0.0)


def _kernel(H, m):
    return 0.5 * m ** (2.0 - 2.0 * H) * ga._second_differences(H, m)


EDGE_H = (0.5001, 0.6, 0.75, 0.9, 0.99)


class TestCrossingSum:
    @pytest.mark.parametrize("H", EDGE_H)
    @pytest.mark.parametrize("m", (4, 5, 9, 64, 257, 4096))
    def test_matches_loop(self, H, m):
        g = _kernel(H, m)
        got, want = ga._crossing_sum(g, ga._cells(len(g))), crossing_sum_by_loop(g)
        assert abs(got - want) <= 1e-13 * want
        assert abs(got - want) <= ga._rounding_bar(got, m)

    @pytest.mark.parametrize("H", EDGE_H)
    def test_matches_brute_force(self, H):
        for m in range(1, 10):
            g = _kernel(H, m)
            got, want = ga._crossing_sum(g, ga._cells(len(g))), crossing_sum_brute(g)
            assert abs(got - want) <= 1e-15 * want
            assert (got == 0.0) == (m < 4)


class TestShuffleSumRules:
    # the words of one shuffle class sum to E prod (X^i)^(n_i) / n_i!, which
    # for the unit-variance endpoint of B^m is 1/4 for {1,1,2,2} and 1/8
    # for {1,1,1,1} at every grid size
    @pytest.mark.parametrize("H", EDGE_H)
    @pytest.mark.parametrize("m", (1, 2, 7, 64, 4096, 65536))
    def test_class_sums(self, H, m):
        for letters, want in [((1, 1, 2, 2), 0.25), ((1, 1, 1, 1), 0.125)]:
            words = shuffle_class(letters, 2)
            values = [approx_expected_word(w, H, m) for w in words]
            err = abs(math.fsum(values) - want)
            assert err <= 1e-14 * len(words)
            assert err <= sum(ga._rounding_bar(v, m) for v in values)


class TestSignatureGap:
    def test_level2_gap_zero(self):
        for _, g in gap_rows(W(1, 1), 0.75, (1, 2, 5, 64)):
            assert g.gap <= 1e-14

    def test_single_cell_gap(self):
        (_, g), = gap_rows(W(1, 1, 2, 2), 0.75, (1,))
        exact = expected_word(W(1, 1, 2, 2), 0.75).value
        assert g.gap == pytest.approx(abs(exact - 1.0 / 24.0), abs=1e-13)

    def test_gaps_decrease(self):
        gaps = [g.gap for _, g in gap_rows(W(1, 1, 2, 2), 0.75, (4, 8, 16))]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_grid_refinement_factor(self):
        # at H = 0.6 the m=64 gap sits below the m=4 gap by at least 16^(2H)/2
        H = 0.6
        factor = 16.0 ** (2 * H) / 2.0
        for letters in [(1, 1, 2, 2), (1, 2, 1, 2)]:
            (_, g4), (_, g64) = gap_rows(W(*letters), H, (4, 64))
            assert g64.gap <= g4.gap / factor

    def test_scaled_gap_monitored_bounded(self):
        H = 0.75
        w = W(1, 1, 2, 2)
        rep = coefficient_bound_check(w, H, gap_rows(w, H, (4, 8, 16, 32)))
        scaled = [row[2] for row in rep.rows]
        assert max(scaled) < 1.0  # far below the uniform bound
        assert rep.passed


class TestConvergenceSlope:
    def test_refuses_identically_zero(self):
        fit = convergence_slope(gap_rows(W(1, 1), 0.75, (4, 8, 16, 32)))
        assert not fit.ok
        assert "zero" in fit.reason

    def test_fits_level4_word(self):
        fit = convergence_slope(gap_rows(W(1, 1, 2, 2), 0.6, (4, 8, 16, 32)))
        assert fit.ok
        assert -1.4 < fit.slope < -0.9
        assert fit.residual < 0.05

    @pytest.mark.parametrize("H", (0.6, 0.75, 0.9))
    def test_crossing_ladder_reaches_rate(self, H):
        # the README ladder: local slopes over m = 1024 ... 65536 steepen
        # toward -2H, and every gap stays above 10 error bars
        rows = gap_rows(W(1, 2, 1, 2), H, (1024, 4096, 16384, 65536))
        gaps = [g.gap for _, g in rows]
        assert all(g.gap > 10.0 * g.err_bar for _, g in rows)
        local = [math.log(b / a) / math.log(4.0) for a, b in zip(gaps, gaps[1:])]
        assert local[0] > local[1] > local[2]
        assert abs(local[-1] + 2.0 * H) <= 0.05

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            convergence_slope(gap_rows(W(1, 1, 2, 2), 0.6, (4, 8, 16)))

    def test_repeated_grid_sizes_count_once(self):
        rows = gap_rows(W(1, 2, 1, 2), 0.75, (4, 4, 8, 4, 16, 8))
        assert [m for m, _ in rows] == [4, 8, 16]
        with pytest.raises(ValueError, match="4 distinct grid sizes"):
            convergence_slope(rows)
        # hand-built rows with a repeated size are counted the same way
        with pytest.raises(ValueError, match="4 distinct grid sizes"):
            convergence_slope(rows + rows[:1])


class TestConstants:
    @pytest.mark.parametrize("H", (0.6, 0.75, 0.9))
    def test_A_against_independent_formula(self, H):
        S = zeta(3 - 2 * H)
        hh = H * (2 * H - 1)
        want = 2 * (1 / hh + (2 ** (2 * H) + 2) / hh + (4 - 4 * H) * S) + (
            3 ** (2 * H) + 10 * 2 ** (2 * H) + 2
        ) / (2 * hh)
        got = constant_A(H)
        assert got.value == pytest.approx(want, abs=1e-7)
        assert got.error < 1e-8

    @pytest.mark.parametrize("H", (0.5001, 0.517, 0.6, 0.75, 0.933, 0.9999))
    def test_error_bars_cover_high_precision_values(self, H):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            h = mpmath.mpf(H)
            hh, two_h = h * (2 * h - 1), 2 * h
            S = mpmath.zeta(3 - two_h)
            A = 2 * (1 / hh + (2**two_h + 2) / hh + (4 - 4 * h) * S) + (
                3**two_h + 10 * 2**two_h + 2
            ) / (2 * hh)
            Atilde = 56 * (1 + 2**two_h) + 4 * 3**two_h + 16 * hh * (4 - 4 * h) * S
            for got, want in [(constant_A(H), A), (constant_Atilde(H), Atilde)]:
                assert abs(got.value - want) <= got.error

    @pytest.mark.parametrize("H", (0.6, 0.75, 0.9))
    def test_identity_eight_A_H(self, H):
        a = constant_A(H)
        at = constant_Atilde(H)
        assert at.value == pytest.approx(
            8 * a.value * H * (2 * H - 1), abs=1e-10 + 8 * a.error
        )

    def test_positive_on_grid(self):
        for H in np.linspace(0.55, 0.95, 9):
            assert constant_A(float(H)).value > 0
            assert constant_Atilde(float(H)).value > 0

    def test_pole_toward_half(self):
        assert constant_A(0.51).value > constant_A(0.75).value


class TestSpecialFunctions:
    def test_comb_is_exact(self):
        # the chain sum weights C(dist - 1, j - i - 1) C(m - dist, r - (j - i))
        # take k in 0..3 at every distance up to the largest m; k > x and
        # k < 0 give 0
        x = np.arange(0, 4097, dtype=float)
        for k in range(-1, 5):
            want = [math.comb(int(v), k) if k >= 0 else 0 for v in x]
            assert ga._comb(x, k).tolist() == want

    def test_zeta_against_mpmath(self):
        # the measurement behind _ZETA_REL_ERR, which is four times its worst
        # relative error rounded up
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(40):
            for H in np.linspace(0.5001, 0.99999999, 4004):
                want = mpmath.zeta(3 - 2 * mpmath.mpf(float(H)))
                worst = max(worst, abs(ga._zeta(3.0 - 2.0 * float(H)) / want - 1))
        assert 4 * worst <= ga._ZETA_REL_ERR


class TestCoefficientBound:
    def test_bound_formula_ratio(self):
        # bound_k = Atilde * k(2k-1)/((k-1)! 2^k): between k=3 and k=2 words
        # the ratio is (15/16)/(3/2) = 0.625 independent of Atilde
        bound = lambda k: k * (2 * k - 1) / (math.factorial(k - 1) * 2**k)
        assert bound(3) / bound(2) == pytest.approx(0.625)

    def test_level2_trivial(self):
        rep = coefficient_bound_check(W(1, 1), 0.75, gap_rows(W(1, 1), 0.75, (4, 8, 16, 32)))
        assert rep.max_scaled_gap <= 1e-12
        assert rep.passed

    def test_level4_passes(self):
        w = W(1, 1, 2, 2)
        rep = coefficient_bound_check(w, 0.75, gap_rows(w, 0.75, (4, 8, 16, 32, 64)))
        assert rep.bound == pytest.approx(1.5 * rep.atilde.value, rel=1e-12)
        assert rep.max_scaled_gap < rep.bound
        assert rep.passed

    def test_refuses_words_shorter_than_two_letters(self):
        rows = gap_rows(W(1), 0.75, (4, 8, 16, 32))
        with pytest.raises(ValueError, match=r"at least 2 letters, got word \(1\)"):
            coefficient_bound_check(W(1), 0.75, rows)


class TestSampleFbm:
    # m = 256 draws through the circulant embedding, the other grids through
    # the Cholesky factor
    def test_seed_determinism(self):
        for m in (16, 256):
            a = sample_fbm_batch(0.7, m, 2, 1, seed=99)[0]
            b = sample_fbm_batch(0.7, m, 2, 1, seed=99)[0]
            assert np.array_equal(a, b)
            assert not np.array_equal(a, sample_fbm_batch(0.7, m, 2, 1, seed=100)[0])

    def test_starts_at_zero(self):
        assert np.all(sample_fbm_batch(0.6, 8, 3, 1, seed=1)[0, 0] == 0.0)

    def test_single_equals_batch_head(self):
        # a small batch is the head of each stream of a larger batch on the
        # same seed: on both branches a four-path batch is paths 0, 1 and
        # n // 2, n // 2 + 1 of n (on the Cholesky branch a one-row block
        # could take another BLAS kernel than a longer one), and on the
        # circulant branch a one-path batch, one pair of rows, is the head
        # of the second stream
        for m in (8, 256):
            a = sample_fbm_batch(0.8, m, 1, 4, seed=5)
            b = sample_fbm_batch(0.8, m, 1, 9, seed=5)
            assert np.array_equal(a, b[[0, 1, 4, 5]])
        a = sample_fbm_batch(0.8, 256, 1, 1, seed=5)[0]
        b = sample_fbm_batch(0.8, 256, 1, 4, seed=5)[2]
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n_paths, d", [(1, 1), (3, 1), (1, 3)])
    def test_odd_row_count_is_the_head_of_the_next_even_one(self, n_paths, d):
        # an odd number of rows leaves the last imaginary part of the
        # embedding unused, so the rows are those of one more row's batch
        a = sample_fbm_batch(0.7, 256, d, n_paths, seed=3)
        b = sample_fbm_batch(0.7, 256, 1, n_paths * d + 1, seed=3)
        assert a.shape == (n_paths, 257, d) and np.all(a[:, 0] == 0.0)
        rows = a.transpose(0, 2, 1).reshape(n_paths * d, 257)
        assert np.array_equal(rows, b[:-1, :, 0])

    def test_variance_and_covariance(self):
        H, n = 0.75, 20_000
        for m in (2, 256):  # B(1/2) and B(1) on the grid {0, 1/2, 1} and on 256 steps
            paths = sample_fbm_batch(H, m, 1, n, seed=7)
            b_half, b_one = paths[:, m // 2, 0], paths[:, m, 0]
            var1 = b_one.var(ddof=1)
            se_var = np.sqrt(2.0 / (n - 1))  # stderr of the variance of N(0,1)
            assert abs(var1 - 1.0) <= 4 * se_var
            cov = np.mean(b_half * b_one)
            want = 0.5 * (0.5 ** (2 * H) + 1 - 0.5 ** (2 * H))
            se_cov = np.std(b_half * b_one, ddof=1) / math.sqrt(n)
            assert abs(cov - want) <= 4 * se_cov

    def test_grid_cap(self):
        with pytest.raises(ValueError):
            sample_fbm_batch(0.75, 5000, 1, 1, seed=0)


def dense_fbm_batch(H, m, d, n_paths, seed, T=1.0):
    """Oracle: the dense Cholesky factor of the m x m covariance of the grid
    points, applied to the same normal draws as sample_fbm_batch on its
    Cholesky branch."""
    t = np.arange(1, m + 1) * (T / m)
    two_h = 2.0 * H
    C = 0.5 * (
        t[:, None] ** two_h + t[None, :] ** two_h - np.abs(t[:, None] - t[None, :]) ** two_h
    )
    z = split_normals(seed, n_paths, d, m)
    paths = np.einsum("ij,sdj->sid", np.linalg.cholesky(C), z)
    return np.concatenate([np.zeros((n_paths, 1, d)), paths], axis=1)


def fgn_gamma(H, m, T=1.0):
    """gamma_0..gamma_m, the increment covariances the sampler factors."""
    return 0.5 * ga._covariance_scale(H, m, T) * ga._second_differences(H, m + 1)


def sampler_map_gram(H, m, T=1.0):
    """A A^T for the sampler's linear map A from the normals behind one draw
    to the increments it gives, built by applying the map to every unit
    vector: m normals -> one row of m increments up to _CHOLESKY_STEPS
    steps, 4m normals (2m complex) -> two rows above.  The law of those
    increments is N(0, A A^T)."""
    gamma = fgn_gamma(H, m, T)
    if m <= ga._CHOLESKY_STEPS:
        rows = ga._fgn_factor(gamma[:m]).T  # z @ L^T for z the identity
        return rows.T @ rows
    n = 4 * m
    gram = np.zeros((2 * m, 2 * m))
    for j0 in range(0, n, 1024):  # the unit vectors j0, j0 + 1, ... in chunks
        c = min(1024, n - j0)
        z = np.zeros((c, n))
        z[np.arange(c), np.arange(j0, j0 + c)] = 1.0
        out = np.empty((2 * c, m))
        ga._circulant_fgn(np.repeat(ga._circulant_scale(gamma), 2), z.view(complex), out)
        pair = out.reshape(c, 2 * m)  # [real row | imaginary row] per unit vector
        gram += pair.T @ pair
    return gram


class TestToeplitzSampler:
    @pytest.mark.parametrize("H", [0.5001, 0.55, 0.75, 0.95, 0.999])
    @pytest.mark.parametrize("m", [1, 2, 3, 17, 256])
    def test_matches_dense_cholesky(self, H, m):
        # chol(C) = A chol(S), A the cumulative sum, so up to _CHOLESKY_STEPS
        # steps the paths agree up to rounding (the dense factor is the less
        # accurate one: 7e-12 of its largest entry against mpmath at
        # H = 0.999, m = 120).  The circulant embedding draws other paths, so
        # at m = 256 its law is checked instead: the cumulative sums of its
        # increments have the covariance C the dense factor factors.
        if m > ga._CHOLESKY_STEPS:
            t = np.arange(1, m + 1) * (1.3 / m)
            C = 0.5 * (t[:, None] ** (2 * H) + t ** (2 * H) - np.abs(t[:, None] - t) ** (2 * H))
            A = np.tril(np.ones((m, m)))
            got = A @ sampler_map_gram(H, m, 1.3)[:m, :m] @ A.T
            assert np.abs(got - C).max() <= 1e-14 * np.abs(C).max()
            return
        new = sample_fbm_batch(H, m, 2, 5, seed=11, T=1.3)
        old = dense_fbm_batch(H, m, 2, 5, seed=11, T=1.3)
        assert new.shape == old.shape == (5, m + 1, 2)
        assert np.abs(new - old).max() <= 1e-9 * np.abs(old).max()

    @pytest.mark.parametrize("H", [0.5001, 0.75, 0.999])
    def test_factor_matches_mpmath(self, H):
        # the increment covariance built and factored at 40 digits
        mpmath = pytest.importorskip("mpmath")
        m = 64
        with mpmath.workdps(40):
            two_h = 2 * mpmath.mpf(H)
            gamma = [
                ((k + 1) ** two_h - 2 * mpmath.mpf(k) ** two_h + abs(k - 1) ** two_h)
                / (2 * mpmath.mpf(m) ** two_h)
                for k in range(m)
            ]
            S = mpmath.matrix(m, m)
            for i in range(m):
                for j in range(m):
                    S[i, j] = gamma[abs(i - j)]
            want = np.array(mpmath.cholesky(S).tolist(), dtype=float)
        got = ga._fgn_factor(fgn_gamma(H, m)[:m])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("H", [0.5001, 0.7, 0.75, 0.999])
    @pytest.mark.parametrize("m", [1, 2, 17, 127, 128, 129, 256, 257, 1536])
    def test_map_has_the_increment_law(self, H, m):
        # A A^T = S on both sides of the switch, and above it the real and
        # imaginary rows of one draw are independent: a zero cross block
        gamma = fgn_gamma(H, m, 1.3)
        k = np.arange(m)
        S = gamma[:m][abs(k[:, None] - k)]
        gram = sampler_map_gram(H, m, 1.3)
        zero = np.zeros_like(S)
        want = S if m <= ga._CHOLESKY_STEPS else np.block([[S, zero], [zero, S]])
        assert gram.shape == want.shape
        assert np.abs(gram - want).max() <= 1e-14 * gamma[0]
        # the sampler applies this map to its draws and sums the increments;
        # up to 128 steps in one product per stream, of one path and of two
        # (a product over another number of rows may differ in the last
        # bit), and above the real part of each complex row's transform
        # gives an even row and its imaginary part the next
        if m <= ga._CHOLESKY_STEPS:
            z, factor_t = split_normals(m, 3, 2, m).reshape(6, m), ga._fgn_factor(gamma[:m]).T
            inc = np.concatenate([z[:2] @ factor_t, z[2:] @ factor_t])
        else:
            y = np.fft.fft(split_normals(m, 3, 2, m) * ga._circulant_scale(gamma))[:, :m]
            inc = np.empty((6, m))
            inc[0::2], inc[1::2] = y.real, y.imag
        paths = sample_fbm_batch(H, m, 2, 3, seed=m, T=1.3)
        sums = np.cumsum(inc.reshape(3, 2, m), axis=2).transpose(0, 2, 1)
        assert np.array_equal(paths[:, 1:], sums) and np.all(paths[:, 0] == 0.0)

    # (n_paths, d, m, rows per block): the shipped block, where at d = 3 and
    # m = 64 a block holds 510 rows, 170 whole paths, not 512, and the last
    # block 60; and blocks of 256 and 13 rows that divide the rows, and of 2
    # that leave a part-filled last block
    @pytest.mark.parametrize("n_paths, d, m, block_rows", [
        (4096, 1, 64, None), (4096, 2, 32, None), (1024, 2, 128, None),
        (2500, 1, 36, None), (700, 3, 64, None), (4096, 1, 64, 256), (1001, 1, 7, 13),
        (5, 1, 128, 2)])
    @pytest.mark.parametrize("H", [0.5001, 0.55, 0.7, 0.93, 0.999])
    def test_blocked_draw_is_one_draw(self, monkeypatch, H, n_paths, d, m,
                                      block_rows):
        # the blocks take the normals of one two-stream (rows, m) draw in
        # order; the first block's product is the one-shot product bit for
        # bit, and a later block may go through another BLAS kernel, within
        # 4 ulps of each row's largest entry
        if block_rows is not None:
            monkeypatch.setattr(ga, "_DRAW_BLOCK", block_rows * m)
        rows = n_paths * d
        z = split_normals(21, n_paths, d, m).reshape(rows, m)
        want = z @ ga._fgn_factor(fgn_gamma(H, m, 1.3)[:m]).T
        inc = ga._fgn_increments(H, m, d, n_paths, 21, 1.3)
        assert inc.shape == (n_paths, m, d)
        got = inc.transpose(0, 2, 1).reshape(rows, m)
        head = min(rows, d * max(1, ga._DRAW_BLOCK // (m * d)))
        assert np.array_equal(got[:head], want[:head])
        ulp = np.spacing(np.abs(want).max(axis=1))
        assert np.all(np.abs(got - want).max(axis=1) <= 4 * ulp)

    @pytest.mark.parametrize("m", [5, 300])
    def test_paths_are_running_sums_of_the_increments(self, m):
        inc = ga._fgn_increments(0.7, m, 3, 7, 4, 1.3)
        paths = sample_fbm_batch(0.7, m, 3, 7, 4, 1.3)
        assert paths.shape == (7, m + 1, 3) and np.all(paths[:, 0] == 0.0)
        assert np.array_equal(paths[:, 1:], np.cumsum(inc, axis=1))

    # (n_paths, d, m, draw rows per block): blocks of 13, 6 and 4 paths at
    # d = 1, 2 and 3, and of 170 at the shipped size, for each stream's half
    # of the paths, each half with a part-filled last block; and on the
    # circulant branch blocks of 5 pairs of rows for 69 rows, whose last
    # pair is one row, and the shipped 27 pairs, one block for each half
    @pytest.mark.parametrize("n_paths, d, m, block_rows", [
        (1000, 1, 7, 13), (500, 2, 7, 13), (334, 3, 7, 13), (700, 3, 64, None),
        (23, 3, 300, 5), (9, 2, 300, None)])
    def test_blocks_are_runs_of_whole_paths(self, monkeypatch, n_paths, d, m,
                                            block_rows):
        # each block's increments are the product (or the embedding) of its
        # own normals, bit for bit: a block never moves
        circulant = m > ga._CHOLESKY_STEPS
        width = 4 * m if circulant else m  # normals per draw row
        if block_rows is not None:
            monkeypatch.setattr(ga, "_DRAW_BLOCK", block_rows * width)
        inc = ga._fgn_increments(0.7, m, d, n_paths, 3, 1.3)
        rows = inc.transpose(0, 2, 1).reshape(n_paths * d, m)
        gamma = fgn_gamma(0.7, m, 1.3)
        z = split_normals(3, n_paths, d, m)
        if circulant:  # a draw row is a pair of rows
            per_draw, step, half = 2, max(1, ga._DRAW_BLOCK // width), len(z) // 2
            halves = (half, len(z) - half)
            scale = np.repeat(ga._circulant_scale(gamma), 2)

            def block(lo, hi):
                out = np.empty((min(2 * hi, len(rows)) - 2 * lo, m))
                ga._circulant_fgn(scale, z[lo:hi].copy(), out)
                return out
        else:  # a draw row is a row, and a block is whole paths
            per_draw, step, half = 1, d * max(1, ga._DRAW_BLOCK // (m * d)), n_paths // 2 * d
            halves = (half, len(rows) - half)
            z, factor_t = z.reshape(-1, m), ga._fgn_factor(gamma[:m]).T

            def block(lo, hi):
                return z[lo:hi] @ factor_t
        assert all(n % step for n in halves)
        got_width, plan = ga._draw_plan(n_paths, m, d, 3)
        assert got_width == width
        ends = [0]
        for blocks, n in zip(plan, halves):
            assert [hi - lo for _, lo, hi in blocks] == [step] * (n // step) + [n % step]
            for _, lo, hi in blocks:
                assert lo == ends[-1]
                assert np.array_equal(rows[per_draw * lo:per_draw * hi], block(lo, hi))
                ends.append(hi)
        assert ends[-1] == sum(halves)

    @pytest.mark.parametrize("args, message", [
        ((0.7, 10**7, 1, 1000), "m capped at 4096"),
        ((0.7, 64, 1, -3), "m, d and n_paths must be positive")])
    def test_arguments_checked_before_allocation(self, args, message):
        with pytest.raises(ValueError, match=message):
            sample_fbm_batch(*args, seed=0)
        with pytest.raises(ValueError, match=message):
            ga._fgn_increments(*args, seed=0)

    def test_holds_one_block_of_increments(self):
        # besides the paths, one block of normals per drawing thread, with
        # room for the factor
        tracemalloc.start()
        try:
            paths = sample_fbm_batch(0.7, 64, 1, 4096, seed=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < paths.nbytes + 4 * ga._DRAW_BLOCK * 8

    @pytest.mark.parametrize("n_paths, m", [(50, 1536), (4096, 64)])
    def test_increments_allocated_once_the_factor_is_built(self, n_paths, m):
        # besides the increments the sampler holds gamma, the factor (up to
        # 128 steps) or the 4m scale factors of the embedding, and one block
        # of normals for each of its two drawing threads.  The worker thread,
        # the two generators, the plan, the closures and each FFT in flight
        # get 32 KiB, against 8.0-8.2 KB measured at 4096 x 64 and 1416
        # bytes per FFT, and far below a second block of normals (256 KB) or
        # a second increment array (600 KB and 2 MiB).  The bars are 1.14
        # and 2.56 MiB; the embedding that drew every row at once held
        # 1.96 MiB at 50 x 1536
        width, plan = ga._draw_plan(n_paths, m, 1, 8)
        assert sum(map(len, plan)) >= ga._AHEAD_BLOCKS  # two drawing threads
        block = max(hi - lo for blocks in plan for _, lo, hi in blocks) * width * 8
        held = (m + 1) * 8 + (m * m if m <= ga._CHOLESKY_STEPS else 4 * m) * 8
        bar = n_paths * m * 8 + 2 * block + held + 32 * 2**10
        ga._fgn_increments(0.7, m, 1, n_paths, seed=8)
        tracemalloc.start()
        try:
            ga._fgn_increments(0.7, m, 1, n_paths, seed=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bar

    # (n_paths, d, m, rows per block): odd path counts, each stream's last
    # block part-filled, the worker thread from three blocks (4097 x 64,
    # 3001 x 32 x 2, 701 x 64 x 3 and blocks of 12 rows) and not below
    # (1001 x 64), and the circulant branch in turn (two blocks) and with
    # the worker (40 x 1536, and 23 x 300 x 3 in blocks of 5 pairs of rows,
    # whose last pair is one row)
    @pytest.mark.parametrize("n_paths, d, m, block_rows", [
        (4097, 1, 64, None), (1001, 1, 64, None), (3001, 2, 32, None),
        (701, 3, 64, None), (333, 3, 7, 13), (7, 1, 1536, None), (9, 2, 300, None),
        (5, 3, 200, None), (40, 1, 1536, None), (23, 3, 300, 20)])
    @pytest.mark.parametrize("H", [0.55, 0.9])
    def test_endpoint_sums_are_the_paths_ends(self, monkeypatch, H, n_paths, d, m,
                                             block_rows):
        # the increments summed are the paths' ends, one draw behind both,
        # within the rounding bar that endpoint_sum_bar derives (at most
        # 8.5% of it measured, at 3001 x 32 x 2)
        if block_rows is not None:
            monkeypatch.setattr(ga, "_DRAW_BLOCK", block_rows * m)
        ends = ga._fgn_increments(H, m, d, n_paths, 6, 1.3).sum(axis=1)
        paths = sample_fbm_batch(H, m, d, n_paths, 6, 1.3)
        bar = endpoint_sum_bar(H, m, d, n_paths, 6, 1.3)
        assert ends.shape == (n_paths, d)
        assert np.all(np.abs(ends - paths[:, -1]) <= bar)

    @pytest.mark.parametrize("T", [0.5, 1.3])
    @pytest.mark.parametrize("m", [1, 2, 17, 64, 128])
    @pytest.mark.parametrize("H", [0.5001, 0.7, 0.999])
    def test_endpoint_map_has_the_endpoint_variance(self, H, m, T):
        # |L^T 1|^2 = 1^T S 1 = Var B_T = T^2H
        lt1 = ga._fgn_factor(fgn_gamma(H, m, T)[:m]).sum(axis=0)
        assert lt1 @ lt1 == pytest.approx(T ** (2.0 * H), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("T", [0.5, 1.3])
    @pytest.mark.parametrize("m", [129, 130, 700, 1536, 4095, 4096])
    @pytest.mark.parametrize("H", [0.5001, 0.7, 0.999])
    def test_circulant_end_weights_have_the_endpoint_variance(self, H, m, T):
        # the circulant branch's pair of ends from w are the parts of w @ c:
        # each has variance sum |c_k|^2 = 1^T S 1 = Var B_T = T^2H; and
        # c_(2m-k) = conj(c_k), the head sums of a real row scaled by a
        # symmetric spectrum, so sum Re c_k Im c_k = Im(sum c_k^2) / 2 is 0
        # up to rounding
        gamma = fgn_gamma(H, m, T)
        c = oracles.circulant_end_weights(gamma)
        assert c.shape == (2 * m,)
        assert (np.abs(c) ** 2).sum() == pytest.approx(T ** (2.0 * H), rel=1e-13, abs=0.0)
        cross = c.real * c.imag
        assert abs(cross.sum()) <= 1e-13 * np.abs(cross).sum()
        # and they are the ends of the pair of rows the branch makes from w,
        # within the sum's gamma_(2m) of sum |w_k| |c_k| and the FFT's bar
        # sqrt(2) m 8 log2(2m) u ||s w||_2 (Higham 2002, Theorem 24.2); at
        # most 0.18% of the bar measured
        w = split_normals(m, 1, 2, m)[0]
        scale = ga._circulant_scale(gamma)
        ends = np.empty((2, m))
        ga._circulant_fgn(np.repeat(scale, 2), w[None].copy(), ends)
        u = 2.0**-53
        bar = (2.01 * 2 * m * u * (np.abs(w) @ np.abs(c))
               + math.sqrt(2.0) * m * 8.0 * math.log2(2 * m) * 1.01 * u
               * np.linalg.norm(scale * w) + 2.01 * m * u * np.abs(ends).sum(axis=1))
        want = w @ c
        assert np.all(np.abs(ends.sum(axis=1) - [want.real, want.imag]) <= bar)

    @pytest.mark.parametrize("m, n_paths, limit_mb", [(4096, 2, 16), (1536, 50, 8)])
    def test_factor_is_never_held_whole(self, m, n_paths, limit_mb):
        # the whole factor alone is 134 MB at m = 4096 and 19 MB at m = 1536
        tracemalloc.start()
        try:
            sample_fbm_batch(0.7, m, 1, n_paths, seed=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 2**20

    @pytest.mark.parametrize("T", [0.0, -1.0, float("nan")])
    def test_refuses_non_positive_horizon(self, T):
        with pytest.raises(ValueError, match="T must be positive"):
            sample_fbm_batch(0.75, 4, 1, 1, seed=0, T=T)

    @pytest.mark.parametrize("T", [1e300, 1e-300])
    def test_covariance_scale_outside_float_range_refused(self, T):
        # (T/m)^2H overflows (a Python OverflowError) or underflows to 0
        with pytest.raises(ValueError, match="covariance scale"):
            sample_fbm_batch(0.75, 4, 1, 2, seed=0, T=T)

    @pytest.mark.parametrize("m, lag, value, step", [(4, 1, 2.5, 0), (300, 150, 3.0, 149)])
    def test_indefinite_covariance_raises(self, monkeypatch, m, lag, value, step):
        # fGn covariances are positive definite, so only a broken kernel can
        # reach the check; it must raise rather than perturb the matrix, on
        # the Cholesky branch (m = 4) and the circulant one (m = 300).  The
        # Schur recursion finds where S stops being positive definite.
        kernel = np.zeros(m + 1)
        kernel[0], kernel[lag] = 2.0, value
        def broken(H, n):
            return kernel[:n]

        monkeypatch.setattr(ga, "_second_differences", broken)
        monkeypatch.setattr(oracles, "_second_differences", broken)
        with pytest.raises(RuntimeError, match=f"not positive definite at step {step}$"):
            fgn_cholesky_t(0.75, m, 1.0)
        message = ("fGn covariance is not positive definite$" if m <= ga._CHOLESKY_STEPS
                   else "circulant embedding of the fGn covariance has an eigenvalue below 0")
        with pytest.raises(RuntimeError, match=message):
            sample_fbm_batch(0.75, m, 1, 1, seed=0)

    def test_nan_eigenvalue_raises(self, monkeypatch):
        kernel = np.zeros(301)
        kernel[0], kernel[7] = 2.0, math.nan
        monkeypatch.setattr(ga, "_second_differences", lambda H, n: kernel[:n])
        with pytest.raises(RuntimeError, match="eigenvalue below 0 or NaN$"):
            sample_fbm_batch(0.75, 300, 1, 1, seed=0)

    def test_near_one_at_the_cap_needs_no_jitter(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            paths = sample_fbm_batch(0.9999, 4096, 1, 2, seed=3)
        assert np.all(np.isfinite(paths))
