import itertools
import math
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
    cell_covariance_matrix,
    cell_pair_integral,
    coefficient_bound_check,
    constant_A,
    constant_Atilde,
    convergence_slope,
    gap_rows,
    sample_fbm_batch,
)
from fbmsig.tensor import Word, batch_grid_signatures, word_index


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

    @pytest.mark.parametrize("H", (0.501, 0.6, 0.75, 0.9, 0.999))
    def test_second_differences_against_high_precision(self, H):
        # (r+1)^2H - 2 r^2H + (r-1)^2H cancels to about 2H(2H-1) r^(2H-2);
        # the engine kernel and cell_pair_integral must keep full relative
        # precision over every distance of the largest grid
        from fbmsig.gridapprox import _second_differences

        mpmath = pytest.importorskip("mpmath")
        m = 4096
        got = _second_differences(H, np.arange(1, m))
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
        value = approx_expected_word(W(1, 2, 1, 2), 0.75, 4096)
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

    def test_budget_enforced(self):
        with pytest.raises(ValueError, match="budget"):
            # one matching, 8 tie patterns: work 8 * 8192^2 = 5.4e8 exceeds 5e8
            approx_expected_word(W(1, 1, 2, 2), 0.75, 8192)

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
        times = np.arange(m + 1) / m
        incs = np.concatenate(
            [np.full((n, m, 1), 1.0 / m), np.diff(paths, axis=1)], axis=2
        )
        lev = batch_grid_signatures(incs, 4)
        vals = lev[4][:, word_index(letters, 2)]
        mean, se = vals.mean(), vals.std(ddof=1) / math.sqrt(n)
        want = approx_expected_word(W(*letters), H, m)
        assert abs(mean - want) <= 4.0 * se


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
    def test_seed_determinism(self):
        a = sample_fbm_batch(0.7, 16, 2, 1, seed=99)[0]
        b = sample_fbm_batch(0.7, 16, 2, 1, seed=99)[0]
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_fbm_batch(0.7, 16, 2, 1, seed=100)[0])

    def test_starts_at_zero(self):
        assert np.all(sample_fbm_batch(0.6, 8, 3, 1, seed=1)[0, 0] == 0.0)

    def test_single_equals_batch_head(self):
        # a one-path batch is the first path of a larger batch on the same seed
        a = sample_fbm_batch(0.8, 8, 1, 1, seed=5)[0]
        b = sample_fbm_batch(0.8, 8, 1, 4, seed=5)[0]
        assert np.array_equal(a, b)

    def test_variance_and_covariance(self):
        H, n = 0.75, 20_000
        paths = sample_fbm_batch(H, 2, 1, n, seed=7)  # grid {0, 1/2, 1}
        b_half, b_one = paths[:, 1, 0], paths[:, 2, 0]
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
    points, applied to the same normal draws as sample_fbm_batch."""
    t = np.arange(1, m + 1) * (T / m)
    two_h = 2.0 * H
    C = 0.5 * (
        t[:, None] ** two_h + t[None, :] ** two_h - np.abs(t[:, None] - t[None, :]) ** two_h
    )
    z = np.random.default_rng(seed).standard_normal((n_paths, d, m))
    paths = np.einsum("ij,sdj->sid", np.linalg.cholesky(C), z)
    return np.concatenate([np.zeros((n_paths, 1, d)), paths], axis=1)


class TestToeplitzSampler:
    @pytest.mark.parametrize("H", [0.5001, 0.55, 0.75, 0.95, 0.999])
    @pytest.mark.parametrize("m", [1, 2, 3, 17, 256])
    def test_matches_dense_cholesky(self, H, m):
        # chol(C) = A chol(S), A the cumulative sum, so the paths agree up to
        # rounding.  The dense factor is the less accurate one (7e-12 of its
        # largest entry against mpmath at H = 0.999, m = 120); the two differ
        # by 1.2e-10 of the largest path value at H = 0.999, m = 256.
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
        got = ga._fgn_cholesky_t(H, m, 1.0).T
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("T", [0.0, -1.0, float("nan")])
    def test_refuses_non_positive_horizon(self, T):
        with pytest.raises(ValueError, match="T must be positive"):
            sample_fbm_batch(0.75, 4, 1, 1, seed=0, T=T)

    @pytest.mark.parametrize("T", [1e300, 1e-300])
    def test_covariance_scale_outside_float_range_refused(self, T):
        # (T/m)^2H overflows (a Python OverflowError) or underflows to 0
        with pytest.raises(ValueError, match="covariance scale"):
            sample_fbm_batch(0.75, 4, 1, 2, seed=0, T=T)

    def test_indefinite_covariance_raises(self, monkeypatch):
        # fGn covariances are positive definite, so only a broken kernel can
        # reach the check; it must raise rather than perturb the matrix
        kernel = np.array([2.0, 2.5, 0.0, 0.0])
        monkeypatch.setattr(ga, "_second_differences", lambda H, r: kernel[: len(r)])
        with pytest.raises(RuntimeError, match="not positive definite"):
            sample_fbm_batch(0.75, 4, 1, 1, seed=0)

    def test_near_one_at_the_cap_needs_no_jitter(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            paths = sample_fbm_batch(0.9999, 4096, 1, 2, seed=3)
        assert np.all(np.isfinite(paths))
