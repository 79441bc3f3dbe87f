import math
from dataclasses import replace

import numpy as np
import pytest

from fbmsig.cubature import (
    empirical_degree,
    formula_from_solution,
    rescale_formula,
    solve_ansatz,
    system_residuals,
    three_path_formula,
    verify_formula,
    word_weight,
    words_of_degree,
)
from fbmsig.tensor import Word, batch_grid_signatures, word_index

from oracles import signature_coeff_by_quadrature

SQRT3 = math.sqrt(3.0)


def W(*letters):
    return Word(tuple(letters))


class TestWordWeight:
    def test_values(self):
        H = 0.7
        assert word_weight(W(1, 1), H) == pytest.approx(4 * H)
        assert word_weight(W(0), H) == pytest.approx(2.0)
        assert word_weight(W(1, 0, 1), H) == pytest.approx(4 * H + 2)
        assert word_weight(W(), H) == 0.0


class TestWordsOfDegree:
    def test_brownian_degree3(self):
        got = {w.letters for w in words_of_degree(3, 0.5, 1)}
        assert got == {(), (1,), (0,), (1, 1), (1, 1, 1), (0, 1), (1, 0)}

    def test_h075_degree3(self):
        got = {w.letters for w in words_of_degree(3, 0.75, 1)}
        assert (1, 1) in got          # weight 3
        assert (1, 1, 1) not in got   # weight 4.5

    def test_degree_zero(self):
        assert [w.letters for w in words_of_degree(0, 0.6, 1)] == [()]

    def test_monotone_in_degree_and_H(self):
        for H in (0.5, 0.6, 0.75):
            sizes = [len(words_of_degree(m, H, 1)) for m in range(5)]
            assert sizes == sorted(sizes)
        lens = [len(words_of_degree(5, H, 1)) for H in (0.5, 0.6, 0.75, 0.9)]
        assert lens == sorted(lens, reverse=True)

    def test_caps(self):
        with pytest.raises(ValueError):
            words_of_degree(9, 0.6, 1)

    @pytest.mark.parametrize("m", (-1, -3))
    def test_negative_degree_refused(self, m):
        with pytest.raises(ValueError, match="degree must be >= 0"):
            words_of_degree(m, 0.6, 1)


class TestThreePathFormula:
    def test_brownian_first_slope(self):
        f = three_path_formula(0.5)
        slope = f.spatial[0, 1, 0] / (1.0 / 3.0)
        assert slope == pytest.approx(SQRT3 * (2.0 - math.sqrt(5.5)), abs=1e-12)

    @pytest.mark.parametrize("H", (0.5, 0.6, 0.75, 0.9))
    def test_endpoint_and_moment(self, H):
        f = three_path_formula(H)
        ends = f.spatial[:, -1, 0].tolist()
        assert ends[0] == pytest.approx(SQRT3, abs=1e-12)
        assert ends[1] == pytest.approx(-SQRT3, abs=1e-12)
        assert ends[2] == 0.0
        assert sum(lam * e * e for lam, e in zip(f.weights, ends)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_claimed_degrees(self):
        assert three_path_formula(0.5).claimed_degree == 5
        assert three_path_formula(0.65).claimed_degree == 5
        assert three_path_formula(2.0 / 3.0).claimed_degree == 4
        assert three_path_formula(0.9).claimed_degree == 4

    def test_weights(self):
        f = three_path_formula(0.7)
        assert f.weights == (1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0)

    def test_H_range(self):
        with pytest.raises(ValueError):
            three_path_formula(0.4)

    @pytest.mark.parametrize("change, message", [
        ({"times": (0.0, 0.5, 1.0)}, "spatial must have shape"),
        ({"weights": (0.5, 0.5)}, "spatial must have shape"),
        ({"spatial": np.zeros((3, 4))}, "spatial must have shape"),
        ({"spatial": np.zeros((3, 4, 0))}, "spatial must have shape"),
        ({"times": (), "spatial": np.zeros((3, 0, 1))}, "spatial must have shape"),
        ({"times": (0.0, 2 / 3, 1 / 3, 1.0)}, "strictly increasing"),
        ({"times": (0.0, 1 / 3, 1 / 3, 1.0)}, "strictly increasing"),
        ({"times": (0.0, math.nan, 2 / 3, 1.0)}, "strictly increasing"),
        ({"spatial": np.ones((3, 4, 1))}, "start at the origin"),
        ({"spatial": np.full((3, 4, 1), math.nan)}, "start at the origin"),
        ({"H": 0.4}, "requires H in"),
        ({"H": 1.0}, "requires H in"),
        ({"H": math.nan}, "requires H in"),
        ({"weights": (math.nan, 0.5, 0.5)}, "positive"),
        ({"weights": (0.0, 0.5, 0.5)}, "positive"),
        ({"weights": (-0.5, 0.75, 0.75)}, "positive"),
        ({"weights": (0.2, 0.2, 0.2)}, "sum to 1"),
        ({"weights": (0.5, 0.5, math.inf)}, "sum to 1"),
    ])
    def test_malformed_formula_refused(self, change, message):
        with pytest.raises(ValueError, match=message):
            replace(three_path_formula(0.7), **change)



class TestSolveAnsatz:
    @pytest.mark.parametrize("H", (0.5, 0.55, 0.65, 0.8, 0.95))
    @pytest.mark.parametrize("branch", ("minus", "plus"))
    def test_residuals(self, H, branch):
        sol = solve_ansatz(H, branch)
        assert max(abs(r) for r in system_residuals(sol)) < 1e-10

    def test_brownian_principal_root(self):
        sol = solve_ansatz(0.5, "minus")
        assert sol.c1 == pytest.approx(SQRT3 * (2.0 - math.sqrt(5.5)), abs=1e-12)

    def test_root_formulas(self):
        for H in (0.5, 0.7):
            disc = math.sqrt(-96 * H * H + 66 * H + 57) / (2 * H + 1)
            lo = (4 * H * SQRT3 + 2 * SQRT3) / (2 * H + 1)
            assert solve_ansatz(H, "minus").c1 == pytest.approx(lo - disc, abs=1e-12)
            assert solve_ansatz(H, "plus").c1 == pytest.approx(lo + disc, abs=1e-12)

    @pytest.mark.parametrize("branch", ("minus", "plus"))
    def test_derived_identities_and_continuity(self, branch):
        sol = solve_ansatz(0.6, branch)
        assert sol.a == pytest.approx(sol.c1, abs=1e-14)
        assert sol.b0 == pytest.approx(-sol.c0, abs=1e-14)
        assert sol.a / 3.0 == pytest.approx(sol.b1 / 3.0 + sol.b0, abs=1e-12)
        assert 2 * sol.b1 / 3.0 + sol.b0 == pytest.approx(
            2 * sol.c1 / 3.0 + sol.c0, abs=1e-12
        )
        assert sol.c1 + sol.c0 == pytest.approx(SQRT3, abs=1e-13)

    def test_weights_forced(self):
        sol = solve_ansatz(0.8)
        assert sol.lam1 == pytest.approx(1.0 / 6.0)
        assert sol.lam3 == pytest.approx(2.0 / 3.0)

    def test_minus_branch_reproduces_formula(self):
        # the paper's explicit breakpoints of the first path at 0, 1/3, 2/3, 1
        for H in (0.5, 0.6, 2.0 / 3.0, 0.75, 0.99):
            beta = math.sqrt(-96 * H * H + 66 * H + 57) / (2 * H + 1)
            paper = [0.0, (2 * SQRT3 - beta) / 3, (SQRT3 + beta) / 3, SQRT3]
            f = formula_from_solution(solve_ansatz(H, "minus"))
            assert f.weights == pytest.approx((1 / 6, 1 / 6, 2 / 3), abs=1e-15)
            np.testing.assert_allclose(f.times, [0, 1 / 3, 2 / 3, 1], atol=1e-15)
            for values, sign in zip(f.spatial, (1.0, -1.0, 0.0)):
                np.testing.assert_allclose(
                    values[:, 0], sign * np.array(paper), rtol=0, atol=1e-14
                )

    def test_bad_branch(self):
        with pytest.raises(ValueError):
            solve_ansatz(0.6, "middle")


class TestVerify:
    def test_level2_word_exact(self):
        rep = verify_formula(three_path_formula(0.6), 3)
        row = next(r for r in rep.rows if r.word.letters == (1, 1))
        assert row.lhs == 0.5
        assert row.abs_err < 1e-14

    @pytest.mark.parametrize("H", (0.5, 0.6))
    def test_time_sandwich_word(self, H):
        rep = verify_formula(three_path_formula(H), 5)
        row = next(r for r in rep.rows if r.word.letters == (1, 0, 1))
        assert row.lhs == pytest.approx((2 * H - 1) / (2 * (2 * H + 1)), abs=1e-15)
        assert row.abs_err < 1e-10

    def test_odd_words_cancel_exactly(self):
        rep = verify_formula(three_path_formula(0.55), 5)
        for r in rep.rows:
            ones = sum(1 for x in r.word.letters if x == 1)
            if ones % 2 == 1:
                assert r.lhs == 0.0
                assert r.rhs == 0.0

    @pytest.mark.parametrize("H,degree", [(0.5, 5), (0.65, 5), (0.7, 4), (0.9, 4)])
    def test_passes_at_claimed_degree(self, H, degree):
        rep = verify_formula(three_path_formula(H), degree)
        assert rep.passed
        assert rep.max_abs_err <= 1e-9

    @pytest.mark.parametrize("H", (0.5, 0.6))
    def test_second_root_also_passes(self, H):
        f = formula_from_solution(solve_ansatz(H, "plus"))
        rep = verify_formula(f, f.claimed_degree)
        assert rep.passed

    def test_chen_side_matches_nested_quadrature(self):
        f = three_path_formula(0.6)
        levels = batch_grid_signatures(f.times, f.spatial[:1], 4)
        for letters in [(1, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1, 1)]:
            w = W(*letters)
            direct = signature_coeff_by_quadrature(f.times, f.spatial[0], w, 160_000)
            assert levels[len(w)][0, word_index(w.letters, 1)] == pytest.approx(
                direct, abs=1e-10)

    @pytest.mark.parametrize("H", (0.5, 0.6, 0.8))
    def test_batched_fold_matches_one_fold_per_path(self, H):
        # all paths are folded in one batch; each rhs must equal, bit for
        # bit, the in-order weighted sum of one signature per path
        f = three_path_formula(H)
        rep = verify_formula(f, 6)
        depth = max(len(r.word) for r in rep.rows)
        sigs = [batch_grid_signatures(f.times, s[None], depth) for s in f.spatial]
        for r in rep.rows:
            i = word_index(r.word.letters, 1)
            want = sum(lam * float(sig[len(r.word)][0, i])
                       for lam, sig in zip(f.weights, sigs))
            assert r.rhs == want, str(r.word)

    def test_words_index_the_formula_alphabet(self):
        # a second spatial coordinate widens the formula's alphabet but must
        # leave every row over the letters {0, 1} as it was
        f = three_path_formula(0.6)
        g = replace(f, spatial=np.concatenate([f.spatial, f.spatial[::-1]], axis=2))
        rows = [replace(r, word=W(*r.word.letters)) for r in verify_formula(g, 5).rows
                if 2 not in r.word.letters]
        assert rows == list(verify_formula(f, 5).rows)

    def test_words_with_the_second_letter_are_checked(self):
        # both coordinates of each path equal omega, so every word over {0, 1}
        # matches, but S^(1,2) = omega_T^2 / 2 averages 1/2 against E S^(1,2) = 0
        f = three_path_formula(0.6)
        g = replace(f, spatial=np.concatenate([f.spatial, f.spatial], axis=2))
        rep = verify_formula(g, 5)
        row = next(r for r in rep.rows if r.word.letters == (1, 2))
        assert row.lhs == 0.0
        assert row.rhs == pytest.approx(0.5, abs=1e-14)
        assert not row.passed and not rep.passed
        assert all(r.passed for r in rep.rows if 2 not in r.word.letters)

    def test_brownian_failure_beyond_claimed_degree(self):
        # the six-letter single word breaks degree 6 at H = 1/2:
        # expected 1/48, cubature side 1/80
        rep = verify_formula(three_path_formula(0.5), 6)
        row = next(r for r in rep.rows if r.word.letters == (1,) * 6)
        assert row.lhs == pytest.approx(1.0 / 48.0)
        assert row.rhs == pytest.approx(1.0 / 80.0)
        assert not rep.passed

    def test_brownian_checks_every_word(self):
        # at H = 1/2 every word has a closed form, so none is left out
        rep = verify_formula(three_path_formula(0.5), 6)
        words = words_of_degree(6, 0.5, 1)
        assert len(words) == len(rep.rows) == 33
        assert {r.word.letters for r in rep.rows} == {w.letters for w in words}
        assert {r.lhs_source for r in rep.rows} == {"closed-form"}


class TestEmpiricalDegree:
    def test_brownian_measures_five(self):
        scan = empirical_degree(three_path_formula(0.5))
        assert scan.measured_degree == 5
        assert scan.first_failure is not None
        # weight 6 and four letters, so it sorts before (1,) * 6
        assert scan.first_failure.letters == (0, 0, 1, 1)

    def test_above_two_thirds_meets_claim(self):
        scan = empirical_degree(three_path_formula(0.8))
        assert scan.measured_degree >= scan.claimed_degree

    # measured: 0,0,1,1 fails first at every H, and its weight 4 + 4H caps
    # the degree at the largest integer below it
    @pytest.mark.parametrize("H, degree", [(0.5, 5), (0.55, 6), (0.6, 6), (0.7, 6),
                                           (0.75, 6), (0.8, 7), (0.9, 7)])
    def test_measured_degree_and_first_failure(self, H, degree):
        scan = empirical_degree(three_path_formula(H))
        assert scan.measured_degree == degree
        assert scan.first_failure.letters == (0, 0, 1, 1)


class TestRescale:
    def test_identity_at_T1(self):
        f = three_path_formula(0.6)
        g = rescale_formula(f, 1.0)
        assert g.times == f.times
        np.testing.assert_allclose(g.spatial, f.spatial, atol=0)

    def test_spatial_scaling(self):
        f = three_path_formula(0.5)
        g = rescale_formula(f, 4.0)
        np.testing.assert_allclose(g.spatial, 2.0 * f.spatial, atol=1e-14)
        np.testing.assert_allclose(g.times, 4.0 * np.asarray(f.times), atol=1e-14)

    def test_level2_integral_scales(self):
        T, H = 4.0, 0.5
        g = rescale_formula(three_path_formula(H), T)
        levels = batch_grid_signatures(g.times, g.spatial, 2)
        total = sum(lam * levels[2][j, word_index((1, 1), 1)]
                    for j, lam in enumerate(g.weights))
        assert total == pytest.approx(T ** (2 * H) * 0.5, abs=1e-12)

    def test_positive_T(self):
        f = three_path_formula(0.6)
        for T in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="T must be positive and finite"):
                rescale_formula(f, T)
