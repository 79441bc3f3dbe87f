import math

import numpy as np
import pytest

from fbmsig.cubature import three_path_formula
from fbmsig.tensor import Word, batch_grid_signatures, word_index

from oracles import signature_coeff_by_quadrature


def W(*letters, d=1):
    return Word(tuple(letters), d)


def signature(times, spatial, depth):
    """Levels of one time-augmented path through (times, spatial):
    batch_grid_signatures on a batch of one."""
    spatial = np.asarray(spatial, dtype=float)
    if spatial.ndim == 1:
        spatial = spatial[:, None]
    return [lv[0] for lv in batch_grid_signatures(times, spatial[None], depth)]


def coeff(levels, w):
    return float(levels[len(w)][..., word_index(w.letters, w.d)])


class TestWord:
    def test_parse_roundtrip(self):
        w = Word((1, 0, 1), 1)
        assert w.letters == (1, 0, 1)
        assert str(w) == "1,0,1"
        assert w.zero_count == 1
        assert w.nonzero_positions == (0, 2)

    def test_empty(self):
        w = Word((), 1)
        assert w.letters == () and len(w) == 0
        assert str(w) == ""
        assert w.zero_count == 0 and w.nonzero_positions == ()

    def test_letter_range_enforced(self):
        with pytest.raises(ValueError):
            Word((3,), d=2)
        with pytest.raises(ValueError):
            Word((1,), d=0)

    @pytest.mark.parametrize("letters, d, message", [
        ((1, 5), 3, "letter 5 outside alphabet {0,...,3}"),
        ((1, -1), 1, "letter -1 outside alphabet {0,...,1}"),
        ((4, 0, -2), 3, "letter 4 outside alphabet {0,...,3}"),
        ((0, -2, 4), 3, "letter -2 outside alphabet {0,...,3}"),
    ])
    def test_first_letter_outside_the_alphabet_is_named(self, letters, d, message):
        with pytest.raises(ValueError) as err:
            Word(letters, d)
        assert str(err.value) == message


def segment(increment, depth):
    """Signature of one linear segment with the increment (dt, dx_1, ...);
    dt may be zero."""
    inc = np.asarray(increment, dtype=float)
    return signature([0.0, inc[0]], np.stack([np.zeros_like(inc[1:]), inc[1:]]), depth)


class TestSegmentExponential:
    """Level n of one linear segment holds increment^(x)n / n!."""

    def test_zero_increment_is_identity(self):
        t = segment([0.0, 0.0], 3)
        assert coeff(t, W()) == 1.0
        assert all(np.all(t[l] == 0) for l in range(1, 4))

    def test_unit_spatial_increment(self):
        t = segment([0.0, 1.0], 2)
        assert coeff(t, W()) == 1.0
        assert coeff(t, W(1)) == 1.0
        assert coeff(t, W(1, 1)) == 0.5
        assert coeff(t, W(0)) == 0.0
        assert coeff(t, W(0, 1)) == 0.0

    def test_mixed_increment(self):
        t = signature([0.0, 1.0], [0.0, 2.0], 2)
        assert coeff(t, W(0, 1)) == pytest.approx(1.0, abs=0)
        assert coeff(t, W(1, 0)) == pytest.approx(1.0, abs=0)
        assert coeff(t, W(1, 1)) == pytest.approx(2.0, abs=0)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            signature([0.0, 1.0], [0.0, 1.0], -1)


class TestChenConcat:
    """Chen's identity across the breakpoint of a two-segment path."""

    def test_collinear_segments_merge(self):
        # two segments of increment (0.5, -1.3) against one of (1.0, -2.6)
        two = signature([0.0, 0.5, 1.0], [0.0, -1.3, -2.6], 4)
        one = signature([0.0, 1.0], [0.0, -2.6], 4)
        for l in range(5):
            np.testing.assert_allclose(two[l], one[l], atol=1e-14)

    def test_cancelling_spatial_increments(self):
        # segments (1,1) then (1,-1): the (1,1) coefficient is 1/2 - 1 + 1/2 = 0
        t = signature([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], 2)
        assert coeff(t, W(1, 1)) == pytest.approx(0.0, abs=1e-15)


class TestPathSignature:
    def test_straight_line(self):
        sig = signature([0.0, 1.0], [0.0, 1.0], 2)
        assert coeff(sig, W(1, 1)) == pytest.approx(0.5, abs=1e-15)
        assert coeff(sig, W(0, 1)) == pytest.approx(0.5, abs=1e-15)

    def test_single_segment_equals_exponential(self):
        # level n of a linear segment is increment^(x)n / n!
        sig = signature([0.0, 2.0], [0.0, -1.5], 3)
        exp = np.ones(1)
        for l in range(4):
            np.testing.assert_allclose(sig[l], exp / math.factorial(l), atol=1e-14)
            exp = np.multiply.outer(exp, [2.0, -1.5]).reshape(-1)

    def test_brownian_cubature_path_level4(self):
        # the first cubature path at H=1/2 ends at sqrt(3); for a 1-d path the
        # level-4 single-letter coefficient is endpoint^4 / 4! = 3/8
        f = three_path_formula(0.5)
        sig = signature(f.times, f.spatial[0], 4)
        assert coeff(sig, Word((1, 1, 1, 1), 1)) == pytest.approx(3.0 / 8.0, abs=1e-14)

    def test_negation_flips_odd_words(self):
        rng = np.random.default_rng(3)
        times = [0.0, 0.4, 1.0]
        spatial = rng.standard_normal((3, 2))
        sp = signature(times, spatial, 3)
        sq = signature(times, spatial * [-1.0, 1.0], 3)
        for length in range(1, 4):
            for letters in np.ndindex(*(3,) * length):
                w = Word(tuple(letters), 2)
                ones = sum(1 for x in letters if x == 1)
                sign = -1.0 if ones % 2 else 1.0
                assert coeff(sq, w) == pytest.approx(sign * coeff(sp, w), abs=1e-14)

    def test_shuffle_level_one(self):
        rng = np.random.default_rng(11)
        sig = signature([0.0, 0.3, 0.7, 1.0], rng.standard_normal((4, 2)), 2)
        for i in range(3):
            for j in range(3):
                wi, wj = Word((i,), 2), Word((j,), 2)
                prod = coeff(sig, wi) * coeff(sig, wj)
                shuf = coeff(sig, Word((i, j), 2)) + coeff(sig, Word((j, i), 2))
                assert prod == pytest.approx(shuf, abs=1e-12)

    def test_against_nested_quadrature(self):
        rng = np.random.default_rng(7)
        for trial in range(3):
            times = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.1, 0.9, 2)]))
            spatial = rng.standard_normal((4, 2))
            sig = signature(times, spatial, 3)
            for letters in [(1,), (2,), (1, 2), (0, 1), (1, 1, 2), (1, 0, 2), (2, 2, 2)]:
                w = Word(letters, 2)
                direct = signature_coeff_by_quadrature(times, spatial, w,
                                                       points_per_segment=20000)
                assert coeff(sig, w) == pytest.approx(direct, abs=1e-8)


class TestCoeff:
    def test_word_index_base(self):
        assert word_index((1, 0, 2), 2) == 1 * 9 + 0 * 3 + 2


class TestBatchSignatures:
    def test_matches_single_path(self):
        rng = np.random.default_rng(5)
        times = np.linspace(0.0, 1.0, 6)
        spatial = rng.standard_normal((4, 6, 2))
        lev = batch_grid_signatures(times, spatial, 4)
        for s in range(4):
            sig = signature(times, spatial[s], 4)
            for l in range(5):
                np.testing.assert_allclose(lev[l][s], sig[l], atol=1e-13)
