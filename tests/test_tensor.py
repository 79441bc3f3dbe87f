import math

import numpy as np
import pytest

from fbmsig.cubature import three_path_formula
from fbmsig.tensor import (
    PiecewiseLinearPath,
    TruncatedTensor,
    Word,
    batch_grid_signatures,
    path_signature,
    word_index,
)

from oracles import signature_coeff_by_quadrature


def W(*letters, d=1):
    return Word(tuple(letters), d)


class TestWord:
    def test_parse_roundtrip(self):
        w = Word.parse("1,0,1")
        assert w.letters == (1, 0, 1)
        assert str(w) == "1,0,1"
        assert w.zero_count == 1
        assert w.nonzero_positions == (0, 2)

    def test_empty(self):
        assert Word.parse("").letters == ()

    def test_letter_range_enforced(self):
        with pytest.raises(ValueError):
            Word((3,), d=2)
        with pytest.raises(ValueError):
            Word((1,), d=0)


def segment(increment, depth):
    """Signature of one linear segment through the Chen fold; unlike a
    PiecewiseLinearPath, the time increment may be zero here."""
    inc = np.asarray(increment, dtype=float)
    levels = batch_grid_signatures(inc[None, None, :], depth)
    return TruncatedTensor(len(inc) - 1, depth, [lv[0] for lv in levels])


class TestSegmentExponential:
    """Level n of one linear segment holds increment^(x)n / n!."""

    def test_zero_increment_is_identity(self):
        t = segment([0.0, 0.0], 3)
        assert t.coeff(W()) == 1.0
        assert all(np.all(t.levels[l] == 0) for l in range(1, 4))

    def test_unit_spatial_increment(self):
        t = segment([0.0, 1.0], 2)
        assert t.coeff(W()) == 1.0
        assert t.coeff(W(1)) == 1.0
        assert t.coeff(W(1, 1)) == 0.5
        assert t.coeff(W(0)) == 0.0
        assert t.coeff(W(0, 1)) == 0.0

    def test_mixed_increment(self):
        t = path_signature(PiecewiseLinearPath.time_augmented([0.0, 1.0], [0.0, 2.0]), 2)
        assert t.coeff(W(0, 1)) == pytest.approx(1.0, abs=0)
        assert t.coeff(W(1, 0)) == pytest.approx(1.0, abs=0)
        assert t.coeff(W(1, 1)) == pytest.approx(2.0, abs=0)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            path_signature(PiecewiseLinearPath.time_augmented([0.0, 1.0], [0.0, 1.0]), -1)


class TestChenConcat:
    """Chen's identity across the breakpoint of a two-segment path."""

    def test_collinear_segments_merge(self):
        # two segments of increment (0.5, -1.3) against one of (1.0, -2.6)
        two = path_signature(
            PiecewiseLinearPath.time_augmented([0.0, 0.5, 1.0], [0.0, -1.3, -2.6]), 4
        )
        one = path_signature(PiecewiseLinearPath.time_augmented([0.0, 1.0], [0.0, -2.6]), 4)
        for l in range(5):
            np.testing.assert_allclose(two.levels[l], one.levels[l], atol=1e-14)

    def test_cancelling_spatial_increments(self):
        # segments (1,1) then (1,-1): the (1,1) coefficient is 1/2 - 1 + 1/2 = 0
        p = PiecewiseLinearPath.time_augmented([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert path_signature(p, 2).coeff(W(1, 1)) == pytest.approx(0.0, abs=1e-15)


class TestPathSignature:
    def test_straight_line(self):
        p = PiecewiseLinearPath.time_augmented([0.0, 1.0], [0.0, 1.0])
        sig = path_signature(p, 2)
        assert sig.coeff(W(1, 1)) == pytest.approx(0.5, abs=1e-15)
        assert sig.coeff(W(0, 1)) == pytest.approx(0.5, abs=1e-15)

    def test_single_segment_equals_exponential(self):
        # level n of a linear segment is increment^(x)n / n!
        p = PiecewiseLinearPath.time_augmented([0.0, 2.0], [0.0, -1.5])
        sig = path_signature(p, 3)
        exp = np.ones(1)
        for l in range(4):
            np.testing.assert_allclose(sig.levels[l], exp / math.factorial(l), atol=1e-14)
            exp = np.multiply.outer(exp, [2.0, -1.5]).reshape(-1)

    def test_brownian_cubature_path_level4(self):
        # the first cubature path at H=1/2 ends at sqrt(3); for a 1-d path the
        # level-4 single-letter coefficient is endpoint^4 / 4! = 3/8
        f = three_path_formula(0.5)
        p = PiecewiseLinearPath.time_augmented(f.times, f.spatial[0])
        sig = path_signature(p, 4)
        assert sig.coeff(Word((1, 1, 1, 1), 1)) == pytest.approx(3.0 / 8.0, abs=1e-14)

    def test_negation_flips_odd_words(self):
        rng = np.random.default_rng(3)
        times = [0.0, 0.4, 1.0]
        spatial = rng.standard_normal((3, 2))
        p = PiecewiseLinearPath.time_augmented(times, spatial)
        q = PiecewiseLinearPath(p.times, p.values * [1.0, -1.0, 1.0])
        sp, sq = path_signature(p, 3), path_signature(q, 3)
        for length in range(1, 4):
            for letters in np.ndindex(*(3,) * length):
                w = Word(tuple(letters), 2)
                ones = sum(1 for x in letters if x == 1)
                sign = -1.0 if ones % 2 else 1.0
                assert sq.coeff(w) == pytest.approx(sign * sp.coeff(w), abs=1e-14)

    def test_shuffle_level_one(self):
        rng = np.random.default_rng(11)
        p = PiecewiseLinearPath.time_augmented(
            [0.0, 0.3, 0.7, 1.0], rng.standard_normal((4, 2))
        )
        sig = path_signature(p, 2)
        for i in range(3):
            for j in range(3):
                wi, wj = Word((i,), 2), Word((j,), 2)
                prod = sig.coeff(wi) * sig.coeff(wj)
                shuf = sig.coeff(Word((i, j), 2)) + sig.coeff(Word((j, i), 2))
                assert prod == pytest.approx(shuf, abs=1e-12)

    def test_against_nested_quadrature(self):
        rng = np.random.default_rng(7)
        for trial in range(3):
            times = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.1, 0.9, 2)]))
            p = PiecewiseLinearPath.time_augmented(times, rng.standard_normal((4, 2)))
            sig = path_signature(p, 3)
            for letters in [(1,), (2,), (1, 2), (0, 1), (1, 1, 2), (1, 0, 2), (2, 2, 2)]:
                w = Word(letters, 2)
                direct = signature_coeff_by_quadrature(p, w, points_per_segment=20000)
                assert sig.coeff(w) == pytest.approx(direct, abs=1e-8)


class TestCoeff:
    def test_beyond_depth_is_zero(self):
        t = TruncatedTensor(1, 2, [np.ones(2**l) for l in range(3)])
        assert t.coeff(W(1, 1)) == 1.0
        assert t.coeff(W(1, 1, 1)) == 0.0

    def test_word_index_base(self):
        assert word_index((1, 0, 2), 2) == 1 * 9 + 0 * 3 + 2


class TestBatchSignatures:
    def test_matches_single_path(self):
        rng = np.random.default_rng(5)
        times = np.linspace(0.0, 1.0, 6)
        spatial = rng.standard_normal((4, 6, 2))
        incs = []
        sigs = []
        for s in range(4):
            p = PiecewiseLinearPath.time_augmented(times, spatial[s])
            sigs.append(path_signature(p, 4))
            incs.append(p.increments)
        lev = batch_grid_signatures(np.stack(incs), 4)
        for s in range(4):
            for l in range(5):
                np.testing.assert_allclose(lev[l][s], sigs[s].levels[l], atol=1e-13)


class TestPathValidation:
    def test_time_coordinate_enforced(self):
        with pytest.raises(ValueError):
            PiecewiseLinearPath((0.0, 1.0), np.array([[0.0, 0.0], [0.5, 1.0]]))

    def test_strictly_increasing_times(self):
        with pytest.raises(ValueError):
            PiecewiseLinearPath.time_augmented([0.0, 0.0], [0.0, 1.0])
