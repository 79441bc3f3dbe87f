import inspect
import math
import os
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from fbmsig import gridapprox as ga
from fbmsig import sde as sde_module
from fbmsig.cli import _sde_problem
from fbmsig.cli import main as cli_main
from fbmsig.cubature import rescale_formula, three_path_formula
from fbmsig.gridapprox import _fgn_increments, sample_fbm_batch
from fbmsig.sde import (
    ErrorBoundParams,
    cubature_weak_value,
    error_bound_shape,
    mc_weak_value,
    _entire_series,
    _solve,
)
from oracles import (
    closed_form_solve,
    entire_series_by_terms,
    logaddexp,
    rk4_solve_per_piece,
)

ZERO = lambda y: np.zeros_like(y)
ONE = lambda y: np.ones_like(y)


def time_only_path(T=1.0):
    """(times, spatial) of the one-piece driver that stays at zero."""
    return [0.0, T], np.zeros((1, 2, 1))


def formula_path(formula, j):
    """(times, spatial) of path j of a cubature formula, a batch of one."""
    return formula.times, formula.spatial[j:j + 1]


def solve_one(vf, x0, path, steps_per_piece):
    """Endpoint of the ODE along one piecewise-linear driver: `_solve` on a
    batch of one."""
    times, spatial = path
    return _solve(vf, x0, times, np.diff(spatial, axis=1), steps_per_piece)[0]


class TestOdeAlongPath:
    def test_zero_fields_fixed_point(self):
        vf = (ZERO, ZERO)
        p = formula_path(three_path_formula(0.6), 0)
        out = solve_one(vf, [1.5, -2.0], p, steps_per_piece=32)
        np.testing.assert_allclose(out, [1.5, -2.0], atol=0)

    def test_constant_field_exact(self):
        vf = (ZERO, ONE)
        p = formula_path(three_path_formula(0.75), 0)
        out = solve_one(vf, [0.25], p, steps_per_piece=1)
        assert out[0] == pytest.approx(0.25 + math.sqrt(3.0), abs=1e-12)

    def test_linear_drift_exponential(self):
        vf = (lambda y: y, ZERO)
        out = solve_one(vf, [1.0], time_only_path(), steps_per_piece=256)
        assert out[0] == pytest.approx(math.e, abs=1e-10)

    def test_fourth_order(self):
        vf = (lambda y: y * (1.0 - y), ZERO)
        ref = solve_one(vf, [0.1], time_only_path(), steps_per_piece=512)[0]
        e8 = abs(solve_one(vf, [0.1], time_only_path(), steps_per_piece=8)[0] - ref)
        e16 = abs(solve_one(vf, [0.1], time_only_path(), steps_per_piece=16)[0] - ref)
        assert e8 / e16 >= 12.0

    def test_nonfinite_aborts(self):
        vf = (lambda y: y * y, ZERO)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="non-finite"):
                solve_one(vf, [50.0], time_only_path(), steps_per_piece=64)

    def test_field_count_checked(self):
        vf = (ZERO, ZERO, ZERO)
        with pytest.raises(ValueError):
            solve_one(vf, [0.0], time_only_path(), steps_per_piece=32)

    def test_one_field_refused(self):
        with pytest.raises(ValueError, match=r"at least fields \(V_0, V_1\)"):
            solve_one((ZERO,), [0.0], time_only_path(), steps_per_piece=1)

    @pytest.mark.parametrize("x0", [0.3, [], [[0.3]], np.zeros((1, 2))],
                             ids=["scalar", "empty", "nested", "row"])
    def test_x0_must_be_a_vector(self, x0):
        with pytest.raises(ValueError, match="x0 must be a non-empty 1-D vector"):
            solve_one((ZERO, ONE), x0, time_only_path(), steps_per_piece=1)


def _field_set(name):
    """(fields, x0): both CLI problems (constant fields) and the same fields
    returning full-shape arrays, constants at N = 2 (floats and (N,) arrays)
    and their full-shape form, a nonlinear d = 2 set, and a V_0 that returns
    its argument."""
    if name in ("quadratic", "zero"):
        vf, _, x0 = _sde_problem(name, 0.3)
        return vf, x0
    if name == "quadratic-arrays":
        return (ZERO, ONE), np.array([0.3])
    if name == "zero-arrays":
        return (ZERO, ZERO), np.array([0.3])
    if name.startswith("constant"):
        values = (0.25, np.array([1.0, -0.5]), 1.0)
        if name == "constant":
            fields = values
        else:
            fields = tuple(lambda y, c=c: np.broadcast_to(c, y.shape).copy()
                           for c in values)
        return fields, [0.3, -0.2]
    if name == "nonlinear":
        return (lambda y: y, np.sin, lambda y: np.cos(y[..., ::-1])), [0.3, -0.2]
    return (lambda y: y, lambda y: 0.5 * y), [0.3]


def _driver(kind, B, d):
    """(times, spatial) for B drivers in d coordinates: sampled fBm on a
    uniform grid, or the three cubature paths (breakpoints at thirds of T)
    cycled over the batch and scaled apart."""
    if kind == "uniform":
        return np.arange(7) * (1.3 / 6), sample_fbm_batch(0.7, 6, d, B, B, 1.3)
    resc = rescale_formula(three_path_formula(0.65), 1.7)
    base = resc.spatial[:, :, 0]  # (3, 4)
    spatial = np.stack([np.stack([base[(b + c) % 3] for c in range(d)], axis=1)
                        * (1.0 + 0.5 * b / B) for b in range(B)])
    return np.asarray(resc.times), spatial


def _callables(fields):
    """The fields with each constant c wrapped as a callable returning c."""
    return tuple(v if callable(v) else (lambda z, c=v: c) for v in fields)


def _magnitude(fields, x0, times, increments):
    """|x0| + T |V_0| + sum_i |V_i| sum_j |increments_ij|, shape (B, N), for
    constant fields: a bound on every partial sum of the endpoint."""
    fields = [np.abs(np.asarray(v, dtype=float)) for v in fields]
    magnitude = np.abs(np.asarray(x0, dtype=float)) + (times[-1] - times[0]) * fields[0]
    abs_sums = np.abs(increments).sum(axis=1)
    for i, v in enumerate(fields[1:]):
        magnitude = magnitude + abs_sums[:, i, None] * v
    return magnitude


def _closed_form_bar(fields, x0, times, increments, steps_per_piece):
    """A bound, shape (B, N), on |closed form - RK4| for constant fields.

    With u = 2^-53, P pieces and n = P steps_per_piece steps, let M be
    _magnitude per path and state coordinate.  Every RK4 stage of piece j has the slope
    k = V_0 + sum_i (inc_ij / dt_j) V_i, formed within gamma_{2d+2} of its
    magnitude; each step adds (h / 6) (k + 2k + 2k + k), three more
    additions and three roundings of h / 6 and the product, and the n
    increments and x0 are summed in turn, within gamma_n of M.  The closed
    form sums P increments and adds d + 1 products, within gamma_{P+d+3}
    of M.  So the two differ by at most (n + P + 3d + 11) u M, to first
    order; the 1.01 covers the second.
    """
    n_pieces, d = increments.shape[1:]
    return (1.01 * (n_pieces * (steps_per_piece + 1) + 3 * d + 11) * 2.0**-53
            * _magnitude(fields, x0, times, increments))


class TestSolveMatchesPerPieceOracle:
    # the flat loop hoists the piece invariants out of the stages and drops
    # the multiply by the time slope 1.0; nothing else may change a bit.  The
    # constant sets (quadratic, zero, constant) take the closed form
    # x0 + V_0 T + sum_i V_i B^i_T instead, and must match its oracle bit for
    # bit
    @pytest.mark.parametrize("driver", ["uniform", "cubature"])
    @pytest.mark.parametrize("B", [1, 3, 2000])
    @pytest.mark.parametrize("steps_per_piece", [1, 4, 64])
    @pytest.mark.parametrize("fields", ["quadratic", "zero", "constant",
                                        "nonlinear", "identity"])
    def test_bit_identical(self, fields, steps_per_piece, B, driver):
        vf, x0 = _field_set(fields)
        times, spatial = _driver(driver, B, len(vf) - 1)
        inc = np.diff(spatial, axis=1)
        got = _solve(vf, x0, times, inc, steps_per_piece)
        if any(map(callable, vf)):
            want = rk4_solve_per_piece(vf, x0, times, inc, steps_per_piece)
        else:
            want = closed_form_solve(vf, x0, times, inc)
        assert got.shape == (B, len(x0))
        assert np.array_equal(got, want)

    def test_mixed_set_runs_the_stages(self):
        vf = (0.5, np.sin, np.array([1.0, -2.0]))
        x0 = [0.3, -0.2]
        times, spatial = _driver("cubature", 5, 2)
        inc = np.diff(spatial, axis=1)
        got = _solve(vf, x0, times, inc, 4)
        assert np.array_equal(got, rk4_solve_per_piece(_callables(vf), x0, times,
                                                       inc, 4))

    # constant fields (closed form) and fields that build a full-shape array
    # at every stage (RK4) give the same endpoints up to the rounding that
    # _closed_form_bar derives; RK4 on the full-shape fields is its oracle's
    # bit for bit
    @pytest.mark.parametrize("driver", ["uniform", "cubature"])
    @pytest.mark.parametrize("B", [1, 3, 2000])
    @pytest.mark.parametrize("steps_per_piece", [1, 4, 64])
    @pytest.mark.parametrize("fields", ["quadratic", "zero", "constant"])
    def test_constants_equal_full_shape_fields(self, fields, steps_per_piece, B,
                                               driver):
        vf, x0 = _field_set(fields)
        full, _ = _field_set(fields + "-arrays")
        times, spatial = _driver(driver, B, len(vf) - 1)
        inc = np.diff(spatial, axis=1)
        got = _solve(vf, x0, times, inc, steps_per_piece)
        rk4 = _solve(full, x0, times, inc, steps_per_piece)
        assert np.array_equal(rk4, rk4_solve_per_piece(full, x0, times, inc,
                                                       steps_per_piece))
        bar = _closed_form_bar(vf, x0, times, inc, steps_per_piece)
        assert np.all(np.abs(got - rk4) <= bar)

    # y^2 blows up near t = 0.5, and RK4 names the same time as its oracle.
    # The constants overflow in the first piece (x0 = V_0 = 1e308): the
    # closed form forms only the endpoints, so it names the end, t = 1.3.
    # On three hot paths RK4 overflows inside the path (at t = 1.3, 0.217
    # and 1.3), but every exact endpoint is finite, and the closed form
    # returns them
    @pytest.mark.parametrize("steps_per_piece", [1, 4, 64])
    def test_divergence_names_the_same_time(self, steps_per_piece):
        times, spatial = _driver("uniform", 3, 1)
        hot_times, hot = _driver("uniform", 60, 1)
        hot = hot.copy()
        hot[[5, 27, 32]] *= 1e307
        cases = [((lambda y: y * y, ONE), [2.0], times, spatial),
                 ((1e308, 1.0), [1e308], times, spatial),
                 ((0.0, 1.0), [1.7e308], hot_times, hot)]
        for vf, x0, case_times, case_spatial in cases:
            inc = np.diff(case_spatial, axis=1)
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(RuntimeError, match="non-finite state at t=") as rk4:
                    rk4_solve_per_piece(_callables(vf), x0, case_times, inc,
                                        steps_per_piece)
                if callable(vf[0]):
                    with pytest.raises(RuntimeError) as err:
                        _solve(vf, x0, case_times, inc, steps_per_piece)
                    assert str(err.value) == str(rk4.value)
                elif np.isfinite(closed_form_solve(vf, x0, case_times, inc)).all():
                    assert np.array_equal(_solve(vf, x0, case_times, inc, steps_per_piece),
                                          closed_form_solve(vf, x0, case_times, inc))
                else:
                    with pytest.raises(RuntimeError,
                                       match=r"^non-finite state at t=1\.3$"):
                        _solve(vf, x0, case_times, inc, steps_per_piece)


class TestCubatureWeakValue:
    def test_odd_observable_cancels(self):
        vf = (ZERO, ONE)
        val = cubature_weak_value(
            vf, lambda y: y[..., 0], [0.7], three_path_formula(0.8), 1.0
        )
        assert val == pytest.approx(0.7, abs=1e-13)

    @pytest.mark.parametrize("H", (0.5, 0.6, 0.75))
    def test_quadratic_exact(self, H):
        vf = (ZERO, ONE)
        x0 = 0.3
        val = cubature_weak_value(
            vf, lambda y: y[..., 0] ** 2, [x0], three_path_formula(H), 1.0
        )
        assert val == pytest.approx(x0**2 + 1.0, abs=1e-10)

    def test_quadratic_rescaled(self):
        vf = (ZERO, ONE)
        x0 = 0.3
        val = cubature_weak_value(
            vf, lambda y: y[..., 0] ** 2, [x0], three_path_formula(0.5), 4.0
        )
        assert val == pytest.approx(x0**2 + 4.0, abs=1e-10)

    @pytest.mark.parametrize("H", (0.55, 0.7, 0.9))
    def test_batch_equals_per_path_solves(self, H):
        # the paths are solved as one batch; the value must be bit-identical
        # to the in-order weighted sum of one solve per path
        vf = (lambda y: -0.5 * y, lambda y: 1.0 + 0.2 * y - 0.1 * y * y)
        f = lambda y: y[..., 0] ** 3 + y[..., 0]
        formula, T, x0 = three_path_formula(H), 1.7, [0.4]
        want = 0.0
        resc = rescale_formula(formula, T)
        for j, lam in enumerate(resc.weights):
            p = formula_path(resc, j)
            want += lam * float(f(solve_one(vf, x0, p, steps_per_piece=64)))
        assert cubature_weak_value(vf, f, x0, formula, T) == want

    def test_observable_called_once_on_the_batch(self):
        calls = []

        def f(y):
            calls.append(y.shape)
            return y[:, 0] - y[:, 1]

        vf = (ZERO, lambda y: np.array([1.0, -1.0]))
        val = cubature_weak_value(vf, f, [0.5, 0.25], three_path_formula(0.7), 1.3)
        assert calls == [(3, 2)]
        assert val == pytest.approx(0.25, abs=1e-13)


class TestMcWeakValue:
    def test_zero_fields(self):
        vf = (ZERO, ZERO)
        est, se = mc_weak_value(
            vf, lambda y: y[:, 0], [1.25], 0.75, 1.0, n_paths=64, n_steps=8, seed=3
        )
        assert est == 1.25
        assert se == 0.0

    def test_quadratic_within_four_stderr(self):
        vf = (ZERO, ONE)
        x0, H, T = 0.3, 0.75, 1.0
        est, se = mc_weak_value(
            vf, lambda y: y[:, 0] ** 2, [x0], H, T, n_paths=10_000, n_steps=64, seed=7
        )
        assert abs(est - (x0**2 + T ** (2 * H))) <= 4.0 * se

    def test_agrees_with_cubature(self):
        vf = (ZERO, ONE)
        H = 0.75
        cub = cubature_weak_value(
            vf, lambda y: y[..., 0] ** 2, [0.5], three_path_formula(H), 1.0
        )
        est, se = mc_weak_value(
            vf, lambda y: y[:, 0] ** 2, [0.5], H, 1.0, n_paths=10_000, n_steps=64, seed=11
        )
        assert abs(est - cub) <= 4.0 * se

    # callable fields take the whole increment array, constant ones a draw
    # of B_T
    @pytest.mark.parametrize("fields, x0, steps_per_piece, message", [
        ((ZERO,), [0.0], 1, r"at least fields \(V_0, V_1\)"),
        ((ZERO, ONE), [[0.0]], 1, "x0 must be a non-empty 1-D vector"),
        ((ZERO, ONE), [], 1, "x0 must be a non-empty 1-D vector"),
        ((ZERO, ONE), [0.0], 0, "steps_per_piece must be >= 1"),
        ((0.0,), [0.0], 1, r"at least fields \(V_0, V_1\)"),
        ((0.0, 1.0), [[0.0]], 1, "x0 must be a non-empty 1-D vector"),
        ((0.0, 1.0), [], 1, "x0 must be a non-empty 1-D vector"),
        ((0.0, 1.0), [0.0], 0, "steps_per_piece must be >= 1"),
        # a constant is a float or an (N,) array: these gave states of
        # shape (B, 2) and (B, 3) for N = 1, and a number back
        ((0.0, np.array([1.0, 2.0])), [0.0], 1,
         r"constant field V_1 must be a float or of shape \(1,\), got shape \(2,\)"),
        ((np.zeros(3), 1.0), [0.0], 1,
         r"constant field V_0 must be a float or of shape \(1,\), got shape \(3,\)"),
        ((ZERO, np.ones((1, 2))), [0.0, 0.0], 1,
         r"constant field V_1 must be a float or of shape \(2,\), got shape \(1, 2\)"),
    ], ids=["one-field", "nested-x0", "empty-x0", "no-steps", "constant-one-field",
            "constant-nested-x0", "constant-empty-x0", "constant-no-steps",
            "constant-V1-too-long", "constant-V0-too-long", "constant-2d-among-callables"])
    def test_inputs_refused_before_sampling(self, monkeypatch, fields, x0,
                                            steps_per_piece, message):
        def sampler(*args):
            raise AssertionError("sampled before the inputs were checked")

        monkeypatch.setattr(sde_module, "_fgn_increments", sampler)
        monkeypatch.setattr(np.random, "SFC64", sampler)
        with pytest.raises(ValueError, match=message):
            mc_weak_value(fields, lambda y: y[:, 0], x0, 0.7, 1.0, n_paths=20000,
                          n_steps=1024, seed=0, steps_per_piece=steps_per_piece)

    # a callable's value must broadcast to the (B, N) states: these gave
    # states of shape (B, 2), or (B, B, 1), for N = 1
    @pytest.mark.parametrize("field", [lambda y: np.array([1.0, 2.0]),
                                       lambda y: np.ones((len(y), 2)),
                                       lambda y: y[:, :, None]],
                             ids=["vector", "two-columns", "three-dims"])
    def test_field_values_that_do_not_broadcast_are_refused(self, field):
        for fields in ((ZERO, field), (field, ONE)):
            with pytest.raises(ValueError, match="do not broadcast to the states' shape"):
                mc_weak_value(fields, lambda y: y[:, 0], [0.0], 0.7, 1.0, n_paths=20,
                              n_steps=8, seed=0)
            with pytest.raises(ValueError, match=r"shape \(3, 1\)"):
                cubature_weak_value(fields, lambda y: y[:, 0], [0.0],
                                    three_path_formula(0.7), 1.0)

    # the sampler refuses these before the time grid is built from them,
    # which would divide by zero or warn of inf * 0
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fields", [(ZERO, ONE), (0.0, 1.0)],
                             ids=["callable", "constant"])
    @pytest.mark.parametrize("n_steps, T, message", [
        (0, 1.0, "m must be >= 1, got 0"),
        (16, math.inf, r"T = inf puts the covariance scale \(T/m\)\^2H out of range"),
    ], ids=["no-steps", "infinite-T"])
    def test_sampler_arguments_checked_before_the_grid(self, fields, n_steps, T,
                                                       message):
        with pytest.raises(ValueError, match=message):
            mc_weak_value(fields, lambda y: y[:, 0], [0.0], 0.7, T, n_paths=100,
                          n_steps=n_steps, seed=0)

    # a reference without noise refuses what the sampler refuses with the
    # same messages
    @pytest.mark.parametrize("H, T, n_paths, n_steps", [
        (0.7, 1.3, 20, 2**18 + 1), (0.7, math.inf, 20, 16), (0.7, 0.0, 20, 16),
        (0.7, 1.3, 1, 16), (0.7, 1.3, 20, 0), (0.5, 1.3, 20, 16)],
        ids=["long-grid", "infinite-T", "zero-T", "one-path", "no-steps", "H-half"])
    def test_zero_noise_refuses_what_noise_refuses(self, H, T, n_paths, n_steps):
        def messages(fields):
            with pytest.raises(ValueError) as refused:
                mc_weak_value(fields, lambda y: y[:, 0], [0.3], H, T, n_paths, n_steps, 3)
            return str(refused.value)

        assert messages((0.0, 0.0)) == messages((0.0, 1.0))

    @pytest.mark.parametrize("fields, x0", [
        ((0.0, 0.0), [0.3]), ((0.25, np.array([0.0, -0.0]), 0.0), [0.3, -0.2])])
    @pytest.mark.parametrize("n_steps", [64, 1536])
    def test_zero_noise_endpoints_are_x0_plus_V0_T(self, fields, x0, n_steps):
        # no V_i with i >= 1 acts, so every endpoint is x0 + V_0 T + 0 B_T;
        # at x0 = 0.3 the mean of 4096 of them is 0.29999999999999993, and
        # the standard error is the rounding of that mean
        ends = []
        est, se = mc_weak_value(fields, lambda y: ends.append(y) or y[:, 0], x0, 0.7,
                                1.3, 4096, n_steps, 3)
        want = np.asarray(x0) + fields[0] * 1.3
        assert np.array_equal(ends[0], np.broadcast_to(want, (4096, len(x0))))
        assert est == np.full(4096, want[0]).mean() and 0.0 <= se < 1e-17
        if x0 == [0.3]:
            assert est == 0.29999999999999993

    @pytest.mark.parametrize("n_steps", [64, 1536])
    def test_constant_fields_build_no_covariance(self, monkeypatch, n_steps):
        # with constant fields, noise or none, only the sampler's checks
        # run: the covariance column, a Vandermonde over n_steps + 1 lags,
        # is never formed, where a callable field's increments need it
        def refuse(*args):
            raise AssertionError("the covariance was built")

        monkeypatch.setattr(ga, "_second_differences", refuse)
        args = (lambda y: y[:, 0], [0.3], 0.7, 1.3, 64, n_steps, 3)
        est, _ = mc_weak_value((0.0, 0.0), *args)
        assert est == np.full(64, 0.3).mean()
        _, se = mc_weak_value((0.0, 1.0), *args)
        assert se > 0.0
        with pytest.raises(AssertionError, match="the covariance was built"):
            mc_weak_value((ZERO, ONE), *args)

    def test_z_scores_follow_the_standard_normal_law(self):
        # (mc - exact) / se over 199 seeds of the quadratic problem at 4096
        # paths x 64 steps: for standard normal z-scores the mean has sd
        # 0.071 and the sd about 0.05, so the bars are 3.5 and 3 of those
        fields, f, x0 = _sde_problem("quadratic", 0.3)
        H, T = 0.75, 1.0
        exact = 0.3**2 + T ** (2.0 * H)
        z = []
        for seed in range(199):
            est, se = mc_weak_value(fields, f, x0, H, T, 4096, 64, seed)
            z.append((est - exact) / se)
        assert abs(np.mean(z)) <= 0.25
        assert 0.85 <= np.std(z, ddof=1) <= 1.15

    def test_seed_reproducible(self):
        vf = (ZERO, ONE)
        args = (vf, lambda y: y[:, 0] ** 2, [0.1], 0.8, 1.0)
        a = mc_weak_value(*args, n_paths=500, n_steps=16, seed=42)
        b = mc_weak_value(*args, n_paths=500, n_steps=16, seed=42)
        assert a == b

    def test_steps_per_piece_checked(self):
        vf = (ZERO, ONE)
        with pytest.raises(ValueError, match="steps_per_piece"):
            mc_weak_value(vf, lambda y: y[:, 0], [0.0], 0.75, 1.0, 10, 4, seed=0,
                          steps_per_piece=0)

    def test_requires_young_regime(self):
        vf = (ZERO, ONE)
        with pytest.raises(ValueError):
            mc_weak_value(vf, lambda y: y[:, 0], [0.0], 0.5, 1.0, 10, 4, seed=0)

    @pytest.mark.parametrize("scale", [2.0**-900, 2.0**-40, 2.0**700],
                             ids=["2^-900", "2^-40", "2^700"])
    def test_standard_error_scales_exactly(self, scale):
        # std squares the deviations, which leave the double range far
        # inside it: at 2^-900 they underflow, at 2^700 they overflow
        vf = (ZERO, ONE)
        args = (vf, lambda y: y[:, 0] ** 2, [0.3], 0.75, 1.0, 200, 8)
        _, se = mc_weak_value(*args, seed=5)
        scaled = (vf, lambda y: scale * y[:, 0] ** 2) + args[2:]
        _, se_scaled = mc_weak_value(*scaled, seed=5)
        assert se_scaled == scale * se > 0.0

    def test_non_finite_values_give_nan_error_without_warning(self):
        vf = (ZERO, ONE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est, se = mc_weak_value(vf, lambda y: np.full(len(y), np.inf), [0.0],
                                    0.75, 1.0, 8, 4, seed=0)
        assert est == math.inf and math.isnan(se)

    def test_mean_of_values_near_the_top_of_the_range(self):
        # the sum of five values of 1e308 overflows, their mean does not
        est, se = mc_weak_value((0.0, 0.0), lambda y: y[:, 0], [1e308], 0.7, 2.0,
                                n_paths=5, n_steps=8, seed=1)
        assert abs(est - 1e308) <= math.ulp(1e308)
        assert se == 0.0

    def test_tracer_binds_parameters_by_name(self):
        # the benchmark tracer's field-evaluation count reads these by name
        params = inspect.signature(mc_weak_value).parameters
        assert {"n_paths", "n_steps", "steps_per_piece"} <= params.keys()

    @pytest.mark.parametrize("n_paths", [0, 1])
    def test_refuses_fewer_than_two_paths(self, n_paths):
        # one path has no sample variance: a zero error bar would be a lie
        vf = (ZERO, ONE)
        with pytest.raises(ValueError, match="n_paths"):
            mc_weak_value(vf, lambda y: y[:, 0], [0.0], 0.75, 1.0, n_paths, 4, seed=0)


def _closed_form(name):
    """(fields, x0, exact): two field sets whose endpoint along any
    piecewise-linear driver omega with omega_0 = 0 is known in closed form."""
    if name == "linear":  # commuting: y_T = x0 exp(T/2 + omega_T)
        return ((lambda y: 0.5 * y, lambda y: y), [0.3],
                lambda T, w: 0.3 * np.exp(0.5 * T + w))
    # dy = sin(y) d omega: tan(y/2) grows by the factor exp(omega)
    return ((lambda y: 0.0, np.sin), [1.0],
            lambda T, w: 2.0 * np.arctan(math.tan(0.5) * np.exp(w)))


def _recorded_mc(vf, x0, H, T, n_paths, n_steps, seed, **kwargs):
    """mc_weak_value of the first coordinate, with the endpoints it averaged
    and the sampler's increments that drove them."""
    ends = []
    est, se = mc_weak_value(vf, lambda y: ends.append(y.copy()) or y[:, 0], x0, H, T,
                            n_paths, n_steps, seed, **kwargs)
    increments = _fgn_increments(H, n_steps, len(vf) - 1, n_paths, seed, T)
    times = np.arange(n_steps + 1) * (T / n_steps)
    return est, se, ends[0], times, increments


class TestMcDefaultGridAccuracy:
    # the default RK4 grid is the sample grid, one step per cell; measured
    # worst per-path relative errors over these cases are 1.5e-2 (m = 32),
    # 3.0e-4 (128) and 4.0e-7 (1536), and the worst bias is 0.012 of the
    # standard error.  These bounds are never to be loosened.
    REL_BOUND = {32: 5e-2, 128: 1e-3, 1536: 1.5e-6}
    PATHS = {32: 4000, 128: 4000, 1536: 400}

    @pytest.mark.parametrize("T", [0.5, 2.0])
    @pytest.mark.parametrize("H", [0.55, 0.7, 0.9])
    @pytest.mark.parametrize("n_steps", [32, 128, 1536])
    @pytest.mark.parametrize("fields", ["linear", "sin"])
    def test_endpoints_match_closed_form(self, fields, n_steps, H, T):
        vf, x0, exact = _closed_form(fields)
        n_paths = self.PATHS[n_steps]
        est, se, ends, times, inc = _recorded_mc(vf, x0, H, T, n_paths, n_steps,
                                                 seed=11)
        assert np.array_equal(ends, _solve(vf, x0, times, inc, 1))
        want = exact(T, np.cumsum(inc[:, :, 0], axis=1)[:, -1])
        rel = np.abs(ends[:, 0] - want) / np.abs(want)
        assert rel.max() <= self.REL_BOUND[n_steps]
        assert abs(est - want.mean()) <= 0.1 * se

    def test_default_is_one_step_per_cell(self):
        assert inspect.signature(mc_weak_value).parameters["steps_per_piece"].default == 1

    @pytest.mark.parametrize("fields", ["linear", "sin"])
    def test_explicit_sub_steps_match_per_piece_oracle(self, fields):
        vf, x0, _ = _closed_form(fields)
        _, _, ends, times, inc = _recorded_mc(vf, x0, 0.7, 2.0, 300, 16, seed=4,
                                              steps_per_piece=4)
        assert np.array_equal(ends, rk4_solve_per_piece(vf, x0, times, inc, 4))


def _constant_fields(d):
    """Constant fields (V_0, ..., V_d) at N = 2, floats and (N,) arrays."""
    values = (0.25, np.array([1.0, -0.5]), 1.0, np.array([-0.75, 2.0]))
    return values[:d + 1], [0.3, -0.2]


@pytest.fixture
def threads(monkeypatch):
    """Records every thread started during the test, and asserts at its end
    that none was: the sampler draws on the calling thread."""
    started = []
    start = threading.Thread.start

    def counted(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    yield started
    assert not started


def _failing_draw(monkeypatch, n, exc):
    """Make the n-th draw of every Generator raise exc.  Returns the
    Generator class it replaces."""
    generator = np.random.Generator

    class FailingDraws:
        def __init__(self, bit_generator):
            self.rng, self.calls = generator(bit_generator), 0

        def standard_normal(self, *args, **kwargs):
            self.calls += 1
            if self.calls == n:
                raise exc
            return self.rng.standard_normal(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", FailingDraws)
    return generator


def _run_at_once(calls, fn):
    """fn(*args) for each of calls, all on their own threads at once with a
    1 us switch interval; the results in order."""
    got = [None] * len(calls)

    def run(i):
        got[i] = fn(*calls[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    return got


class TestPipelinedReference:
    # With callable fields mc_weak_value runs RK4 on the sampler's whole
    # increment array, drawn on the calling thread in blocks of pairs of
    # rows: 4096 x 64, 2048 x 128 and 2048 x 32 are 16, 16 and 4 whole
    # blocks; 8020 x 33, 2500 x 36, 3000 x 40 x 2, 2000 x 50 x 3, 100 x 300
    # and 400 x 300 end with a part-filled block, as do 1001 x 7 and
    # 1000 x 7 in blocks of 13 pairs and 2000 x 50 x 3 in blocks of 7; and
    # 5 x 8 x 2 is one block
    @pytest.mark.parametrize("n_paths, n_steps, d, block_pairs, steps_per_piece", [
        (4096, 64, 1, None, 1), (8020, 33, 1, None, 1), (2048, 128, 1, None, 1),
        (2500, 36, 1, None, 1), (1001, 7, 1, 13, 1), (1001, 7, 1, 13, 4),
        (1000, 7, 1, 13, 1), (3000, 40, 2, None, 1), (2000, 50, 3, None, 1),
        (2000, 50, 3, 7, 4), (5, 8, 2, None, 1), (2048, 32, 1, None, 1),
        (100, 300, 1, None, 1), (400, 300, 1, None, 1)])
    def test_bit_identical_to_one_solve(self, monkeypatch, threads, n_paths, n_steps,
                                        d, block_pairs, steps_per_piece):
        if block_pairs is not None:
            monkeypatch.setattr(ga, "_DRAW_BLOCK", block_pairs * 4 * n_steps)
        vf, x0 = _constant_fields(d)
        H, T, seed = 0.7, 1.3, 9
        _, _, ends, times, inc = _recorded_mc(_callables(vf), x0, H, T, n_paths,
                                              n_steps, seed,
                                              steps_per_piece=steps_per_piece)
        assert np.array_equal(ends, _solve(_callables(vf), x0, times, inc,
                                           steps_per_piece))
        # and RK4's endpoints are the closed form's up to rounding
        assert np.all(np.abs(ends - closed_form_solve(vf, x0, times, inc))
                      <= _closed_form_bar(vf, x0, times, inc, steps_per_piece))

    def test_non_finite_endpoint_names_the_end(self):
        # y = 1.7e308 + 1e307 B_T overflows where B_T passes 0.976; the
        # reference never forms the paths, so it names t = T
        with np.errstate(over="ignore"):
            with pytest.raises(RuntimeError, match=r"^non-finite state at t=1\.3$"):
                mc_weak_value((0.0, 1e307), lambda y: y[:, 0], [1.7e308], 0.7, 1.3,
                              12, 8, seed=0)

    def test_memory_error_in_a_block_is_a_usage_error(self, monkeypatch, threads,
                                                      capsys):
        # a Monte-Carlo reference with a callable field runs out of memory
        # drawing its second block, at a short grid and a long one
        def callable_fields(name, x0):
            fields, f, state0 = _sde_problem(name, x0)
            return _callables(fields), f, state0

        monkeypatch.setattr("fbmsig.cli._sde_problem", callable_fields)
        for paths, steps in (("4096", "64"), ("512", "256")):
            argv = ["sde", "compare", "--paths", paths, "--steps", steps, "--no-timestamp"]
            generator = _failing_draw(monkeypatch, 2, MemoryError())
            assert cli_main(argv) == 2
            assert (f"--paths {paths} needs more memory than is available"
                    in capsys.readouterr().err)
            monkeypatch.setattr(np.random, "Generator", generator)

    def test_import_starts_no_thread(self):
        code = ("import threading, fbmsig.cli; "
                "print(threading.active_count(), threading.enumerate())")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.startswith("1 ")

    def test_concurrent_calls_under_fast_switching(self, monkeypatch):
        # four calls of each sampler consumer at once, on their own threads,
        # in blocks of one pair of rows; a block read while another call
        # redraws it would change a path or an increment
        monkeypatch.setattr(ga, "_DRAW_BLOCK", 1)
        vf, x0 = _constant_fields(2)
        for n_paths, n_steps in ((600, 16), (60, 300)):
            calls = [(_callables(vf), lambda y: y[:, 0], x0, 0.7, 1.3, n_paths, n_steps,
                      seed) for seed in range(4)]
            want = [mc_weak_value(*args) for args in calls]
            assert _run_at_once(calls, mc_weak_value) == want
            calls = [(0.7, n_steps, 2, n_paths, seed, 1.3) for seed in range(4)]
            want = [sample_fbm_batch(*args) for args in calls]
            got = _run_at_once(calls, sample_fbm_batch)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestSeriesLogSum:
    def test_oracle_logaddexp_is_numpys_double(self):
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.normal(0.0, 50.0, 4000), rng.uniform(-700, 700, 4000),
                            [0.0, 1.0, -1.0, 709.0, -745.0, 1e-300, 5e-324]])
        for shift in (0.0, 5e-324, 1e-12, 1e-3, 1.0, 36.0, 40.0, 800.0):
            for y in (x + shift, x - shift, x[::-1]):
                for a, b in zip(x.tolist(), y.tolist()):
                    assert logaddexp(a, b) == np.logaddexp(a, b), (a, b)
        assert logaddexp(3.0, 3.0) == np.logaddexp(3.0, 3.0) == 3.0 + math.log(2.0)

    def test_chunks_sum_to_the_term_loops_double(self):
        # z <= 0, tiny z, the k = 1 stop, stops past the 1024-entry log k!
        # table (gamma 0.2 at z = 8, 0.45 at z = 1.5) and the inf of the
        # running log-sum up to z = 300, over gamma in [0, 0.45]
        rng = np.random.default_rng(11)
        gammas = np.concatenate([[0.0, 0.1, 0.2, 0.3, 0.45], rng.uniform(0.0, 0.45, 95)])
        zs = np.concatenate([[-1.0, 0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0, 1.5, 4.0, 8.0,
                              12.0, 30.0, 268.0, 282.0, 300.0],
                             rng.uniform(0.0, 15.0, 10), 10.0 ** rng.uniform(-8.0, 2.5, 5)])
        values = []
        for gamma in gammas.tolist():
            for z in zs.tolist():
                got = _entire_series(z, gamma)
                assert got == entire_series_by_terms(z, gamma), (z, gamma)
                values.append(got)
        assert values.count(math.inf) > 500 and len(set(values)) > 1000

    def test_series_unfinished_after_its_term_cap_is_a_usage_error(self, capsys):
        # z = d M K T = 1 at gamma 1/2 - 1e-7: the terms shrink by a factor
        # of (k+1)^-1e-7, so no stop comes within 5000000 terms
        argv = ["bounds", "--H", "0.75", "--T", "1", "--M", "0.43301270189221935",
                "--gamma", "0.4999999"]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == (
            "error: the error bound's series at z = 1.0 does not converge"
            " within 5000000 terms: --gamma 0.4999999 lies too close to 1/2\n")

    @pytest.mark.parametrize("argv", [
        ["bounds", "--H", "0.501,0.55,0.75,0.861,0.9999", "--T", "0.5,1,2,7"],
        ["bounds", "--H", "0.6", "--T", "0.3,3", "--M", "2", "--gamma", "0.2"],
        ["sde", "compare", "--H", "0.7", "--T", "2", "--paths", "20", "--steps", "8"],
        ["sde", "compare", "--H", "0.55", "--T", "0.4", "--paths", "20", "--steps", "8",
         "--M", "3", "--gamma", "0.1"],
    ])
    def test_cli_prints_the_term_loops_bound_values(self, capsys, monkeypatch, argv):
        def printed():
            assert cli_main(argv + ["--no-timestamp"]) == 0
            return capsys.readouterr().out

        ours = printed()
        monkeypatch.setattr(sde_module, "_entire_series", entire_series_by_terms)
        assert printed() == ours


class TestErrorBoundShape:
    def test_K_value(self):
        p = ErrorBoundParams(M=1.0, gamma=0.0, d=1, degree=5, H=0.75)
        assert p.K == pytest.approx(math.sqrt(16.0 / 3.0), abs=1e-12)
        assert p.K == pytest.approx(2.309401, abs=1e-6)

    def test_branch_selection(self):
        p = ErrorBoundParams(M=1.0, gamma=0.0, d=1, degree=5, H=0.6)
        assert error_bound_shape(p, 0.5).branch == "T<1"
        assert error_bound_shape(p, 1.0).branch == "T>=1"
        assert error_bound_shape(p, 3.0).branch == "T>=1"

    def test_small_T_exponent(self):
        # for degree 5 and H = 0.6 the T -> 0 branch is led by T^(2H)
        p = ErrorBoundParams(M=1.0, gamma=0.0, d=1, degree=5, H=0.6)
        v1 = error_bound_shape(p, 1e-3).value
        v2 = error_bound_shape(p, 1e-4).value
        slope = math.log(v1 / v2) / math.log(10.0)
        assert slope == pytest.approx(1.2, abs=0.01)

    def test_monotone_in_T(self):
        p = ErrorBoundParams(M=0.5, gamma=0.0, d=1, degree=4, H=0.7)
        lo = [error_bound_shape(p, t).value for t in (0.1, 0.4, 0.9)]
        hi = [error_bound_shape(p, t).value for t in (1.0, 2.0, 5.0)]
        assert lo == sorted(lo)
        assert hi == sorted(hi)

    def test_series_is_entire_for_gamma_zero(self):
        p = ErrorBoundParams(M=1.0, gamma=0.0, d=1, degree=5, H=0.75)
        assert math.isfinite(error_bound_shape(p, 3.0).value)

    def test_overflow_reported_as_inf(self):
        # mathematically finite but beyond double precision
        p = ErrorBoundParams(M=2.0, gamma=0.2, d=2, degree=5, H=0.75)
        assert error_bound_shape(p, 5.0).value == math.inf

    def test_overflow_returns_before_convergence(self):
        # d M K T at H = 0.501, M = 2, T = 3: the terms only start to shrink
        # past k ~ 268^(1/0.3), so inf must come from the running log-sum
        t0 = time.perf_counter()
        assert _entire_series(268.0, 0.2) == math.inf
        assert time.perf_counter() - t0 < 0.5

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ErrorBoundParams(M=0.0, gamma=0.0, d=1, degree=5, H=0.75)
        with pytest.raises(ValueError):
            ErrorBoundParams(M=1.0, gamma=0.5, d=1, degree=5, H=0.75)
        with pytest.raises(ValueError, match="degree must be >= 0"):
            ErrorBoundParams(M=1.0, gamma=0.0, d=1, degree=-1, H=0.75)
        assert ErrorBoundParams(M=1.0, gamma=0.0, d=1, degree=0, H=0.75).degree == 0
        with pytest.raises(ValueError):
            error_bound_shape(
                ErrorBoundParams(M=1.0, gamma=0.0, d=1, degree=5, H=0.75), 0.0
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_M_and_T_rejected(self, value):
        with pytest.raises(ValueError, match="M must be positive and finite"):
            ErrorBoundParams(M=value, gamma=0.0, d=1, degree=5, H=0.75)
        p = ErrorBoundParams(M=1.0, gamma=0.0, d=1, degree=5, H=0.75)
        with pytest.raises(ValueError, match="T must be positive and finite"):
            error_bound_shape(p, value)

    @pytest.mark.parametrize("M, T", [(1.0, 1e150), (1e200, 2.0), (1e200, 0.5)])
    def test_overflowing_power_reported_as_inf(self, M, T):
        # T^((m+2)/2) or M^((m+2)/2) beyond double precision
        p = ErrorBoundParams(M=M, gamma=0.0, d=1, degree=4, H=0.75)
        shape = error_bound_shape(p, T)
        assert shape.value == math.inf
        assert shape.branch == ("T>=1" if T >= 1.0 else "T<1")

