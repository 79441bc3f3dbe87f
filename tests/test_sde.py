import contextlib
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
    _logaddexp,
    _solve,
)
from oracles import rk4_solve_per_piece

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


# _summed_solve rests on this: numpy reduces the leading axis of a
# C-contiguous array of more than one lane row by row (it sums pairwise only
# along the fast axis), so the sum adds in the RK4 loop's order
@pytest.mark.parametrize("shape", [(65, 4096), (1537, 20), (129, 40, 3), (9, 2)])
def test_add_reduce_adds_leading_rows_in_order(shape):
    rng = np.random.default_rng(shape[0])
    a = np.exp(rng.uniform(-15.0, 15.0, shape)) * rng.choice([-1.0, 1.0], shape)
    want = a[0].copy()
    for row in a[1:]:
        want = want + row
    assert np.array_equal(np.add.reduce(a, axis=0), want)


class TestSolveMatchesPerPieceOracle:
    # the flat loop hoists the piece invariants out of the stages and drops
    # the multiply by the time slope 1.0; nothing else may change a bit.  The
    # constant sets (quadratic, zero, constant) skip the stages and sum the
    # increments, and must match the oracle on the wrapped constants
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
        want = rk4_solve_per_piece(_callables(vf), x0, times, inc, steps_per_piece)
        assert got.shape == (B, len(x0))
        assert np.array_equal(got, want)

    # blocks of one piece of one path (a piece longer than the block), of a
    # few paths and pieces, and of whole batches; B = 2000 leaves the last
    # block of paths part-filled at every size, and 600 pieces of 64 steps
    # span five blocks of pieces at the shipped size
    @pytest.mark.parametrize("block", [1, 100, sde_module._SUM_BLOCK])
    @pytest.mark.parametrize("B, pieces, steps_per_piece",
                             [(2000, 6, 1), (2000, 6, 4), (3, 600, 64)])
    def test_summed_blocks_bit_identical(self, monkeypatch, block, B, pieces,
                                         steps_per_piece):
        monkeypatch.setattr(sde_module, "_SUM_BLOCK", block)
        vf, x0 = _field_set("constant")
        times = np.arange(pieces + 1) * (1.1 / pieces)
        inc = np.diff(sample_fbm_batch(0.8, pieces, 2, B, 17, 1.1), axis=1)
        got = _solve(vf, x0, times, inc, steps_per_piece)
        want = rk4_solve_per_piece(_callables(vf), x0, times, inc, steps_per_piece)
        assert np.array_equal(got, want)

    def test_mixed_set_runs_the_stages(self):
        vf = (0.5, np.sin, np.array([1.0, -2.0]))
        x0 = [0.3, -0.2]
        times, spatial = _driver("cubature", 5, 2)
        inc = np.diff(spatial, axis=1)
        got = _solve(vf, x0, times, inc, 4)
        assert np.array_equal(got, rk4_solve_per_piece(_callables(vf), x0, times,
                                                       inc, 4))

    # constant fields (summed) and fields that build a full-shape array at
    # every stage (RK4) give the same endpoints bit for bit
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
        assert np.array_equal(got, _solve(full, x0, times, inc, steps_per_piece))
        assert np.array_equal(got, rk4_solve_per_piece(full, x0, times, inc,
                                                       steps_per_piece))

    # y^2 blows up near t = 0.5; the constants overflow in the first piece
    # (x0 = V_0 = 1e308), or on three hot paths at t = 1.3, 0.217 and 1.3,
    # with blocks of one path, so the middle block of paths overflows first
    @pytest.mark.parametrize("steps_per_piece", [1, 4, 64])
    def test_divergence_names_the_same_time(self, monkeypatch, steps_per_piece):
        times, spatial = _driver("uniform", 3, 1)
        hot_times, hot = _driver("uniform", 60, 1)
        hot = hot.copy()
        hot[[5, 27, 32]] *= 1e307
        cases = [((lambda y: y * y, ONE), [2.0], times, spatial),
                 ((1e308, 1.0), [1e308], times, spatial),
                 ((0.0, 1.0), [1.7e308], hot_times, hot)]
        monkeypatch.setattr(sde_module, "_SUM_BLOCK", 8)
        for vf, x0, case_times, case_spatial in cases:
            messages = []
            with np.errstate(over="ignore", invalid="ignore"):
                for solve, fields in ((_solve, vf),
                                      (rk4_solve_per_piece, _callables(vf))):
                    with pytest.raises(RuntimeError,
                                       match="non-finite state at t=") as err:
                        solve(fields, x0, case_times, np.diff(case_spatial, axis=1),
                              steps_per_piece)
                    messages.append(str(err.value))
            assert messages[0] == messages[1]


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

    # callable fields take the whole increment array, constant ones the blocks
    @pytest.mark.parametrize("fields, x0, steps_per_piece, message", [
        ((ZERO,), [0.0], 1, r"at least fields \(V_0, V_1\)"),
        ((ZERO, ONE), [[0.0]], 1, "x0 must be a non-empty 1-D vector"),
        ((ZERO, ONE), [], 1, "x0 must be a non-empty 1-D vector"),
        ((ZERO, ONE), [0.0], 0, "steps_per_piece must be >= 1"),
        ((0.0,), [0.0], 1, r"at least fields \(V_0, V_1\)"),
        ((0.0, 1.0), [[0.0]], 1, "x0 must be a non-empty 1-D vector"),
        ((0.0, 1.0), [], 1, "x0 must be a non-empty 1-D vector"),
        ((0.0, 1.0), [0.0], 0, "steps_per_piece must be >= 1"),
    ], ids=["one-field", "nested-x0", "empty-x0", "no-steps", "constant-one-field",
            "constant-nested-x0", "constant-empty-x0", "constant-no-steps"])
    def test_inputs_refused_before_sampling(self, monkeypatch, fields, x0,
                                            steps_per_piece, message):
        def sampler(*args):
            raise AssertionError("sampled before the inputs were checked")

        monkeypatch.setattr(sde_module, "_fgn_increments", sampler)
        monkeypatch.setattr(sde_module, "_fgn_blocks", sampler)
        with pytest.raises(ValueError, match=message):
            mc_weak_value(fields, lambda y: y[:, 0], x0, 0.7, 1.0, n_paths=20000,
                          n_steps=1024, seed=0, steps_per_piece=steps_per_piece)

    # the sampler refuses these before the time grid is built from them,
    # which would divide by zero or warn of inf * 0
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fields", [(ZERO, ONE), (0.0, 1.0)],
                             ids=["callable", "constant"])
    @pytest.mark.parametrize("n_steps, T, message", [
        (0, 1.0, "m, d and n_paths must be positive"),
        (16, math.inf, r"T = inf puts the covariance scale \(T/m\)\^2H out of range"),
    ], ids=["no-steps", "infinite-T"])
    def test_sampler_arguments_checked_before_the_grid(self, fields, n_steps, T,
                                                       message):
        with pytest.raises(ValueError, match=message):
            mc_weak_value(fields, lambda y: y[:, 0], [0.0], 0.7, T, n_paths=100,
                          n_steps=n_steps, seed=0)

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
    # worst per-path relative errors over these cases are 2.1e-2 (m = 32),
    # 3.0e-4 (128) and 4.2e-7 (1536), and the worst bias is 0.012 of the
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


class _CountedThread(threading.Thread):
    """A Thread that records itself in `started` when it starts."""

    started = []

    def start(self):
        self.started.append(self)
        super().start()


@pytest.fixture
def threads(monkeypatch):
    """The threads started during the test, which must all be joined by its
    end, with the thread count back where it began."""
    before = threading.active_count()
    started = []
    monkeypatch.setattr(_CountedThread, "started", started)
    monkeypatch.setattr(threading, "Thread", _CountedThread)
    yield started
    assert not any(t.is_alive() for t in started)
    assert threading.active_count() == before


def _fail_on_call(fn, n, exc):
    """fn, except that its n-th call raises exc."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(1)
        if len(calls) == n:
            raise exc
        return fn(*args, **kwargs)

    return wrapped


class _Unreadable:
    """Stands in for a block's increments: it has their length, and reading
    any of them raises exc."""

    def __init__(self, increments, exc):
        self.length, self.exc = len(increments), exc

    def __len__(self):
        return self.length

    def __getitem__(self, key):
        raise self.exc


def _unreadable_block(fgn_blocks, n, exc):
    """fgn_blocks, except that reading the increments of the n-th block
    raises exc; closing the blocks closes the sampler's."""

    def wrapped(*args):
        blocks = fgn_blocks(*args)

        def relayed():
            with contextlib.closing(blocks):
                for i, (first, increments) in enumerate(blocks, start=1):
                    yield first, _Unreadable(increments, exc) if i == n else increments

        return relayed()

    return wrapped


class TestPipelinedReference:
    # mc_weak_value sums each block's whole paths while the sampler draws the
    # next block on a background thread.  Its value, standard error and
    # endpoints must be those of one solve of the whole increment array:
    # _solve on it, and RK4 on the callables, which take the whole array.
    # 3000 x 40 x 2 and 2000 x 50 x 3 draw blocks of 818 and 654 rows, 409
    # and 218 whole paths, where a block of _DRAW_BLOCK // m rows would end
    # inside a path; 1001 x 7 in blocks of 13 rows divides into 77 blocks,
    # and 1000 x 7 leaves the last block part-filled; 5 x 8 is one block,
    # 2048 x 32 two, drawn in turn, and 100 x 300 the circulant
    @pytest.mark.parametrize("n_paths, n_steps, d, block_rows, steps_per_piece", [
        (4096, 64, 1, None, 1), (8020, 33, 1, None, 1), (2048, 128, 1, None, 1),
        (2500, 36, 1, None, 1), (1001, 7, 1, 13, 1), (1001, 7, 1, 13, 4),
        (1000, 7, 1, 13, 1), (3000, 40, 2, None, 1), (2000, 50, 3, None, 1),
        (2000, 50, 3, 7, 4), (5, 8, 2, None, 1), (2048, 32, 1, None, 1),
        (100, 300, 1, None, 1)])
    def test_bit_identical_to_one_solve(self, monkeypatch, threads, n_paths, n_steps,
                                        d, block_rows, steps_per_piece):
        if block_rows is not None:
            monkeypatch.setattr(ga, "_DRAW_BLOCK", block_rows * n_steps)
        vf, x0 = _constant_fields(d)
        args = (x0, 0.7, 1.3, n_paths, n_steps, 9)
        est, se, ends, times, inc = _recorded_mc(vf, *args,
                                                 steps_per_piece=steps_per_piece)
        assert np.array_equal(ends, _solve(vf, x0, times, inc, steps_per_piece))
        rk4 = _recorded_mc(_callables(vf), *args, steps_per_piece=steps_per_piece)
        assert (est, se) == rk4[:2]
        assert np.array_equal(ends, rk4[2])
        blocks = -(-n_paths // max(1, ga._DRAW_BLOCK // (n_steps * d)))
        drawn_ahead = n_steps <= ga._CHOLESKY_STEPS and blocks >= ga._AHEAD_BLOCKS
        # one drawer per sampler call of _AHEAD_BLOCKS blocks or more: each
        # _recorded_mc samples in mc_weak_value and again for the increments
        assert len(threads) == (4 if drawn_ahead else 0)

    # y = 1.7e308 + 1e307 omega overflows once omega passes 0.976.  In blocks
    # of two paths the first block to overflow does so later than a block
    # after it; the error must name the earliest time over all paths
    @pytest.mark.parametrize("seed", [0, 36])
    def test_divergence_names_the_earliest_time(self, monkeypatch, seed):
        vf, x0, m, T = (0.0, 1e307), [1.7e308], 8, 1.3
        monkeypatch.setattr(ga, "_DRAW_BLOCK", 2 * m)
        times = np.arange(m + 1) * (T / m)
        inc = _fgn_increments(0.7, m, 1, 12, seed, T)

        def message(increments):
            try:
                _solve(vf, x0, times, increments, 1)
            except RuntimeError as err:
                return str(err)
            return None

        with np.errstate(over="ignore", invalid="ignore"):
            per_block = [message(inc[p:p + 2]) for p in range(0, 12, 2)]
            want = message(inc)
            with pytest.raises(RuntimeError) as err:
                mc_weak_value(vf, lambda y: y[:, 0], x0, 0.7, T, 12, m, seed)
        first = next(msg for msg in per_block if msg is not None)
        assert want in per_block and first != want
        assert str(err.value) == want

    def test_drawer_exception_reaches_the_caller(self, monkeypatch, threads):
        # a draw that fails on the background thread (the third block) raises
        # in the caller; pytest turns an unhandled thread exception into an
        # error, so the thread must not leak it either
        default_rng = np.random.default_rng

        class FailingDraws:
            def __init__(self, seed):
                self.rng = default_rng(seed)
                self.standard_normal = _fail_on_call(
                    self.rng.standard_normal, 3, FloatingPointError("draw failed"))

        vf, x0 = _constant_fields(1)
        args = (vf, lambda y: y[:, 0], x0, 0.7, 1.3, 4096, 64, 5)
        monkeypatch.setattr(np.random, "default_rng", FailingDraws)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="draw failed"):
            mc_weak_value(*args)
        assert len(threads) == 1 and not threads[0].is_alive()
        assert threading.active_count() == before
        monkeypatch.setattr(np.random, "default_rng", default_rng)
        assert mc_weak_value(*args) == mc_weak_value(_callables(vf), *args[1:])
        assert len(threads) == 3

    def test_solve_exception_stops_the_drawer(self, monkeypatch, threads):
        # the summed solve fails on reading the second of eight blocks, with
        # the drawer still running
        vf, x0 = _constant_fields(1)
        args = (vf, lambda y: y[:, 0], x0, 0.7, 1.3, 4096, 64, 5)
        fgn_blocks = sde_module._fgn_blocks
        monkeypatch.setattr(sde_module, "_fgn_blocks",
                            _unreadable_block(fgn_blocks, 2, KeyError("solve failed")))
        before = threading.active_count()
        with pytest.raises(KeyError, match="solve failed"):
            mc_weak_value(*args)
        assert len(threads) == 1 and not threads[0].is_alive()
        assert threading.active_count() == before
        monkeypatch.setattr(sde_module, "_fgn_blocks", fgn_blocks)
        assert mc_weak_value(*args) == mc_weak_value(_callables(vf), *args[1:])

    def test_memory_error_in_a_block_is_a_usage_error(self, monkeypatch, threads,
                                                      capsys):
        # the Monte-Carlo reference runs out of memory on reading its second
        # block
        monkeypatch.setattr(sde_module, "_fgn_blocks",
                            _unreadable_block(sde_module._fgn_blocks, 2, MemoryError()))
        argv = ["sde", "compare", "--paths", "4096", "--steps", "64", "--no-timestamp"]
        assert cli_main(argv) == 2
        assert "--paths 4096 with --steps 64 needs more memory" in capsys.readouterr().err
        assert len(threads) == 1

    def test_import_starts_no_thread(self):
        code = ("import threading, fbmsig.cli; "
                "print(threading.active_count(), threading.enumerate())")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.startswith("1 ")

    def test_concurrent_calls_under_fast_switching(self, monkeypatch):
        # four calls at once, each with its drawer, on small blocks that hand
        # the buffers back and forth often; a block read while it is redrawn
        # would change an endpoint
        monkeypatch.setattr(ga, "_DRAW_BLOCK", 3 * 16)
        vf, x0 = _constant_fields(2)
        calls = [(vf, lambda y: y[:, 0], x0, 0.7, 1.3, 600, 16, seed)
                 for seed in range(4)]
        want = [mc_weak_value(_callables(vf), *args[1:]) for args in calls]
        got = [None] * len(calls)

        def run(i):
            got[i] = mc_weak_value(*calls[i])

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
        assert got == want


class TestSeriesLogSum:
    def test_logaddexp_is_numpys_double(self):
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.normal(0.0, 50.0, 4000), rng.uniform(-700, 700, 4000),
                            [0.0, 1.0, -1.0, 709.0, -745.0, 1e-300, 5e-324]])
        for shift in (0.0, 5e-324, 1e-12, 1e-3, 1.0, 36.0, 40.0, 800.0):
            for y in (x + shift, x - shift, x[::-1]):
                for a, b in zip(x.tolist(), y.tolist()):
                    assert _logaddexp(a, b) == np.logaddexp(a, b), (a, b)
        assert _logaddexp(3.0, 3.0) == np.logaddexp(3.0, 3.0) == 3.0 + math.log(2.0)

    @pytest.mark.parametrize("argv", [
        ["bounds", "--H", "0.501,0.55,0.75,0.861,0.9999", "--T", "0.5,1,2,7"],
        ["bounds", "--H", "0.6", "--T", "0.3,3", "--M", "2", "--gamma", "0.2"],
        ["sde", "compare", "--H", "0.7", "--T", "2", "--paths", "20", "--steps", "8"],
        ["sde", "compare", "--H", "0.55", "--T", "0.4", "--paths", "20", "--steps", "8",
         "--M", "3", "--gamma", "0.1"],
    ])
    def test_cli_prints_the_numpy_bound_values(self, capsys, monkeypatch, argv):
        def printed():
            assert cli_main(argv + ["--no-timestamp"]) == 0
            return capsys.readouterr().out

        ours = printed()
        monkeypatch.setattr(sde_module, "_logaddexp", lambda a, b: np.logaddexp(a, b))
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

