import math
import time

import numpy as np
import pytest

from fbmsig.cubature import rescale_formula, three_path_formula
from fbmsig.sde import (
    ErrorBoundParams,
    VectorFieldSet,
    cubature_weak_value,
    error_bound_shape,
    mc_weak_value,
    ode_along_path,
    run_compare,
    _entire_series,
)
from fbmsig.tensor import PiecewiseLinearPath

ZERO = lambda y: np.zeros_like(y)
ONE = lambda y: np.ones_like(y)


def time_only_path(T=1.0):
    return PiecewiseLinearPath.time_augmented([0.0, T], [0.0, 0.0])


class TestOdeAlongPath:
    def test_zero_fields_fixed_point(self):
        vf = VectorFieldSet(2, (ZERO, ZERO))
        p = three_path_formula(0.6).paths[0]
        out = ode_along_path(vf, [1.5, -2.0], p)
        np.testing.assert_allclose(out, [1.5, -2.0], atol=0)

    def test_constant_field_exact(self):
        vf = VectorFieldSet(1, (ZERO, ONE))
        p = three_path_formula(0.75).paths[0]
        out = ode_along_path(vf, [0.25], p, steps_per_piece=1)
        assert out[0] == pytest.approx(0.25 + math.sqrt(3.0), abs=1e-12)

    def test_linear_drift_exponential(self):
        vf = VectorFieldSet(1, (lambda y: y, ZERO))
        out = ode_along_path(vf, [1.0], time_only_path(), steps_per_piece=256)
        assert out[0] == pytest.approx(math.e, abs=1e-10)

    def test_fourth_order(self):
        vf = VectorFieldSet(1, (lambda y: y * (1.0 - y), ZERO))
        ref = ode_along_path(vf, [0.1], time_only_path(), steps_per_piece=512)[0]
        e8 = abs(ode_along_path(vf, [0.1], time_only_path(), steps_per_piece=8)[0] - ref)
        e16 = abs(ode_along_path(vf, [0.1], time_only_path(), steps_per_piece=16)[0] - ref)
        assert e8 / e16 >= 12.0

    def test_nonfinite_aborts(self):
        vf = VectorFieldSet(1, (lambda y: y * y, ZERO))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="non-finite"):
                ode_along_path(vf, [50.0], time_only_path(), steps_per_piece=64)

    def test_field_count_checked(self):
        vf = VectorFieldSet(1, (ZERO, ZERO, ZERO))
        with pytest.raises(ValueError):
            ode_along_path(vf, [0.0], time_only_path())


class TestCubatureWeakValue:
    def test_odd_observable_cancels(self):
        vf = VectorFieldSet(1, (ZERO, ONE))
        val = cubature_weak_value(
            vf, lambda y: y[0], [0.7], three_path_formula(0.8), 1.0, 0.8
        )
        assert val == pytest.approx(0.7, abs=1e-13)

    @pytest.mark.parametrize("H", (0.5, 0.6, 0.75))
    def test_quadratic_exact(self, H):
        vf = VectorFieldSet(1, (ZERO, ONE))
        x0 = 0.3
        val = cubature_weak_value(
            vf, lambda y: y[0] ** 2, [x0], three_path_formula(H), 1.0, H
        )
        assert val == pytest.approx(x0**2 + 1.0, abs=1e-10)

    def test_quadratic_rescaled(self):
        vf = VectorFieldSet(1, (ZERO, ONE))
        x0 = 0.3
        val = cubature_weak_value(
            vf, lambda y: y[0] ** 2, [x0], three_path_formula(0.5), 4.0, 0.5
        )
        assert val == pytest.approx(x0**2 + 4.0, abs=1e-10)

    @pytest.mark.parametrize("H", (0.55, 0.7, 0.9))
    def test_batch_equals_per_path_solves(self, H):
        # the paths are solved as one batch; the value must be bit-identical
        # to the in-order weighted sum of one solve per path
        vf = VectorFieldSet(1, (lambda y: -0.5 * y, lambda y: 1.0 + 0.2 * y - 0.1 * y * y))
        f = lambda y: y[0] ** 3 + y[0]
        formula, T, x0 = three_path_formula(H), 1.7, [0.4]
        want = 0.0
        resc = rescale_formula(formula, T, H)
        for lam, p in zip(resc.weights, resc.paths):
            want += lam * float(f(ode_along_path(vf, x0, p, steps_per_piece=64)))
        assert cubature_weak_value(vf, f, x0, formula, T, H) == want


class TestMcWeakValue:
    def test_zero_fields(self):
        vf = VectorFieldSet(1, (ZERO, ZERO))
        est, se = mc_weak_value(
            vf, lambda y: y[:, 0], [1.25], 0.75, 1.0, n_paths=64, n_steps=8, seed=3
        )
        assert est == 1.25
        assert se == 0.0

    def test_quadratic_within_four_stderr(self):
        vf = VectorFieldSet(1, (ZERO, ONE))
        x0, H, T = 0.3, 0.75, 1.0
        est, se = mc_weak_value(
            vf, lambda y: y[:, 0] ** 2, [x0], H, T, n_paths=10_000, n_steps=64, seed=7
        )
        assert abs(est - (x0**2 + T ** (2 * H))) <= 4.0 * se

    def test_agrees_with_cubature(self):
        vf = VectorFieldSet(1, (ZERO, ONE))
        H = 0.75
        cub = cubature_weak_value(
            vf, lambda y: y[0] ** 2, [0.5], three_path_formula(H), 1.0, H
        )
        est, se = mc_weak_value(
            vf, lambda y: y[:, 0] ** 2, [0.5], H, 1.0, n_paths=10_000, n_steps=64, seed=11
        )
        assert abs(est - cub) <= 4.0 * se

    def test_seed_reproducible(self):
        vf = VectorFieldSet(1, (ZERO, ONE))
        args = (vf, lambda y: y[:, 0] ** 2, [0.1], 0.8, 1.0)
        a = mc_weak_value(*args, n_paths=500, n_steps=16, seed=42)
        b = mc_weak_value(*args, n_paths=500, n_steps=16, seed=42)
        assert a == b

    def test_steps_per_piece_checked(self):
        vf = VectorFieldSet(1, (ZERO, ONE))
        with pytest.raises(ValueError, match="steps_per_piece"):
            mc_weak_value(vf, lambda y: y[:, 0], [0.0], 0.75, 1.0, 10, 4, seed=0,
                          steps_per_piece=0)

    def test_requires_young_regime(self):
        vf = VectorFieldSet(1, (ZERO, ONE))
        with pytest.raises(ValueError):
            mc_weak_value(vf, lambda y: y[:, 0], [0.0], 0.5, 1.0, 10, 4, seed=0)

    @pytest.mark.parametrize("n_paths", [0, 1])
    def test_refuses_fewer_than_two_paths(self, n_paths):
        # one path has no sample variance: a zero error bar would be a lie
        vf = VectorFieldSet(1, (ZERO, ONE))
        with pytest.raises(ValueError, match="n_paths"):
            mc_weak_value(vf, lambda y: y[:, 0], [0.0], 0.75, 1.0, n_paths, 4, seed=0)


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


class TestRunCompare:
    def test_report_fields(self):
        vf = VectorFieldSet(1, (ZERO, ONE))
        rep = run_compare(
            vf, lambda y: y[..., 0] ** 2, [0.0], three_path_formula(0.75),
            H=0.75, T=1.0, n_paths=400, n_steps=16, seed=9,
        )
        assert rep.cubature_value == pytest.approx(1.0, abs=1e-10)
        assert abs(rep.mc_value - 1.0) <= 5 * rep.mc_stderr
        assert rep.bound_branch == "T>=1"
        assert rep.elapsed_s >= 0.0
