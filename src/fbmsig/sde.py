"""Weak approximation of fBm-driven SDEs: ODE solves along cubature paths,
a Monte-Carlo reference driven through the same integrator, and the shape of
the theoretical error bound.

The SDE dxi = sum_i V_i(xi) dB-hat^i (B-hat = time-augmented driver) is
approximated by sum_j lambda_j f(solution of dy = sum_i V_i(y) d omega-hat_j).
Both sides run through one batched piecewise-linear-driver integrator, so
comparisons isolate the choice of measure rather than the discretization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .cubature import CubatureFormula, rescale_formula
from .expected import check_hurst
from .gridapprox import sample_fbm_batch
from .tensor import PiecewiseLinearPath

__all__ = [
    "VectorFieldSet",
    "ErrorBoundParams",
    "BoundShape",
    "ode_along_path",
    "cubature_weak_value",
    "mc_weak_value",
    "error_bound_shape",
]

# RK4 steps per linear piece of the three cubature paths (three pieces each)
CUBATURE_STEPS_PER_PIECE = 64


@dataclass(frozen=True)
class VectorFieldSet:
    """The driving vector fields V_0, ..., V_d on R^N.

    Each field maps arrays of shape (..., N) to the same shape, so solves can
    be batched across Monte-Carlo paths.  Field 0 multiplies the time
    coordinate of the driver.
    """

    dimension: int
    fields: tuple[Callable[[np.ndarray], np.ndarray], ...]

    def __post_init__(self):
        if self.dimension < 1 or len(self.fields) < 2:
            raise ValueError("need dimension >= 1 and at least fields (V_0, V_1)")

    @property
    def d(self) -> int:
        return len(self.fields) - 1


def _rk4_piece(vf: VectorFieldSet, y: np.ndarray, slopes: np.ndarray, dt: float,
               steps: int) -> np.ndarray:
    """Classical one-step order-4 integration of dy = sum slopes_i V_i(y) over
    a single linear piece (the driver derivative is constant there)."""

    def g(state):
        acc = slopes[..., 0, None] * vf.fields[0](state)
        for i in range(1, len(vf.fields)):
            acc = acc + slopes[..., i, None] * vf.fields[i](state)
        return acc

    h = dt / steps
    for _ in range(steps):
        k1 = g(y)
        k2 = g(y + 0.5 * h * k1)
        k3 = g(y + 0.5 * h * k2)
        k4 = g(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def _solve(vf: VectorFieldSet, x0, times: np.ndarray, spatial: np.ndarray,
           steps_per_piece: int) -> np.ndarray:
    """Endpoints (B, N) of dy = V_0(y) dt + sum_i V_i(y) d omega^i along B
    piecewise-linear drivers that share the breakpoints `times`; `spatial`
    holds their spatial values, shape (B, len(times), d).

    Doubling steps_per_piece shrinks the error by ~16x (order 4).  Non-finite
    states abort, naming the time reached, rather than propagating silently.
    """
    if steps_per_piece < 1:
        raise ValueError("steps_per_piece must be >= 1")
    n_paths, _, d = spatial.shape
    if len(vf.fields) != d + 1:
        raise ValueError(
            f"path has {d} spatial coordinates but {len(vf.fields) - 1} "
            "spatial fields were supplied"
        )
    y = np.broadcast_to(np.asarray(x0, dtype=float), (n_paths, vf.dimension)).copy()
    for j in range(len(times) - 1):
        dt = times[j + 1] - times[j]
        slopes = np.empty((n_paths, d + 1))
        slopes[:, 0] = 1.0
        slopes[:, 1:] = (spatial[:, j + 1, :] - spatial[:, j, :]) / dt
        y = _rk4_piece(vf, y, slopes, dt, steps_per_piece)
        if not np.all(np.isfinite(y)):
            raise RuntimeError(f"non-finite state at t={times[j + 1]:g}")
    return y


def ode_along_path(
    vf: VectorFieldSet,
    x0,
    path: PiecewiseLinearPath,
    steps_per_piece: int = 32,
) -> np.ndarray:
    """Solve dy = sum_i V_i(y) d omega-hat^i along one piecewise-linear driver."""
    return _solve(vf, x0, np.asarray(path.times), path.values[None, :, 1:],
                  steps_per_piece)[0]


def cubature_weak_value(
    vf: VectorFieldSet,
    f: Callable[[np.ndarray], float],
    x0,
    formula: CubatureFormula,
    T: float,
) -> float:
    """Weighted combination sum_j lambda_j f(endpoint of the ODE along the
    rescaled cubature path omega_j); the paths are solved as one batch."""
    resc = rescale_formula(formula, T)
    spatial = np.stack([p.values[:, 1:] for p in resc.paths])
    ends = _solve(vf, x0, np.asarray(resc.paths[0].times), spatial,
                  CUBATURE_STEPS_PER_PIECE)
    total = 0.0
    for lam, y in zip(resc.weights, ends):
        total += lam * float(f(y))
    return total


def mc_weak_value(
    vf: VectorFieldSet,
    f: Callable[[np.ndarray], np.ndarray],
    x0,
    H: float,
    T: float,
    n_paths: int,
    n_steps: int,
    seed: int,
    steps_per_piece: int = 4,
) -> tuple[float, float]:
    """Monte-Carlo reference: drive the same integrator along sampled fBm
    paths (piecewise-linear interpolation on the n_steps grid of [0, T]).

    Returns (estimate, standard error); deterministic in the seed.  Requires
    H > 1/2 (pathwise Young regime) and n_paths >= 2, since one path gives no
    standard error.  f must accept batched states (B, N).  The standard
    error is NaN when f is non-finite on some path.
    """
    check_hurst(H)
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2 for a standard error, got {n_paths}")
    spatial = sample_fbm_batch(H, n_steps, vf.d, n_paths, seed, T)  # (B, m+1, d)
    times = np.arange(n_steps + 1) * (T / n_steps)
    y = _solve(vf, x0, times, spatial, steps_per_piece)
    vals = np.asarray(f(y), dtype=float).reshape(n_paths)
    if not np.all(np.isfinite(vals)):
        return float(vals.mean()), math.nan
    # std squares the deviations, which underflow or overflow far inside the
    # double range; scaling by a power of two first is exact and avoids both
    _, e = np.frexp(np.max(np.abs(vals)))
    se = np.ldexp(vals, -e).std(ddof=1) / math.sqrt(n_paths)
    return float(vals.mean()), float(np.ldexp(se, e))


# ---------------------------------------------------------------------------
# error-bound shape
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorBoundParams:
    """Inputs of the weak-approximation error bound; K is derived from H."""

    M: float
    gamma: float
    d: int
    degree: int
    H: float

    def __post_init__(self):
        if not 0.0 < self.M < math.inf:
            raise ValueError(f"M must be positive and finite, got {self.M}")
        if not 0.0 <= self.gamma < 0.5:
            raise ValueError("gamma must lie in [0, 1/2)")
        if self.degree < 0:
            raise ValueError(f"cubature degree must be >= 0, got {self.degree}")
        check_hurst(self.H)

    @property
    def K(self) -> float:
        return math.sqrt(2.0 / (self.H * (2.0 * self.H - 1.0)))


class BoundShape(NamedTuple):
    value: float
    branch: str


def _entire_series(z: float, gamma: float) -> float:
    """sum_k z^k / (k!)^(1/2 - gamma); converges for every z when gamma < 1/2.

    Summed in log space (terms peak near k = z^(1/(1/2-gamma)) and can dwarf
    the float range); a value beyond double precision comes back as inf.
    """
    if z <= 0.0:
        return 1.0
    power = 0.5 - gamma
    logz = math.log(z)
    total_log = 0.0  # log of the k = 0 term
    k = 0
    while True:
        k += 1
        logt = k * logz - power * math.lgamma(k + 1)
        total_log = np.logaddexp(total_log, logt)
        if total_log >= 709.0:
            return math.inf  # the log-sum never decreases
        if z / k**power < 1.0 and logt < total_log - 40.0:
            break
        if k > 5_000_000:
            raise RuntimeError("series failed to converge (gamma too close to 1/2?)")
    return math.exp(total_log)


def error_bound_shape(params: ErrorBoundParams, T: float) -> BoundShape:
    """Evaluate the error bound's shape with all unknown prefactors set to 1.

    T >= 1 branch:  T^((m+2)/2) (1 + M^((m+2)/2) S(d M K T))
    T < 1 branch:   T^(2H) + T^(H(m+2)/2) M^((m+2)/2) S(d M K T^H)
    where S is the entire series above.  A value beyond double precision
    comes back as inf.  Diagnostic output only: the true constants are
    unknown, so this is never a pass/fail oracle.
    """
    if not 0.0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T}")
    m2 = 0.5 * (params.degree + 2.0)
    try:
        if T >= 1.0:
            s = _entire_series(params.d * params.M * params.K * T, params.gamma)
            value = T**m2 * (1.0 + params.M**m2 * s)
        else:
            s = _entire_series(params.d * params.M * params.K * T**params.H, params.gamma)
            value = T ** (2.0 * params.H) + T ** (params.H * m2) * params.M**m2 * s
    except OverflowError:  # float ** raises here instead of returning inf
        value = math.inf
    return BoundShape(value, "T>=1" if T >= 1.0 else "T<1")
