"""Acceptance suite: every criterion at its stated tolerance, one printed
PASS/FAIL line per criterion (run with -s to see them on success)."""
import itertools
import math
import time
from functools import lru_cache

import numpy as np
import pytest

from fbmsig.cli import _parse_words
from fbmsig.cubature import (
    formula_from_solution,
    solve_ansatz,
    system_residuals,
    three_path_formula,
    verify_formula,
)
from fbmsig.expected import (
    canonical_relabel,
    closed_form_table,
    closed_form_value,
    expected_word,
)
from fbmsig.gridapprox import (
    approx_expected_word,
    coefficient_bound_check,
    constant_A,
    constant_Atilde,
    convergence_slope,
    gap_rows,
    sample_fbm_batch,
)
from fbmsig.matchings import (
    decomposition_bijection_check,
    enumerate_matchings,
    permutation_count,
)
from fbmsig.sde import cubature_weak_value, mc_weak_value
from fbmsig.simplexquad import QuadConfig
from fbmsig.tensor import Word, batch_grid_signatures, word_index

H_TABLE = (0.6, 0.75, 0.9)


def report(n, name, ok, detail=""):
    print(f"ACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'} {detail}".rstrip())


@lru_cache(maxsize=None)
def cached_expected(letters: tuple, H: float) -> tuple:
    w = canonical_relabel(Word(letters, max(2, max(letters, default=1))))
    return tuple(expected_word(w, H, QuadConfig(tol=1e-6)))


def test_criterion_1_closed_form_table():
    t0 = time.perf_counter()
    table = closed_form_table()
    worst = 0.0
    for w, _ in _parse_words(";".join(table)):
        for H in H_TABLE:
            want = closed_form_value(w, H)
            got, _ = expected_word(w, H, QuadConfig(tol=1e-6))
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed <= 60.0
    report(1, "closed-form table", ok,
           f"entries={len(table)} H={H_TABLE} worst_abs_err={worst:.2e} "
           f"elapsed={elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed <= 60.0


def test_criterion_2_decay_bound():
    t0 = time.perf_counter()
    worst_margin = -math.inf
    worst_eq = 0.0
    count = 0
    for two_k in (2, 4, 6):
        k = two_k // 2
        bound = 1.0 / (math.factorial(k) * 2**k)
        for letters in itertools.product((1, 2), repeat=two_k):
            for H in H_TABLE:
                value, err = cached_expected(letters, H)
                count += 1
                worst_margin = max(worst_margin, value - bound)
                if len(set(letters)) == 1:
                    worst_eq = max(worst_eq, abs(value - bound))
    elapsed = time.perf_counter() - t0
    ok = worst_margin <= 1e-6 and worst_eq <= 1e-6
    report(2, "sharp decay bound", ok,
           f"words_checked={count} max(value-bound)={worst_margin:.2e} "
           f"single-letter worst |value-bound|={worst_eq:.2e} elapsed={elapsed:.1f}s")
    assert worst_margin <= 1e-6
    assert worst_eq <= 1e-6


M_LIST = (4, 8, 16, 32, 64)
RATE_WORDS = ((1, 2, 1, 2), (1, 1, 2, 2))
RATE_H = (0.6, 0.75)


@pytest.fixture(scope="module")
def slope_fits():
    out = {}
    t0 = time.perf_counter()
    for letters in RATE_WORDS:
        for H in RATE_H:
            out[(letters, H)] = convergence_slope(
                gap_rows(Word(letters, 2), H, M_LIST, QuadConfig(tol=1e-9))
            )
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_3_convergence_rate(slope_fits):
    t0 = time.perf_counter()
    zero_ok = all(
        g.gap <= 1e-14 for _, g in gap_rows(Word((1, 1), 2), 0.75, M_LIST)
    )
    lines = []
    all_ok = zero_ok
    for letters in RATE_WORDS:
        for H in RATE_H:
            fit = slope_fits[(letters, H)]
            ok = fit.ok and abs(fit.slope - (-2.0 * H)) <= 0.15
            all_ok &= ok
            lines.append(
                f"word={''.join(map(str, letters))} H={H} slope={fit.slope:+.3f} "
                f"target={-2 * H:+.2f}+-0.15 {'ok' if ok else 'OUT'}"
            )
    elapsed = slope_fits["elapsed"] + (time.perf_counter() - t0)
    report(3, "convergence rate 2H", all_ok,
           f"(1,1) gaps<=1e-14: {zero_ok}; " + "; ".join(lines)
           + f"; elapsed={elapsed:.1f}s")
    assert zero_ok
    assert elapsed <= 180.0
    bad = [
        (letters, H, slope_fits[(letters, H)].slope)
        for letters in RATE_WORDS
        for H in RATE_H
        if abs(slope_fits[(letters, H)].slope - (-2.0 * H)) > 0.15
    ]
    assert not bad, (
        "fitted slopes outside +-0.15 of -2H on m in {4..64}: "
        f"{bad}; the fitted window sits in the pre-asymptotic regime for the "
        "crossing word (local slopes keep steepening toward -2H as m grows)"
    )


def test_criterion_4_coefficient_bound(slope_fits):
    all_ok = True
    details = []
    for H in H_TABLE:
        a = constant_A(H)
        at = constant_Atilde(H)
        ident = abs(at.value - 8.0 * a.value * H * (2.0 * H - 1.0))
        id_ok = ident <= 1e-10 + at.error + 8.0 * H * (2.0 * H - 1.0) * a.error
        tail_ok = at.error <= 1e-8
        all_ok &= id_ok and tail_ok
        details.append(f"H={H}: Atilde={at.value:.6g}+-{at.error:.1e} ident_gap={ident:.1e}")
    for letters in RATE_WORDS:
        for H in RATE_H:
            w = Word(letters, 2)
            rep = coefficient_bound_check(w, H, gap_rows(w, H, M_LIST))
            all_ok &= rep.passed
            details.append(
                f"word={''.join(map(str, letters))} H={H} "
                f"max_m2H_gap={rep.max_scaled_gap:.3g} bound={rep.bound:.3g}"
            )
    report(4, "coefficient bound", all_ok, "; ".join(details))
    assert all_ok


def test_criterion_5_cubature():
    worst = 0.0
    all_pass = True
    for H in (0.50, 0.55, 0.60, 0.65):
        rep = verify_formula(three_path_formula(H), 5)
        worst = max(worst, rep.max_abs_err)
        all_pass &= rep.passed and rep.max_abs_err <= 1e-9
    for H in (0.70, 0.80, 0.90):
        rep = verify_formula(three_path_formula(H), 4)
        worst = max(worst, rep.max_abs_err)
        all_pass &= rep.passed and rep.max_abs_err <= 1e-9
    f = three_path_formula(0.5)
    slope = f.spatial[0, 1, 0] * 3.0
    slope_err = abs(slope - math.sqrt(3.0) * (2.0 - math.sqrt(5.5)))
    max_resid = 0.0
    for H in (0.50, 0.55, 0.60, 0.65, 0.70, 0.80, 0.90):
        for branch in ("minus", "plus"):
            res = system_residuals(solve_ansatz(H, branch))
            max_resid = max(max_resid, max(abs(r) for r in res))
    ok = all_pass and slope_err <= 1e-12 and max_resid <= 1e-10
    report(5, "cubature identity", ok,
           f"max_verify_err={worst:.2e} brownian_slope_err={slope_err:.2e} "
           f"max_system_residual={max_resid:.2e}")
    assert all_pass
    assert slope_err <= 1e-12
    assert max_resid <= 1e-10


def test_criterion_6_combinatorial_oracles():
    dfac = lambda n: math.prod(range(n, 1, -2))
    counts_ok = all(
        len(enumerate_matchings(2 * k)) == dfac(2 * k - 1) for k in range(1, 7)
    )
    inst_ok = (
        permutation_count(Word((1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6), 6))
        == math.factorial(6) * 2**6
        and permutation_count(Word((1, 1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5), 5))
        == (math.factorial(6) // 2) * 2**4 * math.factorial(4)
        and permutation_count(Word((1, 1, 1, 1, 1, 1, 2, 2, 3, 3, 4, 4), 4))
        == (math.factorial(6) // math.factorial(3)) * 2**3 * math.factorial(6)
    )
    bij_ok = all(decomposition_bijection_check(k) for k in range(1, 5))
    ok = counts_ok and inst_ok and bij_ok
    report(6, "combinatorial oracles", ok,
           f"matching_counts={counts_ok} instance_counts={inst_ok} bijection={bij_ok}")
    assert ok


def test_criterion_7_sde_weak_approximation():
    t0 = time.perf_counter()
    zero = lambda y: np.zeros_like(y)
    one = lambda y: np.ones_like(y)
    vf = (zero, one)
    x0 = 0.3
    H = 0.75
    cub = cubature_weak_value(
        vf, lambda y: y[..., 0] ** 2, [x0], three_path_formula(H), 1.0
    )
    cub_err = abs(cub - (x0**2 + 1.0))
    mc, se = mc_weak_value(
        vf, lambda y: y[:, 0] ** 2, [x0], H, 1.0, n_paths=10_000, n_steps=64, seed=321
    )
    mc_ok = abs(mc - (x0**2 + 1.0)) <= 4.0 * se
    cub4 = cubature_weak_value(
        vf, lambda y: y[..., 0] ** 2, [x0], three_path_formula(0.5), 4.0
    )
    cub4_err = abs(cub4 - (x0**2 + 4.0))
    elapsed = time.perf_counter() - t0
    ok = cub_err <= 1e-10 and mc_ok and cub4_err <= 1e-10 and elapsed <= 120.0
    report(7, "weak approximation", ok,
           f"|cub-(x0^2+1)|={cub_err:.2e} mc={mc:.4f}+-{se:.4f} "
           f"|cubT4-(x0^2+4)|={cub4_err:.2e} elapsed={elapsed:.1f}s")
    assert cub_err <= 1e-10
    assert mc_ok
    assert cub4_err <= 1e-10
    assert elapsed <= 120.0


# --- criterion 8: independent dense-grid brute force -----------------------


def _brute_level4_matching(pairs, H, G):
    """Midpoint tensor-grid value of the level-4 pair integral on the ordered
    simplex, via prefix sums (O(G^2) for each of the three pair shapes)."""
    mu = 2.0 * H - 2.0
    t = (np.arange(G) + 0.5) / G
    diff = np.abs(t[:, None] - t[None, :])
    np.fill_diagonal(diff, 1.0)
    K = diff**mu
    np.fill_diagonal(K, 0.0)
    shape = tuple(sorted(pairs))
    h4 = float(G) ** -4.0
    if shape == ((0, 1), (2, 3)):
        S1 = np.array([K[:j, j].sum() for j in range(G)])  # sum_{i<j} K[i,j]
        S2 = np.array([K[i, i + 1 :].sum() for i in range(G)])
        c = np.cumsum(S1)
        return h4 * sum(c[i3 - 1] * S2[i3] for i3 in range(1, G))
    if shape == ((0, 2), (1, 3)):
        P = np.cumsum(K, axis=0)
        Q = np.cumsum(K[:, ::-1], axis=1)[:, ::-1]
        total = 0.0
        for i2 in range(1, G - 2):
            i3s = np.arange(i2 + 1, G - 1)
            total += float(np.dot(P[i2 - 1, i3s], Q[i2, i3s + 1]))
        return h4 * total
    if shape == ((0, 3), (1, 2)):
        C1 = np.cumsum(K, axis=0)
        C2 = np.cumsum(C1[:, ::-1], axis=1)[:, ::-1]
        total = 0.0
        for i2 in range(1, G - 2):
            i3s = np.arange(i2 + 1, G - 1)
            total += float(np.dot(K[i2, i3s], C2[i2 - 1, i3s + 1]))
        return h4 * total
    raise ValueError(f"unexpected level-4 pair shape {shape}")


def _brute_expected_level4(letters, H, G):
    from fbmsig.matchings import compatible_matchings

    c2 = (H * (2.0 * H - 1.0)) ** 2
    return c2 * sum(
        _brute_level4_matching(m, H, G)
        for m in compatible_matchings(Word(letters, 2))
    )


def test_criterion_8_cross_oracle_equivalence():
    H = 0.75
    # (a) dense-grid brute force, Richardson-extrapolated across doublings
    grids = (512, 1024, 2048, 4096)
    orders = (2.0 * H - 1.0, 1.0, 1.5)
    worst = 0.0
    worst_consistency = 0.0
    for letters in ((1, 1, 1, 1), (1, 2, 1, 2), (1, 1, 2, 2), (1, 2, 2, 1)):
        vals = [_brute_expected_level4(letters, H, G) for G in grids]
        stages = [vals]
        for p in orders:
            r = 2.0**-p
            prev = stages[-1]
            stages.append([
                (prev[i + 1] - r * prev[i]) / (1.0 - r) for i in range(len(prev) - 1)
            ])
        extrap = stages[-1][-1]
        consistency = abs(stages[-1][-1] - stages[-2][-1])
        exact = expected_word(Word(letters, 2), H, QuadConfig(tol=1e-9)).value
        worst = max(worst, abs(extrap - exact))
        worst_consistency = max(worst_consistency, consistency)
    brute_ok = worst <= 1e-5
    # (b) Monte-Carlo signature means against the grid-approximation values
    m, n_total, chunk = 8, 120_000, 40_000
    words = ((1, 1), (1, 1, 2, 2), (1, 2, 1, 2), (1, 1, 1, 1))
    samples = {w: [] for w in words}
    for i in range(n_total // chunk):
        paths = sample_fbm_batch(H, m, 2, chunk, seed=5000 + i)
        lev = batch_grid_signatures(np.arange(m + 1) / m, paths, 4)
        for w in words:
            samples[w].append(lev[len(w)][:, word_index(w, 2)])
    mc_ok = True
    zs = []
    for w in words:
        vals = np.concatenate(samples[w])
        mean, se = vals.mean(), vals.std(ddof=1) / math.sqrt(len(vals))
        want = approx_expected_word(Word(w, 2), H, m)
        z = abs(mean - want) / se
        zs.append(f"{''.join(map(str, w))}: z={z:.2f}")
        mc_ok &= z <= 4.0
    ok = brute_ok and mc_ok
    report(8, "cross-oracle equivalence", ok,
           f"brute_vs_quadrature worst={worst:.2e} (<=1e-5, richardson "
           f"consistency {worst_consistency:.1e}); mc_vs_gridapprox {', '.join(zs)}")
    assert brute_ok
    assert mc_ok
