"""Acceptance gate: one test per shipped guarantee, run in order.

Each criterion prints a single PASS/FAIL line (visible with -s or in the -v
test listing) and then asserts.  Monte Carlo criteria use fixed seeds and
3-standard-error slack; algebraic criteria use the stated tolerances.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm

from chaoskit import (
    ExperimentConfig,
    IncrementStream,
    add,
    binned_residual_estimate,
    chaos_expansion,
    char_fn_estimates,
    constant,
    cross_gamma,
    diagonal_second_chaos,
    diagonal_summands,
    evaluate_batch,
    evaluate_samples,
    fourth_cumulant,
    gamma,
    gamma_residual,
    inner_product,
    kernel_norm,
    kolmogorov_distance_mc,
    make_grid,
    multiply,
    run_experiment,
    sample_increments_block,
    second_moment,
    single_chaos,
    stein_estimates,
    step_kernel,
    stein_solution,
    strongly_independent,
    symmetrize,
)
from oracles import batch_fourth_cumulant_se, batch_mean_se

ACCEPT_START = time.perf_counter()

MAX_SUITE_SECONDS = 300.0


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def _left_half(n: int, c: float):
    """The diagonal second-chaos element with E[X^2] = c on the left n cells of a 2n grid."""
    return diagonal_second_chaos(make_grid(2 * n), range(n), c)


def _with_residual(x, c: float, n_samples: int, stream):
    """Samples of X and of c - <DX, D(-L)^{-1} X> on the same paths."""
    x_vals, g_vals = evaluate_samples([x, gamma(x)], n_samples, stream)
    return x_vals, c - g_vals


def _sym_kernel(rng, grid, order):
    vals = rng.uniform(-1.0, 1.0, (grid.m,) * order)
    return symmetrize(step_kernel(grid, order, vals))


def _random_expansion(rng, grid, orders):
    slots = [None] * (max(orders) + 1)
    for n in orders:
        slots[n] = _sym_kernel(rng, grid, n)
    return chaos_expansion(grid, slots)


def _disjoint_couple(rng, m, orders_x, orders_y):
    """Expansions supported on the left and right halves of an m-cell grid."""
    half = m // 2
    g = make_grid(m)

    def _half_kernel(order, lo, hi):
        vals = np.zeros((m,) * order)
        vals[(slice(lo, hi),) * order] = rng.uniform(-1.0, 1.0, (hi - lo,) * order)
        return symmetrize(step_kernel(g, order, vals))

    slots_x = [None] * (max(orders_x) + 1)
    for n in orders_x:
        slots_x[n] = _half_kernel(n, 0, half)
    slots_y = [None] * (max(orders_y) + 1)
    for n in orders_y:
        slots_y[n] = _half_kernel(n, half, m)
    return chaos_expansion(g, slots_x), chaos_expansion(g, slots_y)


def test_criterion_01_isometry():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    n_samples = 100_000
    worst_same = 0.0
    worst_cross = 0.0
    for i in range(20):
        order = 1 + i % 3
        m = (4, 6, 8)[i % 3]
        g = make_grid(m)
        f = _sym_kernel(rng, g, order)
        h = _sym_kernel(rng, g, order)
        other = _sym_kernel(rng, g, 1 + (order % 3))
        x, y, w = single_chaos(f), single_chaos(h), single_chaos(other)
        xs, ys, ws = evaluate_samples(
            [x, y, w], n_samples, IncrementStream(seed=500 + i)
        )
        want = math.factorial(order) * inner_product(f, h)
        mean, se = batch_mean_se(xs * ys)
        worst_same = max(worst_same, abs(mean - want) / (3 * se))
        mean_c, se_c = batch_mean_se(xs * ws)  # differing orders: product mean 0
        worst_cross = max(worst_cross, abs(mean_c) / (3 * se_c))
    elapsed = time.perf_counter() - t0
    ok = worst_same <= 1.0 and worst_cross <= 1.0 and elapsed < 30.0
    _report(
        1,
        "isometry",
        ok,
        f"20 pairs, worst same-order dev {worst_same:.2f} x 3se, "
        f"worst cross-order dev {worst_cross:.2f} x 3se, {elapsed:.1f}s",
    )


def test_criterion_02_product_formula():
    rng = np.random.default_rng(102)
    worst = 0.0
    for i in range(5):
        m = (4, 6, 8, 6, 8)[i]
        g = make_grid(m)
        x = _random_expansion(rng, g, [1, 2] if i % 2 else [1, 3])
        y = _random_expansion(rng, g, [2, 3] if i % 2 else [1, 2])
        p = multiply(x, y)
        xi = sample_increments_block(g, IncrementStream(seed=600 + i), 0, 1000)
        xv, yv, pv = (evaluate_batch(e, xi) for e in (x, y, p))
        rel = np.max(np.abs(pv - xv * yv) / (1.0 + np.abs(xv * yv)))
        worst = max(worst, float(rel))
    ok = worst <= 1e-9
    _report(2, "product formula", ok, f"worst pathwise rel error {worst:.2e} over 5x1000 paths")


def test_criterion_03_gamma_identities():
    rng = np.random.default_rng(103)
    worst_mean = 0.0
    worst_kernel = 0.0
    for _ in range(10):
        g = make_grid(5)
        x = _random_expansion(rng, g, [1, 2, 3])
        y = _random_expansion(rng, g, [1, 2])
        gap = abs(gamma(x).expectation - second_moment(x)) / second_moment(x)
        worst_mean = max(worst_mean, gap)
        whole = gamma(add(x, y))
        parts = add(
            add(gamma(x), gamma(y)), add(cross_gamma(x, y), cross_gamma(y, x))
        )
        for n in set(whole.nonzero_orders()) | set(parts.nonzero_orders()):
            wk = whole.kernel(n)
            pk = parts.kernel(n)
            wv = wk.values if wk is not None else 0.0
            pv = pk.values if pk is not None else 0.0
            worst_kernel = max(worst_kernel, float(np.max(np.abs(wv - pv))))
    ok = worst_mean <= 1e-12 and worst_kernel <= 1e-10
    _report(
        3,
        "Gamma identities",
        ok,
        f"worst E[G]=E[X^2] rel gap {worst_mean:.2e}, "
        f"worst decomposition kernel gap {worst_kernel:.2e}",
    )


def test_criterion_04_disjoint_cross_terms():
    rng = np.random.default_rng(104)
    worst_cross = 0.0
    all_strong = True
    for orders_x, orders_y, m in [([1, 2], [1, 2], 6), ([2], [3], 6), ([1, 3], [2], 8)]:
        x, y = _disjoint_couple(rng, m, orders_x, orders_y)
        for a, b in ((x, y), (y, x)):
            cg = cross_gamma(a, b)
            for n in cg.nonzero_orders():
                worst_cross = max(worst_cross, kernel_norm(cg.kernels[n]))
            if cg.expectation != 0.0:
                worst_cross = max(worst_cross, abs(cg.expectation))
        res = strongly_independent(gamma(x), gamma(y))
        all_strong = all_strong and res.independent and res.worst_norm == 0.0
    ok = worst_cross <= 1e-12 and all_strong
    _report(
        4,
        "disjoint couples",
        ok,
        f"worst cross-Gamma kernel norm {worst_cross:.2e}, "
        f"Gamma couples strongly independent: {all_strong}",
    )


def test_criterion_05_residual_additivity():
    c1 = c2 = 0.5
    schedule = (4, 16, 64, 256)
    worst_gap = 0.0
    constants = []
    for n in schedule:
        x, y = diagonal_summands(n, (c1, c2))
        s = add(x, y)
        res_x = gamma_residual(x, c1)
        res_y = gamma_residual(y, c2)
        res_sum = gamma_residual(s, 1.0)
        worst_gap = max(worst_gap, abs(res_sum - res_x - res_y) / res_sum)
        constants.append(res_sum * n)
    const_spread = (max(constants) - min(constants)) / max(constants)
    # brute-force oracle at n = 4: sample (1 - Gamma(X+Y))^2 directly
    x, y = diagonal_summands(4, (c1, c2))
    s = add(x, y)
    (g_vals,) = evaluate_samples([gamma(s)], 100_000, IncrementStream(seed=105))
    mc, se = batch_mean_se((1.0 - g_vals) ** 2)
    exact4 = gamma_residual(s, 1.0)
    mc_dev = abs(mc - exact4) / (3 * se)
    ok = worst_gap <= 1e-10 and const_spread <= 1e-10 and mc_dev <= 1.0
    _report(
        5,
        "residual additivity",
        ok,
        f"worst additivity rel gap {worst_gap:.2e}, n*residual spread {const_spread:.2e}, "
        f"n=4 MC oracle dev {mc_dev:.2f} x 3se",
    )


def test_criterion_06_fourth_cumulants():
    rng = np.random.default_rng(106)
    min_k4 = float("inf")
    for i in range(50):
        order = 2 + i % 3
        m = (3, 4, 5, 6)[i % 4]
        x = single_chaos(_sym_kernel(rng, make_grid(m), order))
        min_k4 = min(min_k4, fourth_cumulant(x))
    # disjoint additivity: same-order pair stays in one chaos, mixed-order
    # pair exercises the general product route
    worst_add = 0.0
    for orders_x, orders_y in (([2], [2]), ([2], [3])):
        x, y = _disjoint_couple(rng, 6, orders_x, orders_y)
        total = fourth_cumulant(add(x, y))
        parts = fourth_cumulant(x) + fourth_cumulant(y)
        worst_add = max(worst_add, abs(total - parts) / max(1.0, abs(parts)))
    c = 0.5
    worst_family = 0.0
    for n in (4, 16, 64, 256):
        x = _left_half(n, c)
        want = 12.0 * c * c / n
        worst_family = max(worst_family, abs(fourth_cumulant(x) - want) / want)
    # MC oracle for the closed form at n = 4
    x4 = _left_half(4, c)
    (vals,) = evaluate_samples([x4], 1_000_000, IncrementStream(seed=107))
    est, se = batch_fourth_cumulant_se(vals)
    mc_dev = abs(est - 12.0 * c * c / 4.0) / (3 * se)
    ok = (
        min_k4 >= -1e-10
        and worst_add <= 1e-10
        and worst_family <= 1e-10
        and mc_dev <= 1.0
    )
    _report(
        6,
        "fourth cumulants",
        ok,
        f"min k4 {min_k4:.2e} over 50 kernels, worst additivity gap {worst_add:.2e}, "
        f"worst family rel err {worst_family:.2e}, n=4 MC oracle dev {mc_dev:.2f} x 3se",
    )


def test_criterion_07_kolmogorov_bound():
    worst_margin = -float("inf")
    details = []
    for n in (12, 48, 192):
        x = _left_half(n, 1.0)
        (vals,) = evaluate_samples([x], 100_000, IncrementStream(seed=108, stream_id=n))
        d = kolmogorov_distance_mc(vals, second_moment(x))
        bound = math.sqrt(12.0 / n) + 0.02
        worst_margin = max(worst_margin, d - bound)
        details.append(f"n={n}: d={d:.4f} vs {bound:.4f}")
    ok = worst_margin <= 0.0
    _report(7, "Kolmogorov bound", ok, "; ".join(details))


def test_criterion_08_stein_machinery():
    xs = np.linspace(-8.0, 8.0, 2001)
    worst_ode = 0.0
    worst_fd = 0.0
    h = 1e-5
    for z in (-2.0, -0.5, 0.0, 1.0, 2.0):
        f, fp = stein_solution(z, xs)
        resid = fp - xs * f - ((xs <= z).astype(float) - norm.cdf(z))
        worst_ode = max(worst_ode, float(np.max(np.abs(resid))))
        keep = np.abs(xs - z) > 1e-3
        xk = xs[keep]
        _, fpk = stein_solution(z, xk)
        fu, _ = stein_solution(z, xk + h)
        fl, _ = stein_solution(z, xk - h)
        worst_fd = max(worst_fd, float(np.max(np.abs(fpk - (fu - fl) / (2 * h)))))

    def integrand(w):
        return ((w <= 0.0) - 0.5) * math.exp(-w * w / 2.0)

    quad_val, _ = quad(integrand, -12.0, 0.0, limit=200, epsabs=1e-12, epsrel=1e-12)
    f00, _ = stein_solution(0.0, 0.0)
    quad_gap = abs(f00 - quad_val)  # e^{0/2} = 1
    ok = worst_ode <= 1e-10 and worst_fd <= 1e-6 and quad_gap <= 1e-8
    _report(
        8,
        "Stein machinery",
        ok,
        f"worst ODE residual {worst_ode:.2e}, worst FD gap {worst_fd:.2e}, "
        f"f_0(0) quadrature gap {quad_gap:.2e}",
    )


def test_criterion_09_criterion_monotonicity():
    t_grid = (0.5, 1.0, 2.0)
    z_grid = (-1.0, 0.0, 1.0)
    schedule = (4, 16, 64)
    char_by_t: dict = {t: [] for t in t_grid}
    stein_by_z: dict = {z: [] for z in z_grid}
    conditional = []
    final_ses = []
    for n in schedule:
        x = _left_half(n, 1.0)
        x_vals, resid = _with_residual(x, 1.0, 100_000, IncrementStream(seed=109, stream_id=n))
        char = char_fn_estimates(x_vals, resid, t_grid)
        stein = stein_estimates(x_vals, resid, z_grid)
        for est in char:
            char_by_t[est.parameter].append(est.value)
        for est in stein:
            stein_by_z[est.parameter].append(abs(est.value))
        x_vals, resid = _with_residual(x, 1.0, 100_000, IncrementStream(seed=110, stream_id=n))
        cond = binned_residual_estimate(x_vals, resid, 32)
        conditional.append(cond.value)
        if n == schedule[-1]:
            final_ses = (
                [e.std_error for e in char]
                + [e.std_error for e in stein]
                + [cond.std_error]
            )
            finals = (
                [e.value for e in char]
                + [abs(e.value) for e in stein]
                + [cond.value]
            )
    monotone = all(
        seq[0] >= seq[1] >= seq[2]
        for seq in list(char_by_t.values()) + list(stein_by_z.values()) + [conditional]
    )
    envelope = math.sqrt(12.0 / 64.0)
    within = all(v <= envelope + 3 * se for v, se in zip(finals, final_ses))
    # the exactly normal case: first-chaos X with matched variance
    g = make_grid(4)
    f = step_kernel(g, 1, np.ones(4))
    x1 = single_chaos(f)
    c = inner_product(f, f)
    x_vals, resid = _with_residual(x1, c, 2000, IncrementStream(seed=111))
    exact = char_fn_estimates(x_vals, resid, t_grid) + stein_estimates(x_vals, resid, z_grid)
    x_vals, resid = _with_residual(x1, c, 2000, IncrementStream(seed=112))
    cond_exact = binned_residual_estimate(x_vals, resid, 8)
    zeros = all(e.value == 0.0 for e in exact) and cond_exact.value == 0.0
    ok = monotone and within and zeros
    _report(
        9,
        "criterion functionals",
        ok,
        f"monotone over n={schedule}: {monotone}, final values within "
        f"sqrt(12/64)+3se: {within}, exact-normal zeros: {zeros}",
    )


def test_criterion_10_counterexample():
    cfg = ExperimentConfig(
        experiment="counterexample", path_steps=1000, mc_samples=100_000, seed=113,
    )
    report = run_experiment(cfg)
    (rec,) = report.records
    m = rec["mc"]
    checks = {
        "var_x": abs(m["var_x"] - 1.0) <= 0.02,
        "var_y": abs(m["var_y"] - 1.0) <= 0.02,
        "corr": abs(m["corr_xy"]) <= 0.02,
        "proj_x": abs(m["proj_x"] - 0.5) <= 0.02,
        "proj_y": abs(m["proj_y"] - 0.5) <= 0.02,
        "dkol_sum": m["dkol_scaled_sum"] <= 0.02,
    }
    stable = run_experiment(cfg).records == report.records
    ok = all(checks.values()) and stable
    _report(
        10,
        "counterexample",
        ok,
        f"var=({m['var_x']:.3f},{m['var_y']:.3f}), corr={m['corr_xy']:+.4f}, "
        f"proj=({m['proj_x']:.3f},{m['proj_y']:.3f}), dkol_sum={m['dkol_scaled_sum']:.4f}, "
        f"seed-stable: {stable}",
    )


def test_criterion_11_determinism():
    cfg = ExperimentConfig(
        experiment="decouple", n_schedule=(4, 16), mc_samples=10_000, seed=114,
        t_grid=(1.0,), z_grid=(0.0,), n_bins=8,
    )
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    reports_equal = r1.records == r2.records and r1.config == r2.config
    r4 = run_experiment(cfg, workers=4)
    workers_equal = r4.records == r1.records
    # concurrent block fetches agree with serial draws
    from concurrent.futures import ThreadPoolExecutor

    stream = IncrementStream(seed=115)
    serial = stream.standard_normal_block(8, 0, 10_000)
    chunks = [(s, 500) for s in range(0, 10_000, 500)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parts = list(
            pool.map(lambda c: stream.standard_normal_block(8, c[0], c[1]), reversed(chunks))
        )
    threaded = np.concatenate(list(reversed(parts)), axis=0)
    streams_equal = np.array_equal(serial, threaded)
    ok = reports_equal and workers_equal and streams_equal
    _report(
        11,
        "determinism",
        ok,
        f"rerun identical: {reports_equal}, workers invariant: {workers_equal}, "
        f"concurrent stream identical: {streams_equal}",
    )


def test_criterion_12_suite_runtime():
    elapsed = time.perf_counter() - ACCEPT_START
    ok = elapsed < MAX_SUITE_SECONDS
    _report(12, "suite runtime", ok, f"{elapsed:.1f}s < {MAX_SUITE_SECONDS:.0f}s")
