"""Independent oracles used to validate the library.

The Monte Carlo oracles deliberately avoid the library's algebraic paths:
they work on raw sample arrays and report batch-mean standard errors, so a
closed-form value can be checked against simulation before the algebra is
trusted.

The reference evaluator is the straightforward per-expansion form of the
pathwise evaluator, with its own per-term plan builder (`_build_plan`, which
collects cell multisets by sorting every nonzero index tuple).  It sums a
one-factor term group in one pass over all its terms, summing before it
multiplies when they carry one coefficient, and a multi-factor term group
one prefix (the leading cells of its terms) at a time, in plain loops.  The
library's evaluator must reproduce it bit for bit.  The earlier
1024-term slab rule for every group stays as
`evaluate_batch_terms_reference`, which the library matches to rounding.

The reference symmetrizer is the earlier order >= 3 orbit-mean pass: it
builds every position's orbit key by divmod into index digits and a sort of
each digit column, and groups with `bincount`; at order 2 it is the mean of
the values and their transpose.  The library's `symmetrize` must reproduce
it bit for bit.

The reference dense kernel algebra (`contract_reference`,
`linear_combine_reference`, `is_symmetric_reference`) is the earlier
whole-array arithmetic: a scaled copy of the tensordot result, a full-size
b * g beside a * f, and the largest gap taken over a whole difference
array.  The library, which scales in place and works the rest a band at a
time, must reproduce it bit for bit.

The reference fourth cumulant is the earlier two-branch route: contraction
norms for a single order and E[X^4] - 3 E[X^2]^2 through `multiply(x, x)` for
mixed orders, which forms order-2N kernels.

The reference k-way runner builds each decouple (k = 2) and three_way
(k = 3) record from the public primitives, one per-summand list entry at a
time, with its own per-parameter estimators; it spreads decouple's two-entry
lists into `_x`/`_y` keys itself, and builds each record's exact
`independence` list pair by pair from the public strongly_independent,
cross_gamma and second_moment.  The library's runner must reproduce its
records byte for byte.

The reference counterexample simulation walks each path one Euler step at a
time over the same (index, path_steps/2 + 1) normal table the library reads.
Its sum order differs from the library's, so it agrees to rounding only; the
block reference does the library's array arithmetic on each whole
BLOCK_SIZE block, so the library, which walks a block in chunks, must
reproduce it bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
import numpy as np

from chaoskit.chaos import (
    add,
    cross_gamma,
    evaluate_samples,
    fourth_cumulant,
    gamma,
    gamma_residual,
    multiply,
    second_moment,
)
from chaoskit.families import diagonal_second_chaos
from chaoskit.grid import BLOCK_SIZE, IncrementStream, make_grid
from chaoskit.harness import EXACT_IDENTITY_RTOL, ExperimentConfig, ExperimentReport
from chaoskit.independence import strongly_independent
from chaoskit.kernels import SYMMETRY_ATOL, StepKernel, contract, dense, inner_product, symmetrize
from chaoskit.stein import (
    CriterionEstimate,
    kolmogorov_distance_mc,
    stein_solution,
)


def batch_mean_se(values: np.ndarray, n_batches: int = 20) -> tuple:
    """Mean and batch-mean standard error of a sample array."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    usable = arr.size - arr.size % n_batches
    batches = arr[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(batches.mean()), float(batches.std(ddof=1) / np.sqrt(n_batches))


def batch_fourth_cumulant_se(values: np.ndarray, n_batches: int = 20) -> tuple:
    """Fourth-cumulant estimate m4 - 3 m2^2 with a batch standard error."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    usable = arr.size - arr.size % n_batches
    chunks = arr[:usable].reshape(n_batches, -1)
    k4 = (chunks**4).mean(axis=1) - 3.0 * (chunks**2).mean(axis=1) ** 2
    return float(k4.mean()), float(k4.std(ddof=1) / np.sqrt(n_batches))


def hermite_recurrence(k: int, x):
    """H_k by the recurrence from H_0 = 1 and H_1 = x, as floats or an array."""
    scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
    arr = np.asarray(x, dtype=np.float64)
    prev = np.ones_like(arr)
    if k == 0:
        return float(prev) if scalar else prev
    cur = arr.copy()
    for j in range(1, k):
        prev, cur = cur, arr * cur - j * prev
    return float(cur) if scalar else cur


@dataclass(frozen=True)
class _PlanGroup:
    mults: tuple  # Hermite degrees, aligned with the columns of cells
    cells: np.ndarray  # (n_terms, d) distinct cell indices, ascending per row
    coeffs: np.ndarray  # (n_terms,) value * n!/prod(k_r!) * delta^(n/2)


def _build_plan(kernel: StepKernel) -> list:
    n, delta = kernel.order, kernel.grid.delta
    nz = np.argwhere(kernel.values != 0.0)
    if nz.size == 0:
        return []
    multisets = np.unique(np.sort(nz, axis=1), axis=0)
    base = delta ** (n / 2.0) * math.factorial(n)
    groups: dict = {}
    for row in multisets:
        cells: list = []
        mults: list = []
        for j in row:
            if cells and cells[-1] == j:
                mults[-1] += 1
            else:
                cells.append(int(j))
                mults.append(1)
        coeff = float(kernel.values[tuple(row)]) * base
        for k in mults:
            coeff /= math.factorial(k)
        bucket = groups.setdefault(tuple(mults), ([], []))
        bucket[0].append(cells)
        bucket[1].append(coeff)
    return [
        _PlanGroup(
            mults=mults,
            cells=np.asarray(cell_rows, dtype=np.int64),
            coeffs=np.asarray(coeffs, dtype=np.float64),
        )
        for mults, (cell_rows, coeffs) in groups.items()
    ]


def symmetrize_reference(kernel: StepKernel) -> np.ndarray:
    """Orbit means of a dense order >= 2 kernel: by digit sort and bincount from order 3."""
    m, order = kernel.grid.m, kernel.order
    if order == 2:
        return (kernel.values + kernel.values.T) / 2.0
    size = kernel.values.size
    flat = np.ascontiguousarray(kernel.values, dtype=np.float64).ravel()
    key = np.empty(size, dtype=np.int64)
    chunk = 1 << 16
    for lo in range(0, size, chunk):
        hi = min(size, lo + chunk)
        rem = np.arange(lo, hi, dtype=np.int64)
        digits = np.empty((order, hi - lo), dtype=np.int64)
        for axis in range(order - 1, -1, -1):
            rem, digits[axis] = np.divmod(rem, m)
        digits.sort(axis=0)
        k = digits[0].copy()
        for axis in range(1, order):
            k *= m
            k += digits[axis]
        key[lo:hi] = k
    sums = np.bincount(key, weights=flat, minlength=size)
    counts = np.bincount(key, minlength=size)
    np.maximum(counts, 1, out=counts)
    sums /= counts
    return sums[key].reshape(kernel.values.shape)


def contract_reference(f: StepKernel, g: StepKernel, ell: int) -> np.ndarray:
    """Values of f ox_ell g: the vector rule on diagonal pairs, else a scaled dense tensordot."""
    out_order = f.order + g.order - 2 * ell
    vectors = [k.values for k in (f, g) if k.diagonal or k.order == 1]
    if ell >= 1 and len(vectors) == 2 and (f.diagonal or g.diagonal):
        a, b = vectors
        return np.asarray((np.vdot(a, b) if out_order == 0 else a * b) * f.grid.delta**ell)
    f, g = dense(f), dense(g)
    if ell == 0:
        return np.multiply.outer(f.values, g.values)
    axes_f = list(range(f.order - ell, f.order))
    axes_g = list(range(g.order - ell, g.order))
    vals = np.tensordot(f.values, g.values, axes=(axes_f, axes_g))
    return np.asarray(np.asarray(vals, dtype=np.float64) * f.grid.delta**ell)


def linear_combine_reference(a: float, f: StepKernel, b: float, g: StepKernel) -> np.ndarray:
    """Values of a*f + b*g, in f's storage unless the storages differ."""
    if f.diagonal != g.diagonal:
        f, g = dense(f), dense(g)
    vals = a * f.values
    vals += b * g.values
    return np.asarray(vals)


def is_symmetric_reference(kernel: StepKernel) -> bool:
    """Whether the largest gap to the symmetrized values is within SYMMETRY_ATOL."""
    if kernel.order <= 1:
        return True
    sym = kernel.values if kernel.diagonal else symmetrize_reference(kernel)
    return bool(np.max(np.abs(kernel.values - sym)) <= SYMMETRY_ATOL)


def _reference_rows(x, increments: np.ndarray) -> tuple:
    # (out, groups, htab): the expectation per path, the plan groups of every
    # kernel by order, and the Hermite rows of every degree a term reads,
    # over all m columns.
    arr = np.asarray(increments, dtype=np.float64)
    out = np.full(arr.shape[0], x.expectation, dtype=np.float64)
    plans = [_build_plan(k) for n, k in enumerate(x.kernels) if k is not None and n >= 1]
    z = arr / math.sqrt(x.grid.delta)
    degrees = sorted({k for plan in plans for group in plan for k in group.mults})
    return out, [g for plan in plans for g in plan], {k: hermite_recurrence(k, z) for k in degrees}


def _add_slabs(group: _PlanGroup, htab: dict, out: np.ndarray, slab: int) -> None:
    # Each term's column product, summed along the row slab terms at a time.
    for lo in range(0, group.cells.shape[0], slab):
        cells = group.cells[lo : lo + slab]
        prod = htab[group.mults[0]][:, cells[:, 0]].copy()
        for r in range(1, len(group.mults)):
            prod *= htab[group.mults[r]][:, cells[:, r]]
        out += (prod * group.coeffs[lo : lo + slab]).sum(axis=1)


def evaluate_batch_reference(x, increments: np.ndarray) -> np.ndarray:
    """Pathwise I-sum of one expansion on a (n_samples, m) increment array.

    Hermite rows cover all m columns.  A one-factor group's terms are summed
    in one pass for every batch size, the term gather an axis-1 fancy index
    copied back to C order; when its coefficients are all exactly equal, the
    gathered rows are summed first and multiplied by that coefficient once.
    A multi-factor group is summed one prefix (the leading cells of its
    terms) at a time: the prefix's terms add coeff * H at their last cell in
    term order, its prefix factors multiply that sum in cell order, and the
    prefix sums add up in order.  So the partial sums land in the order the
    library fixes.
    """
    out, groups, htab = _reference_rows(x, increments)
    if out.size == 0:
        return out
    for group in groups:
        if len(group.mults) == 1:
            if np.all(group.coeffs == group.coeffs[0]):
                out += group.coeffs[0] * htab[group.mults[0]][:, group.cells[:, 0]].copy().sum(axis=1)
            else:
                _add_slabs(group, htab, out, len(group.cells))
            continue
        cells, coeffs, last = group.cells, group.coeffs, htab[group.mults[-1]]
        starts = [t for t in range(len(cells)) if t == 0 or list(cells[t, :-1]) != list(cells[t - 1, :-1])]
        total = None
        for lo, hi in zip(starts, starts[1:] + [len(cells)]):
            y = coeffs[lo] * last[:, cells[lo, -1]]
            for t in range(lo + 1, hi):
                y += coeffs[t] * last[:, cells[t, -1]]
            for r, k in enumerate(group.mults[:-1]):
                y *= htab[k][:, cells[lo, r]]
            if total is None:
                total = y
            else:
                total += y
        out += total
    return out


def evaluate_batch_terms_reference(x, increments: np.ndarray) -> np.ndarray:
    """evaluate_batch_reference with every group, multi-factor ones too, summed in 1024-term slabs.

    This is the earlier rule of the library, which agrees with the prefix
    rule and the one-pass rule to rounding only.
    """
    out, groups, htab = _reference_rows(x, increments)
    if out.size == 0:
        return out
    for group in groups:
        _add_slabs(group, htab, out, 1024)
    return out


def evaluate_samples_reference(exps, n_samples: int, stream) -> list:
    """evaluate_batch_reference on each BLOCK_SIZE block of the stream, per expansion."""
    grid = exps[0].grid
    outs = [np.empty(n_samples, dtype=np.float64) for _ in exps]
    for start in range(0, n_samples, BLOCK_SIZE):
        count = min(BLOCK_SIZE, n_samples - start)
        xi = stream.standard_normal_block(grid.m, start, count) * np.sqrt(grid.delta)
        for out, e in zip(outs, exps):
            out[start : start + count] = evaluate_batch_reference(e, xi)
    return outs


def simulate_counterexample_reference(path_steps: int, n_samples: int, stream) -> tuple:
    """(x, y) arrays of the rotated counterexample pair, one path at a time.

    Row i of the table holds the left-half increments of path i in units of
    sqrt(dt), then X1 = sqrt(2) (W(1) - W(1/2)) as one standard normal.
    """
    half = path_steps // 2
    sqrt_dt = math.sqrt(1.0 / path_steps)
    sqrt2 = math.sqrt(2.0)
    table = stream.standard_normal_block(half + 1, 0, n_samples)
    x = np.empty(n_samples, dtype=np.float64)
    y = np.empty(n_samples, dtype=np.float64)
    for i in range(n_samples):
        w = 0.0
        integral = 0.0
        for k in range(half):
            dw = float(table[i, k]) * sqrt_dt
            integral += (1.0 if w >= 0.0 else -1.0) * dw  # sign(0) = +1
            w += dw
        x1 = float(table[i, half])
        y1 = sqrt2 * integral
        x[i] = (x1 + y1) / sqrt2
        y[i] = (x1 - y1) / sqrt2
    return x, y


def simulate_counterexample_block_reference(path_steps: int, n_samples: int, stream) -> tuple:
    """(x, y) arrays of the rotated counterexample pair, one whole block at a time."""
    half = path_steps // 2
    sqrt_dt = math.sqrt(1.0 / path_steps)
    sqrt2 = math.sqrt(2.0)
    x = np.empty(n_samples, dtype=np.float64)
    y = np.empty(n_samples, dtype=np.float64)
    for start in range(0, n_samples, BLOCK_SIZE):
        count = min(BLOCK_SIZE, n_samples - start)
        table = stream.standard_normal_block(half + 1, start, count)
        dw = table[:, :half] * sqrt_dt
        levels = np.cumsum(dw[:, : half - 1], axis=1)
        signs = np.hstack([np.ones((count, 1)), np.where(levels >= 0.0, 1.0, -1.0)])
        y1 = sqrt2 * np.einsum("ij,ij->i", signs, dw)
        x1 = table[:, half]
        x[start : start + count] = (x1 + y1) / sqrt2
        y[start : start + count] = (x1 - y1) / sqrt2
    return x, y


def _fourth_cumulant_single(f) -> float:
    """Fourth cumulant of I_q(f) through contraction norms.

    k4 = sum_{p=1}^{q-1} [ (q! C(q,p))^2 ||f ox_p f||^2
                           + (p! C(q,p)^2)^2 (2q-2p)! ||sym(f ox_p f)||^2 ]

    This is the product-formula expansion of E[X^4] - 3 E[X^2]^2 with the
    order-2q term eliminated, so no tensor above order 2q - 2 is formed.
    """
    q = f.order
    total = 0.0
    for p in range(1, q):
        raw = contract(f, f, p)
        sym = symmetrize(raw)
        total += (math.factorial(q) * math.comb(q, p)) ** 2 * inner_product(raw, raw)
        total += (
            (math.factorial(p) * math.comb(q, p) ** 2) ** 2
            * math.factorial(2 * q - 2 * p)
            * inner_product(sym, sym)
        )
    return total


def fourth_cumulant_reference(x) -> float:
    """k4(x) = E[x^4] - 3 E[x^2]^2 for a centered expansion, exact.

    Single-order inputs use the contraction-norm expansion, which never forms
    a kernel above order 2n - 2; mixed-order inputs square the expansion via
    the product formula.
    """
    if x.expectation != 0.0:
        raise ValueError("fourth_cumulant requires a centered expansion")
    orders = [n for n in x.nonzero_orders() if n >= 1]
    if not orders:
        return 0.0
    if len(orders) == 1:
        if orders[0] == 1:
            return 0.0
        return _fourth_cumulant_single(x.kernels[orders[0]])
    squared = multiply(x, x)
    return second_moment(squared) - 3.0 * second_moment(x) ** 2


def _char_fn_estimate(
    x_vals: np.ndarray, resid_vals: np.ndarray, t: float
) -> CriterionEstimate:
    """|E[e^{itX} R]| with a complex-mean standard error."""
    n = x_vals.size
    vals = np.exp(1j * t * x_vals) * resid_vals
    mean = vals.mean()
    if n > 1:
        var = vals.real.var(ddof=1) + vals.imag.var(ddof=1)
        se = math.sqrt(var / n)
    else:
        se = float("nan")
    return CriterionEstimate(
        value=float(abs(mean)), std_error=se, n_samples=n, parameter=float(t)
    )


def _stein_estimate(
    x_vals: np.ndarray, resid_vals: np.ndarray, z: float
) -> CriterionEstimate:
    """E[f_z'(X) R] with its standard error."""
    n = x_vals.size
    _, fprime = stein_solution(z, x_vals)
    vals = fprime * resid_vals
    se = math.sqrt(vals.var(ddof=1) / n) if n > 1 else float("nan")
    return CriterionEstimate(
        value=float(vals.mean()), std_error=se, n_samples=n, parameter=float(z)
    )


def binned_residual_estimate_reference(
    x_vals: np.ndarray, resid_vals: np.ndarray, n_bins: int
) -> CriterionEstimate:
    """L2 proxy for ||E[R | X]||: equal-count bins on X, root-mean-square of bin means."""
    n = x_vals.size
    if n_bins < 1 or n_bins > n:
        raise ValueError(f"need 1 <= n_bins <= n_samples, got n_bins={n_bins}, n={n}")
    if np.min(x_vals) == np.max(x_vals):
        raise ValueError("degenerate binning: all conditioning samples are equal")
    order = np.argsort(x_vals, kind="stable")
    edges = np.linspace(0, n, n_bins + 1).astype(np.int64)
    value_sq = 0.0
    var_sq = 0.0
    fallback_var = 0.0
    for b in range(n_bins):
        sel = order[edges[b] : edges[b + 1]]
        nb = sel.size
        if nb == 0:
            raise ValueError("degenerate binning: empty bin")
        w = nb / n
        mb = resid_vals[sel].mean()
        vb = resid_vals[sel].var(ddof=1) / nb if nb > 1 else 0.0
        value_sq += w * mb * mb
        var_sq += (2.0 * w * mb) ** 2 * vb
        fallback_var += w * w * vb
    value = math.sqrt(value_sq)
    if value > 0.0 and var_sq > 0.0:
        se = math.sqrt(var_sq) / (2.0 * value)
    else:
        se = math.sqrt(fallback_var)
    return CriterionEstimate(
        value=value, std_error=se, n_samples=n, parameter=float(n_bins)
    )


def _est_dict(est: CriterionEstimate, param_name: str) -> dict:
    return {
        param_name: est.parameter,
        "value": est.value,
        "std_error": est.std_error,
    }


def _criterion_block(
    x_vals: np.ndarray,
    g_vals: np.ndarray,
    c: float,
    t_grid,
    z_grid,
    n_bins: int,
) -> dict:
    resid = c - g_vals
    return {
        "char": [_est_dict(_char_fn_estimate(x_vals, resid, t), "t") for t in t_grid],
        "stein": [_est_dict(_stein_estimate(x_vals, resid, z), "z") for z in z_grid],
        "conditional": _est_dict(
            binned_residual_estimate_reference(x_vals, resid, n_bins), "n_bins"
        ),
    }


def _check_additivity(total: float, parts: float, label: str) -> float:
    scale = max(abs(total), abs(parts), 1e-300)
    gap = abs(total - parts) / scale
    if gap > EXACT_IDENTITY_RTOL:
        raise RuntimeError(
            f"{label} additivity violated: total={total!r} parts={parts!r} rel gap={gap:.3e}"
        )
    return gap


def _independence_reference(parts) -> list:
    """Exact entries of each summand pair i < j, i outer, from the public primitives."""
    entries = []
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            si = strongly_independent(parts[i], parts[j])
            entries.append({
                "pair": [i, j],
                "strongly_independent": bool(si.independent),
                "worst_pair": list(si.worst_pair),
                "worst_contraction_norm": si.worst_norm,
                "cross_gamma_residual": second_moment(cross_gamma(parts[i], parts[j])),
            })
    return entries


def _spread_xy_reference(block: dict) -> dict:
    """Each two-entry list `key` as `key_x` and `key_y` in its place."""
    out = {}
    for key, value in block.items():
        if isinstance(value, list):
            for suffix, entry in zip("xy", value):
                out[f"{key}_{suffix}"] = entry
        else:
            out[key] = value
    return out


def run_k_way_reference(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    start = time.perf_counter()
    cs = config.split
    k = len(cs)
    records = []
    for n in config.n_schedule:
        grid = make_grid(k * n)
        parts = [
            diagonal_second_chaos(grid, range(j * n, (j + 1) * n), c) for j, c in enumerate(cs)
        ]
        total = parts[0]
        for part in parts[1:]:
            total = add(total, part)
        var = [second_moment(p) for p in parts]
        k4s = [fourth_cumulant(p) for p in parts]
        k4_sum = fourth_cumulant(total)
        residuals = [gamma_residual(p, c) for p, c in zip(parts, cs)]
        res_sum = gamma_residual(total, 1.0)
        add_gap = _check_additivity(res_sum, sum(residuals), "Gamma residual")
        k4_gap = _check_additivity(k4_sum, sum(k4s), "fourth cumulant")
        exact = {
            "var": var,
            "k4": k4s,
            "k4_sum": k4_sum,
            "k4_additivity_gap_rel": k4_gap,
            "gamma_residual": residuals,
            "gamma_residual_sum": res_sum,
            "additivity_gap_rel": add_gap,
            # the fourth-moment bound sqrt(|k4|) / E[X^2]
            "bound": [math.sqrt(abs(k4)) / v for k4, v in zip(k4s, var)],
        }
        stream = IncrementStream(config.seed, stream_id=n)
        vals = evaluate_samples(
            parts + [gamma(p) for p in parts], config.mc_samples, stream, workers=workers
        )
        part_vals, gamma_vals = vals[:k], vals[k:]
        sum_vals = part_vals[0]
        for v in part_vals[1:]:
            sum_vals = sum_vals + v
        mc = {
            "dkol": [kolmogorov_distance_mc(v, s2) for v, s2 in zip(part_vals, var)],
            "dkol_sum": kolmogorov_distance_mc(sum_vals, 1.0),
            "crit": [
                _criterion_block(v, g, c, config.t_grid, config.z_grid, config.n_bins)
                for v, g, c in zip(part_vals, gamma_vals, cs)
            ],
        }
        if config.experiment == "decouple":
            exact, mc = _spread_xy_reference(exact), _spread_xy_reference(mc)
        exact["independence"] = _independence_reference(parts)
        records.append({"n": int(n), "exact": exact, "mc": mc})
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return ExperimentReport(config=config.to_dict(), records=records, runtime_ms=runtime_ms)
