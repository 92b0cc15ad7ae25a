"""Finite Wiener chaos expansions over the grid Gaussian model.

A ChaosExpansion stores one symmetric step kernel per order n, representing
F = sum_n I_n(f_n) where I_n is the multiple integral of order n against the
grid increments.  On a fixed grid the classical identities hold exactly:

    isometry         E[I_n(f) I_m(g)] = delta_{nm} n! <f, g>
    product          I_p(f) I_q(g)    = sum_l l! C(p,l) C(q,l) I_{p+q-2l}(f ox_l g, symmetrized)
    Gamma functional <DF, D(-L)^{-1} G> expands through (l+1)-fold contractions

so second moments, fourth cumulants and Gamma residuals are computed
algebraically, with Monte Carlo reserved for distributional quantities.  The
fourth cumulant uses iterated Gamma functionals (Nourdin & Peccati 2010),

    k4(F) = 6 E[F Gamma_2(F)],   Gamma_1(F) = <DF, D(-L)^{-1} F>,
    Gamma_2(F) = <DF, D(-L)^{-1}(Gamma_1(F) - E Gamma_1(F))>,

so for top order N no kernel above order 2N - 2 is formed; `multiply` is
algebra for callers, not a step of any cumulant.  exact_summary(x, c) builds
Gamma_1(x) once and reads E[x^2], k4, the residual E[(c - Gamma_1)^2] and
the fourth-moment bound from it; fourth_cumulant and gamma_residual run the
same steps on a Gamma_1 of their own.

Pathwise evaluation uses the diagonal-free multiple-integral formula: for a
symmetric kernel f and a cell multiset {j_1^(k_1), ..., j_d^(k_d)} with
k_1 + ... + k_d = n,

    I_n(f) = sum over multisets  n!/(k_1! ... k_d!) * f(cells) *
             prod_r delta^(k_r/2) H_{k_r}(xi_{j_r} / sqrt(delta))

with H_k the monic probabilists' Hermite polynomials.  The terms of a kernel
are its nonzero entries at nondecreasing index tuples, one per cell multiset,
listed slice by slice along the first axis and grouped by multiplicity
pattern.  Each evaluate_samples call compiles its expansions into one plan:
their term groups and the Hermite degrees those read.  Nothing is cached on
the kernels; the plan lives for one call.  Per chunk of paths grid.run_chunks
draws, each of those degrees is computed once over every cell, and every
expansion reads its terms from these shared rows, TERM_SLAB terms at a time,
in bands of rows whose sample-by-term products hold at most about
CHUNK_ENTRIES entries.  So a path's value does not depend on the paths it is
evaluated with: evaluate_batch and evaluate are the same evaluator on a
single expansion.  The Hermite rows and products are grid.Workspace arrays,
and the highest degree overwrites the chunk table unless H_1 is that table,
so the diagonal families hold one table plus one product band per thread.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .grid import (
    GaussianSample,
    Grid,
    IncrementStream,
    Workspace,
    check_run_counts,
    chunk_rows,
    make_grid,
    run_chunks,
)
from .hermite import hermite_eval
from .kernels import (
    StepKernel,
    contract,
    inner_product,
    is_symmetric,
    kernel_from_dict,
    kernel_to_dict,
    step_kernel,
    symmetrize,
)

# Products above this output order are rejected; dense kernels of higher order
# have no supported use here and the entry guard would obscure the real problem.
MAX_PRODUCT_ORDER = 8

# The evaluator sums a term group's chaos terms this many at a time, for
# every path alike; the width sets the order of each path's partial sums.
TERM_SLAB = 1024


@dataclass(frozen=True)
class ChaosExpansion:
    """Kernels indexed by order; a None slot is the zero kernel of that order."""

    grid: Grid
    kernels: tuple

    @property
    def max_order(self) -> int:
        return len(self.kernels) - 1

    @property
    def expectation(self) -> float:
        k0 = self.kernels[0]
        return float(k0.values) if k0 is not None else 0.0

    def kernel(self, order: int):
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        return self.kernels[order] if order <= self.max_order else None

    def nonzero_orders(self) -> list:
        return [n for n, k in enumerate(self.kernels) if k is not None]


def _normalize_slots(grid: Grid, slots: list) -> tuple:
    """Drop all-zero kernels and trailing empty slots; keep at least order 0."""
    cleaned = []
    for n, k in enumerate(slots):
        if k is None:
            cleaned.append(None)
            continue
        if k.order != n:
            raise ValueError(f"kernel of order {k.order} stored at slot {n}")
        if k.grid != grid:
            raise ValueError("all kernels must share the expansion grid")
        cleaned.append(k if np.any(k.values) else None)
    while len(cleaned) > 1 and cleaned[-1] is None:
        cleaned.pop()
    if not cleaned:
        cleaned = [None]
    return tuple(cleaned)


def chaos_expansion(grid: Grid, kernels) -> ChaosExpansion:
    """Build an expansion from per-order kernels, checking symmetry."""
    slots = _normalize_slots(grid, list(kernels))
    for k in slots:
        if k is not None and not is_symmetric(k):
            raise ValueError(f"order-{k.order} kernel is not symmetric")
    return ChaosExpansion(grid=grid, kernels=slots)


def _expansion(grid: Grid, slots: list) -> ChaosExpansion:
    # Internal constructor for operation results whose kernels are symmetric
    # by construction.
    return ChaosExpansion(grid=grid, kernels=_normalize_slots(grid, slots))


def constant(grid: Grid, value: float) -> ChaosExpansion:
    """The deterministic expansion F = value."""
    k0 = step_kernel(grid, 0, float(value)) if value != 0.0 else None
    return ChaosExpansion(grid=grid, kernels=(k0,))


def single_chaos(kernel: StepKernel) -> ChaosExpansion:
    """Expansion with one nonzero kernel, F = I_n(f)."""
    slots = [None] * kernel.order + [kernel]
    return chaos_expansion(kernel.grid, slots)


def add(x: ChaosExpansion, y: ChaosExpansion) -> ChaosExpansion:
    if x.grid != y.grid:
        raise ValueError("grid mismatch")
    slots = []
    for n in range(max(x.max_order, y.max_order) + 1):
        a, b = x.kernel(n), y.kernel(n)
        if a is None and b is None:
            slots.append(None)
        elif a is None:
            slots.append(b)
        elif b is None:
            slots.append(a)
        else:
            slots.append(step_kernel(x.grid, n, a.values + b.values, copy=False))
    return _expansion(x.grid, slots)


def scale(a: float, x: ChaosExpansion) -> ChaosExpansion:
    slots = [
        None if k is None else step_kernel(x.grid, n, float(a) * k.values, copy=False)
        for n, k in enumerate(x.kernels)
    ]
    return _expansion(x.grid, slots)


def shift(x: ChaosExpansion, offset: float) -> ChaosExpansion:
    """x + offset as an expansion (adjusts the order-0 slot only)."""
    return add(x, constant(x.grid, offset))


# ---------------------------------------------------------------------------
# Pathwise evaluation


def _kernel_terms(kernel: StepKernel) -> list:
    """The chaos terms of a symmetric kernel as (mults, cells, coeffs) groups.

    A term is a nonzero entry at a nondecreasing index tuple (a cell multiset);
    argwhere lists them lexicographically.  Its Hermite degrees mults are the
    run lengths of equal indices, cells[:, r] is the cell of run r, and coeffs
    is value * delta^(n/2) * n! / prod(k_r!).  Groups follow the first term of
    each pattern.  The nonzero entries are listed a slice of the first axis
    at a time, at most about CHUNK_ENTRIES entries each, so no mask or index
    table spans all m^n entries.
    """
    n, m = kernel.order, kernel.grid.m
    step = chunk_rows(m ** (n - 1))
    parts = []
    for lo in range(0, m, step):
        part = np.argwhere(kernel.values[lo : lo + step])
        part[:, 0] += lo
        parts.append(part[np.all(part[:, 1:] >= part[:, :-1], axis=1)])
    rows = np.concatenate(parts)
    values = kernel.values[tuple(rows.T)] * (kernel.grid.delta ** (n / 2.0) * math.factorial(n))
    # Bit r of a term's pattern code is set when a new run starts at index r + 1.
    codes = (rows[:, 1:] != rows[:, :-1]) @ (1 << np.arange(n - 1))
    _, first = np.unique(codes, return_index=True)
    groups = []
    for code in codes[np.sort(first)]:
        starts = [0] + [r + 1 for r in range(n - 1) if code >> r & 1]
        mults = tuple(b - a for a, b in zip(starts, starts[1:] + [n]))
        sel = codes == code
        coeffs = values[sel]
        for k in mults:
            coeffs /= math.factorial(k)
        groups.append((mults, rows[sel][:, starts], coeffs))
    return groups


@dataclass(frozen=True)
class _CompiledPlan:
    """The term groups of several expansions, read from one shared set of Hermite rows."""

    # Ascending Hermite degrees some term reads, each computed over every cell
    degrees: tuple
    # Per expansion, by order and then in _kernel_terms order: (mults, cells,
    # coeffs, run), as _kernel_terms gives them; run is cells[0, 0] when the
    # group has one Hermite factor and cells[:, 0] counts up by one from it,
    # else None.
    groups: tuple


def _compile(exps: Sequence[ChaosExpansion]) -> _CompiledPlan:
    terms = [
        [g for n, k in enumerate(e.kernels) if n >= 1 and k is not None for g in _kernel_terms(k)]
        for e in exps
    ]

    def with_run(mults, cells, coeffs):
        first = cells[:, 0]
        contiguous = len(mults) == 1 and np.array_equal(first, first[0] + np.arange(first.size))
        return mults, cells, coeffs, int(first[0]) if contiguous else None

    degrees = tuple(sorted({k for groups in terms for mults, _, _ in groups for k in mults}))
    groups = tuple(tuple(with_run(*g) for g in kernel_groups) for kernel_groups in terms)
    return _CompiledPlan(degrees=degrees, groups=groups)


def _run_plan(plan: _CompiledPlan, z: np.ndarray, outs: list, workspace: Workspace) -> None:
    """Add each compiled expansion's chaos terms at the rows of z = xi / sqrt(delta).

    Every degree the plan reads is computed over all of z, and a term reads
    its cells' entries of those rows.  A group's terms are summed TERM_SLAB
    at a time; the slab only fixes the order of a row's partial sums, so a
    path's value does not depend on the rows it is evaluated with.  Each
    slab is walked in bands of rows, so no product holds more than about
    CHUNK_ENTRIES entries; a row's sum never spans two bands.  Hermite rows
    and products live in workspace arrays, and z is overwritten, so a chunk
    allocates no array of its own size but hermite_eval's recurrence rows
    for degrees above 2.
    """
    if z.shape[0] == 0 or not plan.degrees:
        return
    n_rows = z.shape[0]
    # H_1 is z itself; otherwise the top degree overwrites z, once every
    # other degree has read it.
    on_z = 1 if 1 in plan.degrees else plan.degrees[-1]
    hrows = {
        k: hermite_eval(k, z, out=workspace.array(f"H{k}", z.shape))
        for k in plan.degrees
        if k != on_z
    }
    hrows[on_z] = z if on_z == 1 else hermite_eval(on_z, z, out=z)
    for out, groups in zip(outs, plan.groups):
        for mults, cells, coeffs, run in groups:
            for lo in range(0, cells.shape[0], TERM_SLAB):
                part = cells[lo : lo + TERM_SLAB]
                weights = coeffs[lo : lo + TERM_SLAB]
                width = part.shape[0]
                band = chunk_rows(width)
                for a in range(0, n_rows, band):
                    rows = slice(a, a + band)
                    prod = workspace.array("band", (min(band, n_rows - a), width))
                    if run is not None:
                        # The group's terms are one run of the shared rows.
                        view = hrows[mults[0]][rows, run + lo : run + lo + width]
                        np.multiply(view, weights, out=prod)
                    else:
                        # np.take fills the C-order band; an axis-1 fancy index
                        # returns F order, which changes the row-sum order and
                        # so the bits.
                        np.take(hrows[mults[0]][rows], part[:, 0], axis=1, out=prod, mode="clip")
                        for r in range(1, len(mults)):
                            factor = workspace.array("factor", prod.shape)
                            np.take(hrows[mults[r]][rows], part[:, r], axis=1, out=factor, mode="clip")
                            prod *= factor
                        prod *= weights
                    # Pairwise numpy reduction, not BLAS, so the sum order is fixed.
                    out[rows] += prod.sum(axis=1)


def evaluate_batch(x: ChaosExpansion, increments: np.ndarray) -> np.ndarray:
    """Evaluate x pathwise on a (n_samples, m) array of increment vectors."""
    arr = np.asarray(increments, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != x.grid.m:
        raise ValueError(
            f"expected increments of shape (n_samples, {x.grid.m}), got {arr.shape}"
        )
    out = np.full(arr.shape[0], x.expectation, dtype=np.float64)
    # Dividing makes a new array, so the caller's increments are never written.
    _run_plan(_compile([x]), arr / math.sqrt(x.grid.delta), [out], Workspace())
    return out


def evaluate(x: ChaosExpansion, sample) -> float:
    """I-sum of x at one increment vector (GaussianSample or length-m array)."""
    if isinstance(sample, GaussianSample):
        if sample.grid != x.grid:
            raise ValueError("sample grid does not match expansion grid")
        row = sample.increments
    else:
        row = np.asarray(sample, dtype=np.float64)
        if row.shape != (x.grid.m,):
            raise ValueError(f"expected {x.grid.m} increments, got shape {row.shape}")
    return float(evaluate_batch(x, row[None, :])[0])


def evaluate_samples(
    exps: Sequence[ChaosExpansion],
    n_samples: int,
    stream: IncrementStream,
    workers: int = 1,
) -> list:
    """Evaluate several expansions on one shared stream of increment vectors.

    Returns one (n_samples,) array per expansion.  Blocks of BLOCK_SIZE paths
    run on up to `workers` threads (an integer >= 1), each walked in chunks of
    at most about CHUNK_ENTRIES increments that grid.run_chunks draws; sample i
    always comes from stream index i, so results are identical for any worker
    count.
    """
    exps = list(exps)
    if not exps:
        return []
    grid = exps[0].grid
    for e in exps:
        if e.grid != grid:
            raise ValueError("all expansions must share one grid")
    check_run_counts(n_samples, workers)
    plan = _compile(exps)
    outs = [np.full(n_samples, e.expectation, dtype=np.float64) for e in exps]

    def chunk(start: int, z: np.ndarray, workspace: Workspace) -> None:
        # Threads share the read-only plan and write disjoint row ranges.
        z *= np.sqrt(grid.delta)  # the round trip through xi is part of the bits
        z /= math.sqrt(grid.delta)
        parts = [out[start : start + z.shape[0]] for out in outs]
        _run_plan(plan, z, parts, workspace)

    run_chunks(stream, n_samples, grid.m, workers, chunk)
    return outs


# ---------------------------------------------------------------------------
# Algebra: products, moments, Gamma functionals


def _accumulate(grid: Grid, terms) -> ChaosExpansion:
    """Expansion sum of coef * sym(f ox_ell g) over the (coef, f, g, ell) terms.

    Terms are added into their output-order slot in the order given, so a fixed
    term order fixes the bits.
    """
    acc: dict = {}
    for coef, f, g, ell in terms:
        term = symmetrize(contract(f, g, ell))
        slot = term.order
        if slot in acc:
            acc[slot] = acc[slot] + coef * term.values
        else:
            acc[slot] = coef * term.values
    if not acc:
        return constant(grid, 0.0)
    slots = [None] * (max(acc) + 1)
    for slot, vals in acc.items():
        slots[slot] = step_kernel(grid, slot, vals, copy=False)
    return _expansion(grid, slots)


def multiply(x: ChaosExpansion, y: ChaosExpansion) -> ChaosExpansion:
    """Product of two expansions via the multiple-integral product formula.

    Every contraction is symmetrized before accumulation.  Output orders above
    MAX_PRODUCT_ORDER are rejected.
    """
    if x.grid != y.grid:
        raise ValueError("grid mismatch")
    x_orders = x.nonzero_orders()
    y_orders = y.nonzero_orders()
    if not x_orders or not y_orders:
        return constant(x.grid, 0.0)
    out_max = max(x_orders) + max(y_orders)
    if out_max > MAX_PRODUCT_ORDER:
        raise ValueError(
            f"product order {out_max} exceeds the supported maximum {MAX_PRODUCT_ORDER}"
        )
    terms = (
        (math.factorial(ell) * math.comb(p, ell) * math.comb(q, ell), f, g, ell)
        for p, f in enumerate(x.kernels)
        if f is not None
        for q, g in enumerate(y.kernels)
        if g is not None
        for ell in range(min(p, q) + 1)
    )
    return _accumulate(x.grid, terms)


def second_moment(x: ChaosExpansion) -> float:
    """E[x^2] = f_0^2 + sum_n n! <f_n, f_n>, exact."""
    total = x.expectation ** 2
    for n, k in enumerate(x.kernels):
        if n >= 1 and k is not None:
            total += math.factorial(n) * inner_product(k, k)
    return total


def variance(x: ChaosExpansion) -> float:
    return second_moment(x) - x.expectation ** 2


def _require_centered(x: ChaosExpansion, what: str) -> None:
    if x.expectation != 0.0:
        raise ValueError(f"{what} requires a centered expansion (order-0 slot is {x.expectation})")


def fourth_cumulant(x: ChaosExpansion) -> float:
    """k4(x) = E[x^4] - 3 E[x^2]^2 for a centered expansion, exact.

    Through iterated Gamma (Nourdin & Peccati, Cumulants on the Wiener space,
    2010): k_{s+1}(x) = s! E[Gamma_s(x)] with Gamma_0 = x and
    Gamma_s = <Dx, D(-L)^{-1}(Gamma_{s-1} - E Gamma_{s-1})>.  For centered x,
    E[<Dx, D(-L)^{-1} G>] = E[x G] = sum_n n! <f_n, g_n>, so

        k4(x) = 3! E[Gamma_3(x)] = 6 * sum_n n! <f_n, Gamma_2(x)_n>

    with Gamma_2 built only at the orders x has.  For top order N the largest
    kernel formed is Gamma_1's, of order 2N - 2.
    """
    _require_centered(x, "fourth_cumulant")
    return _fourth_cumulant(x, gamma(x))


def _fourth_cumulant(x: ChaosExpansion, g1: ChaosExpansion) -> float:
    # k4 of centered x from its Gamma_1 = gamma(x).
    orders = [n for n in x.nonzero_orders() if n >= 1]
    g1_centered = _expansion(x.grid, [None, *g1.kernels[1:]])
    g2 = _cross_gamma(x, g1_centered, keep=frozenset(orders))
    total = 0.0
    for n in orders:
        g = g2.kernel(n)
        if g is not None:
            total += math.factorial(n) * inner_product(x.kernels[n], g)
    return 6.0 * total


def _cross_gamma(x: ChaosExpansion, y: ChaosExpansion, keep=None) -> ChaosExpansion:
    # cross_gamma restricted to the output orders in keep (all when None):
    # contractions whose output order is never read are not formed.
    if x.grid != y.grid:
        raise ValueError("grid mismatch")
    _require_centered(x, "cross_gamma")
    _require_centered(y, "cross_gamma")
    terms = (
        (n * math.factorial(k) * math.comb(n - 1, k) * math.comb(m - 1, k), f, g, k + 1)
        for n, f in enumerate(x.kernels)
        if n >= 1 and f is not None
        for m, g in enumerate(y.kernels)
        if m >= 1 and g is not None
        for k in range(min(n, m))
        if keep is None or n + m - 2 - 2 * k in keep
    )
    return _accumulate(x.grid, terms)


def cross_gamma(x: ChaosExpansion, y: ChaosExpansion) -> ChaosExpansion:
    """The expansion of <Dx, D(-L)^{-1} y> for centered x, y.

    For kernel orders (n, m) the contribution is

        n * sum_{k=0}^{min(n,m)-1} k! C(n-1,k) C(m-1,k)
            I_{n+m-2-2k}(sym(f ox_{k+1} g))

    which follows from Dx = sum_n n I_{n-1}(f_n(., t)) and
    D(-L)^{-1} y = sum_m I_{m-1}(g_m(., t)) plus the product formula.
    """
    return _cross_gamma(x, y)


def gamma(x: ChaosExpansion) -> ChaosExpansion:
    """<Dx, D(-L)^{-1} x>; its expectation equals E[x^2] for centered x."""
    return cross_gamma(x, x)


def gamma_residual(x: ChaosExpansion, c: float) -> float:
    """E[(c - <Dx, D(-L)^{-1} x>)^2], exact through the expansion algebra."""
    return _gamma_residual(gamma(x), c)


def _gamma_residual(g1: ChaosExpansion, c: float) -> float:
    # E[(c - G)^2] for G = Gamma_1 of some expansion.
    return second_moment(add(constant(g1.grid, float(c)), scale(-1.0, g1)))


class ExactSummary(NamedTuple):
    """The exact block of a centered expansion x against a target variance c."""

    var: float  # E[x^2]
    gamma: ChaosExpansion  # Gamma_1(x) = <Dx, D(-L)^{-1} x>
    k4: float  # fourth cumulant
    residual: float  # E[(c - Gamma_1(x))^2]

    @property
    def bound(self) -> float:
        """sqrt(|k4|) / var: the fourth-moment Kolmogorov bound when x has one order."""
        return math.sqrt(abs(self.k4)) / self.var


def exact_summary(x: ChaosExpansion, c: float) -> ExactSummary:
    """Variance, Gamma_1, k4 and Gamma residual of a centered x from one Gamma_1 build.

    Each number has the bits of second_moment(x), gamma(x), fourth_cumulant(x)
    and gamma_residual(x, c), which run the same steps on a Gamma_1 of their own.
    """
    _require_centered(x, "exact_summary")
    g1 = gamma(x)
    return ExactSummary(
        var=second_moment(x),
        gamma=g1,
        k4=_fourth_cumulant(x, g1),
        residual=_gamma_residual(g1, c),
    )


# ---------------------------------------------------------------------------
# Serialization


def expansion_to_dict(x: ChaosExpansion) -> dict:
    return {
        "m": x.grid.m,
        "max_order": x.max_order,
        "kernels": [None if k is None else kernel_to_dict(k) for k in x.kernels],
    }


def expansion_from_dict(data: dict) -> ChaosExpansion:
    grid = make_grid(data["m"])
    slots = [
        None if entry is None else kernel_from_dict(entry, require_symmetric=False)
        for entry in data["kernels"]
    ]
    return chaos_expansion(grid, slots)


def save_expansion(x: ChaosExpansion, path) -> None:
    Path(path).write_text(json.dumps(expansion_to_dict(x)))


def load_expansion(path) -> ChaosExpansion:
    return expansion_from_dict(json.loads(Path(path).read_text()))
