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
algebra for callers, not a step of any cumulant.  An expansion keeps its
Gamma_1 once gamma(x) has built it, and fourth_cumulant, gamma_residual and
exact_summary all read that one; kernels are read-only and an expansion is
frozen, so the kept Gamma_1 has the bits of a new build.  For a dense top
order N it holds m^(2N - 2) stored entries for as long as x lives.

Pathwise evaluation uses the diagonal-free multiple-integral formula: for a
symmetric kernel f and a cell multiset {j_1^(k_1), ..., j_d^(k_d)} with
k_1 + ... + k_d = n,

    I_n(f) = sum over multisets  n!/(k_1! ... k_d!) * f(cells) *
             prod_r delta^(k_r/2) H_{k_r}(xi_{j_r} / sqrt(delta))

with H_k the monic probabilists' Hermite polynomials.  The terms of a kernel
are its nonzero entries at nondecreasing index tuples, one per cell multiset,
listed by kernels.multiset_entries in either storage and grouped by
multiplicity pattern.  Each evaluate_samples call compiles its expansions
into their term groups and the Hermite degrees those read; nothing is cached
on the kernels.
A group on d >= 2 distinct cells becomes the runs of its terms that share
their (d - 1)-cell prefix, in term order.  Per chunk of paths
grid.run_chunks draws, one hermite_rows walk computes those degrees over
every cell, and the degrees multi-factor groups read are copied once into
cells-by-paths arrays.  Every
expansion reads its terms from these shared rows: a one-factor group by one
row sum over all its terms, a multi-factor group prefix by prefix: the sum
of its run's products over their last factor, in term order as a sparse
matrix product makes it, times its prefix factors, added to the sum over
the prefixes before it.  A one-factor group whose coefficients are all
exactly equal sums H_k over its cells, by a column slice when they are one
run, and multiplies the sum once; the expansions of a call that read the
same degree and cells share it.  That
has the bits of summing the products whenever the coefficient is a power of
two.  So a path's value does not depend on the paths it is evaluated with:
evaluate_batch walks the increments the caller supplies in chunks of the
same size through the same evaluator, so its memory, too, is bounded in m
and not in the number of paths.
The kept Hermite rows, their copies and the products are grid.Workspace
arrays, and the walk writes the highest degree over the chunk table unless
H_1 is that table.  Products are gathered only for unequal coefficients or
cells with gaps, so the diagonal families hold one table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .grid import (
    Grid,
    IncrementStream,
    Workspace,
    check_real,
    check_run_counts,
    chunk_rows,
    make_grid,
    real_array,
    run_chunks,
)
from .hermite import hermite_rows
from .kernels import (
    StepKernel,
    contract,
    inner_product,
    is_symmetric,
    kernel_from_dict,
    kernel_to_dict,
    linear_combine,
    multiset_entries,
    scale_kernel,
    step_kernel,
    symmetrize,
)

# Products above this output order are rejected; dense kernels of higher order
# have no supported use here and the entry guard would obscure the real problem.
MAX_PRODUCT_ORDER = 8


@dataclass(frozen=True)
class ChaosExpansion:
    """Kernels indexed by order; a None slot is the zero kernel of that order."""

    grid: Grid
    kernels: tuple
    # Gamma_1 of this expansion, kept by gamma() once built.
    _gamma: ChaosExpansion | None = field(default=None, init=False, compare=False, repr=False)

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
    value = check_real("value", value)
    k0 = step_kernel(grid, 0, value) if value != 0.0 else None
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
            slots.append(linear_combine(1.0, a, 1.0, b))
    return _expansion(x.grid, slots)


def scale(a: float, x: ChaosExpansion) -> ChaosExpansion:
    a = check_real("scale factor a", a)
    return _expansion(x.grid, [None if k is None else scale_kernel(a, k) for k in x.kernels])


# ---------------------------------------------------------------------------
# Pathwise evaluation


def _kernel_terms(kernel: StepKernel) -> list:
    """The chaos terms of a symmetric kernel as (mults, cells, coeffs) groups.

    A term is a nonzero entry at a nondecreasing index tuple (a cell multiset);
    kernels.multiset_entries lists them lexicographically in either storage,
    with no mask or index table over all m^n entries.  Its Hermite degrees
    mults are the run lengths of equal indices, cells[:, r] is the cell of run
    r, and coeffs is value * delta^(n/2) * n! / prod(k_r!).  Groups follow the
    first term of each pattern.
    """
    n = kernel.order
    rows, values = multiset_entries(kernel)
    values = values * (kernel.grid.delta ** (n / 2.0) * math.factorial(n))
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


def _last_factor_product(mults: tuple, cells: np.ndarray, coeffs: np.ndarray) -> tuple:
    """A multi-factor term group as (mults, runs, width), summed over its last factor.

    The terms are listed lexicographically, so the terms that share their
    leading d - 1 cells, a prefix, are one run.  runs holds per prefix, in
    order, (lead, last, coeff): lead the prefix's cells as ints, last its
    terms' last cells and coeff their coefficients as a column; width is the
    longest run.
    """
    lead = cells[:, :-1]
    starts = np.flatnonzero(np.concatenate(([True], np.any(lead[1:] != lead[:-1], axis=1))))
    bounds = np.append(starts, cells.shape[0]).tolist()
    last = np.ascontiguousarray(cells[:, -1])
    runs = tuple(
        (tuple(lead[lo].tolist()), last[lo:hi], coeffs[lo:hi, None]) for lo, hi in zip(bounds, bounds[1:])
    )
    return mults, runs, int(np.diff(bounds).max())


def _compile(exps: Sequence[ChaosExpansion]) -> tuple:
    # (degrees, groups): the ascending Hermite degrees some term reads, and per
    # expansion its _kernel_terms groups, by order, each multi-factor group
    # as its _last_factor_product.  A one-factor group keeps its cells as a
    # vector, and with one coefficient becomes ((k,), cells, coefficient):
    # its cells a slice when they are one run, one object per (k, cells).
    shared: dict = {}

    def one_factor(mults: tuple, cells: np.ndarray, coeffs: np.ndarray) -> tuple:
        cells = cells[:, 0]
        if np.any(coeffs != coeffs[0]):
            return mults, cells, coeffs
        key = (mults, cells.tobytes())
        if cells[-1] - cells[0] == cells.size - 1:  # ascending cells, so one run
            cells = slice(int(cells[0]), int(cells[-1]) + 1)
        return mults, shared.setdefault(key, cells), float(coeffs[0])

    groups = tuple(
        tuple(
            one_factor(*g) if len(g[0]) == 1 else _last_factor_product(*g)
            for n, k in enumerate(e.kernels)
            if n >= 1 and k is not None
            for g in _kernel_terms(k)
        )
        for e in exps
    )
    degrees = tuple(sorted({k for exp_groups in groups for mults, _, _ in exp_groups for k in mults}))
    return degrees, groups


def _run_plan(degrees: tuple, groups: tuple, z: np.ndarray, outs: list, workspace: Workspace) -> None:
    """Add each compiled expansion's chaos terms at the rows of z = xi / sqrt(delta).

    z is one chunk: at most chunk_rows(m) rows, at least one.  One
    hermite_rows walk computes every degree in degrees over all of z, and the
    degrees multi-factor groups read are copied once into cells-by-paths
    arrays.  A one-factor group gathers its cells' entries of the rows,
    multiplies them by its coefficients and sums all its terms along each
    row.  With one coefficient a it adds a times the row sum of its cells,
    made once per call for the groups that share them, so a power-of-two a
    keeps the bits of the products.  A multi-factor group sums each prefix's
    terms over their last factor, multiplies in the prefix factors and adds
    its prefixes up in order.  Each rule fixes the order of a row's partial
    sums, so a path's value does not depend on the rows it is evaluated
    with.  A group reads at most m cells, so none of its gathers or products
    holds more than the chunk's CHUNK_ENTRIES entries.  H_1 is z itself,
    other kept degrees, their copies and the products live in workspace
    arrays, and without H_1 the top degree overwrites z.
    """
    if not degrees:
        return
    hrows = hermite_rows(z, degrees, lambda k: workspace.array(f"H{k}", z.shape))
    hcols = {
        k: workspace.array(f"T{k}", z.shape[::-1])
        for exp_groups in groups
        for mults, _, _ in exp_groups
        if len(mults) > 1
        for k in mults
    }
    for k, col in hcols.items():
        col[...] = hrows[k].T
    row_sums: dict = {}  # by the id of a shared cell index
    for out, exp_groups in zip(outs, groups):
        for group in exp_groups:
            (k, *prefix), cells, coeffs = group
            if prefix:
                _add_last_factor_product(group, hcols, out, workspace)
            elif isinstance(coeffs, float):
                if id(cells) not in row_sums:
                    row_sums[id(cells)] = _row_sum(hrows[k], cells, None, workspace)
                out += coeffs * row_sums[id(cells)]
            else:
                out += _row_sum(hrows[k], cells, coeffs, workspace)


def _row_sum(h: np.ndarray, cells, coeffs, workspace: Workspace) -> np.ndarray:
    # Each row of h summed over the cells, a slice in place, an index vector
    # gathered and multiplied by the coeffs given.
    if isinstance(cells, slice):
        return h[:, cells].sum(axis=1)
    prod = workspace.array("products", (h.shape[0], cells.size))
    # np.take fills the C-order products; an axis-1 fancy index returns F
    # order, which changes the row-sum order and so the bits.
    np.take(h, cells, axis=1, out=prod, mode="clip")
    if coeffs is not None:
        prod *= coeffs
    # Pairwise numpy reduction, not BLAS, so the sum order is fixed.
    return prod.sum(axis=1)


def _add_last_factor_product(group: tuple, hcols: dict, out: np.ndarray, workspace: Workspace) -> None:
    # Per prefix, its terms' products c * H_{k_d}[last] add up in term order,
    # a product then a sum each as a sparse matrix product makes them; the
    # prefix factors multiply that sum in cell order, and the prefix sums add
    # up in order.  Whether a sum starts at 0 or at its first term changes
    # only the sign of a zero sum, which adding it to out, never -0, erases.
    mults, runs, width = group
    h = hcols[mults[-1]]
    # The buffer of the one-factor groups' products.
    prods = workspace.array("products", (width, h.shape[1]))
    y = workspace.array("prefix", out.shape)
    total = workspace.array("total", out.shape)
    total.fill(0.0)
    for lead, last, coeff in runs:
        terms = prods[: coeff.shape[0]]
        np.take(h, last, axis=0, out=terms, mode="clip")
        terms *= coeff
        # add.reduce adds the rows one after another, but along one path
        # it sums pairwise; add.accumulate keeps the order there and is
        # far slower on wide chunks, as it walks each path's column alone.
        if y.size > 1:
            np.add.reduce(terms, axis=0, out=y)
        else:
            np.add.accumulate(terms, axis=0, out=terms)
            y[...] = terms[-1]
        for k, cell in zip(mults[:-1], lead):
            y *= hcols[k][cell]
        total += y
    out += total


def evaluate_batch(x: ChaosExpansion, increments: np.ndarray) -> np.ndarray:
    """Evaluate x pathwise on a (n_samples, m) array of increment vectors.

    The rows are walked in chunks of chunk_rows(m), each checked by
    real_array and divided into one Workspace table, so the caller's
    increments are never written and no temporary grows with n_samples.
    """
    arr = np.asarray(increments)
    real_array("increments", np.empty(0, dtype=arr.dtype))  # the dtype rule, at zero rows too
    m = x.grid.m
    if arr.ndim != 2 or arr.shape[1] != m:
        raise ValueError(f"expected increments of shape (n_samples, {m}), got {arr.shape}")
    degrees, groups = _compile([x])
    out = np.full(arr.shape[0], x.expectation, dtype=np.float64)
    workspace = Workspace()
    rows = chunk_rows(m)
    for a in range(0, arr.shape[0], rows):
        xi = real_array("increments", arr[a : a + rows])
        z = np.divide(xi, math.sqrt(x.grid.delta), out=workspace.array("table", xi.shape))
        _run_plan(degrees, groups, z, [out[a : a + rows]], workspace)
    return out


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
    degrees, groups = _compile(exps)
    outs = [np.full(n_samples, e.expectation, dtype=np.float64) for e in exps]

    def chunk(start: int, z: np.ndarray, workspace: Workspace) -> None:
        # Threads share the read-only term groups and write disjoint row ranges.
        z *= np.sqrt(grid.delta)  # the round trip through xi is part of the bits
        z /= math.sqrt(grid.delta)
        parts = [out[start : start + z.shape[0]] for out in outs]
        _run_plan(degrees, groups, z, parts, workspace)

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
        term = scale_kernel(coef, symmetrize(contract(f, g, ell)))
        slot = term.order
        acc[slot] = linear_combine(1.0, acc[slot], 1.0, term) if slot in acc else term
    if not acc:
        return constant(grid, 0.0)
    return _expansion(grid, [acc.get(slot) for slot in range(max(acc) + 1)])


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
    return _square_mean(x, x.expectation)


def _square_mean(x: ChaosExpansion, f0: float) -> float:
    # E[(f0 + x - E x)^2] = f0^2 + sum_n n! <f_n, f_n>.
    total = f0 ** 2
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
    orders = [n for n in x.nonzero_orders() if n >= 1]
    g1_centered = _expansion(x.grid, [None, *gamma(x).kernels[1:]])
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
    """<Dx, D(-L)^{-1} x>; its expectation equals E[x^2] for centered x.

    Built on the first call and kept on x, so later calls return that object.
    """
    if x._gamma is None:
        object.__setattr__(x, "_gamma", _cross_gamma(x, x))
    return x._gamma


def gamma_residual(x: ChaosExpansion, c: float) -> float:
    """E[(c - <Dx, D(-L)^{-1} x>)^2], exact through the expansion algebra."""
    c = check_real("target variance c", c)
    g1 = gamma(x)
    # Negation is exact, so this has the bits of second_moment(c - g1).
    return _square_mean(g1, c - g1.expectation)


class ExactSummary(NamedTuple):
    """The exact block of a centered expansion x against a target variance c."""

    var: float  # E[x^2]
    gamma: ChaosExpansion  # Gamma_1(x) = <Dx, D(-L)^{-1} x>
    k4: float  # fourth cumulant
    residual: float  # E[(c - Gamma_1(x))^2]

    @property
    def bound(self) -> float:
        """sqrt(|k4|) / var: the fourth-moment Kolmogorov bound when x has one order."""
        if self.var <= 0.0:
            raise ValueError("the fourth-moment bound needs a nonzero variance, got var = 0")
        return math.sqrt(abs(self.k4)) / self.var


def exact_summary(x: ChaosExpansion, c: float) -> ExactSummary:
    """Variance, Gamma_1, k4 and Gamma residual of a centered x, read from gamma(x)."""
    _require_centered(x, "exact_summary")
    c = check_real("target variance c", c)
    return ExactSummary(
        var=second_moment(x), gamma=gamma(x), k4=fourth_cumulant(x), residual=gamma_residual(x, c)
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
