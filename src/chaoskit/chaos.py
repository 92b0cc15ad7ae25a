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

Pathwise evaluation takes one route per kernel storage, which
kernels.polynomial_route reads.  A diagonal kernel is a vector a of one-cell
terms, f = sum_i a_i e_i^(x)n, and the diagonal-free multiple-integral
formula sums it as

    I_n(f) = sum_i a_i delta^(n/2) H_n(xi_i / sqrt(delta))

with H_n the monic probabilists' Hermite polynomials.  Each evaluate_samples
call compiles such kernels into one term group each, their nonzero cells and
coefficients, and the Hermite degrees those read; nothing is cached on the
kernels.  Per chunk of paths grid.run_chunks draws, one band of
grid.band_rows(m) paths, one hermite_rows walk computes those degrees over
every cell, and every group is one row sum over its cells of these shared
rows.  A group whose coefficients are all exactly equal sums H_n over its
cells, by a column slice when they are one run, and multiplies the sum
once; the expansions of a call that read the same degree and cells share
it.  That has the bits of summing the products whenever the coefficient is
a power of two.  So a path's value does not depend on the paths it is
evaluated with: evaluate_batch walks the increments the caller supplies in
bands of the same size through the same evaluator, so its memory, too, is
bounded in m and not in the number of paths.  The kept Hermite rows and the
products are grid.Workspace arrays a band each, and the walk writes the
highest degree over the band's table.  Products are gathered only for
unequal coefficients or cells with gaps, so the diagonal families hold one
table.

A dense-stored kernel of order q >= 1, at any density, is summed in its
Wick form,

    I_q(f) = sum_k c_(q,k) delta^k <tr^k f, xi^(x)(q - 2k)>,
    c_(q,k) = (-1)^k q! / (k! (q - 2k)! 2^k),

with tr^k summing k pairs of coordinates over the diagonal
(kernels.wick_terms).  _compile folds an expansion's dense kernels into
coefficient tensors h_0 .. h_N, h_N the top kernel's own read-only values
and the lower ones small sums of traces and lower kernels, and each band is
summed as sum_r <h_r, xi^(x)r> by Horner's rule: per sub-band of
band_rows(m^max(1, N - 1)) paths one GEMM xi @ h_N, then stacked matmuls
down to one number per path.  That costs m^N multiply-adds a path, however
few of the entries are nonzero; diagonal storage is the way to hold a kernel
that lives on the diagonal.  Every GEMM gets exactly that many rows, the
ragged last sub-band copied into a zero-padded workspace array, since BLAS
sums a product of one to three rows in another order than the same rows
inside a larger one; so here too a path's value does not depend on its
batch.  The Wick form agrees with the term-by-term sum to rounding.  BLAS
threads are left as the caller set them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .grid import (
    Grid,
    IncrementStream,
    Workspace,
    band_rows,
    check_grid,
    check_object,
    check_real,
    check_run_counts,
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
    polynomial_route,
    scale_kernel,
    symmetrize,
    wick_terms,
)

# Products above this output order are rejected; dense kernels of higher order
# have no supported use here and the entry guard would obscure the real problem.
MAX_PRODUCT_ORDER = 8


@dataclass(frozen=True)
class ChaosExpansion:
    """Kernels indexed by order; a None slot is the zero kernel of that order.

    The constructor checks that the grid is a Grid and each slot None or a
    StepKernel, that each kernel sits in its order's slot on the expansion's
    grid, drops all-zero kernels and trims trailing empty slots.
    Symmetry is left to chaos_expansion: algebra results are symmetric by
    construction.
    """

    grid: Grid
    kernels: tuple
    # Gamma_1 of this expansion, kept by gamma() once built.
    _gamma: ChaosExpansion | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        check_grid(self.grid)
        slots = []
        for n, k in enumerate(self.kernels):
            if k is not None:
                if not isinstance(k, StepKernel):
                    raise ValueError(f"kernel slot {n} must be None or a StepKernel, got {k!r}")
                if k.order != n:
                    raise ValueError(f"kernel of order {k.order} stored at slot {n}")
                if k.grid != self.grid:
                    raise ValueError("all kernels must share the expansion grid")
            slots.append(k if k is not None and np.any(k.values) else None)
        while len(slots) > 1 and slots[-1] is None:
            slots.pop()
        object.__setattr__(self, "kernels", tuple(slots) or (None,))

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


def chaos_expansion(grid: Grid, kernels) -> ChaosExpansion:
    """Build an expansion from per-order kernels, checking symmetry."""
    x = ChaosExpansion(grid, kernels)
    for k in x.kernels:
        if k is not None and not is_symmetric(k):
            raise ValueError(f"order-{k.order} kernel is not symmetric")
    return x


def constant(grid: Grid, value: float) -> ChaosExpansion:
    """The deterministic expansion F = value."""
    return ChaosExpansion(grid, (StepKernel(grid, 0, check_real("value", value)),))


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
    return ChaosExpansion(x.grid, slots)


def scale(a: float, x: ChaosExpansion) -> ChaosExpansion:
    a = check_real("scale factor a", a)
    return ChaosExpansion(x.grid, [None if k is None else scale_kernel(a, k) for k in x.kernels])


# ---------------------------------------------------------------------------
# Pathwise evaluation


def _kernel_terms(kernel: StepKernel) -> tuple:
    """A diagonal kernel's chaos terms as (n, cells, coeffs).

    Its values are its vector a, f = sum_i a_i e_i^(x)n, so a term is a
    nonzero cell i, read at Hermite degree n: cells lists them in ascending
    order and coeffs is a_i * delta^(n/2) * n! / n!, the n! multiplied in
    and divided out, not cancelled, since the records have that rounding.
    """
    n = kernel.order
    cells = np.flatnonzero(kernel.values)
    coeffs = kernel.values[cells] * (kernel.grid.delta ** (n / 2.0) * math.factorial(n))
    coeffs /= math.factorial(n)
    return n, cells, coeffs


class _Polynomial(NamedTuple):
    """An expansion's polynomial-route kernels as sum_r <h_r, xi^(x)r>, r = 0 .. N.

    tensors holds h_1 .. h_N, each flat over its m^r entries (None where
    no kernel has a term), but h_N, the top kernel's own values, as the
    (m, m^(N - 1)) matrix one GEMM reads; constant is h_0; rows, the fixed
    row count of every GEMM, is band_rows(m^max(1, N - 1)); root_delta
    turns z back into increments.
    """

    tensors: tuple
    constant: float
    rows: int
    root_delta: float


def _polynomial(kernels: list) -> _Polynomial:
    # The kernels' kernels.wick_terms added up by r, lowest order first, so
    # h_N stays the top kernel's read-only values and no kernel is copied.
    h: dict = {}
    for kernel in kernels:
        for r, t in wick_terms(kernel):
            h[r] = h[r] + t if r in h else t
    grid, top = kernels[0].grid, kernels[-1].order
    tensors = tuple(None if r not in h else np.reshape(h[r], -1) for r in range(1, top))
    tensors += (np.reshape(h[top], (grid.m, -1)),)
    rows = band_rows(grid.m ** max(1, top - 1))
    return _Polynomial(tensors, float(h.get(0, 0.0)), rows, math.sqrt(grid.delta))


def _compile(exps: Sequence[ChaosExpansion]) -> tuple:
    # (degrees, polynomials, groups): the ascending Hermite degrees (>= 2)
    # the groups read; per expansion the _Polynomial of its dense kernels
    # (kernels.polynomial_route), or None, and the (k, cells, coeffs)
    # _kernel_terms of its diagonal kernels, by order.  A group whose
    # coefficients are all equal becomes (k, cells, coefficient), its cells
    # a slice when they are one run, one object per (k, cells).
    shared: dict = {}

    def group(kernel: StepKernel) -> tuple:
        k, cells, coeffs = _kernel_terms(kernel)
        if np.any(coeffs != coeffs[0]):
            return k, cells, coeffs
        key = (k, cells.tobytes())
        if cells[-1] - cells[0] == cells.size - 1:  # ascending cells, so one run
            cells = slice(int(cells[0]), int(cells[-1]) + 1)
        return k, shared.setdefault(key, cells), float(coeffs[0])

    polynomials, groups = [], []
    for e in exps:
        kernels = [k for k in e.kernels[1:] if k is not None]
        wick = [k for k in kernels if polynomial_route(k)]
        polynomials.append(_polynomial(wick) if wick else None)
        groups.append(tuple(group(k) for k in kernels if not polynomial_route(k)))
    degrees = tuple(sorted({k for exp_groups in groups for k, _, _ in exp_groups}))
    return degrees, tuple(polynomials), tuple(groups)


def _run_plan(plan: tuple, z: np.ndarray, outs: list, workspace: Workspace) -> None:
    """Add each compiled expansion's chaos at the rows of z = xi / sqrt(delta).

    z is one band: at most band_rows(m) rows, at least one.  plan is a
    _compile result.  Each expansion's _Polynomial goes first, by Horner's
    rule in sub-bands of its fixed row count (_add_polynomial).  Then one
    hermite_rows walk computes every degree in degrees over all of z, and
    each group of one-cell terms at degree k gathers its cells' entries of
    H_k, multiplies them by its coefficients and sums them along each row.
    With one coefficient a it adds a times the row sum of its cells, made
    once per call for the groups that share them, so a power-of-two a keeps
    the bits of the products.  Each rule fixes the order of a row's partial
    sums, so a path's value does not depend on the rows it is evaluated
    with.  A group reads at most m cells, so none of its gathers holds more
    than the band's BAND_ENTRIES entries.  The top degree overwrites z;
    other kept degrees and the products are workspace arrays.
    """
    degrees, polynomials, groups = plan
    for out, poly in zip(outs, polynomials):
        if poly is not None:
            _add_polynomial(poly, z, out, workspace)
    if not degrees:
        return
    hrows = hermite_rows(z, degrees, lambda k: workspace.array(f"H{k}", z.shape))
    row_sums: dict = {}  # by the id of a shared cell index
    for out, exp_groups in zip(outs, groups):
        for k, cells, coeffs in exp_groups:
            if isinstance(coeffs, float):
                if id(cells) not in row_sums:
                    row_sums[id(cells)] = _row_sum(hrows[k], cells, None, workspace)
                out += coeffs * row_sums[id(cells)]
            else:
                out += _row_sum(hrows[k], cells, coeffs, workspace)


def _add_polynomial(poly: _Polynomial, z: np.ndarray, out: np.ndarray, workspace: Workspace) -> None:
    # h_0 + <xi, h_1 + <xi, ... + <xi, h_N>>> by Horner's rule, poly.rows
    # paths at a time: one GEMM xi @ h_N into a workspace array, then per
    # order one stacked matmul that contracts each path's tensor with its
    # own xi.  Every GEMM gets exactly poly.rows rows, the ragged last
    # sub-band zero-padded: BLAS sums a product of one to three rows in
    # another order, and a path's value must not depend on its batch.
    rows, m = poly.rows, z.shape[1]
    *lower, top = poly.tensors
    xi = workspace.array("xi", (rows, m))
    for lo in range(0, z.shape[0], rows):
        n = min(rows, z.shape[0] - lo)
        np.multiply(z[lo : lo + n], poly.root_delta, out=xi[:n])
        xi[n:] = 0.0
        acc = np.matmul(xi, top, out=workspace.array("horner", (rows, top.shape[1])))
        for r in range(len(lower), 0, -1):
            if lower[r - 1] is not None:
                acc += lower[r - 1]
            step = workspace.array(f"horner{r % 2}", (rows, 1, m ** (r - 1)))
            acc = np.matmul(xi[:, None, :], acc.reshape(rows, m, -1), out=step).reshape(rows, -1)
        values = acc[:n, 0]
        values += poly.constant
        out[lo : lo + n] += values


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


def evaluate_batch(x: ChaosExpansion, increments: np.ndarray) -> np.ndarray:
    """Evaluate x pathwise on a (n_samples, m) array of increment vectors.

    The rows are walked in bands of band_rows(m), each checked by
    real_array and divided into one Workspace table, so the caller's
    increments are never written and no temporary grows with n_samples.
    """
    arr = np.asarray(increments)
    real_array("increments", np.empty(0, dtype=arr.dtype))  # the dtype rule, at zero rows too
    m = x.grid.m
    if arr.ndim != 2 or arr.shape[1] != m:
        raise ValueError(f"expected increments of shape (n_samples, {m}), got {arr.shape}")
    plan = _compile([x])
    out = np.full(arr.shape[0], x.expectation, dtype=np.float64)
    workspace = Workspace()
    rows = band_rows(m)
    for a in range(0, arr.shape[0], rows):
        xi = real_array("increments", arr[a : a + rows])
        z = np.divide(xi, math.sqrt(x.grid.delta), out=workspace.array("table", xi.shape))
        _run_plan(plan, z, [out[a : a + rows]], workspace)
    return out


def evaluate_samples(
    exps: Sequence[ChaosExpansion],
    n_samples: int,
    stream: IncrementStream,
    workers: int = 1,
) -> list:
    """Evaluate several expansions on one shared stream of increment vectors.

    Returns one (n_samples,) array per expansion.  Blocks of BLOCK_SIZE paths
    run on up to `workers` threads (an integer >= 1), each walked in bands of
    at most about BAND_ENTRIES increments that grid.run_chunks draws; sample i
    always comes from stream index i, so results are identical for any worker
    count.
    """
    check_run_counts(n_samples, workers)
    exps = list(exps)
    if not exps:
        return []
    grid = exps[0].grid
    for e in exps:
        if e.grid != grid:
            raise ValueError("all expansions must share one grid")
    plan = _compile(exps)
    outs = [np.full(n_samples, e.expectation, dtype=np.float64) for e in exps]

    def chunk(start: int, z: np.ndarray, workspace: Workspace) -> None:
        # Threads share the read-only plan and write disjoint row ranges.
        z *= np.sqrt(grid.delta)  # the round trip through xi is part of the bits
        z /= math.sqrt(grid.delta)
        parts = [out[start : start + z.shape[0]] for out in outs]
        _run_plan(plan, z, parts, workspace)

    run_chunks(stream, n_samples, grid.m, band_rows(grid.m), workers, chunk)
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
    return ChaosExpansion(grid, [acc.get(slot) for slot in range(max(acc) + 1)])


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
    g1_centered = ChaosExpansion(x.grid, [None, *gamma(x).kernels[1:]])
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
    """The expansion of an expansion_to_dict body.

    Each kernel is read, and its symmetry checked once, by kernel_from_dict.
    ValueError for a body that is not an object, lacks "m" or "kernels", or
    holds a kernel that kernel_from_dict or the expansion's slots reject.
    """
    check_object("expansion", data, ("m", "kernels"))
    if not isinstance(data["kernels"], list):
        raise ValueError(f"expansion kernels must be a JSON array, got {type(data['kernels']).__name__}")
    grid = make_grid(data["m"])
    slots = [None if entry is None else kernel_from_dict(entry) for entry in data["kernels"]]
    return ChaosExpansion(grid, slots)
