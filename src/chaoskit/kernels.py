"""Step kernels on the grid and their L2([0,1]^n) algebra.

An order-n step kernel is a function on [0,1]^n that is constant on products
of grid cells.  Inner products and contractions carry the cell measure
delta = 1/m per integrated coordinate:

    <f, g>        = delta^n * sum f * g
    (f ox_l g)    = delta^l * sum over l shared trailing coordinates
    symmetrize(f) = average of f over all coordinate permutations

Two storages: dense, all m^n values as an (m, ..., m) array, and diagonal,
for order n >= 2 only, the length-m vector a of f = sum_i a_i e_i^(x)n.  On
diagonal (or order-1) vectors a, b the algebra stays on vectors: <f, g> =
delta^n sum a_i b_i, f ox_r g = delta^r sum a_i b_i e_i^(x)(p+q-2r) for
r >= 1 only (a scalar at order 0, a plain vector at order 1), and symmetrize
is the identity.  The outer product (r = 0) and any mix with a dense kernel
of order >= 2 go through `dense`, the one function that expands a diagonal
kernel.  MAX_ENTRIES counts stored entries, m for a diagonal kernel.

StepKernel(...) keeps, read-only, the float64 C-contiguous values array it
is given, so the algebra's results are never copied and a later write to
that array raises; step_kernel copies the caller's values first.

Each dense step holds at most its inputs, its output and temporaries of
grid.band_rows size (a band, or one first-axis row when a row is wider),
and symmetrize also its orbit counts, in the smallest unsigned type that
holds them (one byte an entry up to order 5): contract scales its fresh
tensordot result in place, symmetrize averages in its output array, and
linear_combine and is_symmetric work one band at a time.  Every value has
the bits of the whole-array arithmetic.  So a Gamma functional of a dense
order-N input peaks below 2.6 sizes of its order-(2N - 2) kernel, while
that kernel's contraction, orbit sums and counts are alive at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, band_rows, check_grid, check_int, check_object, check_real, chunk_rows
from .grid import make_grid, real_array

# Storage guard: reject kernels with more than this many stored entries.
MAX_ENTRIES = 10**8

# Orders above this are rejected before any shape or factorial is formed: an
# order-n kernel's second moment carries n!, and 170! is the largest
# factorial that is a finite double.
MAX_ORDER = 170

# Symmetry checks use this absolute tolerance on kernel values.
SYMMETRY_ATOL = 1e-12


def check_dense_entries(m: int, order: int, what: str) -> None:
    """Reject `what`, m^order stored entries on m cells, above MAX_ENTRIES entries."""
    if m**order > MAX_ENTRIES:
        raise ValueError(
            f"{what} too large: m^order = {m}^{order} = {m**order} entries "
            f"exceeds the {MAX_ENTRIES} dense-storage limit"
        )


def _check_order(order) -> int:
    """order as an int; ValueError unless it is an integer in [0, MAX_ORDER]."""
    order = check_int("kernel order", order)
    if order > MAX_ORDER:
        raise ValueError(f"kernel order must be at most {MAX_ORDER}, got {order}")
    return order


@dataclass(frozen=True)
class StepKernel:
    """Order-n step kernel.  values has shape (m,) * order, or (m,) if diagonal.

    The constructor checks the grid (a Grid), the order, the stored entries,
    the values (finite reals) and their shape; diagonal=True is dropped below
    order 2.  Kernels inside chaos expansions are symmetric; raw contraction
    output is not symmetrized until `symmetrize` is applied.
    """

    grid: Grid
    order: int
    values: np.ndarray
    diagonal: bool = False

    def __post_init__(self) -> None:
        check_grid(self.grid)
        order = _check_order(self.order)
        diagonal = bool(self.diagonal) and order >= 2
        stored = 1 if diagonal else order
        check_dense_entries(self.grid.m, stored, "kernel")
        arr = real_array("kernel values", self.values)
        if arr.shape != (self.grid.m,) * stored:
            raise ValueError(f"values shape {arr.shape} does not match order-{order} kernel on m={self.grid.m}")
        arr = np.require(arr, requirements="C")  # the same object when already C-contiguous
        arr.flags.writeable = False
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "diagonal", diagonal)


def step_kernel(grid: Grid, order: int, values, *, diagonal: bool = False) -> StepKernel:
    """Validated kernel constructor; accepts a scalar for order 0.

    The order and the stored entries are checked before values is copied;
    the kernel holds that copy, so the caller's array stays writable and a
    later write to it never reaches the kernel.
    """
    check_grid(grid)
    order = _check_order(order)
    check_dense_entries(grid.m, 1 if diagonal and order >= 2 else order, "kernel")
    return StepKernel(grid, order, np.array(values, order="C"), diagonal)


def dense(kernel: StepKernel) -> StepKernel:
    """kernel in dense storage: a diagonal kernel expanded to its (m,) * order array."""
    if not kernel.diagonal:
        return kernel
    m, n = kernel.grid.m, kernel.order
    check_dense_entries(m, n, "dense kernel")
    vals = np.zeros((m,) * n)
    vals[(np.arange(m),) * n] = kernel.values
    return StepKernel(kernel.grid, n, vals)


def _require_same_grid(f: StepKernel, g: StepKernel) -> None:
    if f.grid != g.grid:
        raise ValueError(f"grid mismatch: m={f.grid.m} vs m={g.grid.m}")


def _symmetrized_values(values: np.ndarray, m: int, order: int) -> np.ndarray:
    """Average of `values` over all coordinate permutations, for order >= 3.

    Positions sharing the same index multiset form one orbit, whose
    symmetrized value is the orbit mean.  A position's orbit key is the flat
    index of its sorted index tuple, built a first-axis slice (one band,
    grid.band_rows) at a time by a min/max compare-exchange network on
    broadcast digit ranges of the smallest unsigned type holding m: no
    kernel-size key array, no sort.  One pass adds each slice into the orbit
    sums and counts in flat order (a bincount's additions).  The counts take
    the smallest unsigned type holding min(order!, m^order), which bounds
    every orbit's size: one byte an entry up to order 5.  A second pass regathers
    the means into the sums array itself.  A key is the flat index of its
    orbit's representative, whose sorted tuple is its own, so the pass reads
    only entries it writes with their own values, and may overwrite the rest
    as it goes.  So beside `values` it holds one kernel-size float64 array,
    the counts and band-sized temporaries.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    rows = band_rows(m ** (order - 1))
    digit = np.min_scalar_type(m)

    def slice_keys(lo: int) -> np.ndarray:
        d = [np.arange(lo, min(m, lo + rows), dtype=digit).reshape((-1,) + (1,) * (order - 1))]
        d += [np.arange(m, dtype=digit).reshape((m,) + (1,) * (order - 1 - a)) for a in range(1, order)]
        # Insertion order: comparators among the first i digits act on 1/m^(order-i) of a slice.
        for i in range(1, order):
            for j in range(i, 0, -1):
                d[j - 1], d[j] = np.minimum(d[j - 1], d[j]), np.maximum(d[j - 1], d[j])
        key = d[0].astype(np.int64)
        for digits in d[1:]:
            key *= m
            key += digits
        return key

    sums = np.zeros(values.size)
    counts = np.zeros(values.size, dtype=np.min_scalar_type(min(math.factorial(order), m**order)))
    one = counts.dtype.type(1)  # a Python 1 would send np.add.at down its slow casting path
    for lo in range(0, m, rows):
        key = slice_keys(lo).ravel()
        np.add.at(sums, key, values[lo : lo + rows].ravel())
        np.add.at(counts, key, one)
    np.maximum(counts, one, out=counts)
    sums /= counts  # the orbit means, in place
    del counts
    out = sums.reshape(values.shape)
    for lo in range(0, m, rows):
        np.take(sums, slice_keys(lo), out=out[lo : lo + rows])
    return out


def symmetrize(kernel: StepKernel) -> StepKernel:
    """Symmetrization: average over all orderings of the n coordinates."""
    if kernel.order <= 1 or kernel.diagonal:
        return kernel
    if kernel.order == 2:
        sym = kernel.values + kernel.values.T
        sym /= 2.0
    else:
        sym = _symmetrized_values(kernel.values, kernel.grid.m, kernel.order)
    return StepKernel(kernel.grid, kernel.order, sym)


def is_symmetric(kernel: StepKernel) -> bool:
    """Whether every value is within SYMMETRY_ATOL of the symmetrized kernel's."""
    if kernel.order <= 1:
        return True
    flat, sym = kernel.values.reshape(-1), symmetrize(kernel).values.reshape(-1)
    rows = band_rows(1)
    gap = 0.0
    for lo in range(0, flat.size, rows):
        diff = np.subtract(flat[lo : lo + rows], sym[lo : lo + rows])
        gap = max(gap, np.abs(diff, out=diff).max())
    return bool(gap <= SYMMETRY_ATOL)


def contract(f: StepKernel, g: StepKernel, ell: int) -> StepKernel:
    """Contraction f ox_ell g: integrate out ell shared trailing coordinates.

    Output order is f.order + g.order - 2*ell, with axes ordered as the free
    coordinates of f followed by the free coordinates of g.  The result is not
    symmetrized.
    """
    _require_same_grid(f, g)
    ell = check_int("contraction depth ell", ell)
    if ell > min(f.order, g.order):
        raise ValueError(f"contraction depth {ell} out of range for orders ({f.order}, {g.order})")
    out_order = f.order + g.order - 2 * ell
    vectors = [k.values for k in (f, g) if k.diagonal or k.order == 1]
    if ell >= 1 and len(vectors) == 2 and (f.diagonal or g.diagonal):
        a, b = vectors
        vals = (np.vdot(a, b) if out_order == 0 else a * b) * f.grid.delta**ell
        return StepKernel(f.grid, out_order, vals, True)
    check_dense_entries(f.grid.m, out_order, "contraction output")
    f, g = dense(f), dense(g)
    if ell == 0:
        vals = np.multiply.outer(f.values, g.values)
    else:
        axes_f = list(range(f.order - ell, f.order))
        axes_g = list(range(g.order - ell, g.order))
        vals = np.asarray(np.tensordot(f.values, g.values, axes=(axes_f, axes_g)), dtype=np.float64)
        vals *= f.grid.delta**ell  # the tensordot result is fresh: scale it in place
    return StepKernel(f.grid, out_order, vals)


def inner_product(f: StepKernel, g: StepKernel) -> float:
    """L2 inner product <f, g> = delta^n * sum(f * g) for equal orders."""
    _require_same_grid(f, g)
    if f.order != g.order:
        raise ValueError(f"order mismatch: {f.order} vs {g.order}")
    if f.diagonal != g.diagonal:
        f, g = dense(f), dense(g)
    return float(f.grid.delta**f.order * np.vdot(f.values, g.values))


def kernel_norm(f: StepKernel) -> float:
    return math.sqrt(max(inner_product(f, f), 0.0))


def linear_combine(a: float, f: StepKernel, b: float, g: StepKernel) -> StepKernel:
    """a*f + b*g for kernels of equal order on the same grid."""
    _require_same_grid(f, g)
    if f.order != g.order:
        raise ValueError(f"order mismatch: {f.order} vs {g.order}")
    a, b = check_real("a", a), check_real("b", b)
    if f.diagonal != g.diagonal:
        f, g = dense(f), dense(g)
    vals = np.empty(f.values.shape)  # an array even at order 0, where a * f.values is a scalar
    out, fv, gv = vals.reshape(-1), f.values.reshape(-1), g.values.reshape(-1)
    rows = band_rows(1)
    for lo in range(0, out.size, rows):
        band = out[lo : lo + rows]
        np.multiply(a, fv[lo : lo + rows], out=band)
        band += b * gv[lo : lo + rows]
    return StepKernel(f.grid, f.order, vals, f.diagonal)


def scale_kernel(a: float, f: StepKernel) -> StepKernel:
    """a*f in f's storage."""
    a = check_real("a", a)
    return StepKernel(f.grid, f.order, a * f.values, f.diagonal)


def multiset_entries(kernel: StepKernel) -> tuple:
    """(rows, values): an order >= 1 kernel's nonzero entries at nondecreasing index tuples.

    One entry per cell multiset, listed lexicographically: rows is its
    (T, order) index array and values its kernel values.  A diagonal kernel
    lists its nonzero cells i as (i, ..., i).  A dense kernel is read a slice
    of the first axis at a time, sized so that a slice's argwhere and nonzero
    index arrays, about 2n words per entry, hold at most about CHUNK_ENTRIES
    words; so no mask or index table spans all m^n entries.
    """
    n, m = kernel.order, kernel.grid.m
    if kernel.diagonal:
        cells = np.flatnonzero(kernel.values)
        return np.repeat(cells[:, None], n, axis=1), kernel.values[cells]
    step = chunk_rows(2 * n * m ** (n - 1))
    parts = []
    for lo in range(0, m, step):
        part = np.argwhere(kernel.values[lo : lo + step])
        part[:, 0] += lo
        parts.append(part[np.all(part[:, 1:] >= part[:, :-1], axis=1)])
    rows = np.concatenate(parts)
    return rows, kernel.values[tuple(rows.T)]


def kernel_to_dict(kernel: StepKernel) -> dict:
    """JSON-ready form: order, grid size, and row-major values or the diagonal vector."""
    return {
        "order": kernel.order,
        "m": kernel.grid.m,
        "diagonal" if kernel.diagonal else "values": kernel.values.ravel(order="C").tolist(),
    }


def kernel_from_dict(data: dict) -> StepKernel:
    """The symmetric kernel of a kernel_to_dict body.

    ValueError for a body that is not an object, lacks "order" or "m", holds
    not exactly one of "values" and "diagonal", or is not symmetric.
    """
    check_object("kernel", data, ("order", "m"))
    stored = [key for key in ("values", "diagonal") if key in data]
    if len(stored) != 1:
        raise ValueError(f"kernel must hold exactly one of the keys 'values' and 'diagonal', got {stored}")
    grid = make_grid(data["m"])
    order = _check_order(data["order"])
    if "diagonal" in data:
        kernel = StepKernel(grid, order, data["diagonal"], True)
    else:
        kernel = StepKernel(grid, order, np.reshape(data["values"], (grid.m,) * order))
    if not is_symmetric(kernel):
        raise ValueError("loaded kernel is not symmetric")
    return kernel
