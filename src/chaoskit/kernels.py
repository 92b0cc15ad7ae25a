"""Step kernels on the grid and their L2([0,1]^n) algebra.

An order-n step kernel is a function on [0,1]^n that is constant on products
of grid cells, stored as a dense (m, ..., m) array.  Inner products and
contractions carry the cell measure delta = 1/m per integrated coordinate:

    <f, g>        = delta^n * sum f * g
    (f ox_l g)    = delta^l * sum over l shared trailing coordinates
    symmetrize(f) = average of f over all coordinate permutations
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import Grid, check_int, check_real, make_grid, real_array

# Dense storage guard: reject kernels with more than this many entries.
MAX_ENTRIES = 10**8

# Symmetry checks use this absolute tolerance on kernel values.
SYMMETRY_ATOL = 1e-12


@dataclass(frozen=True)
class StepKernel:
    """Dense order-n step kernel.  values has shape (m,) * order; order 0 is a scalar.

    Kernels stored inside chaos expansions are symmetric; raw contraction
    output is not symmetrized until `symmetrize` is applied.
    """

    grid: Grid
    order: int
    values: np.ndarray


def check_dense_entries(m: int, order: int, what: str) -> None:
    """Reject `what`, a dense order-`order` kernel on m cells, above MAX_ENTRIES entries."""
    if m**order > MAX_ENTRIES:
        raise ValueError(
            f"{what} too large: m^order = {m}^{order} = {m**order} entries "
            f"exceeds the {MAX_ENTRIES} dense-storage limit"
        )


def step_kernel(grid: Grid, order: int, values, *, copy: bool = True) -> StepKernel:
    """Validated kernel constructor; accepts a scalar for order 0."""
    order = check_int("kernel order", order)
    check_dense_entries(grid.m, order, "kernel")
    arr = real_array("kernel values", values)
    if arr.shape != (grid.m,) * order:
        raise ValueError(f"values shape {arr.shape} does not match order-{order} kernel on m={grid.m}")
    # ascontiguousarray promotes 0-d to shape (1,); reshape restores it.
    arr = np.ascontiguousarray(arr).reshape(arr.shape)
    if copy and arr is values:
        arr = arr.copy()
    arr.flags.writeable = False
    return StepKernel(grid=grid, order=order, values=arr)


def zero_kernel(grid: Grid, order: int) -> StepKernel:
    return step_kernel(grid, order, np.zeros((grid.m,) * order), copy=False)


def _require_same_grid(f: StepKernel, g: StepKernel) -> None:
    if f.grid != g.grid:
        raise ValueError(f"grid mismatch: m={f.grid.m} vs m={g.grid.m}")


def _symmetrized_values(values: np.ndarray, m: int, order: int) -> np.ndarray:
    """Average of `values` over all coordinate permutations.

    Positions sharing the same index multiset form one orbit, whose
    symmetrized value is the orbit mean.  A position's orbit key is the flat
    index of its sorted index tuple, built a first-axis slice (about 2^16
    entries) at a time by a min/max compare-exchange network on broadcast
    digit ranges of the smallest unsigned type holding m: no kernel-size key
    array, no sort.  One pass adds each slice into the orbit sums and counts
    in flat order (a bincount's additions); a second regathers the means.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    rows = max(1, (1 << 16) // m ** (order - 1))
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
    counts = np.zeros(values.size, dtype=np.int64)
    for lo in range(0, m, rows):
        key = slice_keys(lo).ravel()
        np.add.at(sums, key, values[lo : lo + rows].ravel())
        np.add.at(counts, key, 1)
    np.maximum(counts, 1, out=counts)
    sums /= counts  # the orbit means, in place
    del counts
    out = np.empty(values.shape)
    for lo in range(0, m, rows):
        np.take(sums, slice_keys(lo), out=out[lo : lo + rows])
    return out


def symmetrize(kernel: StepKernel) -> StepKernel:
    """Symmetrization: average over all orderings of the n coordinates."""
    if kernel.order <= 1:
        return kernel
    if kernel.order == 2:
        sym = (kernel.values + kernel.values.T) / 2.0
    else:
        sym = _symmetrized_values(kernel.values, kernel.grid.m, kernel.order)
    return step_kernel(kernel.grid, kernel.order, sym, copy=False)


def is_symmetric(kernel: StepKernel, atol: float = SYMMETRY_ATOL) -> bool:
    atol = check_real("atol", atol)
    if kernel.order <= 1:
        return True
    return bool(
        np.max(np.abs(kernel.values - symmetrize(kernel).values)) <= atol
    )


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
    check_dense_entries(f.grid.m, out_order, "contraction output")
    if ell == 0:
        vals = np.multiply.outer(f.values, g.values)
    else:
        axes_f = list(range(f.order - ell, f.order))
        axes_g = list(range(g.order - ell, g.order))
        vals = np.tensordot(f.values, g.values, axes=(axes_f, axes_g))
        vals = np.asarray(vals, dtype=np.float64) * f.grid.delta**ell
    return step_kernel(f.grid, out_order, vals, copy=False)


def inner_product(f: StepKernel, g: StepKernel) -> float:
    """L2 inner product <f, g> = delta^n * sum(f * g) for equal orders."""
    _require_same_grid(f, g)
    if f.order != g.order:
        raise ValueError(f"order mismatch: {f.order} vs {g.order}")
    return float(f.grid.delta**f.order * np.vdot(f.values, g.values))


def kernel_norm(f: StepKernel) -> float:
    return math.sqrt(max(inner_product(f, f), 0.0))


def linear_combine(a: float, f: StepKernel, b: float, g: StepKernel) -> StepKernel:
    """a*f + b*g for kernels of equal order on the same grid."""
    _require_same_grid(f, g)
    if f.order != g.order:
        raise ValueError(f"order mismatch: {f.order} vs {g.order}")
    a, b = check_real("a", a), check_real("b", b)
    return step_kernel(f.grid, f.order, a * f.values + b * g.values, copy=False)


def kernel_to_dict(kernel: StepKernel) -> dict:
    """JSON-ready form: order, grid size, and row-major values."""
    return {
        "order": kernel.order,
        "m": kernel.grid.m,
        "values": kernel.values.ravel(order="C").tolist(),
    }


def kernel_from_dict(data: dict, *, require_symmetric: bool = True) -> StepKernel:
    grid = make_grid(data["m"])
    order = check_int("kernel order", data["order"])
    values = np.reshape(data["values"], (grid.m,) * order)
    kernel = step_kernel(grid, order, values, copy=False)
    if require_symmetric and not is_symmetric(kernel):
        raise ValueError("loaded kernel is not symmetric")
    return kernel


def save_kernel(kernel: StepKernel, path) -> None:
    Path(path).write_text(json.dumps(kernel_to_dict(kernel)))


def load_kernel(path, *, require_symmetric: bool = True) -> StepKernel:
    return kernel_from_dict(json.loads(Path(path).read_text()), require_symmetric=require_symmetric)
