"""Independence tests for multiple integrals and chaos expansions.

Two multiple integrals I_p(f), I_q(g) of a common Gaussian field are
independent exactly when the first contraction f ox_1 g vanishes; for
expansions, strong independence asks this of every kernel pair.  For the
characteristic-function factorization argument one also wants
E[e^{it(X+Y)} <DX, D(-L)^{-1} Y>] = 0 along a grid of t, which the diagnostic
below estimates by Monte Carlo.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .chaos import ChaosExpansion, add, cross_gamma, evaluate_samples
from .grid import IncrementStream, check_run_counts
from .kernels import StepKernel, contract, kernel_norm
from .stein import char_fn_estimates

# Relative factor for deciding that a contraction norm is zero.
DEFAULT_REL_TOL = 1e-10


class IndependenceResult(NamedTuple):
    independent: bool
    witness_norm: float  # ||f ox_1 g||


class StrongIndependenceResult(NamedTuple):
    independent: bool
    worst_pair: tuple | None  # kernel orders (n, m) of the worst offender
    worst_norm: float


class ClassADiagnostic(NamedTuple):
    max_modulus: float
    estimates: tuple


def integrals_independent(f: StepKernel, g: StepKernel) -> IndependenceResult:
    """Whether I_p(f) and I_q(g) are independent: true iff ||f ox_1 g|| <= tol.

    The tolerance is DEFAULT_REL_TOL * ||f|| * ||g||, so scaling either kernel
    does not flip the verdict.
    """
    if f.order < 1 or g.order < 1:
        raise ValueError("independence test requires kernel orders >= 1")
    tol = DEFAULT_REL_TOL * kernel_norm(f) * kernel_norm(g)
    witness = kernel_norm(contract(f, g, 1))
    return IndependenceResult(independent=witness <= tol, witness_norm=witness)


def strongly_independent(x: ChaosExpansion, y: ChaosExpansion) -> StrongIndependenceResult:
    """Whether every kernel pair of x and y has vanishing first contraction.

    Each pair's verdict is integrals_independent(f, g); order-0 slots
    carry no randomness and are ignored.  The reported worst pair maximizes
    the contraction norm relative to the kernel norms.
    """
    if x.grid != y.grid:
        raise ValueError("grid mismatch")
    independent = True
    worst_pair = None
    worst_norm = 0.0
    worst_ratio = -1.0
    for n in x.nonzero_orders():
        if n < 1:
            continue
        f = x.kernels[n]
        nf = kernel_norm(f)
        for m_ord in y.nonzero_orders():
            if m_ord < 1:
                continue
            g = y.kernels[m_ord]
            verdict = integrals_independent(f, g)
            independent = independent and verdict.independent
            scale = nf * kernel_norm(g)
            ratio = verdict.witness_norm / scale if scale > 0 else 0.0
            if ratio > worst_ratio:
                worst_ratio = ratio
                worst_pair = (n, m_ord)
                worst_norm = verdict.witness_norm
    return StrongIndependenceResult(
        independent=independent, worst_pair=worst_pair, worst_norm=worst_norm
    )


def class_a_diagnostic(
    x: ChaosExpansion,
    y: ChaosExpansion,
    t_grid: Sequence[float],
    n_samples: int,
    stream: IncrementStream,
    workers: int = 1,
) -> ClassADiagnostic:
    """Estimate |E[e^{it(X+Y)} <DX, D(-L)^{-1} Y>]| along t_grid.

    A vanishing diagnostic is what lets the characteristic function of X + Y
    factor; for strongly independent couples the cross functional is the zero
    expansion and every estimate is exactly zero.  Then nothing is drawn: the
    cross functional is 0 on every path, so the estimates are taken on zero
    arrays of length n_samples, which give the same values as drawn X + Y.
    """
    cg = cross_gamma(x, y)
    if cg.nonzero_orders():
        s_vals, cg_vals = evaluate_samples([add(x, y), cg], n_samples, stream, workers=workers)
    else:
        check_run_counts(n_samples, workers)
        s_vals = cg_vals = np.zeros(n_samples)
    estimates = char_fn_estimates(s_vals, cg_vals, t_grid)
    max_modulus = max((e.value for e in estimates), default=0.0)
    return ClassADiagnostic(max_modulus=float(max_modulus), estimates=estimates)
