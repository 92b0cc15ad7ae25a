"""Independence tests for multiple integrals and chaos expansions.

Two multiple integrals I_p(f), I_q(g) of a common Gaussian field are
independent exactly when the first contraction f ox_1 g vanishes; for
expansions, strong independence asks this of every kernel pair.  For the
characteristic-function factorization argument one also wants
E[e^{it(X+Y)} <DX, D(-L)^{-1} Y>] = 0 at every t; by Cauchy-Schwarz its
modulus is at most sqrt(E[<DX, D(-L)^{-1} Y>^2]), which the k-way
experiments read exactly as `second_moment(cross_gamma(x, y))`.
"""

from __future__ import annotations

from typing import NamedTuple

from .chaos import ChaosExpansion
from .kernels import StepKernel, contract, kernel_norm

# Relative factor for deciding that a contraction norm is zero.
DEFAULT_REL_TOL = 1e-10


class IndependenceResult(NamedTuple):
    independent: bool
    witness_norm: float  # ||f ox_1 g||


class StrongIndependenceResult(NamedTuple):
    independent: bool
    worst_pair: tuple | None  # kernel orders (n, m) of the worst offender
    worst_norm: float


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

