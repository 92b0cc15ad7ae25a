from __future__ import annotations

import math

import numpy as np
import pytest

from chaoskit import IncrementStream
from chaoskit.hermite import hermite_rows
from oracles import batch_mean_se, hermite_recurrence

# Explicit monic forms for cross-checking the recurrence.
EXPLICIT = {
    0: lambda x: np.ones_like(x),
    1: lambda x: x,
    2: lambda x: x**2 - 1,
    3: lambda x: x**3 - 3 * x,
    4: lambda x: x**4 - 6 * x**2 + 3,
    5: lambda x: x**5 - 10 * x**3 + 15 * x,
    6: lambda x: x**6 - 15 * x**4 + 45 * x**2 - 15,
}


def _h(k: int, x) -> np.ndarray:
    """H_k(x) from one hermite_rows walk on a float64 copy of x, which the walk may overwrite."""
    arr = np.array(x, dtype=np.float64, ndmin=1)
    return np.ones_like(arr) if k == 0 else hermite_rows(arr, (k,), lambda j: np.empty_like(arr))[k]


def test_known_values():
    assert _h(0, 1.7)[0] == 1.0
    assert _h(1, -2.5)[0] == -2.5
    assert _h(2, 2.0)[0] == 3.0
    assert _h(3, 1.0)[0] == -2.0


@pytest.mark.parametrize("k", sorted(EXPLICIT))
def test_recurrence_matches_explicit_polynomials(k):
    x = np.linspace(-4.0, 4.0, 20)
    got = _h(k, x)
    want = EXPLICIT[k](x)
    scale = np.maximum(np.abs(want), 1.0)
    assert np.max(np.abs(got - want) / scale) <= 1e-10


def test_single_degree_rows_match_recurrence_bits():
    x = np.concatenate([np.linspace(-6.0, 6.0, 97), np.random.default_rng(5).standard_normal(64)])
    for k in range(1, 65):
        assert np.array_equal(_h(k, x), hermite_recurrence(k, x))


@pytest.mark.parametrize(
    "degrees", [(1,), (2,), (3,), (1, 2), (1, 2, 3, 4), (2, 4), (3, 4), (1, 3, 6), (2, 5, 6), (7,)]
)
def test_rows_match_recurrence_bits(degrees):
    # One walk: H_1 is x itself, every other degree asked for is its row(k)
    # array, and x is overwritten only by the top degree, only without H_1.
    x = np.random.default_rng(6).standard_normal((7, 9))
    x0 = x.copy()
    kept = {}

    def row(k):
        kept[k] = np.full_like(x, np.nan)
        return kept[k]

    rows = hermite_rows(x, degrees, row)
    assert sorted(rows) == list(degrees)
    for k in degrees:
        assert np.array_equal(rows[k], hermite_recurrence(k, x0))
    on_x = 1 if 1 in degrees else max(degrees)
    assert rows[on_x] is x
    assert sorted(kept) == [k for k in degrees if k != on_x]
    assert all(rows[k] is kept[k] for k in kept)
    # Into new arrays, the kept degrees have the same bits.
    fresh = x0.copy()
    plain = hermite_rows(fresh, degrees, lambda k: np.empty_like(fresh))
    assert plain[on_x] is fresh
    for k in degrees:
        assert np.array_equal(plain[k], rows[k])
        assert k == on_x or not np.shares_memory(plain[k], fresh)


def test_gaussian_orthogonality_mc():
    # E[H_j(Z) H_k(Z)] = delta_jk k! within Monte Carlo resolution
    z = IncrementStream(seed=77).standard_normal_block(1, 0, 1_000_000)[:, 0]
    rows = hermite_rows(z, range(1, 5), lambda k: np.empty_like(z))
    table = [np.ones_like(z)] + [rows[k] for k in range(1, 5)]
    for j in range(5):
        for k in range(j, 5):
            prods = table[j] * table[k]
            mean, se = batch_mean_se(prods)
            target = math.factorial(k) if j == k else 0.0
            assert abs(mean - target) <= 3 * se, (j, k, mean, target, se)
