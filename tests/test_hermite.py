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
    """H_k(x) on a float64 copy of x, which the walk at k >= 2 overwrites.

    H_0 = 1 and H_1 = x by definition; hermite_rows walks degrees >= 2 only.
    """
    arr = np.array(x, dtype=np.float64, ndmin=1)
    if k <= 1:
        return np.ones_like(arr) if k == 0 else arr
    return hermite_rows(arr, (k,), lambda j: np.empty_like(arr))[k]


def test_known_values():
    assert _h(2, 2.0)[0] == 3.0
    assert _h(3, 1.0)[0] == -2.0
    assert _h(4, 2.0)[0] == -5.0


@pytest.mark.parametrize("k", sorted(EXPLICIT))
def test_recurrence_matches_explicit_polynomials(k):
    x = np.linspace(-4.0, 4.0, 20)
    got = _h(k, x)
    want = EXPLICIT[k](x)
    scale = np.maximum(np.abs(want), 1.0)
    assert np.max(np.abs(got - want) / scale) <= 1e-10


def test_single_degree_rows_match_recurrence_bits():
    x = np.concatenate([np.linspace(-6.0, 6.0, 97), np.random.default_rng(5).standard_normal(64)])
    for k in range(2, 65):
        assert np.array_equal(_h(k, x), hermite_recurrence(k, x))


@pytest.mark.parametrize("degrees", [(2,), (3,), (2, 4), (3, 4), (2, 5, 6), (7,)])
def test_rows_match_recurrence_bits(degrees):
    # One walk: x is H_1 and is overwritten by the top degree, and every
    # other degree asked for is its row(k) array.  From degree 3 up the
    # scaled steps go into row(0), which is not returned.
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
    top = max(degrees)
    assert rows[top] is x
    scratch = [0] if top >= 3 else []
    assert sorted(kept) == scratch + [k for k in degrees if k != top]
    assert all(rows[k] is kept[k] for k in kept if k != 0)
    # Into new arrays, the kept degrees have the same bits.
    fresh = x0.copy()
    plain = hermite_rows(fresh, degrees, lambda k: np.empty_like(fresh))
    assert plain[top] is fresh
    for k in degrees:
        assert np.array_equal(plain[k], rows[k])
        assert k == top or not np.shares_memory(plain[k], fresh)


def test_gaussian_orthogonality_mc():
    # E[H_j(Z) H_k(Z)] = delta_jk k! within Monte Carlo resolution; H_1 is
    # z itself, and the walk overwrites a copy of it.
    z = IncrementStream(seed=77).standard_normal_block(1, 0, 1_000_000)[:, 0]
    rows = hermite_rows(z.copy(), range(2, 5), lambda k: np.empty_like(z))
    table = [np.ones_like(z), z] + [rows[k] for k in range(2, 5)]
    for j in range(5):
        for k in range(j, 5):
            prods = table[j] * table[k]
            mean, se = batch_mean_se(prods)
            target = math.factorial(k) if j == k else 0.0
            assert abs(mean - target) <= 3 * se, (j, k, mean, target, se)
