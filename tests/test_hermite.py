from __future__ import annotations

import math

import numpy as np
import pytest

from chaoskit import IncrementStream, hermite_eval, hermite_table
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


def test_known_values():
    assert hermite_eval(0, 1.7) == 1.0
    assert hermite_eval(1, -2.5) == -2.5
    assert hermite_eval(2, 2.0) == 3.0
    assert hermite_eval(3, 1.0) == -2.0


@pytest.mark.parametrize("k", sorted(EXPLICIT))
def test_recurrence_matches_explicit_polynomials(k):
    x = np.linspace(-4.0, 4.0, 20)
    got = hermite_eval(k, x)
    want = EXPLICIT[k](x)
    scale = np.maximum(np.abs(want), 1.0)
    assert np.max(np.abs(got - want) / scale) <= 1e-10


def test_eval_matches_recurrence_bits():
    x = np.concatenate([np.linspace(-6.0, 6.0, 97), np.random.default_rng(5).standard_normal(64)])
    for k in range(65):
        assert np.array_equal(hermite_eval(k, x), hermite_recurrence(k, x))
        for v in (x[3], float(x[70]), np.float64(-0.25), np.array(1.5)):
            got, want = hermite_eval(k, v), hermite_recurrence(k, v)
            assert type(got) is float and got == want


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
    # Without row, the kept degrees are new arrays with the same bits.
    fresh = x0.copy()
    plain = hermite_rows(fresh, degrees)
    assert plain[on_x] is fresh
    for k in degrees:
        assert np.array_equal(plain[k], rows[k])
        assert k == on_x or not np.shares_memory(plain[k], fresh)


def test_eval_and_table_never_write_their_input():
    rng = np.random.default_rng(7)
    for x in (0.75, np.float64(-1.25), np.array(1.5), rng.standard_normal(5), rng.standard_normal((3, 4))):
        x0 = np.copy(x)
        for k in range(7):
            got = hermite_eval(k, x)
            assert np.array_equal(got, hermite_recurrence(k, x0)) and got is not x
            assert np.array_equal(x, x0)
        table = hermite_table(6, x)
        assert np.array_equal(table, [hermite_recurrence(k, x0) for k in range(7)])
        assert np.array_equal(x, x0)


def test_table_matches_pointwise_eval():
    x = np.linspace(-3.0, 3.0, 11)
    table = hermite_table(6, x)
    assert table.shape == (7, 11)
    for k in range(7):
        assert np.array_equal(table[k], hermite_eval(k, x))


def test_degree_guard():
    assert np.isfinite(hermite_eval(64, 0.5))
    with pytest.raises(ValueError):
        hermite_eval(65, 0.5)
    with pytest.raises(ValueError):
        hermite_eval(-1, 0.5)
    with pytest.raises(ValueError):
        hermite_table(65, np.zeros(2))


def test_gaussian_orthogonality_mc():
    # E[H_j(Z) H_k(Z)] = delta_jk k! within Monte Carlo resolution
    z = IncrementStream(seed=77).standard_normal_block(1, 0, 1_000_000)[:, 0]
    table = hermite_table(4, z)
    for j in range(5):
        for k in range(j, 5):
            prods = table[j] * table[k]
            mean, se = batch_mean_se(prods)
            target = math.factorial(k) if j == k else 0.0
            assert abs(mean - target) <= 3 * se, (j, k, mean, target, se)
