"""Fit the rational coefficients of chaoskit.stein's erfcx; needs mpmath.

    python3 tools/fit_erfcx.py

erfcx(t) = exp(t^2) erfc(t) is P(t) / Q(t) of degree 8 on [0, 4], and
(1 + u R(u)) / (sqrt(pi) t) with u = 1/t^2 and R = P / Q of degree 5 above 4
(Cody, Math. Comp. 23, 1969, uses the same split).  Each P / Q, Q(0) = 1, is
a linear least-squares fit in relative error at Chebyshev nodes, reweighted
by 1/|Q| a few times (Sanathanan-Koerner), at 50 digits.  Prints the
coefficients, lowest degree first, and the largest relative error of each fit
at its nodes.
"""

import mpmath as mp

mp.mp.dps = 50


def erfcx(t):
    return mp.exp(t * t) * mp.erfc(t)


def tail(u):
    # R(u) = (sqrt(pi) t erfcx(t) - 1) / u with t = u^(-1/2); R(0) = -1/2.
    if u == 0:
        return mp.mpf(-0.5)
    t = 1 / mp.sqrt(u)
    return (mp.sqrt(mp.pi) * t * erfcx(t) - 1) / u


def fit(f, a, b, degree, nodes=600, rounds=10):
    xs = [(a + b) / 2 + (b - a) / 2 * mp.cos(mp.pi * (k + 0.5) / nodes) for k in range(nodes)]
    fs = [f(x) for x in xs]
    weights = [1 / abs(y) for y in fs]
    for _ in range(rounds):
        rows = mp.matrix(nodes, 2 * degree + 1)
        rhs = mp.matrix(nodes, 1)
        for i, (x, y, w) in enumerate(zip(xs, fs, weights)):
            for j in range(degree + 1):
                rows[i, j] = w * x**j
            for j in range(1, degree + 1):
                rows[i, degree + j] = -w * y * x**j
            rhs[i] = w * y
        sol = mp.qr_solve(rows, rhs)[0]
        p = [sol[j] for j in range(degree + 1)]
        q = [mp.mpf(1)] + [sol[degree + j] for j in range(1, degree + 1)]
        weights = [1 / abs(y * mp.polyval(q[::-1], x)) for x, y in zip(xs, fs)]
    error = max(abs(mp.polyval(p[::-1], x) / mp.polyval(q[::-1], x) / y - 1) for x, y in zip(xs, fs))
    return p, q, error


def main() -> None:
    for name, f, a, b, degree in (
        ("_ERFCX_P / _ERFCX_Q on [0, 4]", erfcx, 0, 4, 8),
        ("_TAIL_P / _TAIL_Q on u in [0, 1/16]", tail, 0, mp.mpf(1) / 16, 5),
    ):
        p, q, error = fit(f, mp.mpf(a), mp.mpf(b), degree)
        print(f"{name}: largest relative error at the nodes {mp.nstr(error, 3)}")
        print("P", [float(c) for c in p])
        print("Q", [float(c) for c in q])


if __name__ == "__main__":
    main()
