"""Second-price revenue of n iid buyers, a witness that reads no phi, no ironing and no table.

A seller who reveals the quality q and then runs a second-price auction
with reserve price alpha(q) x among n buyers of values alpha(q) t, each
t drawn from the cdf F, earns at q

    alpha(q) [x (1 - F(x)^n) + T(x)] + r(q) F(x)^n,

where T(x) integrates, from x to the top type, the chance that the
second-highest type exceeds y: 1 - n F(y)^(n-1) + (n - 1) F(y)^n.  For
iid regular buyers the best reserve makes this the optimal revenue
(Myerson, 1981; Riley and Samuelson, 1981); otherwise it is a mechanism
of the same model and bounds the optimum from below.  For n = 1, T = 0
and it is the posted-price witness of ``full_disclosure``.  numpy only.
"""

import numpy as np

from full_disclosure import quality_integral


def _tail_mean(F0, F1, n):
    """The mean of 1 - n F^(n-1) + (n - 1) F^n as F runs linearly from F0 to F1.

    It is the divided difference of the antiderivative F - F^n +
    (n - 1) F^(n+1) / (n + 1).  With h_j the sum of F0^i F1^(j-i) over
    i = 0, ..., j, that is 1 - h_(n-1) + (n - 1) / (n + 1) h_n, which
    also holds where F0 = F1.
    """
    power, h = np.ones_like(F0), np.ones_like(F0)
    for _ in range(n):
        lower = h
        power = power * F0
        h = F1 * h + power
    return 1.0 - lower + (n - 1) / (n + 1) * h


def second_price_revenue_at(t, F, xi, n):
    """max over reserves x of x (1 - F(x)^n) + T(x) + xi F(x)^n, for each xi in a 1-D array.

    F is linear on each cell of the type grid t, so the objective is a
    polynomial of degree n + 1 there, with derivative
    n F^(n-1) (1 - F(x) - f (x - xi)).  Where F > 0 it rises up to the
    root of the linear factor and falls after it, so its maximum on a
    cell is at a node or at that root, and both are taken exactly.
    Below t[0] it rises and above t[-1] it equals xi, so the nodes cover
    both.
    """
    xi = np.asarray(xi, dtype=float)[:, None]
    width, dF = np.diff(t), np.diff(F)
    cells = width * _tail_mean(F[:-1], F[1:], n)
    T = np.append(np.cumsum(cells[::-1])[::-1], 0.0)  # T at every node
    Fn = F**n
    best = np.max(t * (1.0 - Fn) + T + xi * Fn, axis=1)
    rising = dF > 0.0
    t0, t1, F0, F1 = t[:-1][rising], t[1:][rising], F[:-1][rising], F[1:][rising]
    f = dF[rising] / width[rising]
    x = (1.0 - F0 + f * (t0 + xi)) / (2.0 * f)  # where 1 - F(x) - (x - xi) f = 0
    Fx = F0 + f * (x - t0)
    Fxn = Fx**n
    tail = T[1:][rising] + (t1 - x) * _tail_mean(Fx, np.broadcast_to(F1, Fx.shape), n)
    vertex = np.where((x > t0) & (x < t1), x * (1.0 - Fxn) + tail + xi * Fxn, -np.inf)
    return np.maximum(best, vertex.max(axis=1, initial=-np.inf))


def second_price_revenue(buyer, quality, n, points=16, chunk=128):
    """Integral over q of g(q) alpha(q) second_price_revenue_at xi(q), n buyers like ``buyer``.

    The quality side is ``full_disclosure.quality_integral``'s, chunked
    the same way.
    """
    return quality_integral(
        quality, lambda xi: second_price_revenue_at(buyer.grid, buyer.cdf_vals, xi, n), points, chunk
    )
