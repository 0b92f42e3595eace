"""Full-disclosure revenue of one buyer, a witness that reads no phi, no ironing and no table.

A seller who reveals the quality q and then posts the best price for it
earns alpha(q) * max_x [x (1 - F(x)) + xi(q) F(x)] at q, the reserve
value retained included, where F is the buyer's cdf and xi = reserve /
alpha (v = alpha(q) * t).  For one buyer a posted price is an optimal
mechanism at every q (Myerson, "Optimal Auction Design", 1981), so
this is the optimal revenue by a route that reads only the cdf and the
quality tables.  numpy only.
"""

import numpy as np


def posted_price_revenue(t, F, xi):
    """max over prices x of x (1 - F(x)) + xi F(x), for each xi in a 1-D array.

    F is linear on each cell of the type grid t, so the objective is a
    concave quadratic there: its maximum is at a node or at the cell's
    vertex, and both are taken exactly.  Below t[0] it rises and above
    t[-1] it equals xi, so the nodes cover both.
    """
    xi = np.asarray(xi, dtype=float)[:, None]
    best = np.max(t * (1.0 - F) + xi * F, axis=1)
    rising = np.diff(F) > 0.0
    t0, width, F0 = t[:-1][rising], np.diff(t)[rising], F[:-1][rising]
    f = np.diff(F)[rising] / width
    x = (1.0 - F0 + f * (t0 + xi)) / (2.0 * f)  # where 1 - F(x) - (x - xi) f = 0
    Fx = F0 + f * (x - t0)
    vertex = np.where((x > t0) & (x < t0 + width), x * (1.0 - Fx) + xi * Fx, -np.inf)
    return np.maximum(best, vertex.max(axis=1, initial=-np.inf))


def quality_integral(quality, best, points=16, chunk=128):
    """Integral over q of g(q) alpha(q) best(xi(q)), best read for a 1-D array of xi.

    g, alpha and xi are read linearly between the quality nodes, and each
    quality cell takes ``points`` Gauss-Legendre points.  The (quality
    point x type cell) work runs ``chunk`` quality points at a time.
    """
    q = quality.G.grid
    u, w = np.polynomial.legendre.leggauss(points)
    h = np.diff(q)[:, None]
    Q = (q[:-1, None] + 0.5 * h * (u + 1.0)).ravel()
    g, alpha = (np.interp(Q, q, vals) for vals in (quality.G.pdf_vals, quality.alpha.vals))
    weight = (0.5 * h * w).ravel() * g * alpha
    xi = np.interp(Q, q, quality.reserve.vals / quality.alpha.vals)
    total = 0.0
    for k in range(0, Q.size, chunk):
        total += float(weight[k : k + chunk] @ best(xi[k : k + chunk]))
    return total


def full_disclosure_revenue(buyer, quality, points=16, chunk=128):
    """Integral over q of g(q) alpha(q) posted_price_revenue at xi(q) (``quality_integral``)."""
    return quality_integral(
        quality, lambda xi: posted_price_revenue(buyer.grid, buyer.cdf_vals, xi), points, chunk
    )
