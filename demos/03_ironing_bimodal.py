"""Ironing a non-monotone virtual value.

A bimodal type density (bumps at 0.25 and 0.75) makes the virtual value
dip between the modes, so a naive threshold rule would be non-monotone
and unimplementable.  Ironing replaces the dip with the slope of the
lower convex envelope of its quantile integral: the result is monotone,
flat exactly on the bridged stretch, and untouched elsewhere — and the
win-weight curve is constant across each flat stretch, which is what
makes the mechanism's payments well defined.
"""

import numpy as np

import qsell


def bimodal_density(x, s=0.08):
    x = np.asarray(x, dtype=float)
    z = 1.0 / (s * np.sqrt(2.0 * np.pi))
    return 0.5 * z * (
        np.exp(-0.5 * ((x - 0.25) / s) ** 2)
        + np.exp(-0.5 * ((x - 0.75) / s) ** 2)
    )


def main():
    d = qsell.make_from_density(0.0, 1.0, bimodal_density, m=1025)

    quality = qsell.make_quality_model(
        qsell.make_uniform(0.0, 1.0, m=513),
        alpha=1.0,
        reserve=lambda q: np.asarray(q, float),
    )
    inst = qsell.ProblemInstance(buyers=(d,), quality=quality)
    mech = qsell.build_optimal_mechanism(inst)
    curve = mech.curves[0]
    print(f"solved curve regular: {curve.regular}")

    print(f"ironed intervals: {len(curve.ironed_intervals)}")
    for a, b in curve.ironed_intervals:
        lo, hi = curve.type_grid[a], curve.type_grid[b]
        plateau = curve.phi_ironed[a]
        raw_dip = float(np.min(curve.phi[a : b + 1]))
        raw_top = float(np.max(curve.phi[a : b + 1]))
        wflat = float(np.ptp(mech.win_weight[0].vals[a : b + 1]))
        print(f"  types [{lo:.4f}, {hi:.4f}]: raw value swings "
              f"{raw_dip:+.4f}..{raw_top:+.4f}, ironed to {plateau:+.4f}")
        print(f"    win weight varies by {wflat:.2e} across the flat stretch")

    outside = np.ones(curve.type_grid.size, dtype=bool)
    for a, b in curve.ironed_intervals:
        outside[a : b + 1] = False
    dev = float(np.max(np.abs(curve.phi_ironed[outside] - curve.phi[outside])))
    mono = float(np.min(np.diff(curve.phi_ironed)))
    print(f"untouched outside the flat stretches (max dev {dev:.1e}); "
          f"min slope {mono:.1e} (never negative)")

    print("\ncurve samples (every 64th type):")
    print("  type    raw phi   ironed")
    for k in range(0, curve.type_grid.size, 64):
        print(f"  {curve.type_grid[k]:.4f}  {curve.phi[k]:+.4f}   "
              f"{curve.phi_ironed[k]:+.4f}")

    rev_d = qsell.revenue_direct(mech)
    rev_v = qsell.revenue_virtual(mech)
    print(f"\nrevenue (direct quadrature):  {rev_d:.6f}")
    print(f"revenue (virtual rewrite):    {rev_v:.6f}")


if __name__ == "__main__":
    main()
