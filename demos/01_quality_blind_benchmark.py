"""When quality carries no information, the classic auction is optimal.

Two iid uniform(0,1) buyers compete for an item whose quality does not
affect their values (alpha constant, zero reserve).  The optimal
information-revealing mechanism then collapses to the familiar
second-price auction with reserve 1/2: expected revenue 5/12, and the
allocation matches a quality-blind benchmark implemented from first
principles, profile by profile.
"""

import numpy as np

import qsell


def main():
    quality = qsell.make_quality_model(
        qsell.make_uniform(0.0, 1.0, m=257), alpha=1.0, reserve=0.0
    )
    inst = qsell.ProblemInstance(
        buyers=(
            qsell.make_uniform(0.0, 1.0, m=1025),
            qsell.make_uniform(0.0, 1.0, m=1025),
        ),
        quality=quality,
    )

    mech = qsell.build_optimal_mechanism(inst)
    revenue = qsell.revenue_direct(mech)
    print(f"optimal revenue:          {revenue:.6f}   (5/12 = {5/12:.6f})")

    base = qsell.myerson_baseline(inst)
    reserve_type = float(np.interp(base.xi_bar, base.phi_tables[0], base.type_grids[0]))
    print(f"quality-blind benchmark:  {base.revenue:.6f}")
    print(f"benchmark reserve type:   {reserve_type:.6f}   (expected 0.5)")

    rng = np.random.Generator(np.random.PCG64(2024))
    n = 200_000
    types = rng.uniform(0.0, 1.0, size=(n, 2))
    qs = rng.uniform(0.0, 1.0, size=n)
    ours = qsell.allocate_many(mech, types, qs)
    theirs = base.allocate_many(types)
    print(f"allocation mismatches:    {int(np.sum(ours != theirs))} of {n}")

    # the payment curve on the winning range is t/2 + 1/(8t)
    pts = np.linspace(0.55, 1.0, 6)
    fitted = np.interp(pts, mech.payment[0].grid, mech.payment[0].vals)
    analytic = pts / 2 + 1 / (8 * pts)
    print("\n  type   payment   t/2 + 1/(8t)")
    for t, a, b in zip(pts, fitted, analytic):
        print(f"  {t:.2f}   {a:.5f}   {b:.5f}")


if __name__ == "__main__":
    main()
