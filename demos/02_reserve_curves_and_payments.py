"""How the quality-dependent reserve reshapes who buys and at what price.

A single uniform(0,1) buyer faces a seller whose retained value r(q)
rises with quality.  Only qualities cheap enough relative to the buyer's
strength are released, the sale probability interpolates between "always
sell" and "never sell", and each payment equals the buyer's expected
item value at the entry threshold plus the accumulated information rent.
"""

import numpy as np

import qsell


def describe(name, reserve, alpha=1.0):
    quality = qsell.make_quality_model(
        qsell.make_uniform(0.0, 1.0, m=513), alpha=alpha, reserve=reserve
    )
    inst = qsell.ProblemInstance(
        buyers=(qsell.make_uniform(0.0, 1.0, m=1025),), quality=quality
    )
    mech = qsell.build_optimal_mechanism(inst)
    rev = qsell.revenue_direct(mech)
    entry = mech.tables[0].entry
    if entry is None:
        entry = float("nan")
    shape = qsell.classify_structure(inst.quality)
    print(f"{name:<22} revenue {rev:.5f}  entry type {entry:.4f}  "
          f"acceptance shape: {shape}")
    return mech


def main():
    print("one buyer, uniform types; different retained-value curves\n")
    describe("flat r = 0", 0.0)
    describe("flat r = 0.25", 0.25)
    mech = describe("ramp r = q", lambda q: np.asarray(q, float))
    describe("hill r = .5-|q-.5|", lambda q: 0.5 - np.abs(np.asarray(q, float) - 0.5))

    print("\nramp instance payment schedule (every 128th winning type):")
    grid = mech.payment[0].grid
    pay = mech.payment[0].vals
    win = mech.win_weight[0].vals
    print("  type    win weight  payment")
    for k in range(0, grid.size, 128):
        if np.isfinite(pay[k]):
            print(f"  {grid[k]:.4f}  {win[k]:10.4f}  {pay[k]:.5f}")

    # sanity: a posted price recovers the textbook single-buyer answer
    quality = qsell.make_quality_model(
        qsell.make_uniform(0.0, 1.0, m=257), alpha=1.0, reserve=0.0
    )
    inst = qsell.ProblemInstance(
        buyers=(qsell.make_uniform(0.0, 1.0, m=1025),), quality=quality
    )
    mech = qsell.build_optimal_mechanism(inst)
    pay = mech.payment[0].vals
    flat = pay[np.isfinite(pay)]
    print(f"\nzero reserve: payments collapse to a posted price "
          f"{flat.min():.4f}..{flat.max():.4f} (expected 0.5),")
    print(f"revenue {qsell.revenue_direct(mech):.5f} (expected 0.25)")


if __name__ == "__main__":
    main()
