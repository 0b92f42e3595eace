"""What a buyer learns from being asked to purchase.

The recommendation "buy" reveals that the item's quality lies where the
normalized reserve ratio is below the buyer's threshold.  Depending on
the reserve curve's shape that acceptance region is a bottom interval, a
top interval, or a union of segments — and the buyer's posterior is the
prior truncated to it.  Stronger types see larger regions, so the posted
recommendation price already encodes the quality disclosure.
"""

import numpy as np

import qsell


def main():
    G = qsell.make_uniform(0.0, 1.0, m=513)
    shapes = {
        "rising   r=q": lambda q: np.asarray(q, float),
        "falling  a=1+q, r=1": None,  # ratio 1/(1+q)
        "valley   r=|q-1/2|": lambda q: np.abs(np.asarray(q, float) - 0.5),
        "hill     r=.5-|q-.5|": lambda q: 0.5 - np.abs(np.asarray(q, float) - 0.5),
    }
    models = {}
    for name, r in shapes.items():
        if r is None:
            models[name] = qsell.make_quality_model(
                G, alpha=lambda q: 1.0 + np.asarray(q, float), reserve=1.0
            )
        else:
            models[name] = qsell.make_quality_model(G, alpha=1.0, reserve=r)

    print("acceptance regions at threshold level 0.4:\n")
    for name, qm in models.items():
        s = qsell.acceptance_set(qm, 0.4)
        segs = " u ".join(f"[{a:.3f}, {b:.3f}]" for a, b in s.intervals)
        print(f"  {name:<22} {qsell.classify_structure(qm):<9} {segs}")

    # posterior for a mid type on the rising-reserve instance
    inst = qsell.ProblemInstance(
        buyers=(qsell.make_uniform(0.0, 1.0, m=1025),),
        quality=models["rising   r=q"],
    )
    mech = qsell.build_optimal_mechanism(inst)
    t = 0.75
    post = qsell.posterior_belief(mech, 0, t)
    mass = float(np.trapezoid(post.vals, post.grid))
    mean = float(np.trapezoid(post.vals * post.grid, post.grid))
    print(f"\nrising reserve, buyer type {t}: posterior over quality is the")
    print(f"prior truncated to [0, 0.5]: mass {mass:.6f}, mean {mean:.4f} "
          f"(uniform prior mean was 0.5)")

    print("\nper-type disclosure table (rising reserve):")
    rows = qsell.partition_summary(mech, 0, types=[0.55, 0.65, 0.8, 0.95])
    print("  type   threshold  sale prob  posterior mean  acceptance")
    for row in rows:
        print(f"  {row['type']:.2f}   {row['phi_bar']:+.4f}    "
              f"{row['mass']:.4f}     {row['posterior_mean']:.4f}          "
              f"{row['segment_list']}")

    # a hill-shaped reserve splits the acceptance set in two
    inst2 = qsell.ProblemInstance(
        buyers=(qsell.make_uniform(0.0, 1.0, m=1025),),
        quality=models["hill     r=.5-|q-.5|"],
    )
    mech2 = qsell.build_optimal_mechanism(inst2)
    rows = qsell.partition_summary(mech2, 0, n_types=9)
    two = [r for r in rows
           if r["segment_list"].count(";") == 1 and r["mass"] > 0.01]
    print(f"\nhill-shaped reserve: {len(two)} of {len(rows)} sampled types "
          f"see a two-piece acceptance set, e.g.")
    if two:
        r = two[0]
        print(f"  type {r['type']:.3f} -> {r['segment_list']} "
              f"(sale prob {r['mass']:.3f})")


if __name__ == "__main__":
    main()
