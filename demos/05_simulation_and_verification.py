"""Monte-Carlo replay and the verification toolkit.

A built mechanism is replayed on sampled type/quality profiles: the
empirical revenue must sit inside its own standard-error band around the
quadrature value, and no sampled recommendation may leave a buyer
unwilling to pay.  The verification suite then certifies feasibility
(monotone win weights, utility envelope, zero bottom rent), searches for
profitable misreports, and checks that asked buyers genuinely want to
buy — including a deliberately broken variant to show the checks bite.
"""

import dataclasses

import numpy as np

import qsell


def main():
    quality = qsell.make_quality_model(
        qsell.make_uniform(0.0, 1.0, m=257),
        alpha=lambda q: 1.0 + np.asarray(q, float),
        reserve=1.0,
    )
    inst = qsell.ProblemInstance(
        buyers=(
            qsell.make_uniform(0.0, 1.0, m=1025),
            qsell.make_uniform(0.0, 1.0, m=1025),
        ),
        quality=quality,
    )
    mech = qsell.build_optimal_mechanism(inst)
    exact = qsell.revenue_direct(mech)

    report = qsell.simulate(mech, n_samples=200_000, seed=7)
    z = (report.revenue_mean - exact) / report.revenue_stderr
    print(f"quadrature revenue:   {exact:.6f}")
    print(f"simulated revenue:    {report.revenue_mean:.6f} "
          f"(se {report.revenue_stderr:.1e}, z = {z:+.2f})")
    print(f"sale frequency:       {report.sale_frequency:.4f}")
    print(f"buyer win freq:       "
          + ", ".join(f"{w:.4f}" for w in report.allocation_frequency[1:]))
    print(f"mean utilities:       "
          + ", ".join(f"{u:.4f}" for u in report.per_buyer_utility_mean))

    print("\nfeasibility certificates:")
    feas = qsell.check_feasibility(mech)
    print(f"  win weights monotone:   violation {feas.monotonicity_violation:.2e}")
    print(f"  utility envelope:       residual  {feas.envelope_residual:.2e}")
    print(f"  bottom type earns zero: |U|       {abs(feas.boundary_utility):.2e}")
    print(f"  win probs in [0,1]:     violation {feas.probability_violation:.2e}, "
          f"largest fall of a factor table {feas.largest_fall:.2e}")

    ic = qsell.ic_deviation_search(mech, n_grid=101)
    print(f"\nmisreport search over a 101x101 grid: max regret {ic.max_regret:.2e}")

    obed = qsell.obedience_check(mech)
    print(f"asked buyers want to buy: min surplus {obed.min_surplus:+.2e}")
    for i, entry in enumerate(obed.marginal):
        if entry:
            t_star, s = entry
            print(f"  buyer {i} marginal type {t_star:.4f}: surplus {s:+.2e}")

    # negative control: shave 10% off every top-decile payment
    pay = list(mech.payment)
    vals = pay[0].vals - 0.1 * (pay[0].grid > 0.9)
    pay[0] = qsell.GriddedFunction(grid=pay[0].grid, vals=vals)
    broken = dataclasses.replace(mech, payment=pay)
    ic_b = qsell.ic_deviation_search(broken, n_grid=101)
    print(f"\nbroken variant (discounted top payments): max regret "
          f"{ic_b.max_regret:.3f} at buyer {ic_b.worst_buyer}, "
          f"true type {ic_b.worst_true_type:.3f} -> report {ic_b.worst_report:.3f}")


if __name__ == "__main__":
    main()
