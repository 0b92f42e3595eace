"""Revenue-optimal selling of a good whose quality only the seller observes.

The seller commits to an experiment that tells at most one buyer to
purchase at a type-dependent price.  The optimal such mechanism is a
threshold rule on (ironed) virtual values against the reserve ratio
xi(q) = reserve(q) / alpha(q); this package builds it on grids, accounts
for its revenue by two independent routes, verifies incentives, and
exposes the information structure the mechanism induces.
"""

from .dist import (
    GriddedDistribution,
    GriddedFunction,
    cdf,
    constant_curve,
    curve_from_callable,
    make_from_density,
    make_from_table,
    make_uniform,
    quantile,
    sublevel_integral,
    sublevel_mass,
)
from .errors import (
    AssumptionViolationError,
    EngineError,
    EnumerationSizeError,
    UndefinedPaymentError,
    UndefinedPosteriorError,
    ValidationError,
)
from .info import (
    IntervalUnion,
    acceptance_set,
    classify_structure,
    partition_summary,
    partition_summary_csv,
)
from .mechanism import (
    GeneralValuation,
    LinearValuation,
    ProblemInstance,
    QualityModel,
    Signal,
    ThresholdMechanism,
    allocate,
    allocate_many,
    build_optimal_mechanism,
    interim_tables,
    make_quality_model,
    mechanism_from_json_dict,
    mechanism_to_json_dict,
    payment,
    win_weight,
    write_mechanism_csv,
)
from .revenue import (
    ConstantPriceBaseline,
    QualityBlindBaseline,
    SimulationReport,
    best_constant_price,
    myerson_baseline,
    revenue_direct,
    revenue_virtual,
    simulate,
)
from .verify import (
    DiscreteInstance,
    OracleAllocation,
    FeasibilityReport,
    ICReport,
    ObedienceReport,
    brute_force_oracle,
    check_feasibility,
    discrete_threshold_revenue,
    discrete_virtual_values,
    ic_deviation_search,
    obedience_check,
    posterior_belief,
)
from .virtual import VirtualValueCurve, iron

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # distributions and grids
    "GriddedDistribution",
    "GriddedFunction",
    "make_uniform",
    "make_from_density",
    "make_from_table",
    "constant_curve",
    "curve_from_callable",
    "cdf",
    "quantile",
    "sublevel_integral",
    "sublevel_mass",
    # virtual values
    "iron",
    "VirtualValueCurve",
    # mechanism
    "QualityModel",
    "make_quality_model",
    "LinearValuation",
    "GeneralValuation",
    "ProblemInstance",
    "Signal",
    "ThresholdMechanism",
    "allocate",
    "allocate_many",
    "win_weight",
    "payment",
    "build_optimal_mechanism",
    "interim_tables",
    "mechanism_to_json_dict",
    "mechanism_from_json_dict",
    "write_mechanism_csv",
    # revenue
    "revenue_direct",
    "revenue_virtual",
    "simulate",
    "SimulationReport",
    "myerson_baseline",
    "QualityBlindBaseline",
    "best_constant_price",
    "ConstantPriceBaseline",
    # verification
    "FeasibilityReport",
    "check_feasibility",
    "ICReport",
    "ic_deviation_search",
    "ObedienceReport",
    "obedience_check",
    "DiscreteInstance",
    "OracleAllocation",
    "discrete_virtual_values",
    "discrete_threshold_revenue",
    "brute_force_oracle",
    "posterior_belief",
    # information structure
    "IntervalUnion",
    "acceptance_set",
    "classify_structure",
    "partition_summary",
    "partition_summary_csv",
    # errors
    "EngineError",
    "ValidationError",
    "UndefinedPaymentError",
    "UndefinedPosteriorError",
    "AssumptionViolationError",
    "EnumerationSizeError",
]
