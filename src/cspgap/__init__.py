"""cspgap: exact LP-relaxation analysis of finite constraint-satisfaction families.

The toolkit solves the canonical local-distribution LP relaxation with exact
rational arithmetic, hunts for integrality-gap instances, and converts every
gap it finds into matched-marginal yes/no witness distributions bundled in a
re-verifiable certificate.
"""

from .basic_lp import (
    GapReport,
    LocalDistributionSolution,
    build_basic_lp,
    gap_report,
    lp_from_onewise,
    lp_from_width,
    point_mass_solution,
    solve_basic_lp,
    unit_dual,
    unit_optimum,
)
from .core import (
    Constraint,
    Instance,
    Predicate,
    PredicateFamily,
    PredicateWidth,
    WidthReport,
    brute_force_opt,
    canonical_instance,
    complete_instance,
    constant_one_family,
    csp_value,
    cut_family,
    dicut_family,
    product_value,
    rho_product_lower,
    rho_upper_empirical,
    width,
)
from .errors import BudgetError, InternalError, ToolkitError, ValidationError
from .lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    FeasibilityResult,
    LpProblem,
    LpSolution,
    check_feasible,
    dump_lp,
    solve,
)
from .rationals import format_rational, parse_rational, to_fraction
from .search import (
    GapCertificate,
    SearchConfig,
    SearchOutcome,
    VerifyReport,
    build_certificate,
    certificate_from_dict,
    certificate_to_dict,
    enumerate_instances,
    load_certificate,
    save_certificate,
    search_gap,
    verify_certificate,
)
from .witnesses import (
    OnewiseSupport,
    PairDistribution,
    SupportClassification,
    SymbolKernel,
    construct_yes_no,
    marginal_vector,
    no_sup_search,
    no_value,
    onewise_support,
    support_classification,
    yes_value,
)

from .search import TOOLKIT_VERSION as __version__  # certificates record it too
