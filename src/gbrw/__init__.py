"""Bootstrap random walks: recycling rules, exact moments, limits, ergodicity.

The package follows the construction pipeline: ``algebra`` holds the
representation theory of sign-valued multipliers over the subset lattice,
``rules`` the recycling rule families, ``moments`` the exact covariation
moments and condition diagnostics, ``simulate`` the Monte Carlo layer, and
``ergodic`` the orbit and single-orbit criterion machinery.
"""

__version__ = "0.1.0"

from .algebra import (
    BetaFamily,
    CapacityError,
    LinearExpansion,
    PartialOrderBasis,
    TruthTable,
    beta_to_truth,
    binomial_parity,
    change_basis,
    expand_family,
    level_family,
    linearize_product,
    subset_max,
    truth_to_beta,
)
from .dyadic import Dyadic
from .ergodic import (
    BetaArray,
    ErgodicityVerdict,
    OrbitDecomposition,
    criterion_beta,
    criterion_product,
    ergodic_repair,
    is_ergodic_up_to,
    orbit_decompose,
    rule_permutation,
    sgn_beta_array,
)
from .moments import (
    MomentReport,
    analyze_set_sequence,
    brute_force_expect,
    closed_form_disjoint,
    condition_A_partial,
    condition_B_partial,
    expected_zeta,
    expected_zeta_pair,
    intersection_diagnostic,
    q,
    sign_flip_rho,
    window_rho,
)
from .rules import (
    ExplicitRule,
    ExtendedBrwRule,
    LevyRule,
    ModifiedLevyMaxRule,
    ModifiedLevyRule,
    ProductRule,
    RandomRule,
    RecyclingRule,
    SignFlipRule,
    StepFunction,
    SymmetricRule,
    WindowMaxRule,
    identity_rule,
    negation_rule,
)
from .rulespec import load_rule, make_builtin, parse_rule_document
from .simulate import (
    ArcsineReport,
    CovariationSeries,
    MonteCarloSummary,
    PathPair,
    SeedSpec,
    arcsine_test,
    covariation,
    exact_sign_sum_distribution,
    final_covariation,
    mc_covariation,
    reference_arcsine_cdf,
    sample_path,
)
from . import setseq

__all__ = [name for name in dir() if not name.startswith("_")]
