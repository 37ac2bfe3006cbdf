"""Derivative sums of geometric polynomials at roots of unity mod n.

The library evaluates S(n, k, alpha), the k-th derivative of
1 + t + ... + t^(n-1) at t = alpha, decides its divisibility by n from the
arithmetic of k+1, n and alpha alone, and verifies that criterion
exhaustively against direct summation.
"""

from .criterion import (
    CriterionVerdict,
    Explanation,
    RootSet,
    explain,
    predict_vanishing,
    roots_of_unity,
    sum_vanishes_oracle,
)
from .derivsum import (
    CongruenceReport,
    ExpansionTerm,
    SumQuery,
    closed_form_congruence,
    expansion_term_valuations,
    leibnitz_identity_check,
    leibnitz_vanishing,
    sum_by_crt,
    sum_direct,
)
from .falling import (
    IntegralityVerdict,
    ValuationBounds,
    falling_mod,
    falling_sum,
    falling_valuation,
    integrality_check,
    valuation_bounds,
)
from .harness import (
    DROP_CLAUSE_B,
    DROP_CLAUSE_C_ALPHA,
    DROP_NONE,
    BenchReport,
    MismatchRecord,
    ScanConfig,
    ScanReport,
    bench,
    hunt_weakened,
    scan,
)
from .numtheory import (
    INFINITY,
    Factorization,
    NotAUnitError,
    Residue,
    Valuation,
    crt_combine,
    factorize,
    is_prime,
    legendre,
    mod_inv,
    mod_pow,
    nu_p,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # numtheory
    "INFINITY",
    "Valuation",
    "Factorization",
    "Residue",
    "NotAUnitError",
    "is_prime",
    "factorize",
    "nu_p",
    "legendre",
    "mod_pow",
    "mod_inv",
    "crt_combine",
    # falling
    "IntegralityVerdict",
    "ValuationBounds",
    "falling_mod",
    "falling_valuation",
    "falling_sum",
    "integrality_check",
    "valuation_bounds",
    # derivsum
    "SumQuery",
    "CongruenceReport",
    "ExpansionTerm",
    "sum_direct",
    "sum_by_crt",
    "leibnitz_identity_check",
    "leibnitz_vanishing",
    "closed_form_congruence",
    "expansion_term_valuations",
    # criterion
    "CriterionVerdict",
    "RootSet",
    "Explanation",
    "predict_vanishing",
    "sum_vanishes_oracle",
    "roots_of_unity",
    "explain",
    # harness
    "DROP_CLAUSE_B",
    "DROP_CLAUSE_C_ALPHA",
    "DROP_NONE",
    "ScanConfig",
    "MismatchRecord",
    "ScanReport",
    "BenchReport",
    "scan",
    "hunt_weakened",
    "bench",
]
