"""Exact counting of relatively prime subsets of integer intervals
{m+1, ..., n}, with a brute-force oracle and checks of the proven bounds."""

from .bounds import (
    BoundReport,
    check_f,
    check_fk,
    check_phi,
    check_phik,
    partition_identity_f,
    partition_identity_fk,
    partition_sum_f,
    partition_sum_fk,
    reports_to_csv,
    reports_to_json,
)
from .counting import (
    CountQuery,
    Family,
    count,
    euler_phi_via_phik,
    f_interval,
    f_upto,
    fk_interval,
    phi_interval,
    phik_interval,
)
from .exactmath import binomial, pow2
from .oracle import (
    HARD_WIDTH_CAP,
    OracleConfig,
    oracle_count,
    oracle_gcd_class_counts,
)
from .sieve import (
    CapacityError,
    DEFAULT_LIMIT_CAP,
    SieveTable,
    build_sieve,
    divisors,
    prime_factors,
    smallest_prime_divisor,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CapacityError",
    "CountQuery",
    "DEFAULT_LIMIT_CAP",
    "Family",
    "HARD_WIDTH_CAP",
    "OracleConfig",
    "SieveTable",
    "binomial",
    "build_sieve",
    "check_f",
    "check_fk",
    "check_phi",
    "check_phik",
    "count",
    "divisors",
    "euler_phi_via_phik",
    "f_interval",
    "f_upto",
    "fk_interval",
    "oracle_count",
    "oracle_gcd_class_counts",
    "partition_identity_f",
    "partition_identity_fk",
    "partition_sum_f",
    "partition_sum_fk",
    "phi_interval",
    "phik_interval",
    "pow2",
    "prime_factors",
    "reports_to_csv",
    "reports_to_json",
    "smallest_prime_divisor",
    "__version__",
]
