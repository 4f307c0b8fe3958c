"""Exact counting of relatively prime subsets of integer intervals
{m+1, ..., n}, with a gcd-state DP oracle and checks of the proven bounds."""

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
)
from .counting import (
    CountPlane,
    Family,
    count_plane,
    f_interval,
    fk_interval,
    phi_interval,
    phik_interval,
)
from .exactmath import binomial
from .oracle import HARD_WIDTH_CAP, oracle_count
from .sieve import (
    CapacityError,
    DEFAULT_LIMIT_CAP,
    SieveTable,
    build_sieve,
    divisors,
    prime_factors,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CapacityError",
    "CountPlane",
    "DEFAULT_LIMIT_CAP",
    "Family",
    "HARD_WIDTH_CAP",
    "SieveTable",
    "binomial",
    "build_sieve",
    "check_f",
    "check_fk",
    "check_phi",
    "check_phik",
    "count_plane",
    "divisors",
    "f_interval",
    "fk_interval",
    "oracle_count",
    "partition_identity_f",
    "partition_identity_fk",
    "partition_sum_f",
    "partition_sum_fk",
    "phi_interval",
    "phik_interval",
    "prime_factors",
    "__version__",
]
