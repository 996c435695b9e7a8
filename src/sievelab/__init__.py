"""Least-prime-factor sieve census, exact identity checks, and error-term
measurement with exact rational arithmetic."""

from .densities import (
    DensityEntry,
    HarmonicChain,
    build_density_table,
    density_identity_check,
    harmonic_lower_bound_check,
    iter_density_identity,
    iter_harmonic_chain,
    mertens_product,
)
from .errorlab import (
    ChebyshevRecord,
    ErrorRecord,
    ProbeRow,
    chebyshev_check,
    evaluate_point,
    legendre_blowup_probe,
    run_sweep,
)
from .errors import (
    CapExceededError,
    ResourceLimitError,
    SieveLabError,
)
from .moebius import (
    frac_bound_b3,
    frac_remainder_sum,
    legendre_sum,
    lpf_count_via_moebius,
)
from .sieve import (
    LpfCensus,
    PrimeTable,
    build_prime_table,
    count_lpf,
    lpf_census,
    prime_count,
    sifting_primes,
    survivor_count,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "ChebyshevRecord",
    "DensityEntry",
    "ErrorRecord",
    "HarmonicChain",
    "LpfCensus",
    "PrimeTable",
    "ProbeRow",
    "ResourceLimitError",
    "SieveLabError",
    "build_density_table",
    "build_prime_table",
    "chebyshev_check",
    "count_lpf",
    "density_identity_check",
    "evaluate_point",
    "frac_bound_b3",
    "frac_remainder_sum",
    "harmonic_lower_bound_check",
    "iter_density_identity",
    "iter_harmonic_chain",
    "legendre_blowup_probe",
    "legendre_sum",
    "lpf_census",
    "lpf_count_via_moebius",
    "mertens_product",
    "prime_count",
    "run_sweep",
    "sifting_primes",
    "survivor_count",
]
