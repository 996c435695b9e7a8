"""Each library function refuses an argument outside its domain with a
ValueError that says which argument and why, before any work."""

import pytest

from sievelab import densities, errorlab, highprec, moebius, sieve


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda t: densities.mertens_product(1, t), "z must be >= 2, got 1"),
        (lambda t: densities.density_identity_check(0, t), "r must be >= 1, got 0"),
        (lambda t: densities.harmonic_lower_bound_check(1, t), "z must be >= 2, got 1"),
        (lambda t: densities.build_density_table(1, t), "z must be >= 2, got 1"),
        (lambda t: errorlab.evaluate_point(2000, 1500, t), "z=1500 exceeds table limit 1000"),
        (lambda t: errorlab.chebyshev_check(1, t), "x must be >= 2, got 1"),
        (lambda t: errorlab.chebyshev_check(1001, t), "x=1001 exceeds table limit 1000"),
        (lambda t: errorlab.chebyshev_check(10**6, t, 78498), "z=1001 exceeds table limit 1000"),
        (lambda t: sieve.prime_counts([10, 1002001], t),
         "prime_counts to 1002001 needs a table to 1001, limit is 1000"),
        (lambda t: highprec.ln_decimal(0), "ln requires a positive argument, got 0"),
        (lambda t: highprec.ln_decimal(-5), "ln requires a positive argument, got -5"),
        (lambda t: moebius.legendre_sum(0, 5, t), "x must be >= 1, got 0"),
        (lambda t: moebius.frac_remainder_sum(0, 5, t), "x must be >= 1, got 0"),
        (lambda t: moebius.frac_bound_b3(-1, 5, t), "x must be >= 1, got -1"),
        (lambda t: sieve.sifting_primes(t, 1002), "sifting level 1002 exceeds table limit 1000 + 1"),
    ],
    ids=[
        "mertens_product", "density_identity_check", "harmonic_lower_bound_check",
        "build_density_table", "evaluate_point_z_past_table", "chebyshev_check_x_below_2",
        "chebyshev_check_x_past_table", "chebyshev_check_z_past_table",
        "prime_counts_table_below_sqrt", "ln_decimal_zero", "ln_decimal_negative",
        "legendre_sum", "frac_remainder_sum", "frac_bound_b3", "sifting_primes",
    ],
)
def test_library_refuses_out_of_domain_arguments(table_1k, call, message):
    with pytest.raises(ValueError) as exc:
        call(table_1k)
    assert str(exc.value) == message
