"""Each library function refuses an argument outside its domain with a
ValueError that says which argument and why, before any work."""

import pytest

import oracles
from sievelab import densities, errorlab, highprec, moebius, sieve
from sievelab.errors import ResourceLimitError


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda t: densities.mertens_product(1, t), "z must be >= 2, got 1"),
        (lambda t: densities.density_identity_check(0, t), "r must be >= 1, got 0"),
        (lambda t: densities.harmonic_lower_bound_check(1, t), "z must be >= 2, got 1"),
        (lambda t: densities.build_density_table(1, t), "z must be >= 2, got 1"),
        (lambda t: errorlab.evaluate_point(2000, 1500, t),
         "prime_count(1500) needs a table to 1500, limit is 1000"),
        (lambda t: errorlab.chebyshev_check(1, t), "x must be >= 2, got 1"),
        (lambda t: errorlab.chebyshev_check(1001, t),
         "prime_count(1001) needs a table to 1001, limit is 1000"),
        (lambda t: errorlab.chebyshev_check(10**6, t, 78498),
         "prime_count(1001) needs a table to 1001, limit is 1000"),
        (lambda t: sieve.prime_counts([10, 1002001], t),
         "prime_counts to 1002001 needs a table to 1001, limit is 1000"),
        (lambda t: highprec.ln_decimal(0), "ln requires a positive argument, got 0"),
        (lambda t: highprec.ln_decimal(-5), "ln requires a positive argument, got -5"),
        (lambda t: moebius.legendre_sum(0, 5, t), "x must be >= 1, got 0"),
        (lambda t: moebius.frac_remainder_sum(0, 5, t), "x must be >= 1, got 0"),
        (lambda t: moebius.frac_bound_b3(-1, 5, t), "x must be >= 1, got -1"),
        (lambda t: sieve.sifting_primes(t, 1002),
         "sifting level 1002 needs a table to 1001, limit is 1000"),
        (lambda t: sieve.survivor_count(-1, 5, t), "x must be >= 0, got -1"),
        (lambda t: sieve.count_lpf(-10, 3, t), "x must be >= 0, got -10"),
        (lambda t: moebius.lpf_count_via_moebius(-5, 3, t), "x must be >= 0, got -5"),
        (lambda t: sieve.lpf_census(0, 5, t), "x must be >= 1, got 0"),
        (lambda t: sieve.prime_counts([0, 10], t), "x must be >= 1, got 0"),
        (lambda t: sieve.prime_counts([10, 5], t), "xs must ascend, got 10 before 5"),
    ],
    ids=[
        "mertens_product", "density_identity_check", "harmonic_lower_bound_check",
        "build_density_table", "evaluate_point_z_past_table", "chebyshev_check_x_below_2",
        "chebyshev_check_x_past_table", "chebyshev_check_z_past_table",
        "prime_counts_table_below_sqrt", "ln_decimal_zero", "ln_decimal_negative",
        "legendre_sum", "frac_remainder_sum", "frac_bound_b3", "sifting_primes",
        "survivor_count_negative_x", "count_lpf_negative_x", "lpf_count_via_moebius_negative_x",
        "lpf_census_x_below_1", "prime_counts_x_below_1", "prime_counts_descending",
    ],
)
def test_library_refuses_out_of_domain_arguments(table_1k, call, message):
    with pytest.raises(ValueError) as exc:
        call(table_1k)
    assert str(exc.value) == message


def _no_work(*args, **kwargs):
    raise AssertionError("the route started work before it refused")


# each sieve route's refusals, by kind: (budget or None, call, error, message start)
_ROUTE_REFUSALS = {
    "survivor_count_cap": (None, lambda t: sieve.survivor_count(1 << 49, 5, t),
                           ResourceLimitError, "x = 562949953421312 exceeds the 2^48 sieve cap"),
    "survivor_count_dp_lists": ("500000", lambda t: sieve.survivor_count(10**8, 1000, t),
                                ResourceLimitError, "counting lists for x = 100000000"),
    "survivor_count_reach": (None, lambda t: sieve.survivor_count(100, 1002, t),
                             ValueError, "sifting level 1002 needs a table to 1001, limit is 1000"),
    "survivor_count_negative_x": (None, lambda t: sieve.survivor_count(-1, 5, t),
                                  ValueError, "x must be >= 0, got -1"),
    "count_lpf_cap": (None, lambda t: sieve.count_lpf(1 << 49, 3, t),
                      ResourceLimitError, "x = 562949953421312 exceeds the 2^48 sieve cap"),
    "count_lpf_dp_lists": ("500000", lambda t: sieve.count_lpf(101 * 10**8, 101, t),
                           ResourceLimitError, "counting lists for x = 100000000"),
    "count_lpf_negative_x": (None, lambda t: sieve.count_lpf(-10, 3, t),
                             ValueError, "x must be >= 0, got -10"),
    "lpf_census_cap": (None, lambda t: sieve.lpf_census(1 << 49, 5, t),
                       ResourceLimitError, "x = 562949953421312 exceeds the 2^48 sieve cap"),
    "lpf_census_segment_buffer": ("1000000", lambda t: sieve.lpf_census(10**7, 5, t),
                                  ResourceLimitError,
                                  "segment buffer and counts for x = 10000000 would take about 1175214 bytes, budget is 1000000"),
    "lpf_census_reach": (None, lambda t: sieve.lpf_census(100, 1002, t),
                         ValueError, "sifting level 1002 needs a table to 1001, limit is 1000"),
    "lpf_census_x_below_1": (None, lambda t: sieve.lpf_census(0, 5, t),
                             ValueError, "x must be >= 1, got 0"),
    "prime_counts_cap": (None, lambda t: sieve.prime_counts([10, 1 << 49], t),
                         ResourceLimitError, "x = 562949953421312 exceeds the 2^48 sieve cap"),
    "prime_counts_segment_buffer": ("100000", lambda t: sieve.prime_counts([10, 10**6], t),
                                    ResourceLimitError,
                                    "segment buffer and counts for x = 1000000 would take about 374719 bytes, budget is 100000"),
    "prime_counts_reach": (None, lambda t: sieve.prime_counts([10, 1002001], t), ValueError,
                           "prime_counts to 1002001 needs a table to 1001, limit is 1000"),
    "prime_counts_x_below_1": (None, lambda t: sieve.prime_counts([0, 10], t),
                               ValueError, "x must be >= 1, got 0"),
    "prime_counts_descending": (None, lambda t: sieve.prime_counts([10, 5], t),
                                ValueError, "xs must ascend, got 10 before 5"),
}


@pytest.mark.parametrize("budget, call, error, message",
                         _ROUTE_REFUSALS.values(), ids=_ROUTE_REFUSALS.keys())
def test_sieve_routes_refuse_before_any_work(table_1k, monkeypatch, budget, call, error, message):
    # with both counting routes and the segmented pass unable to run, the
    # refusal must still be the one raised
    monkeypatch.setattr(sieve, "_legendre_dp", _no_work)
    monkeypatch.setattr(sieve, "_lpf_recursion", _no_work)
    monkeypatch.setattr(sieve, "_sieve_pass", _no_work)
    if budget is None:
        monkeypatch.delenv("SIEVELAB_MEMORY_BUDGET", raising=False)
    else:
        monkeypatch.setenv("SIEVELAB_MEMORY_BUDGET", budget)
    with pytest.raises(error) as exc:
        call(table_1k)
    assert str(exc.value).startswith(message)


def test_range_refusals_name_an_x_past_the_digit_limit(table_1k, monkeypatch):
    # 2^20000 has 6021 digits: the refusal is still the cap's, not str()'s ValueError
    monkeypatch.setattr(sieve, "_lpf_recursion", _no_work)
    with pytest.raises(ResourceLimitError) as above:
        sieve.survivor_count(2**20000, 3, table_1k)
    with pytest.raises(ValueError) as below:
        sieve.survivor_count(-(2**20000), 3, table_1k)
    with oracles.int_digit_limit_lifted():
        expected = (f"x = {2**20000} exceeds the 2^48 sieve cap",
                    f"x must be >= 0, got {-(2**20000)}")
    assert (str(above.value), str(below.value)) == expected


# errorlab's refusals: (call, message); the table's own refusal comes from prime_count
_ERRORLAB_REFUSALS = {
    "evaluate_point_z_past_table": (lambda t: errorlab.evaluate_point(2000, 1500, t),
                                    "prime_count(1500) needs a table to 1500, limit is 1000"),
    "evaluate_point_z_above_x": (lambda t: errorlab.evaluate_point(10, 20, t),
                                 "sweep point violates 2 <= z <= x: x=10, z=20"),
    "chebyshev_check_x_past_table": (lambda t: errorlab.chebyshev_check(1001, t),
                                     "prime_count(1001) needs a table to 1001, limit is 1000"),
    "chebyshev_check_z_past_table": (lambda t: errorlab.chebyshev_check(10**6, t, 78498),
                                     "prime_count(1001) needs a table to 1001, limit is 1000"),
    "legendre_blowup_probe_past_table": (
        lambda t: errorlab.legendre_blowup_probe(100, 1000, sieve.build_prime_table(50)),
        "prime_count(99) needs a table to 99, limit is 50"),
}


@pytest.mark.parametrize("call, message", _ERRORLAB_REFUSALS.values(),
                         ids=_ERRORLAB_REFUSALS.keys())
def test_errorlab_routes_refuse_before_any_work(table_1k, monkeypatch, call, message):
    # with both counting routes and the Möbius enumeration unable to run, the
    # refusal must still be the one raised
    monkeypatch.setattr(sieve, "_legendre_dp", _no_work)
    monkeypatch.setattr(sieve, "_lpf_recursion", _no_work)
    monkeypatch.setattr(moebius, "_signed_divisors", _no_work)
    with pytest.raises(ValueError) as exc:
        call(table_1k)
    assert str(exc.value) == message
