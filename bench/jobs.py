"""Seeded job lists for the benchmark workloads.

A job is the argv of one sievelab CLI invocation.  The seed draws every
argument, so two seeds give different reports; the cost profile of a list is
fixed by stratification, so two seeds give near-equal cost.  Sizes (x, z,
limits) sit on ladders spread log-uniformly over their range, one value per
stratum, which the seed moves inside a narrow band around the stratum's
centre; the seed draws CLI seeds and small fixed z values freely.  Without
the ladders the median job of a few dozen log-uniform draws moves by a
factor of two or more from seed to seed, and no seed could be compared with
another.
"""

import hashlib
import json
import math
import random

DEFAULT_SEED = 1729
# Share of a stratum inside which the seed moves a job's size.
JITTER = 0.1
# Every row of a density table with z >= 12277 has a rational past Python's
# 4300-digit int-to-str limit, and the writer exits 2 on it.  One such job
# per list, with z drawn from DENSITY_FAILING_Z, is kept, not dodged.
DENSITY_WRITER_LIMIT_Z = 12_277
DENSITY_FAILING_Z = (12_500, 13_500)
# Exit statuses that refuse a request (2 configuration, 3 resource cap), as
# opposed to 1, a failed exact check.
REFUSALS = (2, 3)


def refusal_expected(argv: list[str], status: int) -> bool:
    """Whether exit `status` of job `argv` is the known refusal of a density
    table past the writer's limit.  Any other non-zero exit is a wrong result."""
    return (
        argv[0] == "density-table"
        and int(argv[argv.index("--z") + 1]) >= DENSITY_WRITER_LIMIT_Z
        and status in REFUSALS
    )


def _ladder(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """n sizes, one per log-uniform stratum of [lo, hi], near each centre."""
    step = math.log(hi / lo) / n
    return [
        round(lo * math.exp(step * (i + 0.5 + JITTER * (rng.random() - 0.5))))
        for i in range(n)
    ]


def _cli_seed(rng: random.Random) -> str:
    return str(rng.randrange(1 << 31))


def primes_to(n: int) -> list[int]:
    """The primes <= n, ascending."""
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if flags[p]]


def sweep_sieve(rng: random.Random) -> list[list[str]]:
    """Error-term sweeps up to x = 1e8, the paper's headline measurement.

    Each job's largest x sits on the ladder and sets its cost; two more
    points lie at least 30 times lower.  The z rule cycles through sqrt,
    logx and a small fixed z, so every rule covers the whole ladder.
    """
    jobs = []
    for i, top in enumerate(_ladder(rng, 10**4, 10**8, 36)):
        z = ("sqrt", "logx", str(rng.randint(23, 31)))[i % 3]
        xs = [*_ladder(rng, 100, top // 30, 2), top]
        jobs.append(
            ["sweep", "--x", ",".join(map(str, xs)), "--z", z, "--moebius-check", "--no-frac"]
        )
    return jobs


def exact_chain(rng: random.Random) -> list[list[str]]:
    """Exact Fraction and Decimal work on tiny sieve inputs.

    verify-identities spends its time in the harmonic chain, density-table
    in rendering rationals of up to 4300 digits, and sweep --frac in Möbius
    enumeration: a frac job with k sifting primes sums 2^k - 1 fractional
    parts per x, so its cost doubles with k and its z is drawn between the
    k-th and the (k+1)-th prime.

    Sorted by cost the 37 jobs form four tiers, each at least 1.5 times
    dearer than the one below: 14 cheap jobs (frac jobs with k = 6..10, small
    density tables), a plateau of 9 frac jobs with k = 11, a plateau of 7
    verify jobs of nearly one limit, and 7 dear jobs (larger verify jobs,
    large density tables and the one past the writer's limit).  The median
    job (rank 18) and the tail job with ten beyond it (rank 26) each lie in
    the middle of a plateau, among jobs of the same cost, so job_p50_s and
    job_tail_s do not jump between cost levels from seed to seed.
    """
    primes = primes_to(60)

    def frac(k: int) -> list[str]:
        z = rng.randint(primes[k - 1] + 1, primes[k])
        xs = _ladder(rng, 100, 10**5, 3)
        return ["sweep", "--x", ",".join(map(str, xs)), "--z", str(z), "--moebius-check", "--frac"]

    def verify(limits: list[int]) -> list[list[str]]:
        return [["verify-identities", "--limit", str(n), "--seed", _cli_seed(rng)] for n in limits]

    def density(zs: list[int]) -> list[list[str]]:
        return [["density-table", "--z", str(z)] for z in zs]

    jobs = [frac(k) for k in (6, 6, 7, 7, 8, 8, 9, 9, 10, 10)]
    jobs += density(_ladder(rng, 200, 600, 4))
    jobs += [frac(11) for _ in range(9)]
    jobs += verify(_ladder(rng, 550, 650, 7))
    jobs += verify(_ladder(rng, 1_300, 2_000, 3))
    jobs += density(_ladder(rng, 3_500, 5_000, 3))
    jobs += density([rng.randint(*DENSITY_FAILING_Z)])
    return jobs


def chebyshev_table(rng: random.Random) -> list[list[str]]:
    """Prime-counting checks that build and hold a full prime table to x_max."""
    return [
        ["chebyshev", "--x-max", str(x_max), "--random", "3", "--seed", _cli_seed(rng)]
        for x_max in _ladder(rng, 10**3, 10**7, 40)
    ]


# Workload name -> job-list generator.  Why each workload is in the benchmark
# is stated in BENCHMARK.json.
WORKLOADS = {
    "sweep_sieve": sweep_sieve,
    "exact_chain": exact_chain,
    "chebyshev_table": chebyshev_table,
}


def generate(workload: str, seed: int) -> list[list[str]]:
    """The job list of `workload` for `seed`, in the order it is run."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs


def job_list_digest(jobs: list[list[str]]) -> str:
    return hashlib.sha256(json.dumps(jobs).encode()).hexdigest()
