"""Tests of the benchmark itself: job lists, report checks and tracing."""

import csv
import dataclasses
import importlib
import io
import json
from pathlib import Path

import pytest

import sievelab
from sievelab import cli

import jobs
from checks import check_report
from run import Execution, Run, correct, load_reference, verdicts
from tracing import TRACED, Tracer, _span_name
from worker import run_job

ROOT = Path(__file__).resolve().parent.parent

SWEEP = ["sweep", "--x", "100,1000", "--z", "29", "--moebius-check", "--frac"]
DENSITY = ["density-table", "--z", "50"]
CHEBYSHEV = ["chebyshev", "--x-max", "2000", "--random", "2", "--seed", "5"]
VERIFY = ["verify-identities", "--limit", "200", "--seed", "3"]


def _report(argv: list[str]) -> bytes:
    status, out, _, _ = run_job(cli, argv)
    assert status == 0
    return out


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_job_list_is_fixed_by_the_seed(workload):
    first = jobs.generate(workload, 7)
    assert jobs.generate(workload, 7) == first
    assert jobs.generate(workload, 8) != first
    parser = cli.build_parser()
    for argv in first:
        parser.parse_args(argv)


def _tamper(out: bytes, column: str) -> bytes:
    rows = list(csv.reader(io.StringIO(out.decode())))
    index = rows[0].index(column)
    value = rows[-1][index]
    if value in ("true", "false"):
        rows[-1][index] = "false"
    else:
        num, _, den = value.partition("/")
        rows[-1][index] = f"{int(num) + 1}/{den}" if den else str(int(num) + 1)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode()


@pytest.mark.parametrize(
    "argv, column",
    [
        (SWEEP, "error_exact"),
        (SWEEP, "frac_remainder_exact"),
        (SWEEP, "x"),
        (DENSITY, "partial_sum_exact"),
        (DENSITY, "mertens_below_exact"),
        (CHEBYSHEV, "holds_54"),
    ],
)
def test_tampered_report_is_rejected(argv, column):
    out = _report(argv)
    assert check_report(argv, out) is None
    assert check_report(argv, _tamper(out, column)) is not None


def test_truncated_verify_report_is_rejected():
    out = _report(VERIFY)
    assert check_report(VERIFY, out) is None
    assert check_report(VERIFY, out[: out.rindex(b"all")]) is not None


def test_digest_mismatches_count_as_wrong_reports():
    argv = list(CHEBYSHEV)
    out = _report(argv)
    run = Run(setup=[0.0], first_output={0: (out, b"")})
    run.executions = [
        Execution(0, 0, False, 0, 0.1, "a" * 64),
        Execution(1, 0, False, 0, 0.1, "b" * 64),
    ]
    reference = {" ".join(argv): {"sha256": "c" * 64}}
    assert verdicts(run, [argv], reference) == [
        "wrong: report differs from the reference digest",
        "wrong: report differs between passes",
    ]
    reference = {" ".join(argv): {"sha256": "a" * 64}}
    assert verdicts(run, [argv], reference) == ["ok", "wrong: report differs between passes"]


def _verdicts_of(jobs_run: list[tuple[list[str], int, bytes, bytes]]) -> list[str]:
    """Verdicts of one pass in which job i ran as jobs_run[i] = (argv, status, out, err)."""
    run = Run(setup=[0.0])
    for index, (_, status, out, err) in enumerate(jobs_run):
        run.first_output[index] = (out, err)
        run.executions.append(Execution(0, index, False, status, 0.1, "0" * 64))
    return verdicts(run, [argv for argv, _, _, _ in jobs_run], {})


def test_unexpected_exits_are_wrong(monkeypatch):
    def fail_inclusion(*args, **kwargs):
        return dataclasses.replace(chebyshev_check(*args, **kwargs), holds_54=False)

    def crash(*args, **kwargs):
        raise RuntimeError("injected crash")

    chebyshev_check = cli.chebyshev_check
    monkeypatch.setattr(cli, "chebyshev_check", fail_inclusion)
    monkeypatch.setattr(cli, "run_sweep", crash)
    failing = [(argv, *run_job(cli, argv)[:3]) for argv in (CHEBYSHEV, SWEEP)]
    assert [status for _, status, _, _ in failing] == [1, 1]
    outcomes = _verdicts_of(failing)
    assert [o.split(":")[0] for o in outcomes] == ["wrong", "wrong"]
    assert not correct(outcomes)


def test_only_the_density_writer_refusal_is_an_expected_exit():
    past_limit = ["density-table", "--z", "13000"]
    outcomes = _verdicts_of([
        (past_limit, 2, b"", b"configuration error: int too large\n"),
        (past_limit, 3, b"", b"resource cap: refused\n"),
    ])
    assert outcomes == ["exit 2: configuration error: int too large", "exit 3: resource cap: refused"]
    assert correct(outcomes)
    outcomes = _verdicts_of([(past_limit, 1, b"", b""), (DENSITY, 2, b"", b"")])
    assert all(o.startswith("wrong: exit") for o in outcomes)
    assert not correct(outcomes)


def test_reference_covers_the_default_seed():
    reference = load_reference()
    for workload in jobs.WORKLOADS:
        for argv in jobs.generate(workload, jobs.DEFAULT_SEED):
            entry = reference[" ".join(argv)]
            # the only job without a report at the default seed is the density
            # table past the writer's 4300-digit limit
            if "exit" in entry:
                assert jobs.refusal_expected(argv, entry["exit"])


def _original_functions():
    # sievelab.moebius is the function re-exported by the package, not the module
    return [
        getattr(importlib.import_module(f"sievelab.{layer}"), name)
        for layer, names in TRACED.items()
        for name in names
    ]


def test_tracing_keeps_reports_byte_identical():
    small_jobs = [SWEEP, DENSITY, CHEBYSHEV, VERIFY]
    plain = [run_job(cli, argv)[:3] for argv in small_jobs]
    originals = _original_functions()
    tracer = Tracer(sievelab)
    tracer.install()
    try:
        traced = [run_job(cli, argv)[:3] for argv in small_jobs]
        for module in [sievelab, *tracer.layers.values()]:
            bound = {id(value) for value in vars(module).values()}
            assert not any(id(fn) in bound for fn in originals), module.__name__
    finally:
        tracer.uninstall()
    assert traced == plain
    assert _original_functions() == originals
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "densities.iter_harmonic_chain", "report.rows", "sieve.lpf_census"} <= names


def test_counters_come_from_arguments_and_results():
    tracer = Tracer(sievelab)
    tracer.install()
    try:
        tracer.begin_pass()
        run_job(cli, SWEEP)
        values = tracer.end_pass()
        tracer.begin_pass()
        # 16 generating primes overflow the 64-bit divisor guard: a refusal
        run_job(cli, ["sweep", "--x", "1000", "--z", "60", "--no-moebius-check", "--frac"])
        refused = tracer.end_pass()
    finally:
        tracer.uninstall()
    # 9 sifting primes below 29: legendre_sum 2^9 and frac_remainder_sum 2^9 - 1 per point
    assert values["moebius.terms"] == 2 * (512 + 511)
    assert values["sieve.integers_sieved"] == 100 + 1000
    assert values["sieve.survivor_count.calls"] == 2
    assert values["moebius.ok_ratio"] == 1.0
    assert values["report.bytes_out"] == len(_report(SWEEP))
    assert refused["moebius.cap_refusals"] == 1
    assert refused["moebius.ok_ratio"] == 0.0


def test_per_layer_metrics_are_ones_the_tracer_makes():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spans = {_span_name(layer, f) for layer, functions in TRACED.items() for f in functions}
    tracer = Tracer(sievelab)
    tracer.begin_pass()
    counters = set(tracer.end_pass())
    for metric in spec["per_layer"]:
        name = metric["name"]
        span, _, kind = name.rpartition(".")
        assert name in counters or name == "trace.overhead_s" or (
            span in spans and kind in ("self_s", "calls")
        ), name
