"""Benchmark harness for sievelab.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

For each workload it times set-up over several fresh workload processes
(worker.py), runs the seeded job list in one more for --seconds, checks every
report here, and prints each metric with its unit.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics, or with --trace 1 the per-layer ones, as BENCHMARK.json
names them.  Results and the run manifest are also written to bench/out/.

Every time is scaled to the reference host's speed with the calibration
kernel sampled around it (worker.calibrate): seconds * CAL_REFERENCE_S / cal.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_report
from jobs import DEFAULT_SEED, WORKLOADS, generate, job_list_digest, refusal_expected
from tracing import LAYER_TARGETS
from worker import CAL_REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "out"
REFERENCE = BENCH / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
# Set-up is timed on the measured process and on this many more, half spawned
# before it and half after, so that the samples span the run.
SETUP_PROBES = 8
TAIL_BEYOND = 10


class WorkerError(RuntimeError):
    """The workload process broke the protocol or ended early."""


@dataclass
class Execution:
    pass_: int
    job: int
    traced: bool
    status: int
    seconds: float
    sha256: str
    cal: float = CAL_REFERENCE_S  # the kernel's mean time just before and after the job

    @property
    def scaled(self) -> float:
        return _scale(self.seconds, self.cal)


@dataclass
class Run:
    setup: list[float]  # scaled like every other time
    executions: list[Execution] = field(default_factory=list)
    first_output: dict[int, tuple[bytes, bytes]] = field(default_factory=dict)
    done: dict = field(default_factory=dict)
    kernel: list[float] = field(default_factory=list)  # job i ran between kernel[i] and [i + 1]


def _scale(seconds: float, cal: float) -> float:
    """`seconds` taken while the calibration kernel took `cal`, at the reference speed."""
    return seconds * CAL_REFERENCE_S / cal


def _read(stream) -> tuple[dict, bytes, bytes]:
    line = stream.readline()
    if not line:
        raise WorkerError("workload process ended without finishing")
    header = json.loads(line)
    return header, stream.read(header["out"]), stream.read(header["err"])


def _spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool):
    """Start a workload process and wait until it is ready: returns the process,
    its scaled set-up time, its job-list digest and its kernel time at set-up."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        header, _, _ = _read(proc.stdout)
        elapsed = time.perf_counter() - start
        cal = _read(proc.stdout)[0]["cal"]
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, _scale(elapsed, cal), header["ready"], cal


def _probe_setup(workload: str, seed: int) -> float:
    proc, setup, _, _ = _spawn(workload, seed, 0, 0, setup_only=True)
    proc.communicate()
    return setup


def collect(workload: str, seed: int, seconds: float, trace: int) -> tuple[Run, str]:
    """Run the workload and time set-up; returns the run and the worker's job digest."""
    setup = [_probe_setup(workload, seed) for _ in range(SETUP_PROBES // 2)]
    proc, setup_s, digest, cal = _spawn(workload, seed, seconds, trace, setup_only=False)
    run = Run(setup + [setup_s], kernel=[cal])
    try:
        while True:
            header, out, err = _read(proc.stdout)
            if "done" in header:
                run.done = header
                break
            run.executions.append(Execution(
                header["pass"], header["job"], header["traced"], header["status"],
                header["seconds"], hashlib.sha256(out).hexdigest(),
            ))
            run.kernel.append(header["cal"])
            if header["pass"] == 0:
                run.first_output[header["job"]] = (out, err)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0:
            raise WorkerError(f"workload process exited {proc.returncode}")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    # Wider windows of kernel samples spread the runs more: the host's state
    # can change within a few jobs.
    for i, ex in enumerate(run.executions):
        ex.cal = (run.kernel[i] + run.kernel[i + 1]) / 2
    run.setup += [_probe_setup(workload, seed) for _ in range(SETUP_PROBES // 2)]
    return run, digest


def load_reference() -> dict[str, dict]:
    return json.loads(REFERENCE.read_text())["reports"]


def job_key(argv: list[str]) -> str:
    return " ".join(argv)


def verdicts(run: Run, jobs: list[list[str]], reference: dict[str, dict]) -> list[str]:
    """Outcome of every execution: 'ok', 'exit N: ...' or 'wrong: ...'.

    'exit N' is the known refusal of a density table past the writer's limit
    (jobs.refusal_expected): a failed job, not a wrong one.  Any other
    non-zero exit, a crash or a failed exact check inside sievelab, is wrong.
    """
    first: dict[int, tuple[int, str, str]] = {}
    for ex in run.executions:
        if ex.pass_ == 0:
            out, err = run.first_output[ex.job]
            argv = jobs[ex.job]
            if ex.status != 0:
                line = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
                outcome = f"exit {ex.status}: {line[0]}"
                if not refusal_expected(argv, ex.status):
                    outcome = f"wrong: {outcome}"
            else:
                reason = check_report(argv, out)
                expected = reference.get(job_key(argv), {}).get("sha256")
                if reason is None and expected not in (None, ex.sha256):
                    reason = "report differs from the reference digest"
                outcome = "ok" if reason is None else f"wrong: {reason}"
            first[ex.job] = (ex.status, ex.sha256, outcome)
    outcomes = []
    for ex in run.executions:
        status, sha256, outcome = first[ex.job]
        if (ex.status, ex.sha256) != (status, sha256):
            outcome = "wrong: report differs between passes"
        outcomes.append(outcome)
    return outcomes


def correct(outcomes: list[str]) -> bool:
    return not any(outcome.startswith("wrong") for outcome in outcomes)


def _pass_walls(run: Run, traced: bool, scaled: bool = True) -> list[float]:
    walls: dict[int, float] = {}
    for ex in run.executions:
        if ex.traced == traced:
            walls[ex.pass_] = walls.get(ex.pass_, 0.0) + (ex.scaled if scaled else ex.seconds)
    return list(walls.values())


def end_to_end(run: Run) -> tuple[dict[str, float], str]:
    """The end-to-end metrics and a note naming the tail percentile.

    Each time is a median over the run's untraced passes of scaled times, so
    the number of passes, which depends on the code's speed, does not bias it.
    """
    per_job: dict[int, list[float]] = {}
    for ex in run.executions:
        if not ex.traced:
            per_job.setdefault(ex.job, []).append(ex.scaled)
    job_times = sorted(statistics.median(times) for times in per_job.values())
    rank = len(job_times) - TAIL_BEYOND
    values = {
        "wall_s": statistics.median(_pass_walls(run, traced=False)),
        "job_p50_s": statistics.median(job_times),
        "job_tail_s": job_times[rank - 1],
        "peak_rss_mb": run.done["maxrss_kb"] / 1024,
        "setup_s": statistics.median(run.setup),
    }
    raw_wall = statistics.median(_pass_walls(run, traced=False, scaled=False))
    note = (f"job_tail_s is p{100 * rank / len(job_times):.0f} of {len(job_times)} jobs; "
            f"unscaled wall time {raw_wall:.6g} s")
    return values, note


def per_layer(run: Run, names: list[str]) -> dict[str, float]:
    """The per-layer metrics `names`, each a median over traced passes.

    Times, the names ending in _s, are scaled with the pass's median kernel time.
    """
    pass_cals: dict[int, list[float]] = {}
    for ex in run.executions:
        pass_cals.setdefault(ex.pass_, []).append(ex.cal)
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = (statistics.median(_pass_walls(run, traced=True))
                            - statistics.median(_pass_walls(run, traced=False)))
            continue
        samples = []
        for layer in run.done["layers"]:
            value = layer["values"].get(name, 0)
            if name.endswith("_s"):
                value = _scale(value, statistics.median(pass_cals[layer["pass"]]))
            samples.append(value)
        values[name] = statistics.median(samples)
    return values


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() or None


def manifest(workload: str, seed: int, seconds: float, trace: int,
             jobs: list[list[str]]) -> dict:
    """Settings of one run.  Two runs are comparable only when their manifests
    match on every key except commit and source_sha256."""
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sievelab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "source_sha256": source.hexdigest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "jobs": len(jobs),
        "job_list_sha256": job_list_digest(jobs),
    }


def bench_workload(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    jobs = generate(workload, seed)
    run, digest = collect(workload, seed, seconds, trace)
    if digest != job_list_digest(jobs):
        raise WorkerError("the workload process generated another job list")
    outcomes = verdicts(run, jobs, load_reference())
    attempted, failed = len(outcomes), sum(o != "ok" for o in outcomes)
    metrics = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    if trace:
        values = per_layer(run, list(units))
        note = f"spans written to {run.done['spans']}"
        moves = {name: f"  moves {target}" for name, target in LAYER_TARGETS.items()}
    else:
        values, note = end_to_end(run)
        values = {name: values[name] for name in units}
        moves = {}

    passes = run.done["done"]
    print(f"{workload}: seed {seed}, {len(jobs)} jobs x {passes} passes, "
          f"{attempted} attempted, {failed} failed")
    for name, value in values.items():
        print(f"  {name:40s} {value:>14.6g} {units[name]:6s}{moves.get(name, '')}")
    if not trace:
        print(f"  {'error_rate':40s} {failed / attempted:>14.6g} failed/attempted")
    print(f"  {note}")
    failures: dict[tuple[int, str], int] = {}
    for ex, outcome in zip(run.executions, outcomes):
        if outcome != "ok":
            failures[ex.job, outcome] = failures.get((ex.job, outcome), 0) + 1
    for (job, outcome), count in sorted(failures.items()):
        print(f"  failed x{count}: {job_key(jobs[job])} -> {outcome}")

    result = {
        "correct": correct(outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {
        "manifest": manifest(workload, seed, seconds, trace, jobs),
        "result": result,
        "note": note,
        "failures": [
            {"job": job_key(jobs[job]), "outcome": outcome, "count": count}
            for (job, outcome), count in sorted(failures.items())
        ],
        "kernel_s": run.kernel,
        "executions": [[ex.pass_, ex.job, ex.traced, ex.status, ex.seconds]
                       for ex in run.executions],
    }
    (OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=2))
    print("manifest " + json.dumps(record["manifest"]))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sievelab" / "__init__.py").is_file():
        print(f"no sievelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Reports may one day carry rationals past the 4300-digit default, and the
    # checks must still parse them.  This is the harness process; the workload
    # process keeps every interpreter default.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)

    spec = json.loads(SPEC.read_text())
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: bench_workload(w, args.seed, args.seconds, args.trace, spec)
                   for w in workloads}
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": metric for w, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
