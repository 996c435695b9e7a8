"""Workload process: runs one workload's job list through sievelab.cli.main.

run.py starts one fresh process per workload run, so ru_maxrss is that
workload's peak.  The process imports sievelab from the checkout's src/,
generates its jobs, reports ready, then runs the job list in passes, each job
a full CLI invocation with its own prime table, back to back: a closed loop
with one client.  It starts another pass while the longest pass so far still
fits in --seconds.  With --trace 1 passes alternate untraced and traced, so
that the tracing overhead is measured in the same process.

The host's speed is sampled between jobs with a fixed calibration kernel, so
that run.py can take the host's speed out of every time (see calibrate).

Framed protocol on stdout: one JSON header line per message, followed by the
raw bytes of the job's stdout and stderr whose lengths it announces.  The
reports are checked in run.py, never here.
"""

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from jobs import generate, job_list_digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "out"
# Seconds that calibrate() takes on the reference host, a shared 2-vCPU
# x86-64 virtual machine running CPython 3.11.7, in the faster of its two
# speed states (the slower one took about 4.8 ms).  run.py scales every time
# to this speed, so times read as seconds on that host at its fast state.
CAL_REFERENCE_S = 0.0033
# Made once: a kernel that allocated its buffer ran 25% slower after sweep
# jobs than after others, as the allocator was left in another state.
_CAL_FLAGS = bytearray(1 << 20)
_CAL_ZEROS = [bytes(len(range(p, len(_CAL_FLAGS), p))) for p in (3, 5, 7, 11, 13)]


def calibrate() -> float:
    """Seconds taken by a fixed kernel of the kinds of work sievelab does.

    The kernel mixes interpreted integer loops, bytearray slice assignment
    and Fraction sums with growing denominators.  On a shared virtual machine
    the host's speed swings by up to half between states lasting seconds to
    minutes, and it slows this kernel and sievelab nearly alike.  On the
    reference host a fixed job's time, over the kernel's mean time just
    before and after it, had a quartile spread of 0.1 to 0.2 of its median
    where the raw time had 0.4 to 0.6.  Not all code slows by the same factor
    (a frac sweep by 1.8 where the kernel slowed by 1.45), which is what the
    scaled times keep of the host's noise.  The kernel is code of the
    benchmark, so no change to sievelab changes it; its buffers are made
    once and the garbage collector is off while it runs, so the heap that a
    job leaves behind changes it little.
    """
    gc.disable()
    start = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i % 7
    for p, zeros in zip((3, 5, 7, 11, 13), _CAL_ZEROS):
        _CAL_FLAGS[p::p] = zeros
    harmonic = Fraction(0)
    for n in range(1, 150):
        harmonic += Fraction(1, n)
    seconds = time.perf_counter() - start
    gc.enable()
    return seconds


def _capture() -> io.TextIOWrapper:
    return io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")


def run_job(cli, argv: list[str]) -> tuple[int, bytes, bytes, float]:
    """One in-process CLI invocation: (exit status, stdout, stderr, seconds)."""
    out, err = _capture(), _capture()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            status = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # an uncaught error is a crashed invocation, exit 1
            traceback.print_exc()
            status = 1
        seconds = time.perf_counter() - start
    out.flush()
    err.flush()
    return status, out.buffer.getvalue(), err.buffer.getvalue(), seconds


def send(channel, header: dict, out: bytes = b"", err: bytes = b"") -> None:
    channel.write(json.dumps({**header, "out": len(out), "err": len(err)}).encode() + b"\n")
    channel.write(out)
    channel.write(err)
    channel.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once the first job is ready")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import sievelab
    from sievelab import cli

    jobs = generate(args.workload, args.seed)
    channel = sys.stdout.buffer
    send(channel, {"ready": job_list_digest(jobs)})
    # the host's speed at set-up, for the set-up time and the first job
    send(channel, {"cal": statistics.median(calibrate() for _ in range(3))})
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(sievelab)
    layers = []
    start = time.perf_counter()
    longest = 0.0
    passes = 0
    while passes < 1 + args.trace or time.perf_counter() - start + longest <= args.seconds:
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_pass()
        pass_start = time.perf_counter()
        for index, job in enumerate(jobs):
            if traced:
                tracer.job = f"{passes}:{index}"
            status, out, err, seconds = run_job(cli, job)
            send(channel, {"pass": passes, "job": index, "traced": traced, "status": status,
                           "seconds": seconds, "cal": calibrate()}, out, err)
        if traced:
            tracer.uninstall()
            layers.append({"pass": passes, "values": tracer.end_pass()})
        longest = max(longest, time.perf_counter() - pass_start)
        passes += 1

    done = {"done": passes, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        spans_path = OUT_DIR / f"{args.workload}.spans.jsonl"
        tracer.write(spans_path)
        done.update(layers=layers, spans=str(spans_path.relative_to(ROOT)))
    send(channel, done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
