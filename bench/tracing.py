"""Spans and work counters for sievelab, taken from outside the program.

A Tracer rebinds the public functions of each layer to timing wrappers in
every module namespace that holds them: the defining module, each
`from .x import` site and the package itself.  Each call, and each step of
a generator as it is consumed, becomes a span (name, start, end, parent,
job).  Counters are computed from call arguments and results only, so the
program under test runs unchanged and its output stays byte-identical.
"""

import importlib
import json
import math
from bisect import bisect_left
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

# Layer -> public functions timed in it.  Row functions share one span name.
TRACED = {
    "cli": ["main"],
    "errorlab": ["evaluate_point", "chebyshev_check"],
    "densities": [
        "mertens_product", "iter_harmonic_chain", "iter_density_identity", "build_density_table",
    ],
    "moebius": ["legendre_sum", "lpf_count_via_moebius", "frac_remainder_sum", "frac_bound_b3"],
    "sieve": ["build_prime_table", "survivor_count", "lpf_census", "count_lpf"],
    "highprec": ["fraction_to_decimal", "ln_decimal", "render"],
    "report": ["error_row", "chebyshev_row", "probe_row", "density_rows", "format_rows"],
}
ROW_FUNCTIONS = {"error_row", "chebyshev_row", "probe_row", "density_rows"}
GENERATORS = {"iter_harmonic_chain", "iter_density_identity"}
# Functions that enumerate squarefree divisors and can refuse with CapExceededError.
MOEBIUS_ENUMERATORS = {"legendre_sum", "lpf_count_via_moebius", "frac_remainder_sum"}

_LOG10_2 = math.log10(2)

# Per-layer metric of BENCHMARK.json -> the end-to-end metric and workload it
# should move.  BENCHMARK.json holds the names, units and directions.
LAYER_TARGETS = {
    "sieve.build_prime_table.self_s": "wall_s, peak_rss_mb on chebyshev_table",
    "sieve.build_prime_table.calls": "wall_s on chebyshev_table",
    "sieve.table_integers": "wall_s, peak_rss_mb on chebyshev_table",
    "sieve.survivor_count.self_s": "wall_s, job_p50_s on sweep_sieve",
    "sieve.survivor_count.calls": "wall_s on sweep_sieve",
    "sieve.lpf_census.self_s": "wall_s on sweep_sieve",
    "sieve.count_lpf.self_s": "wall_s on sweep_sieve",
    "sieve.integers_sieved": "wall_s, job_p50_s on sweep_sieve",
    "moebius.frac_bound_b3.self_s": "wall_s on sweep_sieve",
    "moebius.legendre_sum.self_s": "wall_s on exact_chain",
    "moebius.lpf_count_via_moebius.self_s": "wall_s on exact_chain",
    "moebius.frac_remainder_sum.self_s": "wall_s, job_p50_s on exact_chain",
    "moebius.terms": "wall_s, job_p50_s on exact_chain",
    "moebius.cap_refusals": "error_rate on exact_chain",
    "moebius.ok_ratio": "error_rate on exact_chain",
    "densities.mertens_product.self_s": "wall_s, job_tail_s on exact_chain",
    "densities.iter_harmonic_chain.self_s": "wall_s, job_tail_s on exact_chain",
    "densities.iter_density_identity.self_s": "wall_s, job_tail_s on exact_chain",
    "densities.build_density_table.self_s": "wall_s, job_tail_s on exact_chain",
    "highprec.fraction_to_decimal.self_s": "wall_s, job_tail_s on exact_chain",
    "highprec.fraction_to_decimal.calls": "wall_s on exact_chain",
    "highprec.ln_decimal.self_s": "wall_s, job_tail_s on exact_chain",
    "highprec.render.self_s": "wall_s, job_tail_s on exact_chain",
    "highprec.max_den_digits": "wall_s, job_tail_s on exact_chain",
    "report.rows.self_s": "wall_s on exact_chain density-table jobs",
    "report.format_rows.self_s": "wall_s on exact_chain density-table jobs",
    "report.bytes_out": "nothing: reports are byte-identical",
    "errorlab.evaluate_point.self_s": "nothing: orchestration, small everywhere",
    "errorlab.chebyshev_check.self_s": "nothing: orchestration, small everywhere",
    "cli.main.self_s": "nothing: orchestration, small everywhere",
    "trace.overhead_s": "nothing: traced minus untraced wall_s",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _span_name(layer: str, function: str) -> str:
    return "report.rows" if function in ROW_FUNCTIONS else f"{layer}.{function}"


class Tracer:
    """Installs timing wrappers on one sievelab package and collects spans."""

    def __init__(self, package):
        self.package = package
        self.layers = {name: importlib.import_module(f"{package.__name__}.{name}") for name in TRACED}
        self.spans: list[list] = []  # [name, start, end, parent index or -1, job]
        self.job = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._pass_start = 0
        self._counters: Counter = Counter()
        self._max_den_bits = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer, functions in TRACED.items():
            for function in functions:
                original = getattr(self.layers[layer], function)
                wrappers[id(original)] = (original, self._wrap(layer, function, original))
        for module in [self.package, *self.layers.values()]:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def _wrap(self, layer: str, function: str, original):
        name = _span_name(layer, function)
        hook = getattr(self, f"_after_{function}", None)
        if function in GENERATORS:
            @wraps(original)
            def generator_wrapper(*args, **kwargs):
                return self._consume(name, original(*args, **kwargs))
            return generator_wrapper

        refusable = function in MOEBIUS_ENUMERATORS
        cap_error = self.package.errors.CapExceededError

        @wraps(original)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            except cap_error:
                if refusable:
                    self._counters["moebius.cap_refusals"] += 1
                raise
            finally:
                self._close(index)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _consume(self, name, iterator):
        """Re-yield `iterator`, one span per step, each timed as it is consumed."""
        while True:
            index = self._open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(index)
            yield item

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.job])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    # -- counters, from arguments and results ------------------------------

    def _after_build_prime_table(self, args, kwargs, table):
        self._counters["sieve.table_integers"] += table.limit

    def _after_survivor_count(self, args, kwargs, result):
        self._counters["sieve.integers_sieved"] += max(_arg(args, kwargs, 0, "x"), 0)

    _after_lpf_census = _after_survivor_count

    def _count_terms(self, args, kwargs, level_name, offset):
        # pi(level - 1), bisected from the table the caller passed
        k = bisect_left(_arg(args, kwargs, 2, "table").primes, _arg(args, kwargs, 1, level_name))
        self._counters["moebius.terms"] += (1 << k) + offset
        self._counters["moebius.ok"] += 1

    def _after_legendre_sum(self, args, kwargs, result):
        self._count_terms(args, kwargs, "z", 0)

    def _after_lpf_count_via_moebius(self, args, kwargs, result):
        self._count_terms(args, kwargs, "p", 0)

    def _after_frac_remainder_sum(self, args, kwargs, result):
        self._count_terms(args, kwargs, "z", -1)

    def _after_fraction_to_decimal(self, args, kwargs, result):
        bits = _arg(args, kwargs, 0, "q").denominator.bit_length()
        self._max_den_bits = max(self._max_den_bits, bits)

    def _after_format_rows(self, args, kwargs, text):
        self._counters["report.bytes_out"] += len(text.encode())

    # -- per-pass summary -----------------------------------------------------

    def begin_pass(self) -> None:
        self._pass_start = len(self.spans)
        self._counters.clear()
        self._max_den_bits = 0

    def end_pass(self) -> dict[str, float]:
        """Self time and call count of each span name, and every counter, since
        begin_pass.  A function that was not called has no entry."""
        spans = self.spans[self._pass_start :]
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in spans:
            child_time[parent] += end - start
        values: dict[str, float] = defaultdict(float)
        for offset, (name, start, end, _, _) in enumerate(spans):
            values[f"{name}.self_s"] += end - start - child_time[self._pass_start + offset]
            values[f"{name}.calls"] += 1
        counters = self._counters
        refused = counters["moebius.cap_refusals"]
        attempts = counters["moebius.ok"] + refused
        bits = self._max_den_bits
        values.update({
            "sieve.table_integers": counters["sieve.table_integers"],
            "sieve.integers_sieved": counters["sieve.integers_sieved"],
            "moebius.terms": counters["moebius.terms"],
            "moebius.cap_refusals": refused,
            # no enumeration attempted counts as nothing wasted
            "moebius.ok_ratio": counters["moebius.ok"] / attempts if attempts else 1.0,
            # decimal digits from the bit length; exact or one too many
            "highprec.max_den_digits": math.floor(bits * _LOG10_2) + 1 if bits else 0,
            "report.bytes_out": counters["report.bytes_out"],
        })
        return dict(values)

    def write(self, path) -> None:
        """Write every span as one JSON line, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as stream:
            for name, start, end, parent, job in self.spans:
                stream.write(json.dumps({
                    "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "job": job,
                }) + "\n")
