"""Run one anchorseq CLI op with spans around each layer's public functions.

    python3 perfbench/tracer.py ARGV...

behaves like `python -m anchorseq.cli ARGV...` (same stdout, same exit
code) and, after the op ends, writes one line to stderr: TRACE_MARK
followed by a JSON object {"spans": [...], "counts": {...}}.

Wrappers replace the module attributes of anchorseq at every import site:
`from .primality import is_prime` binds is_prime separately in search,
construction, conditions and variants, so each binding is patched and its
records are keyed "<site module>.<function>".  Functions in SPANNED record
a span [key, start, end, parent index, info]; functions in COUNTED only
count calls, because they run up to millions of times per op.  Nothing
under src/ changes, and the attributes are restored when the op ends.

Spans from forked pool workers are not collected: the workers inherit the
wrappers, but what they record dies with them.  In a `--workers 2` op the
parent's search_tuples self time is therefore its wait on the pool.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

TRACE_MARK = "\x1etrace "
MODULES = ("cli", "construction", "variants", "crt", "conditions", "primality", "search")


def _search_info(fn):
    signature = inspect.signature(fn)

    def info(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {
            "k": bound.arguments["k_count"],
            "full": bound.arguments["max_witnesses"] is None,
            "witnesses": len(result),
        }

    return info


# function name -> maker of an info(args, kwargs, result) extractor, or None.
# is_prime is spanned at its `search` binding only and counted elsewhere.
SPANNED = {
    "main": None,
    "search_tuples": _search_info,
    "verify_witness": None,
    "is_prime": lambda fn: lambda args, kwargs, result: result,
    "coefficient_range": lambda fn: lambda args, kwargs, result: len(result),
    "build_system": None,
    "solve_system": lambda fn: lambda args, kwargs, result: result.modulus.bit_length(),
    "full_admissibility": None,
    "condition_C_sweep": None,
    "condition_E_sweep": None,
}
COUNTED = (
    "np_exponent",
    "qnr_anchor",
    "no_prime_anchor",
    "merge_congruences",
    "check_admissibility",
    "solution_tuple",
)


class Tracer:
    """Spans and call counts of one op, kept in memory until it ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span_wrapper(self, key, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [key, clock(), None, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if info is not None:
                record[4] = info(args, kwargs, result)
            return result

        return wrapper

    def count_wrapper(self, key, fn):
        counts = self.counts
        counts[key] = 0

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Patch every binding of the traced functions in every module."""
        modules = {name: importlib.import_module(f"anchorseq.{name}") for name in MODULES}
        targets = {}
        for name in (*SPANNED, *COUNTED):
            targets[name] = next(
                getattr(m, name) for m in modules.values() if callable(getattr(m, name, None))
            )
        for site, module in modules.items():
            for attr, value in list(vars(module).items()):
                name = next((n for n, fn in targets.items() if value is fn), None)
                if name is None:
                    continue
                key = f"{site}.{name}"
                if name in SPANNED and (name != "is_prime" or site == "search"):
                    make_info = SPANNED[name]
                    wrapper = self.span_wrapper(key, value, make_info and make_info(value))
                else:
                    wrapper = self.count_wrapper(key, value)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def run(self, argv: list[str]) -> int:
        """anchorseq.cli.main(argv) with the wrappers installed."""
        self.install()
        try:
            return importlib.import_module("anchorseq.cli").main(argv)
        finally:
            self.restore()

    def dump(self) -> str:
        return json.dumps({"spans": self.spans, "counts": self.counts})


def _func(key: str) -> str:
    return key.split(".", 1)[1]


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer totals of one traced op; additive across ops except
    crt.modulus_bits, which is a maximum.  The counts behind the two
    ratios (primality tests per 1e6 k, share of is_prime calls that were
    true) are returned raw: tests, k_full, is_prime_true."""
    spans, counts = trace["spans"], trace["counts"]
    child_time = [0.0] * len(spans)
    for key, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    m = dict.fromkeys(LAYER_KEYS, 0)
    for i, (key, t0, t1, parent, info) in enumerate(spans):
        name, dur = _func(key), t1 - t0
        if name == "main":
            m["cli.self_s"] += dur - child_time[i]
        elif name == "search_tuples":
            m["search.self_s"] += dur - child_time[i]
            m["search.witnesses"] += info["witnesses"]
            if info["full"]:
                m["k_full"] += info["k"]
        elif name == "is_prime":
            m["primality.is_prime.calls"] += 1
            m["primality.is_prime.s"] += dur
            m["is_prime_true"] += info
            if parent >= 0 and _func(spans[parent][0]) == "search_tuples":
                m["tests"] += 1
        elif name == "verify_witness":
            m["search.verify_witness.s"] += dur
        elif name == "coefficient_range":
            m["construction.coefficient_range.s"] += dur
            m["construction.coefficient_range.rows"] += info
        elif name == "solve_system":
            m["crt.solve_system.s"] += dur
            m["crt.modulus_bits"] = max(m["crt.modulus_bits"], info)
        else:
            m[SPAN_METRIC[name]] += dur
    for key, n in counts.items():
        metric = COUNT_METRIC.get(key) or COUNT_METRIC.get(_func(key))
        if metric:
            m[metric] += n
    return m


SPAN_METRIC = {
    "build_system": "crt.build_system.s",
    "full_admissibility": "conditions.full_admissibility.s",
    "condition_C_sweep": "conditions.condition_C_sweep.s",
    "condition_E_sweep": "conditions.condition_E_sweep.s",
}
# a site-qualified key selects one binding; a bare name sums every binding
COUNT_METRIC = {
    "construction.is_prime": "construction.is_prime.calls",
    "np_exponent": "construction.np_exponent.calls",
    "qnr_anchor": "variants.qnr_anchor.calls",
    "no_prime_anchor": "variants.no_prime_anchor.calls",
    "merge_congruences": "crt.merge_congruences.calls",
    "check_admissibility": "conditions.check_admissibility.calls",
    "solution_tuple": "conditions.solution_tuple.calls",
}
LAYER_KEYS = (
    "cli.self_s", "search.self_s", "search.witnesses", "search.verify_witness.s",
    "primality.is_prime.calls", "primality.is_prime.s", "construction.coefficient_range.s",
    "construction.coefficient_range.rows", "crt.solve_system.s", "crt.modulus_bits",
    "tests", "k_full", "is_prime_true", *SPAN_METRIC.values(), *COUNT_METRIC.values(),
)


def main() -> int:
    tracer = Tracer()
    try:
        return tracer.run(sys.argv[1:])
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_MARK + tracer.dump() + "\n")


if __name__ == "__main__":
    sys.exit(main())
