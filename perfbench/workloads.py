"""The benchmark's workloads: seeded rounds of anchorseq CLI ops.

Each workload maps a seeded rng to one round of ops.  An op is one
`python -m anchorseq.cli ARGV` invocation; `work` is the k scanned or the
table rows it writes (0 when the op is not a throughput op) and `latency`
marks the ops whose wall time makes up the workload's latency_s.  Every op
carries a check of its output, run after the timed region.

Why these workloads:
  scan-deep  full windows at k in [1e15, 1e16) for q = 6 and q = 3, one
             worker.  The residue sieve leaves about 0-1 primality tests per
             1e6 k there, so the sieve and block loop of `search` do nearly
             all the work; primality, construction and the pool do none.
  dense      q = 1 near k = 1e9 with two workers, about 500 witnesses per
             1e6 k: (a) a full window, where primality and the parent's
             re-verification of every witness matter and the output is
             about 270 JSONL lines, and (b) a 10x longer window
             with --max-witnesses 50, whose 50th witness comes early.  The
             pool runs to completion in (a) and should stop early in (b).
  catalog    the non-search commands: JSON tables for all three schemes
             with |s| up to 1e4 (coefficient construction, JSON rendering
             of about 1 MB per table), verify C and E for all three schemes, and verify D
             at q in the hundreds (CRT moduli of thousands of bits,
             admissibility).  `search` does no work here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checks

SCHEMES = ("default", "no_prime", "euler_prime")

# scan-deep: k scanned per op and the sub-window re-run with --no-sieve
DEEP_LO, DEEP_HI = 10**15, 10**16
DEEP_WINDOW = 1_000_000
DEEP_SUB_WINDOW = 1_000
# A window of the q = 3 family and the witnesses it holds (found by brute
# force), so that the q = 3 op's check has witnesses to lose.  No q = 6
# witness is known: a search of k < 2e7 finds none.
DEEP_KNOWN = {3: (125_000, 189_999, [125_060, 189_974])}
# dense: (a) full window, (b) early-stop window and its witness target
DENSE_LO, DENSE_HI = 10**9, 11 * 10**8
DENSE_WINDOW = 500_000
DENSE_EARLY_WINDOW = 5_000_000
DENSE_MAX_WITNESSES = 50
DENSE_SUB_WINDOW = 10_000
# catalog: table rows per scheme and the largest |s| a table reaches (its
# outer end, which sets the table's cost)
TABLE_ROWS = 4_001
TABLE_MAX_S = 10_000
# which side of s = 0 each scheme's table covers (fixed, so that every round
# costs the same; no_prime's largest coefficients sit at negative s)
TABLE_SIDES = {"default": 1, "no_prime": -1, "euler_prime": 1}


@dataclass
class Op:
    kind: str
    args: list[str]
    check: Callable[[bytes, "object"], list[str]]
    work: int = 0
    latency: bool = False

    @property
    def label(self) -> str:
        return " ".join(self.args)


def search_args(scheme, q, lo, hi, workers, *flags):
    return ["search", "--scheme", scheme, "--q", str(q), "--k", f"{lo}..{hi}",
            "--workers", str(workers), *flags]


def search_op(kind, rng_lo, scheme, q, count, workers, sub_count, max_witnesses=None, known=None,
              **roles):
    """A search over count shifts from rng_lo, checked against solve and
    against a --no-sieve run over its first sub_count shifts.  With
    workers > 1 the output must equal that of the same search with one
    worker.  known = (lo, hi, ks) names the witnesses of another window of
    the same family, which a sieved and a --no-sieve search must both find."""
    lo, hi, sub_hi = rng_lo, rng_lo + count - 1, rng_lo + sub_count - 1
    flags = [] if max_witnesses is None else ["--max-witnesses", str(max_witnesses)]
    args = search_args(scheme, q, lo, hi, workers, *flags)

    def check(stdout, ctx):
        family, problems = ctx.family(scheme, q)
        if family is None:
            return problems
        reference = ctx.reference(search_args(scheme, q, lo, sub_hi, 1, "--no-sieve"))
        if reference is None:
            return problems + ["--no-sieve reference run failed"]
        problems += checks.check_search(
            stdout, family, scheme, lo, hi, max_witnesses, reference, sub_hi
        )
        if workers > 1 and ctx.reference(search_args(scheme, q, lo, hi, 1, *flags)) != stdout:
            problems.append("output differs from the same search with one worker")
        if known is not None:
            known_lo, known_hi, known_ks = known
            for sieve in ([], ["--no-sieve"]):
                found = ctx.reference(search_args(scheme, q, known_lo, known_hi, 1, *sieve))
                if checks.witness_ks_or_none(found) != known_ks:
                    problems.append(f"{' '.join(['search', *sieve])} over {known_lo}..{known_hi} "
                                    f"does not find the known witnesses {known_ks}")
        return problems

    return Op(kind, args, check, **roles)


def table_op(scheme, lo, hi):
    args = ["table", "--scheme", scheme, "--range", f"{lo}..{hi}", "--format", "json"]
    return Op(f"table/{scheme}", args, lambda stdout, ctx: checks.check_table(stdout, scheme, lo, hi),
              work=hi - lo + 1)


def verify_op(condition, scheme, bound):
    flag = "--q" if condition == "D" else "--range"
    args = ["verify", condition, "--scheme", scheme, flag, str(bound)]
    return Op(f"verify_{condition}/{scheme}", args,
              lambda stdout, ctx: checks.check_verify(stdout, condition, scheme, bound),
              latency=True)


def scan_deep(rng: random.Random) -> list[Op]:
    return [
        search_op(
            f"scan_q{q}", rng.randrange(DEEP_LO, DEEP_HI - DEEP_WINDOW), "default", q,
            DEEP_WINDOW, 1, DEEP_SUB_WINDOW, known=DEEP_KNOWN.get(q), work=DEEP_WINDOW,
            latency=True,
        )
        for q in (6, 3)
    ]


def dense(rng: random.Random) -> list[Op]:
    return [
        search_op(
            "full", rng.randrange(DENSE_LO, DENSE_HI), "default", 1, DENSE_WINDOW, 2,
            DENSE_SUB_WINDOW, work=DENSE_WINDOW,
        ),
        search_op(
            "early", rng.randrange(DENSE_LO, DENSE_HI), "default", 1, DENSE_EARLY_WINDOW, 2,
            DENSE_SUB_WINDOW, max_witnesses=DENSE_MAX_WITNESSES, latency=True,
        ),
    ]


def catalog(rng: random.Random) -> list[Op]:
    # Seeded bounds vary within narrow bands: each op's cost grows with its
    # bound, and a wide band would make one seed's run cost more than another's.
    ops = []
    for scheme, sign in TABLE_SIDES.items():
        top = rng.randrange(TABLE_MAX_S - 100, TABLE_MAX_S + 1)
        lo = top - TABLE_ROWS + 1
        ops.append(table_op(scheme, lo, top) if sign > 0 else table_op(scheme, -top, -lo))
    for scheme in SCHEMES:
        ops.append(verify_op("C", scheme, rng.randrange(1950, 2001)))
        ops.append(verify_op("E", scheme, rng.randrange(290, 301)))
    for scheme in ("default", "euler_prime"):
        ops.append(verify_op("D", scheme, rng.randrange(380, 401)))
    return ops


WORKLOADS = {"scan-deep": scan_deep, "dense": dense, "catalog": catalog}
