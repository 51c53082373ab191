"""Output checks for benchmark ops, independent of the anchorseq package.

Every check returns a list of problems; an empty list means the output is
correct.  Nothing here imports anchorseq: witnesses are re-proved prime by
this module's own Miller-Rabin, search outputs are checked against the
family the program's own `solve --format json` printed, and `default`
table rows against the closed form 2^{v_2(3s-1)} * |2s-1|.
"""

from __future__ import annotations

import json
from math import prod

# Strong-probable-prime tests to the first twelve prime bases are exact
# below this bound (Sorenson & Webster 2015).
MR_BOUND = 3_317_044_064_679_887_385_961_981
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError at or above MR_BOUND."""
    if n >= MR_BOUND:
        raise ValueError(f"{n} is beyond the exact Miller-Rabin range")
    if n < 2:
        return False
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def parse_family(stdout: bytes) -> tuple[dict | None, list[str]]:
    """The solved family from `solve --format json`, after checking that
    a_s * xbar_s - base = -s and step_s * a_s = modulus for every entry."""
    try:
        data = json.loads(stdout)
        q, base, modulus = int(data["q"]), int(data["base"]), int(data["modulus"])
        entries = {
            int(e["s"]): (int(e["a"]), int(e["xbar"]), int(e["step"])) for e in data["entries"]
        }
    except (ValueError, KeyError, TypeError) as exc:
        return None, [f"solve output unreadable: {exc}"]
    problems = [
        f"solve entry s={s} inconsistent"
        for s, (a, xbar, step) in entries.items()
        if a * xbar - base != -s or step * a != modulus
    ]
    if set(entries) != set(range(-q, q + 1)):
        problems.append("solve entries do not cover -q..q")
    return {"q": q, "entries": entries}, problems


def parse_witness_ks(stdout: bytes) -> list[int]:
    """The k of every witness line of a search output (no checking)."""
    ks = []
    for line in stdout.decode().splitlines():
        data = json.loads(line)
        if "k" in data:
            ks.append(int(data["k"]))
    return ks


def witness_ks_or_none(stdout: bytes | None) -> list[int] | None:
    """parse_witness_ks, or None for a missing or unreadable output."""
    try:
        return parse_witness_ks(stdout)
    except (AttributeError, ValueError, KeyError, TypeError):
        return None


def check_search(
    stdout: bytes,
    family: dict,
    scheme: str,
    lo: int,
    hi: int,
    max_witnesses: int | None,
    no_sieve_stdout: bytes,
    sub_hi: int,
) -> list[str]:
    """Witness lines then one summary line, as `search` writes them.

    Witnesses must be strictly ascending inside [lo, hi], satisfy the
    family's equations and be prime; the summary must match.  Sieve
    soundness: the witnesses in [lo, sub_hi] must equal those of the
    `--no-sieve` run over that sub-window (up to the last witness when the
    op stopped early at max_witnesses).
    """
    try:
        records = [json.loads(line) for line in stdout.decode().splitlines()]
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError included
        return [f"unreadable output: {exc}"]
    if not records or not isinstance(records[-1], dict) or "summary" not in records[-1]:
        return ["missing summary line"]
    witnesses, summary = records[:-1], records[-1]["summary"]
    problems = []
    ks = []
    for w in witnesses:
        try:
            k = int(w["k"])
            values = {int(s): int(x) for s, x in w["values"].items()}
            r_min = int(w["r_min"])
        except (KeyError, ValueError, TypeError, AttributeError):
            return [f"malformed witness line {w!r}"]
        if not lo <= k <= hi or (ks and k <= ks[-1]):
            problems.append(f"k={k} out of order or outside {lo}..{hi}")
        ks.append(k)
        if set(values) != set(family["entries"]):
            problems.append(f"k={k}: wrong index set")
            continue
        for s, x in values.items():
            _, xbar, step = family["entries"][s]
            if x != xbar + step * k:
                problems.append(f"k={k}: x_{s} does not satisfy the family's equation")
            elif x <= r_min:
                problems.append(f"k={k}: x_{s} not above r_min")
            else:
                try:
                    prime = is_prime(x)
                except ValueError as exc:
                    problems.append(f"k={k}: {exc}")
                    continue
                if not prime:
                    problems.append(f"k={k}: x_{s}={x} is composite")
    expected_summary = {
        "witnesses": len(witnesses),
        "k_range": [str(lo), str(hi)],
        "q": family["q"],
        "scheme": scheme,
    }
    if summary != expected_summary:
        problems.append(f"summary {summary!r} != {expected_summary!r}")
    if max_witnesses is not None and len(ks) > max_witnesses:
        problems.append(f"{len(ks)} witnesses exceed --max-witnesses {max_witnesses}")
    reference = witness_ks_or_none(no_sieve_stdout)
    if reference is None:
        return problems + ["--no-sieve output unreadable"]
    stop = sub_hi
    if max_witnesses is not None and len(ks) == max_witnesses:
        stop = min(stop, ks[-1])
    sieved = [k for k in ks if k <= stop]
    reference = [k for k in reference if k <= stop]
    if sieved != reference:
        problems.append(f"sieve soundness: {sieved[:5]}... != --no-sieve {reference[:5]}...")
    return problems


def default_coefficient(s: int) -> int:
    """Closed form of the default scheme: 2^{v_2(3s-1)} * |2s-1|."""
    t = 3 * s - 1  # never 0 for integer s
    return (t & -t) * abs(2 * s - 1)


def check_table(stdout: bytes, scheme: str, lo: int, hi: int) -> list[str]:
    """JSON rows for s = lo..hi; each value is the product of its factors,
    and `default` values equal the closed form."""
    try:
        rows = [
            (row["s"], int(row["value"]), [(int(p), int(e)) for p, e in row["factors"]])
            for row in json.loads(stdout)
        ]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    if [s for s, _, _ in rows] != list(range(lo, hi + 1)):
        return [f"rows do not cover {lo}..{hi}"]
    problems = []
    for s, value, factors in rows:
        if value != prod(p**e for p, e in factors):
            problems.append(f"s={s}: value is not the product of its factors")
        if any(e < 1 or not 1 < p < MR_BOUND or not is_prime(p) for p, e in factors):
            problems.append(f"s={s}: factor list holds a non-prime or a zero exponent")
        if scheme == "default" and value != default_coefficient(s):
            problems.append(f"s={s}: {value} != closed form {default_coefficient(s)}")
    return problems


def check_verify(stdout: bytes, condition: str, scheme: str, bound: int) -> list[str]:
    """`verify C|E` prints one pass line; `verify D` lists checked primes
    that must include every prime up to 2q + 1."""
    text = stdout.decode(errors="replace")
    if condition in "CE":
        scope = "|s|,|t|" if condition == "C" else "|s|"
        expected = f"{condition}: pass (all {scope} <= {bound}, scheme {scheme})\n"
        return [] if text == expected else [f"expected {expected!r}, got {text!r}"]
    head = f"D: pass for q={bound}, checked primes {{"
    try:
        if not (text.startswith(head) and text.endswith("}\n")):
            raise ValueError("no pass line")
        primes = [int(p) for p in text[len(head) : -2].split(", ")]
    except ValueError:
        return [f"unexpected verify D output {text[:80]!r}"]
    problems = []
    if primes != sorted(set(primes)) or not all(1 < p < MR_BOUND and is_prime(p) for p in primes):
        problems.append("checked primes are not ascending primes")
    listed = set(primes)
    missing = [p for p in range(2, 2 * bound + 2) if is_prime(p) and p not in listed]
    if missing:
        problems.append(f"checked primes miss {missing[:5]}")
    return problems
