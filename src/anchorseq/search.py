"""Sieve-accelerated search for all-prime solution tuples.

Each index contributes a linear form x_s(k) = xbar_s + step_s * k; a
witness is a shift k where every form is prime and exceeds the floor
r_min.  A segmented residue sieve (Bays & Hudson, BIT 17, 1977) removes
shifts where some form is divisible by a small prime p.  Its tables are
built once per search: per p, the sorted residues k mod p it kills, as
conditions.killed_residues reads them off x_0(k); and the shifts at
which a form equals a sieve prime, which it must keep.
Blocks of shifts are generated lazily and scanned in order by one loop.
They grow from MIN_BLOCK_SIZE to MAX_BLOCK_SIZE shifts (2^14 to 2^20),
doubling once per generation of blocks in flight (2 * workers on a pool,
one when serial), so early stops stay early while a long scan pays the
per-block sieve set-up about once per million shifts.  A search that
stops at max_witnesses stops growing its blocks at its first witness.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import compress, count, islice

from .conditions import InadmissibleFamily, full_admissibility, killed_residues
from .construction import AnchorScheme, coefficient_range
from .crt import SolutionFamily
from .primality import is_prime, sieve_primes

DEFAULT_SIEVE_BOUND = 10_000
MIN_BLOCK_SIZE = 1 << 14
MAX_BLOCK_SIZE = 1 << 20


@dataclass(frozen=True)
class TupleWitness:
    """A shift k whose whole solution tuple is prime and above r_min."""

    k: int
    values: dict[int, int]  # s -> x_s(k)
    r_min: int

    @property
    def omega(self) -> int:
        return self.values[0]

    @property
    def min_entry(self) -> int:
        return min(self.values.values())

    def to_json_dict(self) -> dict:
        return {
            "k": str(self.k),
            "r_min": str(self.r_min),
            "values": {str(s): str(x) for s, x in sorted(self.values.items())},
        }


def witness_from_json_dict(data: dict) -> TupleWitness:
    return TupleWitness(
        k=int(data["k"]),
        values={int(s): int(x) for s, x in data["values"].items()},
        r_min=int(data.get("r_min", 0)),
    )


def verify_witness(family: SolutionFamily, witness: TupleWitness, extra_rounds: int = 0) -> bool:
    """Independent recheck: defining equations, primality, and the floor."""
    vals = witness.values
    if set(vals) != set(family.indices()):
        return False
    x0 = vals[0]
    for s, x in vals.items():
        if family.moduli[s] * x - x0 != -s:
            return False
        if x <= witness.r_min or not is_prime(x, extra_rounds=extra_rounds):
            return False
    return True


def _scan_block(
    forms: list[tuple[int, int, int]],
    r_min: int,
    extra_rounds: int,
    sieve: array,
    kept: list[int],
    block: range,
) -> list[TupleWitness]:
    """Witnesses with k in block, found via pre-sieve + direct test."""
    k_lo, size = block.start, len(block)
    alive = bytearray(b"\x01") * size
    zeros = memoryview(bytes((size + 1) // 2))  # no slice of stride p >= 2 is longer
    for p, r in zip(sieve[::2], sieve[1::2]):
        i = (r - k_lo) % p
        alive[i::p] = zeros[: len(range(i, size, p))]
    for k in kept[bisect_left(kept, k_lo) : bisect_left(kept, block.stop)]:
        alive[k - k_lo] = 1
    found = []
    for k in compress(block, alive):
        values = {s: xb + st * k for s, xb, st in forms}
        if all(x > r_min and is_prime(x, extra_rounds=extra_rounds) for x in values.values()):
            found.append(TupleWitness(k=k, values=values, r_min=r_min))
    return found


def _blocks(k_start: int, k_stop: int, depth: int, grow):
    """Ranges tiling [k_start, k_stop) in order: the first depth have
    MIN_BLOCK_SIZE shifts, and each further depth twice as many, up to
    MAX_BLOCK_SIZE, as long as grow() holds when a generation's first
    block is drawn."""
    k0, size = k_start, MIN_BLOCK_SIZE
    for i in count(1):
        if k0 >= k_stop:
            return
        yield range(k0, min(k0 + size, k_stop))
        k0 += size
        if i % depth == 0 and grow():
            size = min(2 * size, MAX_BLOCK_SIZE)


def _in_order(pool, fn, items, depth: int):
    """fn over items on the pool, yielded in order, at most depth in flight."""
    pending = deque(pool.submit(fn, item) for item in islice(items, depth))
    while pending:
        yield pending.popleft().result()
        pending.extend(pool.submit(fn, item) for item in islice(items, 1))


def search_tuples(
    family: SolutionFamily,
    k_start: int,
    k_count: int,
    r_min: int = 0,
    max_witnesses: int | None = None,
    use_sieve: bool = True,
    extra_rounds: int = 0,
    workers: int = 1,
) -> list[TupleWitness]:
    """All-prime tuples with k in [k_start, k_start + k_count), ascending.

    The sieve tables are built once per search.  Blocks of shifts are
    generated lazily and scanned in order: serially, or on a pool of
    workers with two blocks per worker in flight.  Blocks grow from 2^14
    to 2^20 shifts, doubling once per generation of blocks in flight
    until a witness is found with max_witnesses set, so early stops stay
    early.  No block is submitted once max_witnesses are found, and
    queued ones are cancelled, so any window starts at once and runs in
    bounded memory.
    Output is deterministic for fixed arguments regardless of worker
    count, and every witness is re-verified before it is returned.
    """
    report = full_admissibility(family)
    if not report.overall:
        raise InadmissibleFamily(report.failing_primes()[0])
    forms = family.progressions()
    primes = sieve_primes(DEFAULT_SIEVE_BOUND) if use_sieve else []
    sieve = array("l")  # flat (p, r) pairs: some form is 0 mod p when k = r (mod p)
    for p in primes:
        for r in sorted(killed_residues(family, p)):
            sieve.extend((p, r))
    kept = sorted({(p - xb) // st for p in primes for _, xb, st in forms if (p - xb) % st == 0})
    scan = partial(_scan_block, forms, r_min, extra_rounds, sieve, kept)
    witnesses: list[TupleWitness] = []

    def far_from_stop() -> bool:
        # once a search that stops at max_witnesses has found one, its stop
        # may be near: blocks keep their size, so the work still in flight
        # when it stops is no more than when its first witness came
        return max_witnesses is None or not witnesses

    depth = 2 * workers if workers > 1 else 1
    blocks = _blocks(k_start, k_start + k_count, depth, far_from_stop)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported here: it slows start-up

        pool = ProcessPoolExecutor(max_workers=workers)
        results = _in_order(pool, scan, blocks, depth)
    else:
        pool, results = None, map(scan, blocks)
    try:
        for found in results:
            witnesses.extend(found)
            if max_witnesses is not None and len(witnesses) >= max_witnesses:
                del witnesses[max_witnesses:]
                break
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    for w in witnesses:
        if not verify_witness(family, w, extra_rounds=extra_rounds):
            raise AssertionError(f"witness at k={w.k} failed re-verification")
    return witnesses


@dataclass(frozen=True)
class GalaxyRow:
    s: int
    difference: int  # omega - s
    a: int
    pi: int
    prime: bool


@dataclass(frozen=True)
class GalaxyReport:
    """Factored neighborhood of a witness: omega - s = a_s * pi_s per row."""

    q: int
    omega: int
    rows: tuple[GalaxyRow, ...]

    def prime_rows(self) -> list[GalaxyRow]:
        return [row for row in self.rows if row.prime]

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "omega": str(self.omega),
            "rows": [
                {
                    "s": row.s,
                    "difference": str(row.difference),
                    "a": str(row.a),
                    "pi": str(row.pi),
                    "prime": row.prime,
                }
                for row in self.rows
            ],
        }

    def render_text(self) -> str:
        headers = ("s", "omega-s", "a_s", "pi_s", "prime?")
        cells = [
            (str(r.s), str(r.difference), str(r.a), str(r.pi), "prime" if r.prime else "composite")
            for r in self.rows
        ]
        widths = [max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(headers)]
        lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
        for c in cells:
            lines.append("  ".join(v.rjust(w) for v, w in zip(c, widths)))
        return "\n".join(lines)


def galaxy_report(scheme: AnchorScheme, witness: TupleWitness) -> GalaxyReport:
    """Reconstruct omega - s = a_s * pi_s around the witness's omega.

    The solver pins the s = 0 modulus to 1, but a scheme may give a_0 > 1
    (the all-composite galaxies do); rows therefore factor through the
    scheme's own coefficients, which must divide omega - s exactly.  The
    indices must be exactly -q..q; that is checked first, as the work
    grows with q and not with the size of the witness.
    """
    indices = sorted(witness.values)
    q = max(abs(s) for s in indices)
    if len(indices) != 2 * q + 1 or indices != list(range(-q, q + 1)):
        raise ValueError(f"witness indices are not exactly -{q}..{q}")
    coeffs = coefficient_range(scheme, -q, q)
    omega = witness.omega
    rows = []
    for s in indices:
        x = witness.values[s]
        if x == 0 or (omega - s) % x != 0:
            raise ValueError(f"witness value at s={s} does not divide omega - s")
        a = coeffs[s].value
        if (omega - s) % a != 0:
            raise ValueError(f"coefficient a_{s}={a} does not divide omega - s")
        pi = (omega - s) // a
        rows.append(GalaxyRow(s=s, difference=omega - s, a=a, pi=pi, prime=is_prime(omega - s)))
    return GalaxyReport(q=q, omega=omega, rows=tuple(rows))
