"""Anchor families and the coefficient sequence they induce.

An anchor family assigns to every prime p and exponent n >= 1 a residue
class representative anchor(p, n).  The multiplicity of p in the
coefficient a_s is the largest n with s = anchor(p, n) (mod p^n); the
coefficient is the product of those prime powers.  Coherence of the
anchors (anchor(p, n) = anchor(p, m) mod p^m for m < n) means they
converge to a p-adic limit u/w with p not dividing w, so the
multiplicity is just v_p(w*s - u).  That limit must not be an integer,
or the index equal to it would carry every power of p.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .primality import is_prime, sieve_primes


class SchemeError(Exception):
    """An anchor scheme violated one of its structural guarantees."""


def anchor_default(p: int, n: int) -> int:
    """Default anchors: (p^n + 1)/2 for odd p, (1 - (-2)^n)/3 for p = 2."""
    if n < 1:
        raise ValueError(f"exponent must be >= 1, got {n}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return (1 - (-2) ** n) // 3
    return (p**n + 1) // 2


class AnchorScheme:
    """Base class; subclasses supply anchors, their p-adic limits and a
    bound on the primes that can divide a coefficient."""

    scheme_id: str

    def anchor(self, p: int, n: int) -> int:
        raise NotImplementedError

    def limit(self, p: int) -> tuple[int, int]:
        """(u, w) with anchor(p, n) = u/w (mod p^n) for every n."""
        raise NotImplementedError

    def prime_bound(self, bound: int) -> int:
        """Bound on every prime dividing some a_s with |s| <= bound."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<AnchorScheme {self.scheme_id}>"


class DefaultScheme(AnchorScheme):
    scheme_id = "default"

    def anchor(self, p: int, n: int) -> int:
        return anchor_default(p, n)

    def limit(self, p: int) -> tuple[int, int]:
        return (1, 3) if p == 2 else (1, 2)

    def prime_bound(self, bound: int) -> int:
        # an odd p divides a_s iff p | 2s - 1
        return 2 * bound + 1


def _limit(scheme: AnchorScheme, p: int) -> tuple[int, int]:
    u, w = scheme.limit(p)
    if u % w == 0:
        raise SchemeError(
            f"scheme {scheme.scheme_id!r}: anchor limit {u}/{w} at p={p} is an "
            "integer, whose index would carry every power of p"
        )
    return u, w


def np_exponent(scheme: AnchorScheme, p: int, s: int) -> int:
    """Multiplicity of p in the coefficient at index s: v_p(w*s - u)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    u, w = _limit(scheme, p)
    x, n = w * s - u, 0
    while x % p == 0:
        x //= p
        n += 1
    return n


@dataclass(frozen=True)
class Factorization:
    """A coefficient as a finite map prime -> exponent, plus its value."""

    exponents: tuple[tuple[int, int], ...]  # (prime, exponent), primes ascending

    @property
    def value(self) -> int:
        return prod(p**e for p, e in self.exponents)

    def exponent_of(self, p: int) -> int:
        for q, e in self.exponents:
            if q == p:
                return e
        return 0

    def __str__(self) -> str:
        if not self.exponents:
            return "1"
        return "·".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.exponents)

    def to_json_dict(self, s: int) -> dict:
        return {
            "s": s,
            "value": str(self.value),
            "factors": [[p, e] for p, e in self.exponents],
        }


def coefficient(scheme: AnchorScheme, s: int) -> Factorization:
    """The coefficient a_s = prod p^(multiplicity of p at s).

    Costs a prime sieve up to scheme.prime_bound(|s|); use
    coefficient_range for many indices.
    """
    return coefficient_range(scheme, s, s)[s]


def coefficient_range(scheme: AnchorScheme, lo: int, hi: int) -> dict[int, Factorization]:
    """Coefficients for every s in [lo, hi], computed sieve-style.

    For each prime up to the scheme's bound, one strided pass per level n
    marks the indices s = u/w (mod p^n) as having multiplicity >= n; the
    level-1 class is anchor(p, 1).  The passes stop once the class has no
    index left in [lo, hi].
    """
    if lo > hi:
        raise ValueError("lo must be <= hi")
    exps: dict[int, list[tuple[int, int]]] = {s: [] for s in range(lo, hi + 1)}
    for p in sieve_primes(scheme.prime_bound(max(abs(lo), abs(hi)))):
        u, w = _limit(scheme, p)
        mult: dict[int, int] = {}
        n, pn, c = 1, p, scheme.anchor(p, 1)
        while (start := lo + (c - lo) % pn) <= hi:
            for s in range(start, hi + 1, pn):
                mult[s] = n
            n, pn = n + 1, pn * p
            c = u * pow(w, -1, pn)
        for s, e in mult.items():
            exps[s].append((p, e))
    return {s: Factorization(tuple(pe)) for s, pe in exps.items()}


def coefficient_table(scheme: AnchorScheme, lo: int, hi: int) -> list[tuple[int, Factorization]]:
    """(s, a_s) rows for s in [lo, hi] inclusive."""
    by_s = coefficient_range(scheme, lo, hi)
    return [(s, by_s[s]) for s in range(lo, hi + 1)]
