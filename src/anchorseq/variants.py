"""Alternative anchor families: all-composite galaxies and Euler-prime galaxies.

Scheme "no_prime" places an anchor on every index so that every
coefficient exceeds 1.  Scheme "euler_prime" picks quadratic-nonresidue
anchors so that the coefficients vanish along s = -i*(i+1), leaving
those indices free to be prime.

Higher-exponent anchors at odd p use the coherent completion
anchor(p, n) = s1 + p + ... + p^(n-1), whose p-adic limit is
s1 + p/(1-p).  At p = 2, euler_prime keeps the default anchors (limit
1/3) and no_prime steps with alternating sign, anchor(2, n) =
anchor(2, n-1) - (-2)^(n-1), whose limit is 2/3; a constant +2^(n-1)
step would converge 2-adically to the integer -2 and give the index
s = -2 every power of 2.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

from .construction import AnchorScheme, DefaultScheme, anchor_default, coefficient
from .primality import is_prime, sieve_primes


class NoChoiceInWindow(Exception):
    """No quadratic-nonresidue anchor exists in the counting window."""


def legendre_symbol(a: int, p: int) -> int:
    """Euler-criterion value of (a|p) in {-1, 0, +1}; p must be an odd prime."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


@dataclass(frozen=True)
class QnrAnchorChoice:
    """A first-level anchor s1 whose 1 - 4*s1 is a nonresidue mod p."""

    p: int
    s1: int
    widened_window: bool = False

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "s1": str(self.s1),
            "nonresidue": str((1 - 4 * self.s1) % self.p),
            "widened_window": self.widened_window,
        }


@lru_cache(maxsize=None)
def qnr_anchor(p: int) -> QnrAnchorChoice:
    """Smallest s1 in [ceil((p-1)/4), floor((p-1)/2)] with 1 - 4*s1 a QNR mod p.

    For p < 5 the window degenerates and is widened to [1, p-1]; the
    widening is recorded on the returned choice.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    widened = p < 5
    lo, hi = (1, p - 1) if widened else (-(-(p - 1) // 4), (p - 1) // 2)
    for s1 in range(lo, hi + 1):
        # Euler's criterion, as in legendre_symbol
        if pow((1 - 4 * s1) % p, (p - 1) // 2, p) == p - 1:
            return QnrAnchorChoice(p, s1, widened)
    raise NoChoiceInWindow(f"no QNR anchor for p={p} in [{lo}, {hi}]")


_ODD_PRIME_CACHE: list[int] = sieve_primes(10_000)[1:]


def _odd_primes(count: int) -> list[int]:
    """First `count` odd primes (1-based enumeration p_1 = 3, p_2 = 5, ...)."""
    global _ODD_PRIME_CACHE
    limit = 10_000
    while len(_ODD_PRIME_CACHE) < count:
        limit *= 4
        _ODD_PRIME_CACHE = sieve_primes(limit)[1:]
    return _ODD_PRIME_CACHE[:count]


def _odd_prime_index(p: int) -> int:
    """1-based index of p in the odd-prime enumeration."""
    _odd_primes(max(64, p.bit_length() * 8))
    while _ODD_PRIME_CACHE[-1] < p:
        _odd_primes(2 * len(_ODD_PRIME_CACHE))
    i = bisect_right(_ODD_PRIME_CACHE, p)
    if i == 0 or _ODD_PRIME_CACHE[i - 1] != p:
        raise ValueError(f"{p} is not an odd prime")
    return i


def no_prime_anchor(p: int, n: int) -> int:
    """Anchors that put a prime-power on every index (all a_s > 1).

    First level: anchor(2, 1) = 0; over the odd primes p_1 = 3, p_2 = 5,
    ..., anchor(p_1, 1) = 1, anchor(p_2i, 1) = i, anchor(p_2i+1, 1) = -i.
    Higher levels by the coherent completion described in the module
    docstring.
    """
    if n < 1:
        raise ValueError(f"exponent must be >= 1, got {n}")
    if p == 2:
        # alternating coherent completion: 0, 2, -2, 6, -10, ...
        a = 0
        for m in range(2, n + 1):
            a -= (-2) ** (m - 1)
        return a
    j = _odd_prime_index(p)
    if j == 1:
        s1 = 1
    elif j % 2 == 0:
        s1 = j // 2
    else:
        s1 = -(j // 2)
    return s1 + sum(p**m for m in range(1, n))


def euler_prime_anchor(p: int, n: int) -> int:
    """Anchors avoiding every class -i*(i+1): default family at p = 2,
    QNR-chosen s1 plus coherent completion at odd p."""
    if n < 1:
        raise ValueError(f"exponent must be >= 1, got {n}")
    if p == 2:
        return anchor_default(2, n)
    s1 = qnr_anchor(p).s1
    return s1 + sum(p**m for m in range(1, n))


def _completion_limit(s1: int, p: int) -> tuple[int, int]:
    """p-adic limit of s1 + p + p^2 + ..., which is s1 + p/(1-p)."""
    return s1 * (1 - p) + p, 1 - p


class NoPrimeScheme(AnchorScheme):
    scheme_id = "no_prime"

    def anchor(self, p: int, n: int) -> int:
        return no_prime_anchor(p, n)

    def limit(self, p: int) -> tuple[int, int]:
        return (2, 3) if p == 2 else _completion_limit(no_prime_anchor(p, 1), p)

    def prime_bound(self, bound: int) -> int:
        # p_j > 2j exceeds |s - s1| once j > 2|s| + 3, and s = s1 = ±(j//2)
        # needs j <= 2|s| + 1
        return _odd_primes(2 * bound + 3)[-1]


class EulerPrimeScheme(AnchorScheme):
    scheme_id = "euler_prime"

    def anchor(self, p: int, n: int) -> int:
        return euler_prime_anchor(p, n)

    def limit(self, p: int) -> tuple[int, int]:
        return (1, 3) if p == 2 else _completion_limit(qnr_anchor(p).s1, p)

    def prime_bound(self, bound: int) -> int:
        # s1 lies in [(p-1)/4, (p-1)/2], so p | s - s1 forces p <= 4|s| + 2
        return 4 * bound + 2


SCHEMES: dict[str, AnchorScheme] = {
    "default": DefaultScheme(),
    "no_prime": NoPrimeScheme(),
    "euler_prime": EulerPrimeScheme(),
}


def get_scheme(name: str) -> AnchorScheme:
    try:
        return SCHEMES[name]
    except KeyError:
        valid = ", ".join(sorted(SCHEMES))
        raise ValueError(f"unknown scheme {name!r} (valid: {valid})") from None


def verify_no_prime_galaxy(range_bound: int) -> bool:
    """True iff every coefficient of the no_prime scheme with |s| <= bound
    exceeds 1 (so the galaxy it generates holds no primes)."""
    from .construction import coefficient_range

    by_s = coefficient_range(SCHEMES["no_prime"], -range_bound, range_bound)
    return all(f.value > 1 for f in by_s.values())


def verify_euler_galaxy(i_bound: int) -> bool:
    """True iff the euler_prime coefficients vanish along s = -i*(i+1) for
    i <= i_bound and every relevant odd prime got a genuine QNR anchor."""
    scheme = SCHEMES["euler_prime"]
    for i in range(i_bound + 1):
        if coefficient(scheme, -i * (i + 1)).value != 1:
            return False
    for p in sieve_primes(4 * i_bound * (i_bound + 1) + 2)[1:]:
        if legendre_symbol(1 - 4 * scheme.anchor(p, 1), p) != -1:
            return False
    return True
