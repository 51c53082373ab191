"""Primality testing and small-prime generation.

Exact (deterministic Miller-Rabin witness sets) below ~3.2e23; a
Baillie-PSW style combination (strong base-2 test + strong Lucas test)
above, with optional extra random-base rounds.
"""

from __future__ import annotations

import random
from math import gcd, isqrt

# Strong-probable-prime test with these twelve bases is exact below psi_12,
# the least composite that passes all of them (Sorenson & Webster 2015).
_DETERMINISTIC_BOUND = 318_665_857_834_031_151_167_461
_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_PRIMES: tuple[int, ...] = ()


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit by a sieve of Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


_TRIAL_PRIMES = tuple(sieve_primes(1000))


def _is_strong_probable_prime(n: int, base: int) -> bool:
    if base % n == 0:
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _lucas_selfridge_parameters(n: int) -> tuple[int, int, int] | None:
    """Selfridge's method A: first D in 5, -7, 9, -11, ... with (D|n) = -1."""
    d = 5
    while True:
        g = gcd(abs(d), n)
        if 1 < g < n:
            return None
        if jacobi_symbol(d, n) == -1:
            return d, 1, (1 - d) // 4
        d = -d - 2 if d > 0 else -d + 2
        if abs(d) > 1_000_000:  # unreachable for non-squares
            raise ArithmeticError(f"no Lucas D found for {n}")


def _is_strong_lucas_probable_prime(n: int) -> bool:
    params = _lucas_selfridge_parameters(n)
    if params is None:
        return False
    d, p, q = params
    # n + 1 = s * 2^r
    s = n + 1
    r = 0
    while s % 2 == 0:
        s //= 2
        r += 1
    # Lucas sequences U_s, V_s by binary ladder
    u, v, qk = 1, p, q
    for bit in bin(s)[3:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (p * u + v), (d * u + p * v)
            if u % 2:
                u += n
            if v % 2:
                v += n
            u, v = u // 2 % n, v // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(r - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be a positive odd integer")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_prime(n: int, extra_rounds: int = 0, seed: int = 0) -> bool:
    """Primality test; exact below 3.2e23, Baillie-PSW style above.

    extra_rounds adds random-base strong tests (seeded, so deterministic)
    on top of the base-2 + strong-Lucas combination for large n.
    """
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _DETERMINISTIC_BOUND:
        return all(_is_strong_probable_prime(n, b) for b in _DETERMINISTIC_BASES)
    if not _is_strong_probable_prime(n, 2):
        return False
    # perfect squares never have (D|n) = -1; rule them out first
    root = isqrt(n)
    if root * root == n:
        return False
    if not _is_strong_lucas_probable_prime(n):
        return False
    if extra_rounds > 0:
        rng = random.Random(seed)
        for _ in range(extra_rounds):
            base = rng.randrange(2, n - 1)
            if not _is_strong_probable_prime(n, base):
                return False
    return True


def euler_sequence_check(c: int, length: int) -> bool:
    """True iff c + i*(i+1) is prime for every 0 <= i < length."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return all(is_prime(c + i * (i + 1)) for i in range(length))
