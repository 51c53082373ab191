"""The congruence system x = s (mod a_s), |s| <= q, and its solution family.

The system is its map s -> a_s (a_0 = 1).  The moduli are not coprime, so
the solver merges congruences pairwise by the extended-gcd Chinese
Remainder Theorem: x = r1 (mod m1) and x = r2 (mod m2) are solvable iff
gcd(m1, m2) | r2 - r1, and the solutions form one class mod lcm(m1, m2).
That class, base mod modulus, is the whole family: a_s divides both
modulus and base - s, so each entry x_s(k) = (x_0(k) - s)/a_s of the k-th
solution x_0(k) = base + modulus * k is derived, not stored.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass
from math import gcd, lcm

from .construction import AnchorScheme, coefficient_range


class Incompatible(Exception):
    """A pair of congruences admits no common solution.  The message gives
    bit lengths: a class of the fold may be too long to print in decimal."""

    def __init__(self, m1, r1, m2, r2, label=""):
        self.pair = (m1, r1, m2, r2)
        detail = f" [{label}]" if label else ""
        super().__init__(
            f"congruences mod a {m1.bit_length()}-bit and a {m2.bit_length()}-bit"
            f" modulus share no solution{detail}"
        )


@dataclass(frozen=True)
class SolutionFamily:
    """All solutions x_0(k) = base + modulus * k of the system.

    Invariant: keys -q..q, modulus = lcm(a_s), and a_s divides base - s
    for every index s, so each entry is the progression
    x_s(k) = (x_0(k) - s) / a_s.
    """

    q: int
    base: int
    modulus: int
    moduli: dict[int, int]  # s -> a_s

    def indices(self) -> list[int]:
        return sorted(self.moduli)

    def progressions(self) -> list[tuple[int, int, int]]:
        """(s, xbar_s, step_s) in ascending s: x_s(k) = xbar_s + step_s * k."""
        base, modulus = self.base, self.modulus
        return [(s, (base - s) // a, modulus // a) for s, a in sorted(self.moduli.items())]

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "base": str(self.base),
            "modulus": str(self.modulus),
            "entries": [
                {"s": s, "a": str(self.moduli[s]), "xbar": str(xbar), "step": str(step)}
                for s, xbar, step in self.progressions()
            ],
        }


def merge_congruences(m1: int, r1: int, m2: int, r2: int) -> tuple[int, int]:
    """Combine x = r1 (mod m1), x = r2 (mod m2) into one congruence.

    The lift t is reduced mod m2/g, so for small m2 a merge is linear in the
    size of m1.  Raises Incompatible when gcd(m1, m2) does not divide r2 - r1.
    """
    if m1 < 1 or m2 < 1:
        raise ValueError("moduli must be >= 1")
    g = gcd(m1, m2)
    if (r2 - r1) % g != 0:
        raise Incompatible(m1, r1, m2, r2)
    n = m2 // g
    t = (r2 - r1) // g * pow(m1 // g, -1, n) % n
    m = m1 * n
    return m, (r1 + m1 * t) % m


def build_system(scheme: AnchorScheme, q: int) -> dict[int, int]:
    """The moduli {s: a_s} for |s| <= q, with a_0 pinned to 1: x_0 is the
    solution itself, whatever the scheme's own a_0 (no_prime's is > 1)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    moduli = {s: f.value for s, f in coefficient_range(scheme, -q, q).items()}
    moduli[0] = 1
    return moduli


def solve_system(moduli: dict[int, int]) -> SolutionFamily:
    """Fold x = s (mod a_s) over the map {s: a_s} into a single class.

    The keys must be exactly -q..q for some q >= 1.  Entries merge in
    ascending (|s|, s).  Incompatibility means the moduli violate the
    pairwise gcd-divisibility condition; for scheme-generated systems that
    is an internal bug, and the error names the index that failed.
    """
    q = max(map(abs, moduli), default=0)
    if q < 1 or len(moduli) != 2 * q + 1 or moduli.keys() != set(range(-q, q + 1)):
        raise ValueError("system must cover each |s| <= q exactly once, for some q >= 1")
    modulus, base = 1, 0
    for s in sorted(moduli, key=lambda s: (abs(s), s)):
        a = moduli[s]
        try:
            modulus, base = merge_congruences(modulus, base, a, s)
        except Incompatible:
            raise Incompatible(modulus, base, a, s % a, label=f"s={s}") from None
    for s, a in moduli.items():
        if (base - s) % a != 0:
            raise Incompatible(modulus, base, a, s % a, label=f"s={s}")
    return SolutionFamily(q, base, modulus, moduli)


def solve_scheme(scheme: AnchorScheme, q: int) -> SolutionFamily:
    return solve_system(build_system(scheme, q))


def solution_tuple(family: SolutionFamily, k: int) -> dict[int, int]:
    """The k-th solution tuple x_s(k) = (x_0(k) - s) / a_s."""
    x0 = family.base + family.modulus * k
    return {s: (x0 - s) // a for s, a in sorted(family.moduli.items())}


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift Python's int <-> str digit limit (3.11+) inside the block, so
    big integers are written and read in full; the limit is restored after."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@unlimited_int_digits()
def family_from_json_dict(data: dict) -> SolutionFamily:
    """Read q, base, modulus and each a_s >= 1, of any number of digits;
    each entry's xbar and step must be the ones they imply (a * xbar ==
    base - s, a * step == modulus), the entries must be s = -q..q for
    q >= 1 and the modulus lcm(a_s)."""
    q, base, modulus = int(data["q"]), int(data["base"]), int(data["modulus"])
    moduli = {}
    for entry in data["entries"]:
        s, a = int(entry["s"]), int(entry["a"])
        if a < 1 or a * int(entry["xbar"]) != base - s or a * int(entry["step"]) != modulus:
            raise ValueError(f"entry s={s} does not match base and modulus")
        moduli[s] = a
    spans = len(data["entries"]) == 2 * q + 1 and moduli.keys() == set(range(-q, q + 1))
    if q < 1 or not spans or modulus != lcm(*moduli.values()):
        raise ValueError(f"need q >= 1, entries s = -q..q once each, modulus = lcm(a_s) (q = {q})")
    return SolutionFamily(q=q, base=base, modulus=modulus, moduli=moduli)
