"""The congruence system x = s (mod a_s) and its solution family.

The moduli are not pairwise coprime, so the solver merges congruences
pairwise with the extended-gcd generalization of the Chinese Remainder
Theorem: x = r1 (mod m1) and x = r2 (mod m2) are simultaneously solvable
iff gcd(m1, m2) | r2 - r1, in which case the solutions form one class
mod lcm(m1, m2).  That class, base mod modulus, is the whole family: a_s
divides both modulus and base - s, so each entry x_s(k) = (x_0(k) - s)/a_s
of the k-th solution x_0(k) = base + modulus * k is derived, not stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .construction import AnchorScheme, coefficient_range


class Incompatible(Exception):
    """A pair of congruences admits no common solution."""

    def __init__(self, m1, r1, m2, r2, label=""):
        self.pair = (m1, r1, m2, r2)
        detail = f" [{label}]" if label else ""
        super().__init__(
            f"x = {r1} (mod {m1}) and x = {r2} (mod {m2}) share no solution{detail}"
        )


@dataclass(frozen=True)
class CongruenceSystem:
    """Entries (s, modulus a_s, residue s mod a_s) for 0 < |s| <= q."""

    q: int
    entries: tuple[tuple[int, int, int], ...]  # (s, modulus, residue)

    def __post_init__(self):
        seen = set()
        for s, m, r in self.entries:
            if not 0 < abs(s) <= self.q:
                raise ValueError(f"index {s} outside 0 < |s| <= {self.q}")
            if m < 1 or not 0 <= r < m:
                raise ValueError(f"bad modulus/residue ({m}, {r}) at s={s}")
            seen.add(s)
        expected = {s for s in range(-self.q, self.q + 1) if s != 0}
        if seen != expected:
            raise ValueError("system must cover each 0 < |s| <= q exactly once")


@dataclass(frozen=True)
class SolutionFamily:
    """All solutions x_0(k) = base + modulus * k of the system.

    Invariant: a_s divides both modulus and base - s for every index s,
    so each entry is the progression x_s(k) = (x_0(k) - s) / a_s.
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

    Raises Incompatible when gcd(m1, m2) does not divide r2 - r1.
    """
    if m1 < 1 or m2 < 1:
        raise ValueError("moduli must be >= 1")
    g = gcd(m1, m2)
    if (r2 - r1) % g != 0:
        raise Incompatible(m1, r1, m2, r2)
    m = m1 // g * m2
    t = (r2 - r1) // g * pow(m1 // g, -1, m2 // g) if m2 // g > 1 else 0
    return m, (r1 + m1 * t) % m


def build_system(scheme: AnchorScheme, q: int) -> CongruenceSystem:
    """The system induced by the scheme's coefficients for 0 < |s| <= q."""
    if q < 1:
        raise ValueError("q must be >= 1")
    by_s = coefficient_range(scheme, -q, q)
    entries = tuple(
        (s, by_s[s].value, s % by_s[s].value)
        for s in range(-q, q + 1)
        if s != 0
    )
    return CongruenceSystem(q, entries)


def solve_system(system: CongruenceSystem) -> SolutionFamily:
    """Fold the entries into a single class and unpack the progressions.

    Incompatibility means the generating coefficients violate the pairwise
    gcd-divisibility condition; for scheme-generated systems that is an
    internal bug, and the error names the offending pair.
    """
    entries = sorted(system.entries, key=lambda e: (abs(e[0]), e[0]))
    modulus, base = 1, 0
    merged_at: list[int] = []
    for s, m, r in entries:
        try:
            modulus, base = merge_congruences(modulus, base, m, r)
        except Incompatible:
            raise Incompatible(
                modulus, base, m, r, label=f"while merging s={s} after {merged_at}"
            ) from None
        merged_at.append(s)
    moduli = {0: 1}
    moduli.update({s: m for s, m, _ in entries})
    for s, a in moduli.items():
        if (base - s) % a != 0:
            raise Incompatible(modulus, base, a, s % a, label=f"s={s}")
    return SolutionFamily(system.q, base, modulus, moduli)


def solve_scheme(scheme: AnchorScheme, q: int) -> SolutionFamily:
    return solve_system(build_system(scheme, q))


def solution_tuple(family: SolutionFamily, k: int) -> dict[int, int]:
    """The k-th solution tuple x_s(k) = (x_0(k) - s) / a_s."""
    x0 = family.base + family.modulus * k
    return {s: (x0 - s) // a for s, a in sorted(family.moduli.items())}


def family_from_json_dict(data: dict) -> SolutionFamily:
    """Read q, base, modulus and each a_s >= 1; each entry's xbar and step
    must be the ones they imply (a * xbar == base - s, a * step == modulus)."""
    base, modulus = int(data["base"]), int(data["modulus"])
    moduli = {}
    for entry in data["entries"]:
        s, a = int(entry["s"]), int(entry["a"])
        if a < 1 or a * int(entry["xbar"]) != base - s or a * int(entry["step"]) != modulus:
            raise ValueError(f"entry s={s} does not match base and modulus")
        moduli[s] = a
    return SolutionFamily(q=int(data["q"]), base=base, modulus=modulus, moduli=moduli)
