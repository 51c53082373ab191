"""Executable checks for the three divisibility conditions.

(C): gcd(a_s, a_t) | t - s for all index pairs -- solvability of the
congruence system.  (E): every p^n dividing some a_s has a nearby index
carrying p^(n+1) -- the spacing that forces admissibility.  (D): for
every prime p some shift k keeps the whole solution tuple coprime to p
-- the hypothesis of Dickson's conjecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, filterfalse
from math import gcd

from .construction import AnchorScheme, SchemeError, coefficient, coefficient_range, np_exponent
from .crt import SolutionFamily, solution_tuple, solve_scheme
from .primality import sieve_primes


class WitnessNotFound(Exception):
    """The scheme violates the spacing condition at the given (s, p)."""


class InadmissibleFamily(Exception):
    """Some prime divides every solution tuple of the family."""

    def __init__(self, p: int):
        self.p = p
        super().__init__(f"every solution tuple has an entry divisible by {p}")


def check_condition_C(scheme: AnchorScheme, s: int, t: int) -> bool:
    """gcd(a_s, a_t) divides t - s."""
    a_s = coefficient(scheme, s).value
    a_t = coefficient(scheme, t).value
    return (t - s) % gcd(a_s, a_t) == 0


def condition_C_sweep(scheme: AnchorScheme, bound: int) -> tuple[int, int] | None:
    """Check gcd(a_s, a_t) | t - s over all |s|, |t| <= bound.

    Works prime-by-prime instead of pairwise: the gcd divides t - s for
    every pair iff, for each prime power p^m, all indices of multiplicity
    >= m fall into a single residue class mod p^m.  Returns a violating
    (s, t) pair, or None when the condition holds.
    """
    by_s = coefficient_range(scheme, -bound, bound)
    levels: dict[tuple[int, int], dict[int, int]] = {}
    for s, fact in by_s.items():
        for p, e in fact.exponents:
            for m in range(1, e + 1):
                classes = levels.setdefault((p, m), {})
                r = s % p**m
                if r in classes:
                    continue
                if classes:
                    return (next(iter(classes.values())), s)
                classes[r] = s
    return None


@dataclass(frozen=True)
class ConditionEWitness:
    """An index r near s carrying the next power of p: |r - s| = u * p^n
    with 0 < u < p and p^(n+1) | a_r."""

    s: int
    p: int
    n: int
    r: int
    u: int

    def to_json_dict(self) -> dict:
        return {"s": self.s, "p": self.p, "n": self.n, "r": str(self.r), "u": self.u}


def check_condition_E(scheme: AnchorScheme, s: int, p: int) -> ConditionEWitness:
    """Construct and verify the spacing witness for (s, p).

    With n the multiplicity of p at s, the witness is the unique anchor
    translate r = anchor(p, n+1) + k * p^(n+1) with 0 <= s - r < p^(n+1);
    it always lands strictly below s at distance u * p^n, 0 < u < p.
    """
    n = np_exponent(scheme, p, s)
    pn, pn1 = p**n, p ** (n + 1)
    a1 = scheme.anchor(p, n + 1)
    r = s - (s - a1) % pn1
    if r == s or (s - r) % pn != 0:
        raise WitnessNotFound(f"no witness at s={s}, p={p} (n={n}, r={r})")
    u = (s - r) // pn
    if not 0 < u < p or np_exponent(scheme, p, r) < n + 1:
        raise WitnessNotFound(f"no witness at s={s}, p={p} (n={n}, r={r}, u={u})")
    return ConditionEWitness(s=s, p=p, n=n, r=r, u=u)


def condition_E_sweep(
    scheme: AnchorScheme, bound: int, extra_primes=(2, 3, 5, 7)
) -> list[tuple[int, int]]:
    """Run the (E) check for every |s| <= bound against every p | a_s plus
    the given extra primes; returns the failing (s, p) pairs."""
    by_s = coefficient_range(scheme, -bound, bound)
    failures = []
    for s, fact in by_s.items():
        primes = sorted({p for p, _ in fact.exponents} | set(extra_primes))
        for p in primes:
            try:
                check_condition_E(scheme, s, p)
            except WitnessNotFound:
                failures.append((s, p))
    return failures


def lemma1_solution(scheme: AnchorScheme, q: int, p: int) -> dict[int, int]:
    """A solution tuple for range q with every entry coprime to p.

    Solves the enlarged system of range q + p^(n+1), n being the top
    multiplicity of p inside range q; any of its solutions restricts to a
    p-free tuple on range q, and check_admissibility picks the smallest
    shift with the whole enlarged tuple p-free.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    n = max(np_exponent(scheme, p, s) for s in range(-q, q + 1))
    q_star = q + p ** (n + 1)
    family = solve_scheme(scheme, q_star)
    k = check_admissibility(family, p)
    if k is None:
        raise SchemeError(f"no shift k < {p} gives a tuple coprime to {p} (q*={q_star})")
    restricted = {s: x for s, x in solution_tuple(family, k).items() if abs(s) <= q}
    if any(x % p == 0 for x in restricted.values()):
        raise SchemeError(f"restriction has an entry divisible by {p}")
    return restricted


@dataclass(frozen=True)
class AdmissibilityReport:
    """Per-prime good shifts for a family; a None residue marks failure."""

    q: int
    checked: tuple[tuple[int, int | None], ...]  # (p, good k mod p or None)

    @property
    def overall(self) -> bool:
        return all(k is not None for _, k in self.checked)

    def failing_primes(self) -> list[int]:
        return [p for p, k in self.checked if k is None]

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "checked": [{"p": p, "k": k} for p, k in self.checked],
            "overall": self.overall,
        }


def killed_residues(family: SolutionFamily, p: int) -> set[int]:
    """The shifts k mod p at which p divides some entry x_s(k), read off
    a_s * x_s(k) = (base - s) + modulus * k (a_s divides both terms).

    If p does not divide the modulus lcm(a_s), it divides no a_s and each
    entry kills k = (s - base) / modulus mod p.  If it does, entries with
    s != base (mod p) are nonzero constants mod p; the rest are reduced
    term by term (mod a_s * p, over a_s), and one that is constantly 0
    mod p kills all of range(p).
    """
    base, modulus, q = family.base, family.modulus, family.q
    if modulus % p:
        inverse, b = pow(modulus, -1, p), base % p
        return {(s - b) * inverse % p for s in family.moduli}
    forms = {  # (c, d): the entry is c + d * k mod p, up to a unit
        ((base - s) % (a * p) // a, modulus % (a * p) // a)
        for s in range(-q + (base + q) % p, q + 1, p)
        if (a := family.moduli.get(s))
    }
    if (0, 0) in forms:
        return set(range(p))
    return {-c * pow(d, -1, p) % p for c, d in forms if d}


def check_admissibility(family: SolutionFamily, p: int) -> int | None:
    """Smallest k in [0, p) that p does not kill (killed_residues), else None."""
    return next(filterfalse(killed_residues(family, p).__contains__, range(p)), None)


def full_admissibility(family: SolutionFamily) -> AdmissibilityReport:
    """Check admissibility at p <= 2q+1 and at the primes of the a_s,
    found by trial division by those primes, then by odd d (what remains
    once d * d exceeds it is 1 or prime).

    For a family with keys -q..q and modulus = lcm(a_s), as solve_system
    returns, any other p divides no a_s nor the modulus, so each of the
    2q+1 < p entries kills one shift: only the checked primes can fail.
    """
    small = sieve_primes(2 * family.q + 1)
    primes = set(small)
    for n in set(family.moduli.values()):
        for d in chain(small, count(small[-1] + 2, 2)):
            if d * d > n:
                break
            while n % d == 0:
                primes.add(d)
                n //= d
        primes.add(n)
    checked = tuple((p, check_admissibility(family, p)) for p in sorted(primes - {1}))
    return AdmissibilityReport(family.q, checked)
