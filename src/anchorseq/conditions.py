"""Executable checks for the three divisibility conditions.

(C): gcd(a_s, a_t) | t - s for all index pairs -- solvability of the
congruence system.  (E): every p^n dividing some a_s has a nearby index
carrying p^(n+1) -- the spacing that forces admissibility.  (D): for
every prime p some shift k keeps the whole solution tuple coprime to p
-- the hypothesis of Dickson's conjecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse
from math import gcd, isqrt

from .construction import AnchorScheme, SchemeError, coefficient, coefficient_range, np_exponent
from .crt import SolutionFamily, solution_tuple, solve_scheme
from .primality import is_prime, sieve_primes


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
    """The shifts k mod p at which p divides some entry x_s(k): all of
    range(p) when an entry is constantly 0 mod p.  Read off x_0(k) through
    a_s * x_s(k) = x_0(k) - s: with p not dividing a_s, p | x_s(k) exactly
    where p | (base - s) + modulus * k.  Only the entries with p | a_s
    reduce their own progression (base - s)/a_s + (modulus/a_s) * k: as
    a_s divides both, each term mod p is its residue mod a_s * p over a_s.
    """
    base, modulus = family.base, family.modulus
    b, m = base % p, modulus % p
    forms = {  # (c, d): the entry is c + d * k mod p, up to a unit
        ((b - s) % p, m) if a % p else ((base - s) % (a * p) // a, modulus % (a * p) // a)
        for s, a in family.moduli.items()
    }
    if (0, 0) in forms:
        return set(range(p))
    inverse = {d: pow(d, -1, p) for d in {d for _, d in forms} - {0}}
    return {-c * inverse[d] % p for c, d in forms if d}


def check_admissibility(family: SolutionFamily, p: int) -> int | None:
    """Smallest k in [0, p) that p does not kill (killed_residues), else None."""
    return next(filterfalse(killed_residues(family, p).__contains__, range(p)), None)


def _prime_divisors(n: int) -> list[int]:
    divisors = []
    for p in sieve_primes(min(isqrt(abs(n)) + 1, 100_000)):
        if n % p == 0:
            divisors.append(p)
            while n % p == 0:
                n //= p
    if n > 1:
        if not is_prime(n):
            raise ArithmeticError(f"{n.bit_length()}-bit cofactor of the modulus is not prime")
        divisors.append(n)
    return divisors


def full_admissibility(family: SolutionFamily) -> AdmissibilityReport:
    """Check admissibility over the only primes that can fail.

    For p outside {p <= 2q+1} and the divisors of the global modulus,
    every non-constant form kills at most one shift mod p (fewer than p
    shifts in total), and constant forms are units mod p; so those p are
    admissible automatically.  The checked primes' killed shifts come from
    killed_residues.
    """
    bound_primes = set(sieve_primes(2 * family.q + 1))
    bound_primes.update(_prime_divisors(family.modulus))
    checked = tuple((p, check_admissibility(family, p)) for p in sorted(bound_primes))
    return AdmissibilityReport(family.q, checked)
