from math import gcd

import pytest

from anchorseq import (
    DefaultScheme,
    SolutionFamily,
    WitnessNotFound,
    check_admissibility,
    check_condition_C,
    check_condition_E,
    coefficient,
    condition_C_sweep,
    condition_E_sweep,
    full_admissibility,
    get_scheme,
    killed_residues,
    lemma1_solution,
    np_exponent,
    sieve_primes,
    solution_tuple,
    solve_scheme,
    solve_system,
)

DEFAULT = get_scheme("default")
ALL_SCHEMES = [get_scheme(n) for n in ("default", "no_prime", "euler_prime")]


class TestConditionC:
    def test_examples(self):
        assert check_condition_C(DEFAULT, 3, 11)  # gcd(40, 672) = 8 | 8
        assert check_condition_C(DEFAULT, -7, 5)  # gcd(30, 18) = 6 | 12
        assert check_condition_C(DEFAULT, 4, 4)

    def test_sweep_agrees_with_pairwise(self):
        for scheme in ALL_SCHEMES:
            assert condition_C_sweep(scheme, 60) is None
            values = {s: coefficient(scheme, s).value for s in range(-60, 61)}
            for s in range(-60, 61):
                for t in range(s, 61):
                    assert (t - s) % gcd(values[s], values[t]) == 0, (scheme.scheme_id, s, t)

    def test_holds_for_arbitrary_coherent_anchors(self):
        # the stepwise multiplicity scan puts every index of multiplicity
        # >= m into the single class of anchor(p, m) mod p^m, which is the
        # whole content of the condition; shifting the anchors cannot
        # break it
        class Shifted(DEFAULT.__class__):
            scheme_id = "shifted"

            def anchor(self, p, n):
                # same class mod p^n, so the n = 1 candidate windows still apply
                return super().anchor(p, n) + p**n

        assert condition_C_sweep(Shifted(), 40) is None


def brute_E_witness(scheme, s, p, span=3):
    """Oracle: scan indices at distances u * p^n on both sides of s."""
    n = np_exponent(scheme, p, s)
    for u in range(1, p):
        for r in (s - u * p**n, s + u * p**n):
            if np_exponent(scheme, p, r) >= n + 1:
                return r
    return None


class TestConditionE:
    def test_example_s1_p2(self):
        w = check_condition_E(DEFAULT, 1, 2)
        assert (w.n, w.r, w.u) == (1, -1, 1)
        assert coefficient(DEFAULT, w.r).exponent_of(2) >= 2

    def test_example_s0_p3(self):
        w = check_condition_E(DEFAULT, 0, 3)
        assert w.n == 0 and abs(w.r - 0) == w.u and 0 < w.u < 3
        assert coefficient(DEFAULT, w.r).exponent_of(3) >= 1

    def test_example_s5_p3(self):
        w = check_condition_E(DEFAULT, 5, 3)
        assert w.n == 2
        assert abs(w.r - 5) == w.u * 9 and w.u in (1, 2)
        assert coefficient(DEFAULT, w.r).exponent_of(3) >= 3
        assert brute_E_witness(DEFAULT, 5, 3) is not None

    def test_witness_invariants_small_sweep(self):
        for scheme in ALL_SCHEMES:
            assert condition_E_sweep(scheme, 80) == []

    def test_agrees_with_brute_oracle(self):
        for scheme in ALL_SCHEMES:
            for s in range(-30, 31):
                for p in (2, 3, 5):
                    w = check_condition_E(scheme, s, p)
                    assert brute_E_witness(scheme, s, p) is not None
                    pn = p**w.n
                    assert abs(w.r - s) == w.u * pn and 0 < w.u < p
                    assert np_exponent(scheme, p, w.r) >= w.n + 1

    def test_witness_not_found_for_broken_scheme(self):
        class NoSpacing(DefaultScheme):
            scheme_id = "no_spacing"

            def anchor(self, p, n):
                # one fixed anchor per prime at every level, out of step with
                # the default limit: the witness for s = 4 (7 || a_4) would
                # be the anchor index itself
                return (p + 1) // 2 if p > 2 else 1

        with pytest.raises(WitnessNotFound):
            check_condition_E(NoSpacing(), 4, 7)


class TestCoprimeTuples:
    def test_all_entries_coprime(self):
        for q in (1, 2, 3):
            for p in (2, 3, 5, 7):
                tup = lemma1_solution(DEFAULT, q, p)
                assert set(tup) == set(range(-q, q + 1))
                assert all(x % p != 0 for x in tup.values()), (q, p)

    def test_solves_the_system(self):
        tup = lemma1_solution(DEFAULT, 2, 5)
        for s, x in tup.items():
            assert coefficient(DEFAULT, s).value * x - tup[0] == -s

    def test_variant_schemes(self):
        for name in ("no_prime", "euler_prime"):
            tup = lemma1_solution(get_scheme(name), 1, 3)
            assert all(x % 3 != 0 for x in tup.values())


def degenerate_family():
    """Single constant-free form x_0(k) = 3 + 2k."""
    return SolutionFamily(q=1, base=3, modulus=2, moduli={0: 1})


def failing_family():
    """Single form x_0(k) = 2k, even at every shift."""
    return SolutionFamily(q=1, base=0, modulus=2, moduli={0: 1})


def twin_prime_family():
    """Forms x_0(k) = 3 + 2k and x_{-2}(k) = 5 + 2k."""
    return SolutionFamily(q=2, base=3, modulus=2, moduli={0: 1, -2: 1})


def even_coefficient_family():
    """Single form x_{-2}(k) = 2 + 2k with a_{-2} = 2: constant 0 mod 2 on its own."""
    return SolutionFamily(q=2, base=2, modulus=4, moduli={-2: 2})


def multiple_of_three_family():
    """Forms x_0(k) = 2 + 3k and x_{-1}(k) = 3 + 3k, the second always divisible by 3."""
    return SolutionFamily(q=1, base=2, modulus=3, moduli={0: 1, -1: 1})


def scanned_residues(family, p):
    """Oracle: the per-shift scan over whole solution tuples."""
    return {k for k in range(p) if any(x % p == 0 for x in solution_tuple(family, k).values())}


def entrywise_residues(family, p):
    """Oracle: each progression xbar + step * k kills -xbar / step mod p,
    or every k when both xbar and step are 0 mod p."""
    killed = set()
    for _, xbar, step in family.progressions():
        if step % p:
            killed.add(-xbar * pow(step, -1, p) % p)
        elif xbar % p == 0:
            return set(range(p))
    return killed


class TestKilledResidues:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.scheme_id)
    def test_agrees_with_per_shift_scan(self, scheme):
        for q in range(1, 13):
            fam = solve_scheme(scheme, q)
            for p in sieve_primes(100):
                scanned = scanned_residues(fam, p)
                assert killed_residues(fam, p) == scanned, (q, p)
                assert check_admissibility(fam, p) == min(set(range(p)) - scanned, default=None)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.scheme_id)
    def test_agrees_with_each_progression_at_larger_q(self, scheme):
        # every prime up to 200 past the last checked one, at q where most
        # entries are constants mod each p dividing the modulus
        for q in (40, 150):
            fam = solve_scheme(scheme, q)
            last = full_admissibility(fam).checked[-1][0]
            for p in sieve_primes(last + 200):
                assert killed_residues(fam, p) == entrywise_residues(fam, p), (q, p)

    @pytest.mark.parametrize(
        "family",
        [
            degenerate_family,
            failing_family,
            twin_prime_family,
            even_coefficient_family,
            multiple_of_three_family,
        ],
    )
    def test_hand_built_families(self, family):
        fam = family()
        for p in sieve_primes(100):
            assert killed_residues(fam, p) == scanned_residues(fam, p), p

    def test_constant_zero_form_kills_every_shift(self):
        assert killed_residues(failing_family(), 2) == {0, 1}
        assert killed_residues(even_coefficient_family(), 2) == {0, 1}
        assert killed_residues(multiple_of_three_family(), 3) == {0, 1, 2}
        assert killed_residues(twin_prime_family(), 3) == {0, 2}


class TestAdmissibility:
    def test_example_q1(self):
        fam = solve_scheme(DEFAULT, 1)
        k5 = check_admissibility(fam, 5)
        assert k5 is not None and 0 <= k5 < 5
        k2 = check_admissibility(fam, 2)
        assert all(x % 2 != 0 for x in (1 + k2, 5 + 6 * k2, 11 + 12 * k2))

    def test_returned_shift_is_minimal(self):
        fam = solve_scheme(DEFAULT, 2)
        for p in (2, 3, 5, 7, 11):
            k = check_admissibility(fam, p)
            assert k is not None
            for j in range(k):
                tup = {s: (fam.base + fam.modulus * j - s) // a for s, a in fam.moduli.items()}
                assert any(x % p == 0 for x in tup.values())

    def test_degenerate_family(self):
        assert check_admissibility(degenerate_family(), 101) == 0

    def test_full_admissibility_default(self):
        for q in range(1, 9):
            report = full_admissibility(solve_scheme(DEFAULT, q))
            assert report.overall, q

    def test_checked_prime_set_q3(self):
        report = full_admissibility(solve_scheme(DEFAULT, 3))
        assert [p for p, _ in report.checked] == [2, 3, 5, 7]

    def test_failing_family_reports_prime(self):
        report = full_admissibility(failing_family())
        assert not report.overall
        assert report.failing_primes() == [2]

    def test_primes_of_a_large_coefficient_are_checked(self):
        # both primes of a_-1 lie past 1e5 and neither is <= 2q+1
        fam = solve_system({-1: 100003 * 100019, 0: 1, 1: 1})
        report = full_admissibility(fam)
        assert [p for p, _ in report.checked] == [2, 3, 100003, 100019]
        assert report.failing_primes() == [2, 3]  # verify D names the first
        for p, _ in report.checked:
            assert killed_residues(fam, p) == scanned_residues(fam, p), p

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.scheme_id)
    def test_checked_primes_are_small_or_divide_the_modulus(self, scheme):
        # the list verify D prints: p <= 2q+1 and the primes of the modulus,
        # each of which is at most prime_bound(q)
        for q in range(1, 61):
            fam = solve_scheme(scheme, q)
            bound = scheme.prime_bound(q)
            expected = set(sieve_primes(2 * q + 1))
            expected.update(p for p in sieve_primes(bound) if fam.modulus % p == 0)
            assert [p for p, _ in full_admissibility(fam).checked] == sorted(expected), q

    def test_no_prime_family_is_inadmissible(self):
        # the all-composite scheme forces x_0 even, so condition D fails at 2
        report = full_admissibility(solve_scheme(get_scheme("no_prime"), 2))
        assert not report.overall
        assert 2 in report.failing_primes()

    def test_report_serialization(self):
        report = full_admissibility(solve_scheme(DEFAULT, 1))
        d = report.to_json_dict()
        assert d["q"] == 1 and d["overall"] is True
        assert all(isinstance(row["p"], int) for row in d["checked"])
