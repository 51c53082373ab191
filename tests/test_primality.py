import pytest
from hypothesis import given
from hypothesis import strategies as st

from anchorseq import euler_sequence_check, is_prime, jacobi_symbol, sieve_primes


def trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestIsPrime:
    def test_small_values(self):
        assert is_prime(23)
        assert not is_prime(1)
        assert not is_prime(0)
        assert not is_prime(-7)
        assert is_prime(2) and is_prime(3)

    def test_euler_polynomial_value(self):
        assert is_prime(41 + 39 * 40)  # 1601

    def test_agrees_with_sieve_below_100k(self):
        primes = set(sieve_primes(100_000))
        for n in range(100_000):
            assert is_prime(n) == (n in primes)

    def test_strong_pseudoprimes_rejected(self):
        assert not is_prime(3215031751)  # spsp to bases 2,3,5,7
        assert not is_prime(561)  # Carmichael
        assert not is_prime(25326001)

    def test_large_known_primes(self):
        assert is_prime(2**127 - 1)
        assert is_prime(2**521 - 1)
        assert is_prime(10**100 + 267)

    def test_large_known_composites(self):
        assert not is_prime((2**89 - 1) * (2**107 - 1))
        assert not is_prime(2**127 + 1)
        assert not is_prime((10**50 + 151) ** 2)  # perfect square above 2^64

    def test_psi_12_and_psi_13_rejected(self):
        # the least composites that pass the strong test to every prime base
        # up to 37 and up to 41 (Sorenson & Webster 2015)
        psi_12 = 399_165_290_221 * 798_330_580_441
        psi_13 = 1_287_836_182_261 * 2_575_672_364_521
        assert (psi_12, psi_13) == (318665857834031151167461, 3317044064679887385961981)
        assert not is_prime(psi_12)
        assert not is_prime(psi_13)

    def test_extra_rounds_deterministic(self):
        n = 2**521 - 1
        assert is_prime(n, extra_rounds=4) == is_prime(n, extra_rounds=4)
        assert is_prime(n, extra_rounds=4, seed=7)


class TestSievePrimes:
    def test_known_prefix(self):
        assert sieve_primes(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert sieve_primes(1) == []
        assert sieve_primes(2) == [2]

    def test_count_below_million(self):
        assert len(sieve_primes(1_000_000)) == 78_498


class TestJacobi:
    def test_small_values(self):
        assert jacobi_symbol(2, 15) == 1
        assert jacobi_symbol(0, 9) == 0
        with pytest.raises(ValueError):
            jacobi_symbol(3, 8)

    @given(st.integers(0, 5000), st.integers(0, 5000))
    def test_multiplicative_in_numerator(self, a, b):
        n = 2021  # odd
        assert jacobi_symbol(a * b, n) == jacobi_symbol(a, n) * jacobi_symbol(b, n)

    def test_matches_euler_criterion_for_primes(self):
        for p in sieve_primes(200)[1:]:
            squares = {x * x % p for x in range(1, p)}
            for a in range(1, p):
                expected = 1 if a in squares else -1
                assert jacobi_symbol(a, p) == expected


class TestEulerSequence:
    def test_forty_primes(self):
        assert euler_sequence_check(41, 40)
        assert not euler_sequence_check(41, 41)  # 41 + 40*41 = 41^2

    def test_single(self):
        assert euler_sequence_check(23, 1)
        assert not euler_sequence_check(24, 1)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            euler_sequence_check(41, 0)

    def test_twin_prime_case(self):
        # length 2 is exactly the twin pattern (c, c + 2)
        assert euler_sequence_check(5, 2)
        assert not euler_sequence_check(7, 2)
