import pytest

from anchorseq import (
    NoChoiceInWindow,
    coefficient,
    euler_prime_anchor,
    get_scheme,
    legendre_symbol,
    no_prime_anchor,
    qnr_anchor,
    sieve_primes,
    verify_euler_galaxy,
    verify_no_prime_galaxy,
)


class TestLegendre:
    def test_examples(self):
        assert legendre_symbol(3, 7) == -1  # squares mod 7 are {1, 2, 4}
        assert legendre_symbol(0, 5) == 0
        assert legendre_symbol(1, 97) == 1

    def test_rejects_non_odd_primes(self):
        with pytest.raises(ValueError):
            legendre_symbol(3, 2)
        with pytest.raises(ValueError):
            legendre_symbol(3, 15)

    def test_against_square_enumeration(self):
        for p in sieve_primes(60)[1:]:
            squares = {x * x % p for x in range(1, p)}
            for a in range(p):
                expected = 0 if a == 0 else (1 if a in squares else -1)
                assert legendre_symbol(a, p) == expected


class TestQnrAnchor:
    def test_examples(self):
        assert qnr_anchor(7).s1 == 3
        assert qnr_anchor(5).s1 == 1
        choice = qnr_anchor(3)  # degenerate window, widened to [1, p-1]
        assert choice.s1 == 2 and choice.widened_window

    def test_certificate(self):
        for p in (5, 7, 11, 13, 97):
            choice = qnr_anchor(p)
            assert legendre_symbol(1 - 4 * choice.s1, p) == -1
            assert -(-(p - 1) // 4) <= choice.s1 <= (p - 1) // 2
            assert not choice.widened_window

    def test_window_never_empty_up_to_1000(self):
        for p in sieve_primes(1000)[1:]:
            if p >= 5:
                assert not qnr_anchor(p).widened_window

    def test_serialization(self):
        d = qnr_anchor(7).to_json_dict()
        assert d["p"] == 7 and d["s1"] == "3"
        assert int(d["nonresidue"]) == (1 - 12) % 7


class TestNoPrimeAnchors:
    def test_base_values(self):
        assert no_prime_anchor(2, 1) == 0
        assert no_prime_anchor(2, 2) == 2
        assert no_prime_anchor(3, 1) == 1

    def test_index_parity_assignment(self):
        # odd primes 3, 5, 7, 11, 13, 17, 19 get 1, 1, -1, 2, -2, 3, -3
        got = [no_prime_anchor(p, 1) for p in (3, 5, 7, 11, 13, 17, 19)]
        assert got == [1, 1, -1, 2, -2, 3, -3]

    def test_every_index_is_anchored(self):
        # each s has some prime with s = anchor(p, 1) (mod p)
        scheme = get_scheme("no_prime")
        primes = sieve_primes(scheme.prime_bound(40))
        for s in range(-40, 41):
            assert any((s - scheme.anchor(p, 1)) % p == 0 for p in primes), s

    def test_two_adic_anchors_never_trap_an_integer(self):
        # the alternating completion keeps every multiplicity finite; a
        # plain +2^(n-1) step would pin s = -2 at every level
        import anchorseq

        for s in range(-20, 21):
            assert anchorseq.np_exponent(get_scheme("no_prime"), 2, s) < 12


class TestEulerAnchors:
    def test_examples(self):
        assert euler_prime_anchor(2, 1) == 1
        assert euler_prime_anchor(7, 1) == 3
        assert euler_prime_anchor(7, 2) == 10

    def test_p2_matches_default(self):
        from anchorseq import anchor_default

        for n in range(1, 8):
            assert euler_prime_anchor(2, n) == anchor_default(2, n)


class TestGalaxyVerifiers:
    def test_no_prime_galaxy(self):
        assert verify_no_prime_galaxy(100)
        assert verify_no_prime_galaxy(0)  # a_0 = 2 via the even anchor
        assert coefficient(get_scheme("no_prime"), 0).value == 2

    def test_euler_galaxy(self):
        assert verify_euler_galaxy(10)
        assert verify_euler_galaxy(0)

    def test_euler_indices_have_unit_coefficient(self):
        scheme = get_scheme("euler_prime")
        for i in range(8):
            assert coefficient(scheme, -i * (i + 1)).value == 1
        # a generic even index nearby does pick up factors
        assert coefficient(scheme, -4).value > 1


class TestSchemeRegistry:
    def test_get_scheme(self):
        assert get_scheme("default").scheme_id == "default"
        with pytest.raises(ValueError, match="unknown scheme"):
            get_scheme("bogus")

    def test_prime_bound_complete(self):
        # brute oracle: every prime below a generous bound whose level-1
        # class contains s must lie within the bound and divide a_s
        for name in ("default", "no_prime", "euler_prime"):
            scheme = get_scheme(name)
            for s in range(-50, 51):
                factors = {p for p, _ in coefficient(scheme, s).exponents}
                for p in sieve_primes(500):
                    if (s - scheme.anchor(p, 1)) % p == 0:
                        assert p <= scheme.prime_bound(abs(s)), (name, s, p)
                        assert p in factors, (name, s, p)
