
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorseq import (
    DefaultScheme,
    SchemeError,
    anchor_default,
    coefficient,
    coefficient_range,
    coefficient_table,
    get_scheme,
    np_exponent,
    sieve_primes,
)
from anchorseq.cli import EXIT_INTERNAL, main
from anchorseq.variants import SCHEMES

DEFAULT = get_scheme("default")
ALL_SCHEMES = [get_scheme(n) for n in ("default", "no_prime", "euler_prime")]

# Factored coefficients for |s| <= 12.  Two entries of the published table
# contradict the defining formulas and are corrected here:
#   s = -12: (5^2+1)/2 - 25 = -12, so the multiplicity of 5 is 2 (table prints 5^1)
#   s = -4:  -4 = 5 (mod 9) but -4 = 23 != 14 (mod 27), so 3^2 (table prints 3^3)
GOLDEN = {
    -12: ((5, 2),),
    -11: ((2, 1), (23, 1)),
    -10: ((3, 1), (7, 1)),
    -9: ((2, 2), (19, 1)),
    -8: ((17, 1),),
    -7: ((2, 1), (3, 1), (5, 1)),
    -6: ((13, 1),),
    -5: ((2, 4), (11, 1)),
    -4: ((3, 2),),
    -3: ((2, 1), (7, 1)),
    -2: ((5, 1),),
    -1: ((2, 2), (3, 1)),
    0: (),
    1: ((2, 1),),
    2: ((3, 1),),
    3: ((2, 3), (5, 1)),
    4: ((7, 1),),
    5: ((2, 1), (3, 2)),
    6: ((11, 1),),
    7: ((2, 2), (13, 1)),
    8: ((3, 1), (5, 1)),
    9: ((2, 1), (17, 1)),
    10: ((19, 1),),
    11: ((2, 5), (3, 1), (7, 1)),
    12: ((23, 1),),
}


def brute_np_exponent(scheme, p, s, n_max=40):
    """Oracle: scan every exponent level directly."""
    satisfied = [n for n in range(1, n_max) if (s - scheme.anchor(p, n)) % p**n == 0]
    return max(satisfied, default=0)


class TestAnchorDefault:
    def test_odd_prime(self):
        assert anchor_default(3, 1) == 2
        assert anchor_default(5, 2) == 13
        assert anchor_default(97, 1) == 49

    def test_two(self):
        assert anchor_default(2, 3) == 3
        assert [anchor_default(2, n) for n in range(1, 6)] == [1, -1, 3, -5, 11]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            anchor_default(3, 0)
        with pytest.raises(ValueError):
            anchor_default(9, 1)


class TestNpExponent:
    def test_examples(self):
        assert np_exponent(DEFAULT, 2, 3) == 3
        assert np_exponent(DEFAULT, 7, 0) == 0
        assert np_exponent(DEFAULT, 11, -5) == 1

    def test_matches_brute_scan(self):
        for scheme in ALL_SCHEMES:
            for p in (2, 3, 5, 7, 11):
                for s in range(-40, 41):
                    assert np_exponent(scheme, p, s) == brute_np_exponent(scheme, p, s)

    def test_nesting_initial_segment(self):
        for scheme in ALL_SCHEMES:
            for p in (2, 3, 5):
                for s in range(-30, 31):
                    n = np_exponent(scheme, p, s)
                    satisfied = [
                        m for m in range(1, n + 5) if (s - scheme.anchor(p, m)) % p**m == 0
                    ]
                    assert satisfied == list(range(1, n + 1))


class TestCoefficient:
    def test_examples(self):
        assert coefficient(DEFAULT, 3).value == 40
        assert coefficient(DEFAULT, 0).value == 1
        assert coefficient(DEFAULT, -9).value == 76
        assert str(coefficient(DEFAULT, -9)) == "2^2·19"

    def test_golden_table(self):
        for s, expected in GOLDEN.items():
            assert coefficient(DEFAULT, s).exponents == expected, f"s={s}"

    def test_table_matches_per_index(self):
        rows = coefficient_table(DEFAULT, -12, 12)
        assert [(s, f.exponents) for s, f in rows] == sorted(GOLDEN.items())

    def test_table_edges(self):
        assert [(s, f.value) for s, f in coefficient_table(DEFAULT, 0, 0)] == [(0, 1)]
        assert [(s, f.value) for s, f in coefficient_table(DEFAULT, 1, 2)] == [(1, 2), (2, 3)]

    def test_range_agrees_with_single(self):
        for scheme in ALL_SCHEMES:
            by_s = coefficient_range(scheme, -25, 25)
            for s in range(-25, 26):
                assert by_s[s] == coefficient(scheme, s), (scheme.scheme_id, s)

    def test_serialization(self):
        d = coefficient(DEFAULT, 11).to_json_dict(11)
        assert d == {"s": 11, "value": "672", "factors": [[2, 5], [3, 1], [7, 1]]}


@settings(max_examples=8, deadline=None)
@given(st.integers(-(10**5), 10**5))
def test_default_closed_form(lo):
    # a_s = 2^v_2(3s - 1) * |2s - 1|; x & -x is the 2-part of x != 0
    for s, f in coefficient_range(DEFAULT, lo, lo + 200).items():
        assert f.value == ((3 * s - 1) & -(3 * s - 1)) * abs(2 * s - 1), s


class TestDefaultSchemeProperties:
    def test_odd_prime_characterization(self):
        # p | a_s iff p | 2s - 1, for odd p
        for s in range(-300, 301):
            factors = {p for p, _ in coefficient(DEFAULT, s).exponents if p != 2}
            for p in sieve_primes(601)[1:]:
                assert (p in factors) == ((2 * s - 1) % p == 0), (s, p)

    def test_parity_characterization(self):
        for s in range(-300, 301):
            assert (coefficient(DEFAULT, s).value % 2 == 0) == (s % 2 != 0)

    def test_vanishing_tail(self):
        for s in range(-60, 61):
            for p in sieve_primes(200):
                if p > 2 * abs(s) + 1:
                    assert np_exponent(DEFAULT, p, s) == 0

    def test_trivial_coefficient_only_at_zero(self):
        by_s = coefficient_range(DEFAULT, -500, 500)
        assert [s for s, f in by_s.items() if f.value == 1] == [0]


class TestCoherence:
    def test_anchor_coherence_all_schemes(self):
        for scheme in ALL_SCHEMES:
            for p in sieve_primes(97):
                for n in range(2, 9):
                    for m in range(1, n):
                        diff = scheme.anchor(p, n) - scheme.anchor(p, m)
                        assert diff % p**m == 0, (scheme.scheme_id, p, m, n)


def test_anchors_converge_to_limit():
    # anchor(p, n) = u/w (mod p^n), the identity np_exponent relies on
    for scheme in ALL_SCHEMES:
        for p in sieve_primes(97):
            u, w = scheme.limit(p)
            for n in range(1, 9):
                assert (w * scheme.anchor(p, n) - u) % p**n == 0, (scheme.scheme_id, p, n)


def test_integer_limit_raises_scheme_error(monkeypatch, capsys):
    # the limit of s1 + 2 + 4 + ... is the integer s1 - 2 (here -1), whose
    # index would carry every power of 2
    class IntegerLimit(DefaultScheme):
        scheme_id = "integer_limit"

        def limit(self, p):
            return (-1, 1) if p == 2 else super().limit(p)

    with pytest.raises(SchemeError, match="p=2"):
        np_exponent(IntegerLimit(), 2, 5)
    with pytest.raises(SchemeError):
        coefficient_range(IntegerLimit(), -3, 3)
    monkeypatch.setitem(SCHEMES, "integer_limit", IntegerLimit())
    assert main(["table", "--scheme", "integer_limit", "--range", "-3..3"]) == EXIT_INTERNAL
    assert "internal consistency failure" in capsys.readouterr().err
