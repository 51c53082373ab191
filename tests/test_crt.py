import json
import sys
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorseq import (
    Incompatible,
    SolutionFamily,
    build_system,
    family_from_json_dict,
    get_scheme,
    is_prime,
    merge_congruences,
    solution_tuple,
    solve_scheme,
    solve_system,
)
from anchorseq.crt import unlimited_int_digits

DEFAULT = get_scheme("default")


def brute_merge(m1, r1, m2, r2):
    """Oracle: scan one full lcm period."""
    m = lcm(m1, m2)
    hits = [x for x in range(m) if x % m1 == r1 and x % m2 == r2]
    return (m, hits[0]) if hits else None


class TestMerge:
    def test_examples(self):
        assert merge_congruences(12, 11, 2, 1) == (12, 11)
        assert merge_congruences(4, 1, 6, 3) == (12, 9)
        with pytest.raises(Incompatible):
            merge_congruences(4, 1, 6, 0)

    def test_against_brute_scan(self):
        for m1 in range(1, 13):
            for m2 in range(1, 13):
                for r1 in range(m1):
                    for r2 in range(m2):
                        expected = brute_merge(m1, r1, m2, r2)
                        if expected is None:
                            with pytest.raises(Incompatible):
                                merge_congruences(m1, r1, m2, r2)
                        else:
                            assert merge_congruences(m1, r1, m2, r2) == expected

    @given(
        st.integers(1, 10_000),
        st.integers(0, 10_000),
        st.integers(1, 10_000),
        st.integers(0, 10_000),
    )
    def test_commutative(self, m1, r1, m2, r2):
        r1, r2 = r1 % m1, r2 % m2
        try:
            left = merge_congruences(m1, r1, m2, r2)
        except Incompatible:
            with pytest.raises(Incompatible):
                merge_congruences(m2, r2, m1, r1)
            return
        assert merge_congruences(m2, r2, m1, r1) == left

    @settings(max_examples=200)
    @given(st.data())
    def test_associative_on_compatible_triples(self, data):
        base = data.draw(st.integers(0, 10_000))
        moduli = [data.draw(st.integers(1, 10_000)) for _ in range(3)]
        congs = [(m, base % m) for m in moduli]  # compatible by construction
        (ma, ra) = merge_congruences(*congs[0], *congs[1])
        (ma, ra) = merge_congruences(ma, ra, *congs[2])
        (mb, rb) = merge_congruences(*congs[1], *congs[2])
        (mb, rb) = merge_congruences(*congs[0], mb, rb)
        assert (ma, ra) == (mb, rb)

    @settings(max_examples=100)
    @given(
        st.integers(1, 2**4000),
        st.integers(1, 2**4000),
        st.integers(1, 2**64),
        st.integers(0, 2**4000),
    )
    def test_large_moduli(self, u, v, g, x):
        # fold-sized operands sharing a factor g; x solves both congruences
        m1, m2 = g * u, g * v
        m, r = merge_congruences(m1, x % m1, m2, x % m2)
        assert m == lcm(m1, m2)
        assert r % m1 == x % m1 and r % m2 == x % m2
        assert r == x % m


class TestBuildSystem:
    def test_q1(self):
        assert build_system(DEFAULT, 1) == {-1: 12, 0: 1, 1: 2}

    def test_q2_adds_entries(self):
        system = build_system(DEFAULT, 2)
        assert system[-2] == 5 and system[2] == 3

    def test_no_prime_moduli_all_nontrivial(self):
        system = build_system(get_scheme("no_prime"), 1)
        assert system[0] == 1  # pinned; the scheme's own a_0 is > 1
        assert all(a > 1 for s, a in system.items() if s != 0)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            solve_system({0: 1, 1: 2})  # missing s = -1
        with pytest.raises(ValueError):
            solve_system({0: 1})  # q = 0


def brute_solve(system):
    """Oracle: least nonnegative solution by scanning one full period."""
    period = lcm(*system.values())
    for x in range(period):
        if all((x - s) % a == 0 for s, a in system.items()):
            return x, period
    return None


class TestSolveSystem:
    def test_q1_family(self):
        fam = solve_scheme(DEFAULT, 1)
        assert (fam.base, fam.modulus) == (11, 12)
        assert fam.progressions() == [(-1, 1, 1), (0, 11, 12), (1, 5, 6)]

    def test_q2_brute_oracle(self):
        system = build_system(DEFAULT, 2)
        fam = solve_system(system)
        assert (fam.base, fam.modulus) == brute_solve(system)
        assert fam.modulus == 60

    def test_oracle_up_to_q4(self):
        for q in (1, 2, 3, 4):
            system = build_system(DEFAULT, q)
            fam = solve_system(system)
            assert (fam.base, fam.modulus) == brute_solve(system), q

    def test_single_entry_system(self):
        fam = solve_system({-1: 1, 0: 1, 1: 2})
        assert fam.base == 1 and fam.modulus == 2

    def test_solution_set_completeness(self):
        # x solves the system iff x = base (mod modulus), over a full period
        for q in (1, 2, 3):
            system = build_system(DEFAULT, q)
            fam = solve_system(system)
            for x in range(fam.modulus):
                solves = all((x - s) % a == 0 for s, a in system.items())
                assert solves == (x % fam.modulus == fam.base)

    def test_incompatible_named_pair(self):
        # s = -1 fixes x = 2 (mod 3), so s = 1 (x = 1 mod 3) fails
        with pytest.raises(Incompatible, match=r"\[s=1\]") as info:
            solve_system({-1: 3, 0: 1, 1: 3})
        assert info.value.pair == (3, 2, 3, 1)

    def test_incompatible_past_the_int_str_limit(self):
        # 258 distinct 64-bit primes fold to a class of ~5,000 digits, more
        # than Python 3.11+ converts to str; then s = -130 and 130 clash mod 3
        primes = (p for p in range(2**63 + 1, 2**64, 2) if is_prime(p))
        system = {s: next(primes) for t in range(1, 130) for s in (-t, t)}
        system.update({0: 1, -130: 3, 130: 3})
        with pytest.raises(Incompatible, match=r"\[s=130\]") as info:
            solve_system(system)
        assert info.value.pair[0].bit_length() > 16_000
        assert info.value.pair[2:] == (3, 1)

    def test_family_invariants(self):
        for q in (1, 2, 3, 5):
            fam = solve_scheme(DEFAULT, q)
            assert fam.modulus == lcm(*fam.moduli.values())
            assert [s for s, _, _ in fam.progressions()] == fam.indices()
            for s, xbar, step in fam.progressions():
                assert step * fam.moduli[s] == fam.modulus
                assert fam.moduli[s] * xbar - fam.base == -s


class TestSolutionTuple:
    def test_examples(self):
        fam = solve_scheme(DEFAULT, 1)
        assert solution_tuple(fam, 1) == {-1: 2, 0: 23, 1: 11}
        assert solution_tuple(fam, 2) == {-1: 3, 0: 35, 1: 17}
        assert solution_tuple(fam, 0) == {s: xbar for s, xbar, _ in fam.progressions()}

    def test_defining_equations_over_shifts(self):
        fam = solve_scheme(DEFAULT, 3)
        for k in range(-1000, 1001, 37):
            tup = solution_tuple(fam, k)
            for s, x in tup.items():
                assert fam.moduli[s] * x - tup[0] == -s


def test_family_json_round_trip():
    fam = solve_scheme(DEFAULT, 2)
    blob = json.dumps(fam.to_json_dict(), sort_keys=True)
    again = family_from_json_dict(json.loads(blob))
    assert again == fam
    assert json.dumps(again.to_json_dict(), sort_keys=True) == blob
    # an entry must be the progression its a >= 1 implies: a*xbar = base - s, a*step = modulus
    bump, negate = (lambda v: str(int(v) + 1)), (lambda v: str(-int(v)))
    everything = dict.fromkeys(("a", "xbar", "step"), negate)
    tampers = ({"xbar": bump}, {"step": bump}, {"a": bump}, everything)
    for index in (0, 2, -1):  # s = -2, 0 and 2
        for tamper in tampers:
            data = json.loads(blob)
            entry = data["entries"][index]
            entry.update({field: change(entry[field]) for field, change in tamper.items()})
            with pytest.raises(ValueError):
                family_from_json_dict(data)
    # the entries are exactly s = -q..q and the modulus is lcm(a_s), each
    # entry still matching base and modulus
    def dropped(data):
        del data["entries"][1]

    def beyond_q(data):
        s = data["q"] + 1
        xbar = str(int(data["base"]) - s)
        data["entries"].append({"s": s, "a": "1", "xbar": xbar, "step": data["modulus"]})

    def doubled(data):
        data["modulus"] = str(2 * int(data["modulus"]))
        for entry in data["entries"]:
            entry["step"] = str(2 * int(entry["step"]))

    for tamper in (dropped, beyond_q, doubled):
        data = json.loads(blob)
        tamper(data)
        with pytest.raises(ValueError, match="lcm"):
            family_from_json_dict(data)


def test_family_json_round_trip_past_the_int_str_limit():
    # 7,927 digits, as many as `solve --scheme no_prime --q 1000` writes:
    # more than Python 3.11+ converts from str by default
    modulus = 10**7926
    fam = SolutionFamily(q=1, base=1, modulus=modulus, moduli={-1: 1, 0: 1, 1: modulus})
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    with unlimited_int_digits():
        blob = json.dumps(fam.to_json_dict())
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    assert len(json.loads(blob)["modulus"]) == 7927
    assert family_from_json_dict(json.loads(blob)) == fam
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
