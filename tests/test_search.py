import json
from itertools import islice

import pytest

import anchorseq.search
from anchorseq import (
    InadmissibleFamily,
    SolutionFamily,
    TupleWitness,
    coefficient,
    galaxy_report,
    get_scheme,
    is_prime,
    search_tuples,
    sieve_primes,
    solution_tuple,
    solve_scheme,
    verify_witness,
    witness_from_json_dict,
)

DEFAULT = get_scheme("default")


def brute_witnesses(family, k_count, r_min=0):
    """Oracle: trial-division primality on every shift, no sieve."""
    out = []
    for k in range(k_count):
        tup = solution_tuple(family, k)
        if all(x > r_min and x > 1 and _trial_prime(x) for x in tup.values()):
            out.append(k)
    return out


def _trial_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestSearchTuples:
    def test_q1_first_witness(self):
        fam = solve_scheme(DEFAULT, 1)
        witnesses = search_tuples(fam, 0, 100, r_min=1)
        assert witnesses[0].k == 1
        assert witnesses[0].values == {-1: 2, 0: 23, 1: 11}

    def test_matches_brute_force_q1(self):
        fam = solve_scheme(DEFAULT, 1)
        expected = brute_witnesses(fam, 300)
        got = [w.k for w in search_tuples(fam, 0, 300)]
        assert got == expected

    def test_matches_brute_force_q2(self):
        fam = solve_scheme(DEFAULT, 2)
        expected = brute_witnesses(fam, 2000, r_min=10)
        got = [w.k for w in search_tuples(fam, 0, 2000, r_min=10)]
        assert got == expected

    def test_sieve_never_drops_a_witness(self):
        # from -10_000 some forms are negative and blocks are offset from k = 0
        for q, k_start in ((1, 0), (2, 0), (1, -10_000)):
            fam = solve_scheme(DEFAULT, q)
            on = search_tuples(fam, k_start, 20_000, use_sieve=True)
            off = search_tuples(fam, k_start, 20_000, use_sieve=False)
            assert [w.to_json_dict() for w in on] == [w.to_json_dict() for w in off]

    def test_r_min_is_strict(self):
        fam = solve_scheme(DEFAULT, 1)
        with_two = search_tuples(fam, 0, 10, r_min=1)
        assert with_two[0].min_entry == 2
        # the k = 1 witness has an entry equal to 2, so r_min = 2 must drop it
        assert all(w.k != 1 for w in search_tuples(fam, 0, 10, r_min=2))

    def test_k_start_offset(self):
        fam = solve_scheme(DEFAULT, 1)
        assert [w.k for w in search_tuples(fam, 4, 3)] == [4, 6]

    def test_max_witnesses(self):
        fam = solve_scheme(DEFAULT, 1)
        witnesses = search_tuples(fam, 0, 10_000, max_witnesses=3)
        assert len(witnesses) == 3

    def test_workers_deterministic(self, monkeypatch):
        # small blocks that reach their cap after 3,584 shifts on 4 workers,
        # so each window spans about 75 blocks there and 60 serially
        monkeypatch.setattr("anchorseq.search.MIN_BLOCK_SIZE", 1 << 6)
        monkeypatch.setattr("anchorseq.search.MAX_BLOCK_SIZE", 1 << 9)
        for q, k_start in ((2, 0), (1, 12_345)):
            fam = solve_scheme(DEFAULT, q)
            serial = search_tuples(fam, k_start, 30_000)
            parallel = search_tuples(fam, k_start, 30_000, workers=4)
            assert [w.to_json_dict() for w in serial] == [w.to_json_dict() for w in parallel]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unbounded_window_stops_early(self, workers):
        # blocks are generated lazily and the search stops at max_witnesses,
        # so a window of 1e30 shifts costs what its first witnesses cost
        fam = solve_scheme(DEFAULT, 1)
        first = search_tuples(fam, 0, 10**5)[:3]
        got = search_tuples(fam, 0, 10**30, max_witnesses=3, workers=workers)
        assert [w.to_json_dict() for w in got] == [w.to_json_dict() for w in first]

    def test_inadmissible_family_rejected(self):
        # the all-composite scheme keeps x_0 even, so the search is futile
        fam = solve_scheme(get_scheme("no_prime"), 2)
        with pytest.raises(InadmissibleFamily):
            search_tuples(fam, 0, 10)

    def test_empty_result_is_not_an_error(self):
        fam = solve_scheme(DEFAULT, 1)
        assert search_tuples(fam, 2, 1) == []  # k = 2 gives composite 35


class TestBlocks:
    MIN, MAX = anchorseq.search.MIN_BLOCK_SIZE, anchorseq.search.MAX_BLOCK_SIZE

    def check_schedule(self, blocks, k_start, depth):
        """Contiguous from k_start, sized min(MIN << (i // depth), MAX)
        except that the last may be cut short."""
        k = k_start
        for i, block in enumerate(blocks):
            assert block.start == k and block.step == 1 and len(block) >= 1
            size = min(self.MIN << (i // depth), self.MAX)
            assert len(block) == size or block is blocks[-1] and len(block) < size
            k = block.stop
        return k

    @pytest.mark.parametrize("depth", [1, 2, 4])
    @pytest.mark.parametrize(
        "k_start, k_count",
        [
            (0, 0),  # empty
            (7, 1),  # one shift
            (0, MIN + 5),  # ends early in the second block
            (3, 5 * MIN - 1),  # ends mid-block after the growth starts
            (-(10**6), 2 * 10**6 + 1),  # negative start, crosses the cap and k = 0
        ],
    )
    def test_tiles_the_window_exactly(self, k_start, k_count, depth):
        blocks = list(anchorseq.search._blocks(k_start, k_start + k_count, depth, lambda: True))
        assert self.check_schedule(blocks, k_start, depth) == k_start + k_count
        assert sum(map(len, blocks)) == k_count
        assert blocks or k_count == 0

    @pytest.mark.parametrize("depth", [1, 4])
    def test_huge_window_starts_small_and_stays_capped(self, depth):
        huge = anchorseq.search._blocks(10**19, 10**30, depth, lambda: True)
        blocks = list(islice(huge, 20 * depth))
        assert self.check_schedule(blocks, 10**19, depth) == blocks[-1].stop
        assert [len(b) for b in blocks[:depth]] == [self.MIN] * depth
        assert max(map(len, blocks)) == self.MAX == len(blocks[-1])

    def test_a_generation_grows_only_while_grow_holds(self):
        answers = iter([True, False, True])
        blocks = list(islice(anchorseq.search._blocks(0, 10**30, 2, lambda: next(answers)), 8))
        assert [len(b) // self.MIN for b in blocks] == [1, 1, 2, 2, 2, 2, 4, 4]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blocks_stop_growing_at_the_first_witness_of_an_early_stop(
        self, monkeypatch, workers
    ):
        # q = 1 has witnesses in its first block, so a search that stops at
        # max_witnesses keeps the smallest blocks, and one that does not grows
        sizes, blocks = [], anchorseq.search._blocks

        def spy(*args):
            for block in blocks(*args):
                sizes.append(len(block))
                yield block

        monkeypatch.setattr(anchorseq.search, "_blocks", spy)
        fam = solve_scheme(DEFAULT, 1)
        search_tuples(fam, 0, 10**6, max_witnesses=400, workers=workers)
        assert len(sizes) > 2 * workers + 1 and set(sizes) == {self.MIN}
        sizes.clear()
        search_tuples(fam, 0, 2 * 10**5, workers=workers)
        assert max(sizes) > self.MIN


class TestTwinPrimeDegeneration:
    def test_degenerate_family_finds_twin_primes(self):
        # forms x_0(k) = 3 + 2k and x_{-2}(k) = 5 + 2k: witnesses are
        # exactly the twin prime pairs (c, c + 2) with c odd
        fam = SolutionFamily(q=2, base=3, modulus=2, moduli={0: 1, -2: 1})
        found = {w.values[0] for w in search_tuples(fam, 0, (10_000 - 3) // 2)}
        primes = set(sieve_primes(10_010))
        expected = {c for c in primes if c + 2 in primes and 3 <= c < 10_000}
        assert found == expected


class TestWitnessVerification:
    def test_round_trip_and_verify(self):
        fam = solve_scheme(DEFAULT, 2)
        w = search_tuples(fam, 0, 1000, r_min=10)[0]
        again = witness_from_json_dict(json.loads(json.dumps(w.to_json_dict())))
        assert again == w
        assert verify_witness(fam, again)

    def test_tampered_witness_rejected(self):
        fam = solve_scheme(DEFAULT, 1)
        w = search_tuples(fam, 0, 10)[0]
        bad = TupleWitness(k=w.k, values={**w.values, 0: w.values[0] + 12}, r_min=w.r_min)
        assert not verify_witness(fam, bad)


class TestGalaxyReport:
    def test_q1_example(self):
        fam = solve_scheme(DEFAULT, 1)
        w = search_tuples(fam, 0, 10, r_min=1)[0]
        report = galaxy_report(DEFAULT, w)
        assert report.omega == 23
        rows = {r.s: (r.difference, r.a, r.pi, r.prime) for r in report.rows}
        assert rows == {
            -1: (24, 12, 2, False),
            0: (23, 1, 23, True),
            1: (22, 2, 11, False),
        }

    def test_unique_prime_row_for_default_scheme(self):
        fam = solve_scheme(DEFAULT, 3)
        for w in search_tuples(fam, 0, 200_000, r_min=100, max_witnesses=2):
            report = galaxy_report(DEFAULT, w)
            assert [r.s for r in report.prime_rows()] == [0]

    def test_no_prime_scheme_has_zero_prime_rows(self):
        # the no_prime system never yields all-prime tuples through the
        # search (omega stays even), so pick a shift where the cofactors
        # pi_s = (omega - s) / a_s are prime by hand and report on that
        scheme = get_scheme("no_prime")
        fam = solve_scheme(scheme, 2)
        coeffs = {s: coefficient(scheme, s).value for s in range(-2, 3)}
        assert all(a > 1 for a in coeffs.values())
        k = next(
            k
            for k in range(10_000)
            if all(
                is_prime((solution_tuple(fam, k)[0] - s) // coeffs[s]) for s in coeffs
            )
        )
        tup = solution_tuple(fam, k)
        report = galaxy_report(scheme, TupleWitness(k=k, values=tup, r_min=0))
        assert report.prime_rows() == []
        assert all(row.a > 1 and is_prime(row.pi) for row in report.rows)

    def test_mismatched_witness_rejected(self):
        w = TupleWitness(k=0, values={-1: 1, 0: 24, 1: 11}, r_min=0)
        with pytest.raises(ValueError):
            galaxy_report(DEFAULT, w)

    def test_sparse_indices_rejected_before_coefficients(self, monkeypatch):
        def no_coefficients(*args):
            raise AssertionError("coefficient_range called for a sparse witness")

        monkeypatch.setattr(anchorseq.search, "coefficient_range", no_coefficients)
        w = TupleWitness(k=0, values={0: 23, 2: 3}, r_min=0)
        with pytest.raises(ValueError):
            galaxy_report(DEFAULT, w)

    def test_render_text_contains_rows(self):
        fam = solve_scheme(DEFAULT, 1)
        w = search_tuples(fam, 0, 10, r_min=1)[0]
        text = galaxy_report(DEFAULT, w).render_text()
        assert "prime" in text and "23" in text
