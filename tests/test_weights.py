"""Tests for weight tuples: well-formedness, normalization, singular strata."""

import random
import time
from itertools import combinations, product
from math import gcd

import pytest

from wcikit import (
    NormalizationStep,
    Stratum,
    Weights,
    is_well_formed_space,
    singular_strata,
    well_form,
)
from wcikit.weights import EXCLUDED_INDEX, MAX_ENTRY, OVERALL_GCD, _excluded_gcds, as_weights


def reference_well_form(entries):
    """``well_form``'s former loop, kept as the reference: each round
    retries the overall gcd, then takes the first index of
    ``_excluded_gcds`` above 1."""
    entries = list(entries)
    steps = []
    while True:
        g = gcd(*entries)
        if g > 1:
            entries = [a // g for a in entries]
            steps.append(NormalizationStep(OVERALL_GCD, g))
        for i, gi in enumerate(_excluded_gcds(entries)):
            if gi > 1:
                entries = [a if j == i else a // gi for j, a in enumerate(entries)]
                steps.append(NormalizationStep(EXCLUDED_INDEX, gi, i))
                break
        else:
            return tuple(entries), tuple(steps)


def seeded_weight_tuples(seed, count):
    """Tuples of 2 to 12 entries that share divisors in many patterns: small
    composites, entries near 2^63 - 1, and products of both."""
    rng = random.Random(seed)
    small = (1, 1, 2, 3, 4, 5, 6, 10, 12, 15, 30, 42)
    near_max = (MAX_ENTRY, MAX_ENTRY - 1, MAX_ENTRY // 2, 2**62, 3 * 2**61, (2**61 - 1) * 3, 2**61 - 1)
    out = [(6, 10, 15), (30, 6, 10, 15), (6, 10, 15, 2**62), (MAX_ENTRY, MAX_ENTRY)]
    while len(out) < count:
        n = rng.randrange(2, 13)
        entries = []
        for _ in range(n):
            r = rng.random()
            if r < 0.5:
                a = rng.choice(small)
            elif r < 0.75:
                a = rng.choice(near_max)
            elif r < 0.9:
                a = rng.choice(small) * rng.choice(near_max) // rng.choice((1, 2, 3, 6))
            else:
                a = rng.randrange(1, MAX_ENTRY + 1)
            entries.append(min(max(a, 1), MAX_ENTRY))
        out.append(tuple(entries))
    return out


def brute_force_singular_subsets(entries):
    """Independent oracle: all nonempty index subsets whose weights share a divisor."""
    out = set()
    for size in range(1, len(entries) + 1):
        for idx in combinations(range(len(entries)), size):
            if gcd(*(entries[i] for i in idx)) > 1:
                out.add(idx)
    return out


def brute_force_orbit_types(entries):
    """Independent oracle for the all-subsets mode: for each value set, the
    union of the singular index subsets with those values, and its gcd, in
    report order.  Walks the index subsets in index order and extends only
    those whose gcd exceeds 1, since no superset of a coprime subset is
    singular."""
    unions = {}
    stack = [((), 0)]
    while stack:
        idx, g = stack.pop()
        for i in range(idx[-1] + 1 if idx else 0, len(entries)):
            d = gcd(g, entries[i])
            if d > 1:
                sub = idx + (i,)
                unions.setdefault(frozenset(entries[j] for j in sub), set()).update(sub)
                stack.append((sub, d))
    strata = [(tuple(sorted(union)), gcd(*values)) for values, union in unions.items()]
    return sorted(strata, key=lambda st: (-len(st[0]), st[0]))


def brute_force_maximal_family(entries):
    """Independent oracle for the covering family: trial-division primes."""
    family = {}
    for a in entries:
        n, p = a, 2
        while p * p <= n:
            if n % p == 0:
                idx = tuple(i for i, b in enumerate(entries) if b % p == 0)
                family[idx] = gcd(*(entries[i] for i in idx))
                while n % p == 0:
                    n //= p
            p += 1
        if n > 1:
            idx = tuple(i for i, b in enumerate(entries) if b % n == 0)
            family[idx] = gcd(*(entries[i] for i in idx))
    return family


def union_cases():
    """Seeded random tuples plus every 4-tuple with entries up to 12."""
    rng = random.Random(7)
    cases = [tuple(rng.randrange(1, 31) for _ in range(rng.randrange(2, 7))) for _ in range(200)]
    return cases + list(product(range(1, 13), repeat=4))


class TestWeightsType:
    def test_parse_print_roundtrip(self):
        w = Weights.parse("1,1,2,2,2")
        assert w.entries == (1, 1, 2, 2, 2)
        assert str(w) == "1,1,2,2,2"
        assert Weights.parse(str(w)) == w

    def test_parse_with_spaces(self):
        assert Weights.parse(" 2, 3 ,5 ").entries == (2, 3, 5)

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            Weights.parse("1,x,3")
        with pytest.raises(ValueError):
            Weights.parse("")

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Weights((1, 0, 2))
        with pytest.raises(ValueError):
            Weights((1, -3))

    def test_rejects_over_cap(self):
        Weights((1, 2**63 - 1))  # at the cap is fine
        with pytest.raises(ValueError):
            Weights((1, 2**63))

    def test_dim(self):
        assert Weights((1, 1, 2)).dim == 2

    @pytest.mark.parametrize("entries, message", [
        ((), "need at least one weight"),
        ((1, 1.5), "weight 1.5 is not an integer"),
        ((1, True), "weight True is not an integer"),
    ])
    def test_refusal_messages(self, entries, message):
        with pytest.raises(ValueError) as err:
            Weights(entries)
        assert str(err.value) == message


class TestWellFormedSpace:
    def test_examples(self):
        assert is_well_formed_space((1, 1, 2, 2, 2)) is True
        assert is_well_formed_space((1, 2, 2)) is False
        assert is_well_formed_space((2, 3, 5)) is True

    def test_straight_projective_space(self):
        assert is_well_formed_space((1, 1, 1, 1))

    def test_every_index_checked(self):
        # The offending complement moves through every position, including 0.
        assert not is_well_formed_space((3, 2, 2))
        assert not is_well_formed_space((2, 3, 2))
        assert not is_well_formed_space((2, 2, 3))
        assert is_well_formed_space((1, 6, 10, 15))

    def test_needs_two_coordinates(self):
        with pytest.raises(ValueError):
            is_well_formed_space((5,))

    def test_excluded_gcds_match_definition(self):
        # The early exits (prefix and suffix gcd at 1, two entries equal to 1)
        # leave every complementary gcd as the direct definition gives it.
        rng = random.Random(11)
        big = (1, 2, 3, 6, 10, 15, 30, 2**61 - 1, 6 * (2**59))
        cases = [t for k in range(2, 6) for t in product(range(1, 9), repeat=k)]
        cases += [tuple(rng.choice(big) for _ in range(rng.randrange(2, 9))) for _ in range(2000)]
        for t in cases:
            want = [gcd(*(t[:i] + t[i + 1:])) for i in range(len(t))]
            assert _excluded_gcds(t) == want, t
            assert is_well_formed_space(t) == (max(want) == 1), t


class TestWellForm:
    def test_identity_case(self):
        result, trace = well_form((1, 1, 1))
        assert result.entries == (1, 1, 1)
        assert trace.steps == ()

    def test_scaling_isomorphism_example(self):
        result, trace = well_form((1, 2, 2))
        assert result.entries == (1, 1, 1)
        assert [s.kind for s in trace.steps] == ["excluded-index"]
        assert trace.steps[0].index == 0 and trace.steps[0].divisor == 2

    def test_overall_gcd_example(self):
        result, trace = well_form((4, 6, 10))
        assert result.entries == (2, 3, 5)
        assert [s.kind for s in trace.steps] == ["overall-gcd"]

    def test_hand_derived_example(self):
        # One excluded-index step at index 1 with divisor 2.
        result, trace = well_form((2, 3, 4))
        assert result.entries == (1, 3, 2)
        assert is_well_formed_space(result)

    def test_order_preserved_not_sorted(self):
        # (2,3,4) normalizes to (1,3,2): positions stay put, no sorting.
        assert well_form((2, 3, 4))[0].entries == (1, 3, 2)
        assert well_form((10, 6, 4))[0].entries == (5, 3, 2)

    def test_trace_replays(self):
        for w in [(1, 2, 2), (4, 6, 10), (2, 3, 4), (12, 18, 10), (8, 12, 20, 6)]:
            result, trace = well_form(w)
            assert trace.replay(w) == result
            assert trace.result == result
            assert all(s.divisor > 1 for s in trace.steps)

    def test_idempotent_small_exhaustive(self):
        for length in range(2, 5):
            for w in product(range(1, 9), repeat=length):
                result, _ = well_form(w)
                assert is_well_formed_space(result)
                again, trace = well_form(result)
                assert again == result
                assert trace.steps == ()

    def test_against_the_former_loop(self):
        # The coprime-pair search and the single overall-gcd move give the
        # entries and the full trace of the former loop; the result is the
        # input itself when no step applies, and otherwise passes the
        # validator it was built past.
        unchanged = changed = 0
        for t in seeded_weight_tuples(29, 6000) + list(product(range(1, 7), repeat=4)):
            entries, steps = reference_well_form(t)
            w = Weights(t)
            result, trace = well_form(w)
            assert (result.entries, trace.steps) == (entries, steps), t
            assert well_form(t) == (result, trace), t
            assert trace.result is result
            if steps:
                assert Weights(result.entries) == result
                changed += 1
            else:
                assert result is w and well_form(w)[0] is as_weights(w)
                unchanged += 1
        assert unchanged > 500 and changed > 500

    def test_step_validation(self):
        with pytest.raises(ValueError):
            NormalizationStep("overall-gcd", 1)
        with pytest.raises(ValueError):
            NormalizationStep("excluded-index", 2)  # missing index
        with pytest.raises(ValueError):
            NormalizationStep("bogus", 2)


class TestStratum:
    def test_of_computes_delta(self):
        s = Stratum.of((1, 1, 2, 2, 2), (2, 3, 4))
        assert s.delta == 2 and s.dim == 2 and s.is_singular

    def test_sorted_and_distinct(self):
        s = Stratum.of((1, 2, 3), (2, 1))
        assert s.indices == (1, 2) and s.delta == 1 and not s.is_singular

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Stratum.of((1, 2, 3), (5,))

    def test_normalizes_indices_to_an_ascending_tuple(self):
        ascending = (0, 2, 5)
        assert Stratum(ascending, 1).indices is ascending
        assert Stratum([2, 0], 1).indices == (0, 2)
        assert Stratum((5, 0, 2), 1).indices == ascending
        assert Stratum([2, 0], 1) == Stratum((0, 2), 1)
        assert type(Stratum([2, 0], 1).indices) is tuple

    @pytest.mark.parametrize("indices, delta, message", [
        ((), 2, "a stratum needs at least one coordinate index"),
        ([], 2, "a stratum needs at least one coordinate index"),
        ((1, 1, 2), 2, "stratum indices must be distinct"),
        ((2, 1, 2), 2, "stratum indices must be distinct"),
        ((-1, 2), 2, "stratum indices must be non-negative"),
        ((2, -1), 2, "stratum indices must be non-negative"),
        # Checked in this order: duplicates before a negative index, indices before delta.
        ((-1, -1), 0, "stratum indices must be distinct"),
        ((-1,), 0, "stratum indices must be non-negative"),
        ((0, 1), 0, "delta must be a positive integer, got 0"),
        ((0, 1), -2, "delta must be a positive integer, got -2"),
        ((0, 1), 2.0, "delta must be a positive integer, got 2.0"),
        ((0, 1), "2", "delta must be a positive integer, got '2'"),
    ])
    def test_refusal_messages(self, indices, delta, message):
        with pytest.raises(ValueError) as err:
            Stratum(indices, delta)
        assert str(err.value) == message

    def test_json(self):
        assert Stratum.of((1, 1, 2), (2,)).to_json() == {"indices": [2], "delta": 2, "dim": 0}


class TestSingularStrata:
    def test_example_surface(self):
        strata = singular_strata((1, 1, 2, 2, 2))
        assert [s.to_json() for s in strata] == [{"indices": [2, 3, 4], "delta": 2, "dim": 2}]

    def test_smooth_space(self):
        assert singular_strata((1, 1, 1, 1)) == []

    def test_point_strata(self):
        strata = singular_strata((1, 2, 3))
        assert [(s.indices, s.delta, s.dim) for s in strata] == [((1,), 2, 0), ((2,), 3, 0)]

    def test_merged_composite_delta(self):
        # Primes 2 and 3 share the divisibility pattern, so one stratum with delta 6.
        strata = singular_strata((1, 1, 6, 6))
        assert [(s.indices, s.delta) for s in strata] == [((2, 3), 6)]

    def test_three_pairwise_patterns(self):
        strata = singular_strata((1, 6, 10, 15))
        assert [(s.indices, s.delta) for s in strata] == [
            ((1, 2), 2),
            ((1, 3), 3),
            ((2, 3), 5),
        ]

    def test_rejects_non_well_formed(self):
        with pytest.raises(ValueError):
            singular_strata((1, 2, 2))

    def test_all_subsets_mode_matches_brute_force(self):
        # One stratum per value set V with gcd(V) > 1: the union of the
        # singular index subsets with the values V, which is every index
        # whose weight is in V.
        cases = [(1, 2, 3), (1, 1, 2, 2, 2), (1, 6, 10, 15), (2, 3, 5), (1, 1, 4, 6)] + union_cases()
        for w in cases:
            if not is_well_formed_space(w):
                continue
            strata = singular_strata(w, maximal_only=False)
            assert [(s.indices, s.delta) for s in strata] == brute_force_orbit_types(w), w

    def test_all_subsets_mode_on_the_whole_box(self):
        # Every well-formed tuple of 2 to 6 entries up to 8, in report order.
        checked = 0
        for n in range(2, 7):
            for w in product(range(1, 9), repeat=n):
                if not is_well_formed_space(w):
                    continue
                strata = singular_strata(w, maximal_only=False)
                assert [(s.indices, s.delta) for s in strata] == brute_force_orbit_types(w), w
                checked += 1
        assert checked == 261_227

    def test_all_subsets_mode_lists_every_singular_subset_where_no_value_repeats(self):
        # With each weight above 1 on one index, a value set is an index
        # subset, so the list is every singular index subset.
        cases = [(1, 6, 10, 15), (1, 1, 2, 4, 6, 8, 9, 12)] + union_cases()
        seen = 0
        for w in cases:
            if not is_well_formed_space(w) or len({a for a in w if a > 1}) < sum(a > 1 for a in w):
                continue
            strata = singular_strata(w, maximal_only=False)
            expected = sorted(brute_force_singular_subsets(w), key=lambda idx: (-len(idx), idx))
            assert [s.indices for s in strata] == expected, w
            assert all(s.delta == gcd(*(w[i] for i in s.indices)) for s in strata), w
            seen += bool(strata)
        assert seen > 1000

    def test_sweep_bound(self, monkeypatch):
        # The 39 twos at N = 40 are one orbit type: one stratum, at once.
        w40 = (1, 1) + (2,) * 39
        start = time.process_time()
        strata = singular_strata(w40, maximal_only=False)
        assert time.process_time() - start < 1
        assert [(s.indices, s.delta, s.dim) for s in strata] == [(tuple(range(2, 41)), 2, 38)]
        # Twenty-one distinct even values give 2^21 - 1 value sets of the
        # prime 2 alone: refused before any is enumerated.
        start = time.process_time()
        with pytest.raises(ValueError, match="2097304 weight-value sets, more than 1048576"):
            singular_strata((1, 1) + tuple(range(2, 43, 2)), maximal_only=False)
        assert time.process_time() - start < 1
        # The five values of (1,1,2,4,8,16,32) give 2^5 - 1 value sets:
        # allowed at 31, refused at 30.
        w = (1, 1, 2, 4, 8, 16, 32)
        monkeypatch.setattr("wcikit.weights.MAX_SWEEP_SUBSETS", 31)
        assert len(singular_strata(w, maximal_only=False)) == 31
        monkeypatch.setattr("wcikit.weights.MAX_SWEEP_SUBSETS", 30)
        with pytest.raises(ValueError, match="31 weight-value sets"):
            singular_strata(w, maximal_only=False)

    def test_trusted_strata_equal_validated_ones(self):
        # singular_strata builds its strata from index sets that are already
        # ascending tuples; each must equal, and hash like, the stratum built
        # from the same fields and the one Stratum.of computes.
        for w in union_cases()[:400]:
            if not is_well_formed_space(w):
                continue
            for maximal_only in (True, False):
                for st in singular_strata(w, maximal_only=maximal_only):
                    public = Stratum(st.indices, st.delta)
                    assert st == public and hash(st) == hash(public), (w, st)
                    assert st == Stratum.of(w, st.indices)

    def test_maximal_family_matches_prime_oracle(self):
        rng = random.Random(20240811)
        cases = [tuple(rng.randrange(1, 31) for _ in range(rng.randrange(2, 7))) for _ in range(400)]
        cases += [w for w in product(range(1, 9), repeat=3)]
        for w in cases:
            if not is_well_formed_space(w):
                continue
            got = {s.indices: s.delta for s in singular_strata(w)}
            assert got == brute_force_maximal_family(w), w

    def test_union_property(self):
        # Every singular subset is contained in some covering-family stratum.
        for w in union_cases():
            if not is_well_formed_space(w):
                continue
            maximal = [set(s.indices) for s in singular_strata(w)]
            for idx in brute_force_singular_subsets(w):
                assert any(set(idx) <= big for big in maximal), (w, idx)

    def test_no_stratum_omits_single_coordinate(self):
        # Well-formedness forbids a singular subset of all-but-one coordinates.
        for w in product(range(1, 13), repeat=4):
            if not is_well_formed_space(w):
                continue
            for s in singular_strata(w, maximal_only=False):
                assert len(s.indices) <= len(w) - 2, (w, s.indices)

    def test_sort_order(self):
        strata = singular_strata((1, 6, 10, 15), maximal_only=False)
        keys = [(-s.dim, s.indices) for s in strata]
        assert keys == sorted(keys)
