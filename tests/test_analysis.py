"""Tests for the classification of weighted complete intersection families."""

import random
import time
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest

from wcikit import (
    FLAG_DEGENERATE_CONTAINMENT,
    FLAG_DIMCA_MISMATCH,
    FLAG_NONINTEGRAL_SURFACE,
    THEOREM_CONSISTENT,
    THEOREM_IMPLIES_NOT_QUASISMOOTH,
    THEOREM_NOT_APPLICABLE_DIM,
    THEOREM_NOT_APPLICABLE_LINEAR_CONE,
    Stratum,
    WCISpec,
    Weights,
    adjunction_data,
    classify,
    dimca_codim,
    is_linear_cone,
    is_representable,
    is_weakly_well_formed,
    is_well_formed,
    is_well_formed_space,
    singular_strata,
    stratum_intersection,
)
from wcikit.analysis import (
    MAX_RESIDUE_WORK,
    REPRESENTABLE_CACHE_SIZE,
    _ambient,
    _degree_records,
    _representable,
)
from wcikit.cli import main

S5 = WCISpec((1, 1, 2, 2, 2), (3, 4))  # surface fixture
S3 = WCISpec((1, 1, 2), (1,))  # line on the quadric cone


def brute_force_representable(d, weights):
    """Independent oracle: exhaustive exponent-vector enumeration."""
    weights = list(weights)

    def rec(i, remaining):
        if remaining == 0:
            return True
        if i == len(weights):
            return False
        step = weights[i]
        return any(rec(i + 1, remaining - c * step) for c in range(remaining // step + 1))

    return rec(0, d)


def dp_reach(limit, weights):
    """The dynamic program is_representable used before its residue table:
    reach[t] == 1 iff t in 0..limit is a combination of the weights."""
    reach = bytearray(limit + 1)
    reach[0] = 1
    for w in sorted(set(weights)):
        for t in range(w, limit + 1):
            if not reach[t] and reach[t - w]:
                reach[t] = 1
    return reach


def ascending_tuples(length, lo, hi, budget):
    if length == 0:
        yield ()
        return
    for v in range(lo, min(hi, budget // length) + 1):
        for rest in ascending_tuples(length - 1, v, hi, budget - v):
            yield (v,) + rest


class TestSpecType:
    def test_validation(self):
        with pytest.raises(ValueError):
            WCISpec((1, 1), (3, 4, 5))  # codimension beyond ambient dimension
        with pytest.raises(ValueError):
            WCISpec((1, 1, 2), ())
        with pytest.raises(ValueError):
            WCISpec((1, 1, 2), (0,))

    def test_degree_past_the_entry_limit_refused(self):
        assert WCISpec((1, 1), (2**63 - 1,)).degrees == (2**63 - 1,)
        with pytest.raises(ValueError) as err:
            WCISpec((1, 1), (2**63,))
        assert str(err.value) == "degree 9223372036854775808 exceeds the 2^63-1 limit"

    def test_dimension_examples(self):
        assert S5.dimension == 2
        assert S3.dimension == 1
        assert WCISpec((1, 1, 1, 1), (2, 3)).dimension == 1

    def test_key(self):
        assert S5.key() == "1,1,2,2,2/3,4"


class TestLinearCone:
    def test_examples(self):
        assert is_linear_cone(S3) is True
        assert is_linear_cone(S5) is False
        assert is_linear_cone(WCISpec((1, 2, 3, 4), (4, 6))) is True


class TestRepresentable:
    def test_examples(self):
        assert is_representable(4, (2, 2, 2)) is True
        assert is_representable(3, (2, 2, 2)) is False
        assert is_representable(1, (2,)) is False

    def test_validation(self):
        with pytest.raises(ValueError):
            is_representable(4, ())
        with pytest.raises(ValueError):
            is_representable(-1, (2,))
        with pytest.raises(ValueError):
            is_representable(4, (0, 2))
        with pytest.raises(ValueError, match=r"weights must be positive integers: \[True, 2\]"):
            is_representable(4, (True, 2))
        with pytest.raises(ValueError, match="weights must be positive integers"):
            is_representable(4, (2.0, 3))
        with pytest.raises(ValueError, match="degree True must be a non-negative integer"):
            is_representable(True, (1, 2))

        class Int(int):
            pass

        assert is_representable(Int(5), (Int(2), 3)) is True
        assert is_representable(Int(1), (Int(2), 3)) is False

    def test_against_brute_force(self):
        for size in range(1, 5):
            for ws in ascending_tuples(size, 1, 6, 6 * size):
                for d in range(0, 15):
                    assert is_representable(d, ws) == brute_force_representable(d, ws), (d, ws)

    def test_against_old_dynamic_program(self):
        # Every weight set in {1..15} of size <= 4, gcd > 1 included: the gcd
        # division, the closed form for two weights, Schur's bound and the
        # residue table all agree with the dynamic program.
        for size in range(1, 5):
            for ws in combinations(range(1, 16), size):
                reach = dp_reach(119, ws)
                for d in range(120):
                    assert is_representable(d, ws) == bool(reach[d]), (d, ws)

    def test_cost_independent_of_degree(self):
        start = time.process_time()
        assert is_representable(2**63 - 1, (7, 11, 13)) is True
        assert is_representable(2**63 - 2, (2**62, 2**62 + 1)) is False
        report = classify(WCISpec((1, 6, 10, 15), (2**63 - 1,)))
        assert time.process_time() - start < 1.0
        assert report.space_well_formed and report.dim_X == 2

    def test_residue_table_budget_refused(self, capsys):
        # Three weights from 10^6 need a table of 3 * 10^6 steps, above the budget.
        ws = (10**6, 10**6 + 1, 10**6 + 3)
        assert 3 * ws[0] > MAX_RESIDUE_WORK
        with pytest.raises(ValueError, match="residue table"):
            is_representable(3 * 10**6 + 1, ws)
        # Decided without a table: below the least weight, above Schur's bound.
        assert is_representable(10**6 - 1, ws) is False
        assert is_representable(10**13, ws) is True
        start = time.process_time()
        code = main(["analyze", "1,1,2000000,2000002,2000006", "--degrees", "6000002"])
        assert code == 2 and "residue table" in capsys.readouterr().err
        assert time.process_time() - start < 1.0

    def test_monotone_under_superset(self):
        for ws in ascending_tuples(3, 1, 8, 24):
            for d in range(1, 12):
                if is_representable(d, ws[:2]):
                    assert is_representable(d, ws)


class TestStratumIntersection:
    def test_surface_fixture(self):
        lam = Stratum.of(S5.weights, (2, 3, 4))
        si = stratum_intersection(S5, lam)
        assert si.cutting_degrees == (1,)  # only the degree-4 equation survives
        assert si.dim_general == 1 and not si.contained

    def test_family_fixture(self):
        for n in (5, 6, 7):
            spec = WCISpec((1, 1) + (2,) * (n - 1), (3, 4))
            lam = Stratum.of(spec.weights, range(2, n + 1))
            si = stratum_intersection(spec, lam)
            assert si.dim_general == n - 3

    def test_empty_intersection(self):
        spec = WCISpec((1, 1, 2), (4,))
        si = stratum_intersection(spec, Stratum.of(spec.weights, (2,)))
        assert si.cutting_degrees == (0,) and si.dim_general == -1 and not si.contained

    def test_bad_stratum(self):
        with pytest.raises(ValueError):
            stratum_intersection(S5, Stratum((7,), 2))
        with pytest.raises(ValueError):
            stratum_intersection(S5, Stratum((2, 3, 4), 5))  # inconsistent delta

    def test_containment_monotone_under_shrinking(self):
        specs = [
            WCISpec(w, degs)
            for w in [(1, 1, 2, 4, 6), (1, 2, 2, 3), (1, 1, 2, 2, 2)]
            for degs in [(2, 2), (3, 4), (5,)]
            if len(degs) <= len(w) - 1
        ]
        for spec in specs:
            n1 = len(spec.weights)
            for size in range(1, n1):
                for idx in combinations(range(n1), size):
                    si = stratum_intersection(spec, Stratum.of(spec.weights, idx))
                    if not si.contained:
                        continue
                    for sub_size in range(1, size):
                        for sub in combinations(idx, sub_size):
                            sub_si = stratum_intersection(spec, Stratum.of(spec.weights, sub))
                            assert sub_si.contained, (spec.key(), idx, sub)


class TestDimcaCodim:
    def test_examples(self):
        assert dimca_codim(S5, 2) == 1
        assert dimca_codim(WCISpec((1, 1, 1, 1), (3,)), 2) == 3
        assert dimca_codim(WCISpec((1, 1, 2, 2, 2, 2), (3, 4)), 2) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            dimca_codim(S5, 1)

    def test_agreement_when_divisible_degrees_representable(self):
        # Whenever every delta-divisible degree is representable over the
        # delta-stratum weights, the model dimension matches the formula
        # (both floored at -1, the dimension of the empty set).
        for w in ascending_tuples(4, 1, 8, 16):
            if not is_well_formed_space(w):
                continue
            spec_degrees = [(2,), (4,), (2, 3), (3, 4), (2, 6)]
            for degs in spec_degrees:
                if len(degs) > len(w) - 1:
                    continue
                spec = WCISpec(w, degs)
                rep = classify(spec)
                for si in rep.strata:
                    if si.dimca_codim is None:
                        continue
                    delta = si.stratum.delta
                    stratum_weights = spec.weights.at(si.stratum.indices)
                    cond = all(
                        is_representable(d, stratum_weights)
                        for d in degs
                        if d % delta == 0
                    )
                    if cond:
                        assert si.dimca_agrees, (spec.key(), si)
                        assert max(rep.dim_X - si.dimca_codim, -1) == si.dim_general


class TestWellFormedPredicates:
    def test_surface_not_well_formed_but_weakly(self):
        ok, evidence = is_well_formed(S5)
        assert ok is False
        assert [si.stratum.indices for si in evidence] == [(2, 3, 4)]
        weak, weak_evidence = is_weakly_well_formed(S5)
        assert weak is True and weak_evidence == []

    def test_smooth_ambient(self):
        assert is_well_formed(WCISpec((1, 1, 1, 1, 1), (2, 3)))[0] is True

    def test_curve_missing_singular_point(self):
        assert is_well_formed(WCISpec((1, 1, 2), (4,)))[0] is True

    def test_line_on_cone_weak_failure(self):
        weak, evidence = is_weakly_well_formed(S3)
        assert weak is False
        assert [s.indices for s in evidence] == [(2,)]

    def test_higher_dim_family_weakly(self):
        assert is_weakly_well_formed(WCISpec((1, 1, 2, 2, 2, 2), (3, 4)))[0] is True

    def test_non_well_formed_ambient_fails_both(self):
        spec = WCISpec((1, 2, 2), (3,))
        assert is_well_formed(spec) == (False, [])
        assert is_weakly_well_formed(spec) == (False, [])

    def test_hidden_containment_repair(self):
        # The general member contains the {4,6}-stratum line although the
        # covering-family model alone would call this well formed; the weak
        # check must drag well-formedness down with it.
        spec = WCISpec((1, 1, 2, 4, 6), (2, 2))
        weak, evidence = is_weakly_well_formed(spec)
        assert weak is False and [s.indices for s in evidence] == [(3, 4)]
        ok, _ = is_well_formed(spec)
        assert ok is False
        rep = classify(spec)
        assert rep.sing_intersection_dim == 1

    def test_weak_evidence_against_enumeration(self):
        # Every singular stratum of dimension dim_X - 1 on which no degree is
        # representable, in index order, by brute force.
        from math import gcd

        checked = 0
        for w in ascending_tuples(5, 1, 6, 14):
            if not is_well_formed_space(w):
                continue
            for degrees in [(2,), (3,), (4,), (6,), (2, 3), (4, 6), (6, 6), (2, 3, 5)]:
                spec = WCISpec(w, degrees)
                expected = [
                    Stratum.of(w, idx)
                    for idx in combinations(range(len(w)), spec.dimension)
                    if gcd(*(w[i] for i in idx)) > 1
                    and not any(brute_force_representable(d, [w[i] for i in idx]) for d in degrees)
                ]
                weak, evidence = is_weakly_well_formed(spec)
                assert evidence == expected, spec.key()
                assert weak == (not expected), spec.key()
                assert is_well_formed(spec)[0] == classify(spec).well_formed
                checked += bool(expected)
        assert checked


class TestAdjunction:
    def test_surface_fixture(self):
        amp, selfint = adjunction_data(S5)
        assert amp == -1 and selfint == Fraction(3, 2)

    def test_quartic_k3(self):
        amp, selfint = adjunction_data(WCISpec((1, 1, 1, 1), (4,)))
        assert amp == 0 and selfint == 0

    def test_quadric_surface(self):
        amp, selfint = adjunction_data(WCISpec((1, 1, 1, 1), (2,)))
        assert amp == -2 and selfint == 8

    def test_amplitude_zero_annihilates(self):
        for w, degs in [((1, 1, 1, 1), (4,)), ((1, 1, 2), (4,)), ((1, 1, 1, 2, 3), (3, 5))]:
            spec = WCISpec(w, degs)
            if sum(degs) - sum(w) == 0 and spec.dimension >= 1:
                assert adjunction_data(spec)[1] == 0


class TestClassify:
    def test_surface_report(self):
        rep = classify(S5)
        assert rep.space_well_formed and not rep.well_formed and rep.weakly_well_formed
        assert rep.dim_X == 2 and not rep.linear_cone
        assert rep.sing_intersection_dim == 1
        assert rep.theorem_status == THEOREM_NOT_APPLICABLE_DIM
        assert FLAG_NONINTEGRAL_SURFACE in rep.flags

    def test_high_dim_family(self):
        rep = classify(WCISpec((1, 1, 2, 2, 2, 2, 2), (3, 4)))
        assert not rep.well_formed and rep.weakly_well_formed
        assert rep.theorem_status == THEOREM_IMPLIES_NOT_QUASISMOOTH

    def test_consistent_case(self):
        # (1,1,1,1,1)/(2,3) is a smooth-ambient curve... of dimension 2, so
        # the dim < 3 guard fires; one more coordinate reaches the theorem.
        rep = classify(WCISpec((1, 1, 1, 1, 1), (2, 3)))
        assert rep.well_formed and rep.weakly_well_formed
        assert rep.dim_X == 2 and rep.theorem_status == THEOREM_NOT_APPLICABLE_DIM
        rep2 = classify(WCISpec((1, 1, 1, 1, 1, 1), (2, 3)))
        assert rep2.dim_X == 3 and rep2.theorem_status == THEOREM_CONSISTENT

    def test_linear_cone_status(self):
        rep = classify(WCISpec((1, 1, 1, 1, 1, 1), (1, 2)))
        assert rep.dim_X == 3 and rep.linear_cone
        assert rep.theorem_status == THEOREM_NOT_APPLICABLE_LINEAR_CONE

    def test_dim_precedence_over_cone(self):
        rep = classify(S3)
        assert rep.linear_cone and rep.theorem_status == THEOREM_NOT_APPLICABLE_DIM

    def test_degenerate_containment_flag(self):
        rep = classify(WCISpec((1, 2, 2, 2, 3), (5, 7)))
        assert FLAG_DEGENERATE_CONTAINMENT in rep.flags
        assert not rep.well_formed

    def test_dimca_mismatch_flag(self):
        rep = classify(WCISpec((1, 1, 4, 6), (2,)))
        assert FLAG_DIMCA_MISMATCH in rep.flags
        mismatched = [si for si in rep.strata if si.dimca_agrees is False]
        assert mismatched and mismatched[0].stratum.indices == (2, 3)

    def test_integral_surface_unflagged(self):
        rep = classify(WCISpec((1, 1, 1, 1), (2,)))
        assert FLAG_NONINTEGRAL_SURFACE not in rep.flags

    def test_report_json_schema(self):
        data = classify(S5).to_json()
        assert list(data) == [
            "spec",
            "space_well_formed",
            "dim_X",
            "linear_cone",
            "amplitude",
            "canonical_self_intersection",
            "strata",
            "sing_intersection_dim",
            "well_formed",
            "weakly_well_formed",
            "theorem_status",
            "flags",
        ]
        frac = data["canonical_self_intersection"]
        assert frac == {"num": 3, "den": 2}
        assert data["strata"][0]["stratum"] == {"indices": [2, 3, 4], "delta": 2, "dim": 2}

    def test_weak_sweep_refused_beyond_bound(self):
        # N = 40, dim_X = 20: C(39, 20) candidate subsets of the 2s.
        start = time.process_time()
        with pytest.raises(ValueError, match="68923264410 index subsets") as refused:
            classify(WCISpec((1, 1) + (2,) * 39, (3,) * 20))
        assert time.process_time() - start < 1
        # analyze has no --max-size, so the refusal names no such flag.
        assert "--max-size" not in str(refused.value)

    def test_rational_lowest_terms_positive_denominator(self):
        rep = classify(WCISpec((1, 1, 3), (5,)))
        frac = rep.canonical_self_intersection
        from math import gcd

        assert frac.denominator > 0 and gcd(frac.numerator, frac.denominator) == 1

    def test_sing_dim_is_max_over_listed_strata(self):
        for spec in [
            S5,
            S3,
            WCISpec((1, 1, 2, 4, 6), (2, 2)),
            WCISpec((1, 1, 1, 1), (2,)),
            WCISpec((1, 2, 2, 2, 3), (5, 7)),
        ]:
            rep = classify(spec)
            expected = max((si.dim_general for si in rep.strata), default=-1)
            assert rep.sing_intersection_dim == expected

    def test_implication_well_formed_implies_weak(self):
        # Exhaustive over entries <= 10, weight sum <= 14, k <= 3 (ascending
        # representatives; both predicates are permutation-invariant).
        degree_pool = {
            k: list(ascending_tuples(k, 1, 10, 10 * k)) for k in (1, 2, 3)
        }
        checked = 0
        for length in range(2, 15):
            for w in ascending_tuples(length, 1, 10, 14):
                n = length - 1
                for k in (1, 2, 3):
                    if k > n:
                        continue
                    for degs in degree_pool[k]:
                        spec = WCISpec(w, degs)
                        rep = classify(spec)
                        if rep.well_formed:
                            assert rep.weakly_well_formed, spec.key()
                        checked += 1
        assert checked > 50_000


def reference_report_json(spec):
    """classify(spec).to_json() assembled for one record from the public
    per-stratum functions, with nothing cached across records."""
    w, degrees, dim_x = spec.weights, spec.degrees, spec.dimension
    space_well_formed = is_well_formed_space(w)
    inters = []
    if space_well_formed:
        for st in singular_strata(w, maximal_only=True):
            si = stratum_intersection(spec, st)
            dc = dimca_codim(spec, st.delta)
            agrees = max(dim_x - dc, -1) == si.dim_general
            inters.append(replace(si, dimca_codim=dc, dimca_agrees=agrees))
        known = {si.stratum.indices for si in inters}
        for idx in combinations(range(len(w)), dim_x):
            if idx not in known and gcd(*w.at(idx)) > 1:
                si = stratum_intersection(spec, Stratum.of(w, idx))
                if si.contained:
                    inters.append(si)
        inters.sort(key=lambda si: (-si.stratum.dim, si.stratum.indices))
    amplitude = sum(degrees) - sum(w)
    self_int = Fraction(amplitude) ** dim_x * Fraction(prod(degrees), prod(w))
    sing_dim = max((si.dim_general for si in inters), default=-1)
    well_formed = space_well_formed and dim_x - sing_dim >= 2
    weak = space_well_formed and not any(
        si.contained and si.stratum.dim == dim_x - 1 for si in inters
    )
    cone = is_linear_cone(spec)
    flags = []
    if any(si.contained and si.dim_general == dim_x for si in inters):
        flags.append(FLAG_DEGENERATE_CONTAINMENT)
    if any(si.dimca_agrees is False for si in inters):
        flags.append(FLAG_DIMCA_MISMATCH)
    if dim_x == 2 and self_int.denominator != 1:
        flags.append(FLAG_NONINTEGRAL_SURFACE)
    if dim_x < 3:
        status = THEOREM_NOT_APPLICABLE_DIM
    elif cone:
        status = THEOREM_NOT_APPLICABLE_LINEAR_CONE
    elif well_formed == weak:
        status = THEOREM_CONSISTENT
    else:
        status = THEOREM_IMPLIES_NOT_QUASISMOOTH
    return {
        "spec": spec.to_json(),
        "space_well_formed": space_well_formed,
        "dim_X": dim_x,
        "linear_cone": cone,
        "amplitude": amplitude,
        "canonical_self_intersection": {
            "num": self_int.numerator,
            "den": self_int.denominator,
        },
        "strata": [si.to_json() for si in inters],
        "sing_intersection_dim": sing_dim,
        "well_formed": well_formed,
        "weakly_well_formed": weak,
        "theorem_status": status,
        "flags": flags,
    }


class TestClassifyPerWeightTuple:
    def test_against_per_record_reference(self):
        # A census-style box: many degree tuples per weight tuple, ambients of
        # equal length visited A, B, A, and each family built from both a
        # Weights object and a plain tuple.  Non-well-formed ambients stay in.
        # Every codimension up to N is visited, so dim_X = 0 is covered too.
        degree_pool = {
            k: list(ascending_tuples(k, 1, 7, 7 * k)) for k in (1, 2, 3, 4)
        }
        seen = {"not_wf": 0, "negative": 0, "zero": 0, "positive": 0, "hidden": 0, "dim0": 0}
        references = {}  # the reference is deterministic, so build it once per family
        for length in (2, 3, 4, 5):
            tuples = list(ascending_tuples(length, 1, 6, 12))
            for a, b in zip(tuples, tuples[1:]):
                for k in range(1, length):
                    for degs in degree_pool[k]:
                        for w in (a, Weights(b), Weights(a), b):
                            spec = WCISpec(w, degs)
                            if spec.key() not in references:
                                references[spec.key()] = reference_report_json(spec)
                            expected = references[spec.key()]
                            assert classify(spec).to_json() == expected, spec.key()
                            amplitude = expected["amplitude"]
                            seen["not_wf"] += not expected["space_well_formed"]
                            seen["negative" if amplitude < 0 else
                                 "zero" if amplitude == 0 else "positive"] += 1
                            seen["hidden"] += any(
                                si["dimca_codim"] is None for si in expected["strata"]
                            )
                            seen["dim0"] += expected["dim_X"] == 0
        assert all(seen.values()), seen


def small_box_specs():
    """Every family with ascending weights in [1, 6] (sum at most 12, N from
    2 to 5) and ascending degrees in [1, 7], in census order."""
    specs = []
    for length in (3, 4, 5, 6):
        for w in ascending_tuples(length, 1, 6, 12):
            for k in range(1, length - 1):
                specs.extend(WCISpec(w, d) for d in ascending_tuples(k, 1, 7, 7 * k))
    return specs


def clear_classify_caches():
    for cache in (_representable, _ambient):
        cache.cache_clear()


class TestClassifyCaches:
    def test_report_does_not_depend_on_call_order(self):
        specs = small_box_specs()
        forward = [classify(spec).to_json() for spec in specs]
        clear_classify_caches()
        backward = [classify(spec).to_json() for spec in reversed(specs)]
        assert forward == backward[::-1]
        # Both the covering strata and the weak check's additions are exercised.
        assert any(si["dimca_codim"] is not None for r in forward for si in r["strata"])
        assert any(si["dimca_codim"] is None for r in forward for si in r["strata"])

    def test_representable_cache_stays_bounded(self):
        spec_weights = (1, 2, 2, 3, 3)
        for d in range(1, 20_001):
            classify(WCISpec(spec_weights, (d,)))
        info = _representable.cache_info()
        assert info.maxsize == REPRESENTABLE_CACHE_SIZE
        assert info.currsize <= info.maxsize

    def test_cold_shuffled_box_against_reference(self):
        # Degree patterns first met in a random order, every cache cold.
        specs = small_box_specs()
        random.Random(16).shuffle(specs)
        clear_classify_caches()
        for spec in specs:
            assert classify(spec).to_json() == reference_report_json(spec), spec.key()

    def test_caches_stay_bounded_past_many_patterns(self):
        # One point stratum per prime, so a degree's facts are its
        # divisibility by 2, 3, 5, 7, 11 and 13: consecutive degree pairs
        # make tens of thousands of patterns, and no cache keeps them.
        clear_classify_caches()
        spec_weights = Weights((1, 2, 3, 5, 7, 11, 13))
        for d in range(1, 20_001):
            classify(WCISpec(spec_weights, (d,)))
            classify(WCISpec(spec_weights, (d, d + 1)))
        for cache in (_ambient, _representable):
            info = cache.cache_info()
            assert info.currsize <= info.maxsize
        # Past evictions the reports are still right.
        for degs in ((19_999,), (20_000, 20_001), (5,), (6, 7), (30_030, 30_031)):
            spec = WCISpec(spec_weights, degs)
            assert classify(spec).to_json() == reference_report_json(spec)

    def test_each_pair_decided_once(self, monkeypatch):
        # A miss reaches the module-level is_representable, so a wrapper
        # installed there counts one call per (degree, value-set) pair.
        calls = []

        def counted(d, values):
            calls.append((d, values))
            return is_representable(d, values)

        monkeypatch.setattr("wcikit.analysis.is_representable", counted)
        clear_classify_caches()
        # Covering strata over the values (2, 4, 6) and (6,); the weak
        # candidates, of dimension 3, over (2, 4), (2, 6), (2, 4, 6), ...
        degree_tuples = ((4, 6), (6, 8), (4, 6), (3, 6), (3, 5), (3, 5))
        specs = [WCISpec((1, 1, 2, 2, 2, 4, 6), degs) for degs in degree_tuples]
        reports = [classify(spec).to_json() for spec in specs]
        assert len(calls) == len(set(calls)) > 0
        assert any(si["dimca_codim"] is None for r in reports for si in r["strata"])
        assert all(values == tuple(sorted(set(values))) for _, values in calls)
        monkeypatch.undo()
        _representable.cache_clear()
        assert reports == [reference_report_json(spec) for spec in specs]


class TestValueSetTable:
    def test_every_bit_is_representability_over_one_value_set(self):
        # Over every well-formed ambient of a small box and every family
        # dimension: the table lists each value set once, a degree's bit i
        # is its representability over values[i], a covering stratum's delta
        # bit is divisibility by delta, and delta divides exactly the
        # st.dim + 1 weights of its covering set.
        top = 30
        degrees = range(1, top + 1)
        checked = 0
        for length in (3, 4, 5, 6):
            for w in ascending_tuples(length, 1, 8, 16):
                weights = Weights(w)
                for dim_x in range(weights.dim):
                    ambient = _ambient(weights, dim_x)
                    if ambient is None:
                        assert not is_well_formed_space(w)
                        break
                    values, covering, weak = ambient
                    assert list(values) == sorted(set(values))
                    assert all(v == tuple(sorted(set(v))) for v in values)
                    facts = [f for _, f, _ in _degree_records(ambient, w, degrees)]
                    for d, f in zip(degrees, facts):
                        expected = sum(1 << i for i, v in enumerate(values) if is_representable(d, v))
                        assert f == expected, (w, dim_x, d)
                    used = set()
                    for st, st_dim, vbit, dbit in covering:
                        assert st_dim == st.dim
                        assert values[vbit.bit_length() - 1] == tuple(sorted(set(weights.at(st.indices))))
                        assert values[dbit.bit_length() - 1] == (st.delta,)
                        assert [bool(f & dbit) for f in facts] == [d % st.delta == 0 for d in degrees]
                        assert sum(a % st.delta == 0 for a in w) == st.dim + 1
                        used |= {vbit, dbit}
                    for vbit, strata in weak:
                        for st in strata:
                            assert st.dim == dim_x - 1
                            assert values[vbit.bit_length() - 1] == tuple(sorted(set(weights.at(st.indices))))
                        used.add(vbit)
                    # Every bit is one value set's, and every value set is used.
                    assert all(b & (b - 1) == 0 for b in used)
                    assert sorted(used) == [1 << i for i in range(len(values))]
                    checked += 1
        assert checked > 1000
