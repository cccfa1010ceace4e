"""Tests for parameter-space enumeration, classification, and persistence."""

import json
import tracemalloc
from dataclasses import replace
from itertools import combinations_with_replacement

import pytest

import wcikit.census
from wcikit import (
    CensusBounds,
    ProbeBudget,
    Stratum,
    WCISpec,
    classify,
    enumerate_specs,
    is_linear_cone,
    is_well_formed_space,
    run_census,
    write_census,
)
from wcikit.analysis import (
    FLAG_DEGENERATE_CONTAINMENT,
    FLAG_DIMCA_MISMATCH,
    FLAG_NONINTEGRAL_SURFACE,
    THEOREM_CONSISTENT,
    THEOREM_IMPLIES_NOT_QUASISMOOTH,
    StratumIntersection,
)
from wcikit.census import (
    CensusRecord,
    _ambients,
    _ascending_tuples,
    _encode_line,
    _linear_cone_count,
    _record_line,
)

TINY = CensusBounds(max_n=2, max_weight=2, max_weight_sum=4, max_k=1, max_degree=2)
# The probed census box of the benchmark: 38 records, probed at p = 5.
PROBED = CensusBounds(
    max_n=5, max_weight=2, max_weight_sum=11, max_k=2, max_degree=4,
    require_non_linear_cone=True, min_dim=3,
)


def drain(census):
    """The records of a ``run_census`` generator, as a list, and the summary it returns."""
    records = []
    while True:
        try:
            records.append(next(census))
        except StopIteration as done:
            return records, done.value


def independent_spec_count(bounds):
    """Count specs by brute force over combinations_with_replacement."""
    total = 0
    for count in range(2, bounds.max_n + 2):
        for w in combinations_with_replacement(range(1, bounds.max_weight + 1), count):
            if sum(w) > bounds.max_weight_sum or not is_well_formed_space(w):
                continue
            n = count - 1
            for k in range(1, min(bounds.max_k, n - bounds.min_dim) + 1):
                for degs in combinations_with_replacement(range(1, bounds.max_degree + 1), k):
                    total += 1
    return total


class TestBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            CensusBounds(max_n=0, max_weight=1, max_weight_sum=2, max_k=1, max_degree=1)
        with pytest.raises(ValueError):
            CensusBounds(max_n=1, max_weight=1, max_weight_sum=2, max_k=1, max_degree=1, min_dim=-1)

    def test_flag_must_be_bool_and_min_dim_not_bool(self):
        box = TINY.to_json()
        for value in ("no", "", 1, 0, None):
            with pytest.raises(ValueError, match="require_non_linear_cone must be true or false"):
                CensusBounds.from_json({**box, "require_non_linear_cone": value})
        for value in (True, False, 1.0):
            with pytest.raises(ValueError, match="min_dim must be a non-negative integer"):
                CensusBounds.from_json({**box, "min_dim": value})
        assert CensusBounds.from_json({**box, "require_non_linear_cone": True, "min_dim": 1})

    def test_json_roundtrip(self):
        assert CensusBounds.from_json(TINY.to_json()) == TINY

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            CensusBounds.from_json({"max_n": 1, "bogus": 2})


class TestProbeBudget:
    def test_validates_primes(self):
        for primes in ((0,), (1,), (4,), (5, 4), (65537,)):
            with pytest.raises(ValueError, match="not a prime below 2\\^16"):
                ProbeBudget(primes=primes)
        assert ProbeBudget(primes=(2, 5, 65521)).primes == (2, 5, 65521)


    def test_validates_budget(self):
        for kwargs in ({"max_points": 0}, {"max_points": -1}, {"sample_count": 0},
                       {"sample_count": -3}):
            with pytest.raises(ValueError, match="must be at least 1"):
                ProbeBudget(**kwargs)
        assert ProbeBudget(max_points=1, sample_count=1).max_points == 1


# Boxes without the cone filter, for comparing it with a brute-force count.
CONE_BOXES = (
    CensusBounds(max_n=4, max_weight=4, max_weight_sum=9, max_k=2, max_degree=3),
    CensusBounds(max_n=5, max_weight=6, max_weight_sum=11, max_k=3, max_degree=4, min_dim=1),
    CensusBounds(max_n=6, max_weight=5, max_weight_sum=12, max_k=3, max_degree=7, min_dim=2),
    CensusBounds(max_n=3, max_weight=3, max_weight_sum=8, max_k=2, max_degree=2),
)


class TestEnumerate:
    def test_tiny_stream_contents(self):
        keys = [s.key() for s in enumerate_specs(TINY)]
        assert "1,1,2/1" in keys and "1,1,2/2" in keys

    def test_non_linear_cone_filter(self):
        bounds = CensusBounds(
            max_n=2, max_weight=2, max_weight_sum=4, max_k=1, max_degree=2,
            require_non_linear_cone=True,
        )
        keys = [s.key() for s in enumerate_specs(bounds)]
        assert "1,1,2/1" not in keys
        assert all(not is_linear_cone(s) for s in enumerate_specs(bounds))

    def test_min_dim_empties_small_boxes(self):
        bounds = CensusBounds(
            max_n=3, max_weight=4, max_weight_sum=8, max_k=2, max_degree=4, min_dim=3
        )
        assert list(enumerate_specs(bounds)) == []

    def test_each_spec_exactly_once(self):
        bounds = CensusBounds(max_n=4, max_weight=4, max_weight_sum=9, max_k=2, max_degree=3)
        keys = [s.key() for s in enumerate_specs(bounds)]
        assert len(keys) == len(set(keys))

    def test_weights_ascending_and_well_formed(self):
        bounds = CensusBounds(max_n=4, max_weight=5, max_weight_sum=10, max_k=2, max_degree=3)
        for s in enumerate_specs(bounds):
            assert tuple(s.weights) == tuple(sorted(s.weights))
            assert tuple(s.degrees) == tuple(sorted(s.degrees))
            assert is_well_formed_space(s.weights)

    def test_degree_tuples_are_ascending_tuples_with_a_slack_sum(self):
        # enumerate_specs draws degrees from combinations_with_replacement; with
        # the sum bound k * max_degree it is exactly _ascending_tuples.
        for k in range(1, 5):
            for top in range(1, 16):
                assert list(combinations_with_replacement(range(1, top + 1), k)) == list(
                    _ascending_tuples(k, 1, top, k * top)
                ), (k, top)

    def test_cone_filter_drops_exactly_the_cones_in_order(self):
        for bounds in CONE_BOXES:
            unfiltered = list(enumerate_specs(bounds))
            filtered = list(enumerate_specs(replace(bounds, require_non_linear_cone=True)))
            assert filtered == [s for s in unfiltered if not is_linear_cone(s)]

    def test_linear_cone_count_against_brute_force(self):
        for bounds in CONE_BOXES:
            brute = sum(map(is_linear_cone, enumerate_specs(bounds)))
            assert _linear_cone_count(bounds) == brute > 0, bounds
        # With max_degree=2 every degree tuple of (1,1,2) meets a weight, so
        # the weight tuple yields no spec at all and only the count sees it.
        last = CONE_BOXES[-1]
        assert any(w.entries == (1, 1, 2) for w, _ in _ambients(last))
        filtered = enumerate_specs(replace(last, require_non_linear_cone=True))
        assert all(s.weights.entries != (1, 1, 2) for s in filtered)

    def test_trusted_specs_equal_validated_ones(self):
        # enumerate_specs builds its specs through WCISpec from a Weights and a
        # degree tuple; each must equal, and hash like, the spec built from
        # plain sequences.
        for bounds in CONE_BOXES:
            for spec in enumerate_specs(bounds):
                public = WCISpec(tuple(spec.weights), list(spec.degrees))
                assert spec == public and hash(spec) == hash(public), spec.key()
                assert type(spec.degrees) is tuple and spec.codimension <= spec.weights.dim

    def test_max_degree_capped_at_the_entry_limit(self):
        box = TINY.to_json()
        with pytest.raises(ValueError, match="max_degree .* exceeds the 2\\^63-1 limit"):
            CensusBounds.from_json({**box, "max_degree": 2**63})
        assert CensusBounds.from_json({**box, "max_degree": 2**63 - 1}).max_degree == 2**63 - 1

    def test_completeness_against_independent_counter(self):
        for bounds in [
            TINY,
            CensusBounds(max_n=4, max_weight=4, max_weight_sum=9, max_k=2, max_degree=3),
            CensusBounds(max_n=5, max_weight=6, max_weight_sum=11, max_k=3, max_degree=4, min_dim=1),
        ]:
            assert len(list(enumerate_specs(bounds))) == independent_spec_count(bounds)


class TestRunCensus:
    def test_surface_fixture_classified_weakly_only(self):
        bounds = CensusBounds(max_n=4, max_weight=2, max_weight_sum=9, max_k=2, max_degree=4)
        records, summary = drain(run_census(bounds))
        by_key = {r.report.spec.key(): r for r in records}
        rec = by_key["1,1,2,2,2/3,4"]
        assert rec.report.weakly_well_formed and not rec.report.well_formed
        assert summary.weakly_only >= 1

    def test_family_fixture_implies_not_quasismooth(self):
        bounds = CensusBounds(max_n=6, max_weight=2, max_weight_sum=13, max_k=2, max_degree=4)
        records, summary = drain(run_census(bounds))
        by_key = {r.report.spec.key(): r for r in records}
        for key in ("1,1,2,2,2,2/3,4", "1,1,2,2,2,2,2/3,4"):
            rec = by_key[key]
            assert rec.report.weakly_well_formed and not rec.report.well_formed
            assert rec.report.theorem_status == "implies_not_quasismooth"
        assert summary.theorem_implies_not_quasismooth >= 2

    def test_all_unit_weights_have_no_weakly_only(self):
        # Straight projective space has an empty singular locus.  min_dim=1
        # keeps out dim-0 members, which the codimension-2 bound never admits
        # (0 - (-1) = 1 < 2) even though they are trivially weakly well formed.
        bounds = CensusBounds(
            max_n=4, max_weight=1, max_weight_sum=5, max_k=2, max_degree=4, min_dim=1
        )
        records, summary = drain(run_census(bounds))
        assert summary.weakly_only == 0
        assert all(r.report.well_formed for r in records)

    def test_linear_cone_skip_counted(self):
        bounds = CensusBounds(
            max_n=2, max_weight=2, max_weight_sum=4, max_k=1, max_degree=2,
            require_non_linear_cone=True,
        )
        records, summary = drain(run_census(bounds))
        assert summary.linear_cone_skipped == 4
        assert summary.total == len(records) == 2

    def test_summary_survives_a_wrapper_that_drops_the_return_value(self, monkeypatch):
        # A profiler that re-yields enumerate_specs' items and drops its
        # return value must not change the summary.
        bounds = replace(CONE_BOXES[1], require_non_linear_cone=True)
        expected = drain(run_census(bounds))
        calls = []
        real = wcikit.census.enumerate_specs

        def rewrapped(*args, **kwargs):
            calls.append(args)
            it = real(*args, **kwargs)
            while True:
                try:
                    item = next(it)
                except StopIteration:
                    return
                yield item

        monkeypatch.setattr("wcikit.census.enumerate_specs", rewrapped)
        assert drain(run_census(bounds)) == expected
        assert calls == [(bounds,)]
        assert expected[1].linear_cone_skipped == _linear_cone_count(CONE_BOXES[1]) > 0

    def test_summary_partition(self):
        bounds = CensusBounds(max_n=4, max_weight=3, max_weight_sum=9, max_k=2, max_degree=4)
        records, summary = drain(run_census(bounds))
        assert summary.total == len(records)
        assert summary.well_formed + summary.weakly_only + summary.neither == summary.total

    def test_probe_attaches_verdicts(self):
        records, summary = drain(run_census(PROBED, ProbeBudget(primes=(5,), max_points=20_000)))
        probed = [r for r in records if r.oracle_verdict is not None]
        assert summary.probed == len(probed) > 0
        for rec in probed:
            assert rec.oracle_verdict.status in ("no_witness_found", "singular_witness")

    def test_probe_without_a_usable_prime_leaves_the_verdict_null(self):
        # At p = 2 only the records whose weights and degrees are all odd can
        # be probed; the others keep a null verdict and are not counted.
        bounds = CensusBounds(max_n=5, max_weight=2, max_weight_sum=8, max_k=2, max_degree=3,
                              min_dim=3)
        records, summary = drain(run_census(bounds, ProbeBudget(primes=(2,))))
        applicable = [r for r in records if r.report.theorem_status in (
            THEOREM_CONSISTENT, THEOREM_IMPLIES_NOT_QUASISMOOTH)]
        odd = {r.report.spec.key() for r in applicable
               if all(v % 2 for v in (*r.report.spec.weights, *r.report.spec.degrees))}
        unusable = [r for r in applicable if r.report.spec.key() not in odd]
        assert unusable and all(r.oracle_verdict is None for r in unusable)
        assert all(json.loads(_record_line(r))["oracle_verdict"] is None for r in unusable)
        probed = {r.report.spec.key() for r in records if r.oracle_verdict is not None}
        assert probed == odd and summary.probed == len(probed) > 0

    def test_probe_determinism(self):
        budget = ProbeBudget(primes=(5,), max_points=20_000)
        a = [r.to_json() for r in run_census(PROBED, budget)]
        b = [r.to_json() for r in run_census(PROBED, budget)]
        assert a == b


class TestRecordLine:
    def test_matches_the_compact_encoding_of_to_json(self):
        unfiltered = CensusBounds(max_n=6, max_weight=4, max_weight_sum=12, max_k=3, max_degree=6)
        records = drain(run_census(unfiltered))[0]
        assert len(records) == 6559
        records += drain(run_census(PROBED, ProbeBudget(primes=(5,), max_points=20_000)))[0]
        hand_built = [
            ((1, 2, 2), (4,)),  # not a well-formed ambient
            ((1, 6, 10, 15), (2**63 - 1,)),
            ((1, 1, 1, 4, 6), (2,)),
            ((1, 1, 2, 2, 2), (3, 4)),
        ]
        records += [CensusRecord(classify(WCISpec(w, d))) for w, d in hand_built]
        seen = set()
        for rec in records:
            line = _record_line(rec)
            assert line == _encode_line(rec.to_json()) + "\n", rec.report.spec.key()
            r = rec.report
            seen.add(("dim", r.dim_X))
            seen.update(("flag", flag) for flag in r.flags)
            seen.add(("linear_cone", r.linear_cone))
            seen.add(("space_well_formed", r.space_well_formed))
            seen.add(("63-bit degree", max(r.spec.degrees) > 2**62))
            seen.add(("weak stratum", any(si.dimca_codim is None for si in r.strata)))
            seen.add(("denominator 1", r.canonical_self_intersection.denominator == 1))
            seen.add(("negative amplitude", r.amplitude < 0))
            seen.add(("witnesses", bool(rec.oracle_verdict and rec.oracle_verdict.witnesses)))
        assert seen >= {("dim", d) for d in range(6)}
        assert seen >= {
            ("flag", FLAG_DEGENERATE_CONTAINMENT), ("flag", FLAG_DIMCA_MISMATCH),
            ("flag", FLAG_NONINTEGRAL_SURFACE),
        }
        for fact in ("linear_cone", "space_well_formed", "63-bit degree", "weak stratum",
                     "denominator 1", "negative amplitude", "witnesses"):
            assert {(fact, True), (fact, False)} <= seen, fact


    def test_strata_lists_follow_their_tuples(self, monkeypatch):
        # Records whose strata tuples are fresh objects, each made, written
        # and dropped in turn (so ids recur), of the lengths other records'
        # tuples have: a strata list found by anything but the tuple itself
        # would be another record's.
        box = CensusBounds(max_n=4, max_weight=4, max_weight_sum=10, max_k=2, max_degree=5)
        reports = [rec.report for rec in drain(run_census(box))[0]]
        by_length = {}
        for r in reports:
            by_length.setdefault(len(r.strata), []).append(r)
        assert sum(len(rs) > 1 for rs in by_length.values()) >= 3
        for rs in by_length.values():
            for a, b in zip(rs, rs[1:] + rs[:1]):
                rec = CensusRecord(replace(a, strata=tuple([*b.strata])))
                assert _record_line(rec) == _encode_line(rec.to_json()) + "\n", a.spec.key()
        base = classify(WCISpec((1, 1, 2, 2, 2), (3, 4)))
        for indices, delta in [((2, 3), 2), ((2, 4), 2), ((3, 4), 2), ((2, 3, 4), 2)]:
            strata = (StratumIntersection(Stratum(indices, delta), (1,), len(indices) - 2, False),)
            rec = CensusRecord(replace(base, strata=strata))
            assert _record_line(rec) == _encode_line(rec.to_json()) + "\n", indices
        # A box classified with the strata lists cleared every two tuples.
        monkeypatch.setattr(wcikit.census, "PATTERN_CACHE_SIZE", 2)
        for rec in drain(run_census(box))[0]:
            assert _record_line(rec) == _encode_line(rec.to_json()) + "\n", rec.report.spec.key()
            assert len(wcikit.census._strata_lines) <= 2


class TestPersistence:
    def test_jsonl_byte_identical(self, tmp_path):
        bounds = CensusBounds(max_n=4, max_weight=3, max_weight_sum=8, max_k=2, max_degree=3)
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            write_census(run_census(bounds), out)
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_record_lines_parse_and_schema(self, tmp_path):
        out = tmp_path / "c.jsonl"
        summary = write_census(run_census(TINY), out)
        assert summary == drain(run_census(TINY))[1]
        lines = out.read_text().splitlines()
        assert len(lines) == summary.total
        for line in lines:
            obj = json.loads(line)
            assert set(obj) == {"report", "oracle_verdict"}
        sidecar = json.loads((tmp_path / "c.jsonl.summary.json").read_text())
        assert sidecar["total"] == summary.total

    def test_io_failure_propagates(self, tmp_path):
        with pytest.raises(OSError):
            write_census(run_census(TINY), tmp_path / "missing" / "c.jsonl")

    def test_interrupt_leaves_partial_jsonl_and_marker(self, tmp_path):
        def interrupted():
            yield from drain(run_census(TINY))[0][:3]
            raise KeyboardInterrupt

        out = tmp_path / "c.jsonl"
        sidecar = tmp_path / "c.jsonl.summary.json"
        sidecar.write_text('{"total": 6}\n')
        with pytest.raises(KeyboardInterrupt):
            write_census(interrupted(), out)
        assert len(out.read_text().splitlines()) == 3
        assert json.loads(sidecar.read_text()) == {
            "status": "aborted_partial_output", "error": "KeyboardInterrupt",
        }

    def test_streams_without_holding_the_records(self, tmp_path):
        # The peak stays a small fraction of the JSONL because each record is
        # written and dropped as it is classified; a census kept as a list
        # peaks above the size of its file.
        bounds = CensusBounds(max_n=8, max_weight=6, max_weight_sum=12, max_k=2, max_degree=8)
        out = tmp_path / "c.jsonl"
        tracemalloc.start()
        try:
            summary = write_census(run_census(bounds), out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        assert summary.total == len(out.read_bytes().splitlines())
        assert peak < size / 4, (peak, size)
