"""Tests for parameter-space enumeration, classification, and persistence."""

import hashlib
import json
import sys
import tracemalloc
from dataclasses import replace
from itertools import combinations_with_replacement

import pytest

import wcikit.census
from wcikit import (
    CensusBounds,
    ProbeBudget,
    WCISpec,
    Weights,
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
)
from wcikit.census import _ascending_tuples, _encode_line
from wcikit.jsonout import exact_ints

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


def specs_of(bounds):
    """The specs of the box: ``enumerate_specs``' blocks expanded, in order."""
    return [
        WCISpec(w, degs)
        for w, k, degrees in enumerate_specs(bounds)
        for degs in combinations_with_replacement(degrees, k)
    ]


def independent_spec_keys(bounds):
    """The keys of the box's specs in enumeration order, by brute force over
    combinations_with_replacement."""
    keys = []
    for count in range(2, bounds.max_n + 2):
        for w in combinations_with_replacement(range(1, bounds.max_weight + 1), count):
            if sum(w) > bounds.max_weight_sum or not is_well_formed_space(w):
                continue
            n = count - 1
            for k in range(1, min(bounds.max_k, n - bounds.min_dim) + 1):
                for degs in combinations_with_replacement(range(1, bounds.max_degree + 1), k):
                    if bounds.require_non_linear_cone and not set(degs).isdisjoint(w):
                        continue
                    keys.append(f"{','.join(map(str, w))}/{','.join(map(str, degs))}")
    return keys


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
        keys = [s.key() for s in specs_of(TINY)]
        assert "1,1,2/1" in keys and "1,1,2/2" in keys

    def test_non_linear_cone_filter(self):
        bounds = CensusBounds(
            max_n=2, max_weight=2, max_weight_sum=4, max_k=1, max_degree=2,
            require_non_linear_cone=True,
        )
        keys = [s.key() for s in specs_of(bounds)]
        assert "1,1,2/1" not in keys
        assert all(not is_linear_cone(s) for s in specs_of(bounds))

    def test_min_dim_empties_small_boxes(self):
        bounds = CensusBounds(
            max_n=3, max_weight=4, max_weight_sum=8, max_k=2, max_degree=4, min_dim=3
        )
        assert list(enumerate_specs(bounds)) == [] == specs_of(bounds)

    def test_each_spec_exactly_once(self):
        bounds = CensusBounds(max_n=4, max_weight=4, max_weight_sum=9, max_k=2, max_degree=3)
        keys = [s.key() for s in specs_of(bounds)]
        assert len(keys) == len(set(keys))

    def test_weights_ascending_and_well_formed(self):
        bounds = CensusBounds(max_n=4, max_weight=5, max_weight_sum=10, max_k=2, max_degree=3)
        for s in specs_of(bounds):
            assert tuple(s.weights) == tuple(sorted(s.weights))
            assert tuple(s.degrees) == tuple(sorted(s.degrees))
            assert is_well_formed_space(s.weights)

    def test_degree_tuples_are_ascending_tuples_with_a_slack_sum(self):
        # A block's specs are combinations_with_replacement of its degrees; with
        # the sum bound k * max_degree it is exactly _ascending_tuples.
        for k in range(1, 5):
            for top in range(1, 16):
                assert list(combinations_with_replacement(range(1, top + 1), k)) == list(
                    _ascending_tuples(k, 1, top, k * top)
                ), (k, top)

    def test_ascending_tuples_against_a_recursive_reference(self):
        def reference(length, lo, hi, budget):
            if length == 0:
                yield ()
                return
            for v in range(lo, min(hi, budget // length) + 1):
                for rest in reference(length - 1, v, hi, budget - v):
                    yield (v,) + rest

        for length in range(6):
            for lo in range(3):
                for hi in range(8):
                    for budget in range(-1, 24):
                        assert list(_ascending_tuples(length, lo, hi, budget)) == list(
                            reference(length, lo, hi, budget)
                        ), (length, lo, hi, budget)
        # Far longer than the recursion limit: one tuple of 5,000 ones.
        assert list(_ascending_tuples(5000, 1, 1, 5000)) == [(1,) * 5000]

    def test_cone_filter_drops_exactly_the_cones_in_order(self):
        for bounds in CONE_BOXES:
            unfiltered = specs_of(bounds)
            filtered = specs_of(replace(bounds, require_non_linear_cone=True))
            assert filtered == [s for s in unfiltered if not is_linear_cone(s)]

    def test_linear_cone_count_against_brute_force(self):
        for bounds in CONE_BOXES:
            brute = sum(map(is_linear_cone, specs_of(bounds)))
            _, summary = drain(run_census(replace(bounds, require_non_linear_cone=True)))
            assert summary.linear_cone_skipped == brute > 0, bounds
        # With max_degree=2 every degree tuple of (1,1,2) meets a weight, so
        # its blocks are yielded with no degree left: they hold no spec, and
        # only the count sees them.
        last = replace(CONE_BOXES[-1], require_non_linear_cone=True)
        assert [(k, list(degrees)) for w, k, degrees in enumerate_specs(last)
                if w.entries == (1, 1, 2)] == [(1, []), (2, [])]
        assert all(s.weights.entries != (1, 1, 2) for s in specs_of(last))

    def test_blocks_drawn_later_keep_their_degrees(self):
        # Each block's degrees are a fresh one-shot iterator bound to its own
        # weights, so blocks gathered first and expanded later give the same
        # specs.
        for bounds in CONE_BOXES:
            for box in (bounds, replace(bounds, require_non_linear_cone=True)):
                blocks = list(enumerate_specs(box))
                late = [WCISpec(w, degs) for w, k, degrees in blocks
                        for degs in combinations_with_replacement(degrees, k)]
                assert late == specs_of(box), box
                assert all(list(degrees) == [] for _, _, degrees in blocks)

    def test_trusted_specs_equal_validated_ones(self):
        # enumerate_specs yields each block's Weights and degree tuple, and
        # the engine builds specs through WCISpec from the Weights and the
        # degrees of its rows; the rows are the blocks' specs in order, and
        # each built spec equals, and hashes like, the spec built from plain
        # sequences.
        for bounds in CONE_BOXES:
            for box in (bounds, replace(bounds, require_non_linear_cone=True)):
                for w, k, degrees in enumerate_specs(box):
                    assert type(w) is Weights and k >= 1
                rows = [(w, degs) for w, degs, *_ in wcikit.census._rows(box, None)]
                assert [(s.weights, s.degrees) for s in specs_of(box)] == rows
                for w, degs in rows:
                    spec, public = WCISpec(w, degs), WCISpec(tuple(w), list(degs))
                    assert spec == public and hash(spec) == hash(public), spec.key()
                    assert type(spec.degrees) is tuple and spec.codimension <= spec.weights.dim

    def test_max_degree_capped_at_the_entry_limit(self):
        box = TINY.to_json()
        with pytest.raises(ValueError, match="max_degree .* exceeds the 2\\^63-1 limit"):
            CensusBounds.from_json({**box, "max_degree": 2**63})
        assert CensusBounds.from_json({**box, "max_degree": 2**63 - 1}).max_degree == 2**63 - 1

    def test_dimensions_stop_at_the_weight_sum(self):
        # An ambient of dimension n has n + 1 weights, so its weight sum is at
        # least n + 1: the dimensions stop once that passes max_weight_sum,
        # however large max_n is.
        for box in (
            CensusBounds(max_n=6, max_weight=3, max_weight_sum=5, max_k=2, max_degree=4),
            CensusBounds(max_n=9, max_weight=1, max_weight_sum=4, max_k=3, max_degree=3),
        ):
            assert [s.key() for s in specs_of(box)] == independent_spec_keys(box), box
        huge = CensusBounds(max_n=10**9, max_weight=4, max_weight_sum=4, max_k=2, max_degree=3)
        blocks = [(w.entries, k) for w, k, _ in enumerate_specs(huge)]
        assert blocks == [(w.entries, k) for w, k, _ in enumerate_specs(replace(huge, max_n=3))]
        assert max(len(w) for w, _ in blocks) == 4

    def test_completeness_against_independent_counter(self):
        # The expanded blocks are the brute-force specs, in order, with and
        # without the cone filter.
        for bounds in (TINY, *CONE_BOXES):
            for box in (bounds, replace(bounds, require_non_linear_cone=True)):
                assert [s.key() for s in specs_of(box)] == independent_spec_keys(box), box


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
        # A profiler that re-yields enumerate_specs' blocks and drops its
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
        brute = sum(map(is_linear_cone, specs_of(CONE_BOXES[1])))
        assert expected[1].linear_cone_skipped == brute > 0

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

    def test_probe_without_a_usable_prime_leaves_the_verdict_null(self, tmp_path):
        # At p = 2 only the records whose weights and degrees are all odd can
        # be probed; the others keep a null verdict and are not counted.
        bounds = CensusBounds(max_n=5, max_weight=2, max_weight_sum=8, max_k=2, max_degree=3,
                              min_dim=3)
        budget = ProbeBudget(primes=(2,))
        records, summary = drain(run_census(bounds, budget))
        out = tmp_path / "c.jsonl"
        assert write_census(bounds, out, probe=budget) == summary
        written = [json.loads(line) for line in out.read_text().splitlines()]
        applicable = [r for r in records if r.report.theorem_status in (
            THEOREM_CONSISTENT, THEOREM_IMPLIES_NOT_QUASISMOOTH)]
        odd = {r.report.spec.key() for r in applicable
               if all(v % 2 for v in (*r.report.spec.weights, *r.report.spec.degrees))}
        unusable = [r for r in applicable if r.report.spec.key() not in odd]
        assert unusable and all(r.oracle_verdict is None for r in unusable)
        assert len(written) == len(records)
        assert all(w["oracle_verdict"] is None for w, r in zip(written, records) if r in unusable)
        probed = {r.report.spec.key() for r in records if r.oracle_verdict is not None}
        assert probed == odd and summary.probed == len(probed) > 0

    def test_probe_determinism(self):
        budget = ProbeBudget(primes=(5,), max_points=20_000)
        a = [r.to_json() for r in run_census(PROBED, budget)]
        b = [r.to_json() for r in run_census(PROBED, budget)]
        assert a == b


# The unfiltered box: linear cones, dims 0 to 5, 800 non-integral surfaces,
# degenerate containments.
UNFILTERED = CensusBounds(max_n=6, max_weight=4, max_weight_sum=12, max_k=3, max_degree=6)
# A small box with a Dimca mismatch, (1,1,4,6)/(2).
DIMCA = CensusBounds(max_n=3, max_weight=6, max_weight_sum=12, max_k=1, max_degree=2)


def assert_lines_are_the_records(tmp_path) -> set:
    """Census the unfiltered, probed and Dimca boxes with both sinks: every
    line ``write_census`` writes is the compact encoding of the record
    ``run_census`` yields for the same spec, and every record's report is
    ``classify`` of its spec.  Returns the facts the records covered."""
    seen = set()
    for bounds, budget, count in [
        (UNFILTERED, None, 6559),
        (PROBED, ProbeBudget(primes=(5,), max_points=20_000), 38),
        (DIMCA, None, 94),
    ]:
        records, summary = drain(run_census(bounds, budget))
        out = tmp_path / "c.jsonl"
        assert write_census(bounds, out, probe=budget) == summary
        lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) == len(records) == summary.total == count
        for line, rec in zip(lines, records):
            r = rec.report
            assert line == _encode_line(rec.to_json()) + "\n", r.spec.key()
            assert r == classify(r.spec), r.spec.key()
            seen.add(("dim", r.dim_X))
            seen.update(("flag", flag) for flag in r.flags)
            seen.add(("linear_cone", r.linear_cone))
            seen.add(("weak stratum", any(si.dimca_codim is None for si in r.strata)))
            seen.add(("denominator 1", r.canonical_self_intersection.denominator == 1))
            seen.add(("negative amplitude", r.amplitude < 0))
            seen.add(("witnesses", bool(rec.oracle_verdict and rec.oracle_verdict.witnesses)))
    return seen


class TestCensusLines:
    """``write_census`` writes each line from its key's entry, without the
    record; ``run_census`` builds the records.  A census box enumerates
    well-formed ambients and degrees up to ``max_degree`` only, so a
    non-well-formed ambient and a 63-bit degree are out of its reach; the
    analysis tests cover their reports."""

    def test_lines_are_the_compact_encoding_of_run_census_records(self, tmp_path):
        seen = assert_lines_are_the_records(tmp_path)
        assert seen >= {("dim", d) for d in range(6)}
        assert seen >= {
            ("flag", FLAG_DEGENERATE_CONTAINMENT), ("flag", FLAG_DIMCA_MISMATCH),
            ("flag", FLAG_NONINTEGRAL_SURFACE),
        }
        for fact in ("linear_cone", "weak stratum", "denominator 1", "negative amplitude",
                     "witnesses"):
            assert {(fact, True), (fact, False)} <= seen, fact

    def test_lines_with_the_entries_dropped_every_two_keys(self, tmp_path, monkeypatch):
        classified = []
        real = wcikit.census.classify

        def counting(spec):
            classified.append(spec)
            return real(spec)

        monkeypatch.setattr(wcikit.census, "classify", counting)
        # One classification per key: the box's 6,559 specs have 3,286.
        write_census(UNFILTERED, tmp_path / "c.jsonl")
        assert len(classified) == 3286
        monkeypatch.setattr(wcikit.census, "PATTERN_CACHE_SIZE", 2)
        classified.clear()
        write_census(UNFILTERED, tmp_path / "c.jsonl")
        assert len(classified) > 5000
        assert_lines_are_the_records(tmp_path)


    def test_run_census_classifies_once_per_key(self, tmp_path, monkeypatch):
        # run_census builds each record from its key's entry, as write_census
        # writes each line from it, so both classify one spec per key.
        classified = []
        real = wcikit.census.classify

        def counting(spec):
            classified.append(spec)
            return real(spec)

        monkeypatch.setattr(wcikit.census, "classify", counting)
        records, summary = drain(run_census(UNFILTERED))
        assert len(records) == summary.total == 6559
        by_run_census, classified[:] = len(classified), []
        write_census(UNFILTERED, tmp_path / "c.jsonl")
        assert by_run_census == len(classified) == 3286

    def test_unfiltered_box_bytes_pinned(self, tmp_path):
        # The only box whose keys vary in the linear-cone bit and the
        # non-integral-surface bit; a key without either merges records that
        # differ in their status or flags.
        out = tmp_path / "c.jsonl"
        assert write_census(UNFILTERED, out).total == 6559
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "6c3e52dd39743c0c16decd12d6b4481b96a252c447e0575acd84f0835044f1c6"
        )
        assert hashlib.sha256((tmp_path / "c.jsonl.summary.json").read_bytes()).hexdigest() == (
            "c96b494715863537632bc6f7a0fe4c3b5076a604399b956348abc5b7c504645c"
        )


class TestPersistence:
    def test_jsonl_byte_identical(self, tmp_path):
        bounds = CensusBounds(max_n=4, max_weight=3, max_weight_sum=8, max_k=2, max_degree=3)
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            write_census(bounds, out)
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_record_lines_parse_and_schema(self, tmp_path):
        out = tmp_path / "c.jsonl"
        summary = write_census(TINY, out)
        assert summary == drain(run_census(TINY))[1]
        lines = out.read_text().splitlines()
        assert len(lines) == summary.total
        for line in lines:
            obj = json.loads(line)
            assert set(obj) == {"report", "oracle_verdict"}
        sidecar = json.loads((tmp_path / "c.jsonl.summary.json").read_text())
        assert sidecar["total"] == summary.total

    def test_refuses_a_record_stream_before_opening_the_output(self, tmp_path):
        # write_census takes the bounds; a run_census generator, which it
        # took before, is refused before the output is opened.
        out = tmp_path / "c.jsonl"
        with pytest.raises(TypeError, match="CensusBounds"):
            write_census(run_census(TINY), out)
        assert not out.exists()

    def test_io_failure_propagates(self, tmp_path):
        with pytest.raises(OSError):
            write_census(TINY, tmp_path / "missing" / "c.jsonl")

    def test_interrupt_leaves_partial_jsonl_and_marker(self, tmp_path, monkeypatch):
        # The engine keys each record by one _analysis call; the fourth is
        # interrupted, after three records.
        real = wcikit.census._analysis
        calls = []

        def interrupted(*args):
            calls.append(args)
            if len(calls) > 3:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(wcikit.census, "_analysis", interrupted)

        out = tmp_path / "c.jsonl"
        sidecar = tmp_path / "c.jsonl.summary.json"
        sidecar.write_text('{"total": 6}\n')
        with pytest.raises(KeyboardInterrupt):
            write_census(TINY, out)
        assert len(out.read_text().splitlines()) == 3
        assert json.loads(sidecar.read_text()) == {
            "status": "aborted_partial_output", "error": "KeyboardInterrupt",
        }

    def test_integers_beyond_the_str_digit_limit_written_exactly(self, tmp_path):
        # The box holds X_1 and X_2 in P^2999, whose self-intersection
        # numerators have 10,424 digits, past the interpreter's default
        # int-to-text limit: they are written exactly and parse back equal,
        # and the limit is restored.
        bounds = CensusBounds(max_n=2999, max_weight=1, max_weight_sum=3000, max_k=1,
                              max_degree=2, min_dim=2998)
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        out = tmp_path / "c.jsonl"
        assert write_census(bounds, out).total == 2
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        with exact_ints():
            lines = [json.loads(line) for line in out.read_text().splitlines()]
        records, _ = drain(run_census(bounds))
        for line, rec in zip(lines, records, strict=True):
            expected = classify(rec.report.spec).canonical_self_intersection
            assert abs(expected.numerator) > 10**4300
            assert line["report"]["canonical_self_intersection"] == {
                "num": expected.numerator, "den": expected.denominator,
            }

    def test_streams_without_holding_the_records(self, tmp_path):
        # The peak stays a small fraction of the JSONL because each record is
        # written and dropped as it is classified; a census kept as a list
        # peaks above the size of its file.
        bounds = CensusBounds(max_n=8, max_weight=6, max_weight_sum=12, max_k=2, max_degree=8)
        out = tmp_path / "c.jsonl"
        tracemalloc.start()
        try:
            summary = write_census(bounds, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        assert summary.total == len(out.read_bytes().splitlines())
        assert peak < size / 4, (peak, size)

    def test_memory_flat_in_max_degree(self, tmp_path):
        # A codimension-1 block streams its degrees and records, so twenty
        # times the degrees peak no higher; holding one record per degree
        # would add about 2 MB here.
        def peak(max_degree):
            bounds = CensusBounds(max_n=1, max_weight=1, max_weight_sum=2, max_k=1,
                                  max_degree=max_degree)
            tracemalloc.start()
            try:
                assert write_census(bounds, tmp_path / "c.jsonl").total == max_degree
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(1_000), peak(20_000)
        assert large - small < 500_000, (small, large)
