"""Tests for parameter-space enumeration, classification, and persistence."""

import json
import tracemalloc
from itertools import combinations_with_replacement

import pytest

from wcikit import (
    CensusBounds,
    ProbeBudget,
    enumerate_specs,
    is_linear_cone,
    is_well_formed_space,
    run_census,
    write_census,
)
from wcikit.census import _ascending_tuples

TINY = CensusBounds(max_n=2, max_weight=2, max_weight_sum=4, max_k=1, max_degree=2)


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

    def test_summary_partition(self):
        bounds = CensusBounds(max_n=4, max_weight=3, max_weight_sum=9, max_k=2, max_degree=4)
        records, summary = drain(run_census(bounds))
        assert summary.total == len(records)
        assert summary.well_formed + summary.weakly_only + summary.neither == summary.total

    def test_probe_attaches_verdicts(self):
        bounds = CensusBounds(
            max_n=5, max_weight=2, max_weight_sum=11, max_k=2, max_degree=4,
            require_non_linear_cone=True, min_dim=3,
        )
        records, summary = drain(run_census(bounds, ProbeBudget(primes=(5,), max_points=20_000)))
        probed = [r for r in records if r.oracle_verdict is not None]
        assert summary.probed == len(probed) > 0
        for rec in probed:
            assert rec.oracle_verdict.status in ("no_witness_found", "singular_witness")

    def test_probe_determinism(self):
        bounds = CensusBounds(
            max_n=5, max_weight=2, max_weight_sum=11, max_k=2, max_degree=4,
            require_non_linear_cone=True, min_dim=3,
        )
        budget = ProbeBudget(primes=(5,), max_points=20_000)
        a = [r.to_json() for r in run_census(bounds, budget)]
        b = [r.to_json() for r in run_census(bounds, budget)]
        assert a == b


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
