"""End-to-end tests of the command-line interface."""

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import wcikit
import wcikit.census
from wcikit.analysis import WCISpec, classify
from wcikit.census import CensusBounds, run_census
from wcikit.cli import _emit, main
from wcikit.jsonout import _BATCH, exact_ints
from wcikit.oracle import DEFAULT_PRIMES, quasi_smooth_probe, wf_witness_search
from wcikit.poly import GF, QQ, PolySystem, parse_poly
from wcikit.weights import Stratum, Weights, singular_strata, well_form


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestAnalyze:
    def test_surface_fixture(self, capsys):
        data = run_json(capsys, "analyze", "1,1,2,2,2", "--degrees", "3,4")
        assert data["well_formed"] is False
        assert data["weakly_well_formed"] is True
        assert data["canonical_self_intersection"] == {"num": 3, "den": 2}

    def test_line_on_cone(self, capsys):
        data = run_json(capsys, "analyze", "1,1,2", "--degrees", "1")
        assert data["linear_cone"] is True
        assert data["weakly_well_formed"] is False

    def test_codimension_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "1,1", "--degrees", "3,4,5")
        assert code == 2 and "codimension" in err

    def test_bad_weights_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "1,x", "--degrees", "2")
        assert code == 2

    def test_integers_beyond_the_str_digit_limit_written_exactly(self, capsys):
        # The quadric in P^2999 has a self-intersection numerator of 10,424
        # digits, past the interpreter's default int-to-text limit; it is
        # written exactly and parses back equal, and the limit is restored.
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run_cli(capsys, "analyze", ",".join(["1"] * 3000), "--degrees", "2")
        assert code == 0, err
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        with exact_ints():
            data = json.loads(out)
        expected = classify(WCISpec((1,) * 3000, (2,))).canonical_self_intersection
        assert abs(expected.numerator) > 10**4300
        assert data["canonical_self_intersection"] == {
            "num": expected.numerator, "den": expected.denominator,
        }
        # Parsing an input keeps the limit.
        code, _, err = run_cli(capsys, "analyze", "1,1", "--degrees", "9" * 5000)
        assert code == 2 and "cannot parse degrees" in err

    def test_output_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(
            capsys, "analyze", "1,1,2,2,2", "--degrees", "3,4", "--output", str(out)
        )
        assert code == 0 and stdout == ""
        assert json.loads(out.read_text())["dim_X"] == 2


class TestWellform:
    def test_example(self, capsys):
        data = run_json(capsys, "wellform", "1,2,2")
        assert data["weights"] == "1,1,1"
        assert data["trace"] == [{"kind": "excluded-index", "index": 0, "divisor": 2}]

    def test_identity_trace(self, capsys):
        data = run_json(capsys, "wellform", "1,1")
        assert data["weights"] == "1,1" and data["trace"] == []

    def test_overall_gcd(self, capsys):
        assert run_json(capsys, "wellform", "4,6,10")["weights"] == "2,3,5"


class TestStrata:
    def test_maximal(self, capsys):
        data = run_json(capsys, "strata", "1,1,2,2,2")
        assert data["strata"] == [{"indices": [2, 3, 4], "delta": 2, "dim": 2}]

    def test_all_mode(self, capsys):
        data = run_json(capsys, "strata", "1,2,3", "--all")
        assert len(data["strata"]) == 2

    def test_sweep_bound(self, capsys):
        # The 39 twos are one orbit type, so --all lists one stratum; the weak
        # check of analyze still sweeps index subsets, and refuses.
        w40 = ",".join(["1", "1"] + ["2"] * 39)
        data = run_json(capsys, "strata", w40, "--all")
        assert data["strata"] == [{"indices": list(range(2, 41)), "delta": 2, "dim": 38}]
        code, out, err = run_cli(capsys, "strata", "1,1," + ",".join(map(str, range(2, 43, 2))), "--all")
        assert code == 2 and out == "" and "2097304 weight-value sets, more than 1048576" in err
        code, out, err = run_cli(capsys, "analyze", w40, "--degrees", ",".join(["3"] * 20))
        assert code == 2 and out == "" and "68923264410 index subsets" in err

    def test_analyze_sweep_refusal_names_no_strata_flag(self, capsys):
        # analyze's refusal is its own: it names no strata flag.
        w41 = ",".join(["1", "1"] + ["2"] * 39)
        code, out, err = run_cli(capsys, "analyze", w41, "--degrees", ",".join(["3"] * 20))
        assert code == 2 and out == ""
        assert "68923264410 index subsets, more than 1048576" in err
        assert "--max-size" not in err and "strata" not in err

    def test_non_well_formed_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "strata", "1,2,2")
        assert code == 2 and "well-formed" in err

    def test_bad_max_size_exits_2(self, capsys):
        # strata has no --max-size: argparse refuses it, with or without --all.
        for argv in (("--all", "--max-size", "1"), ("--all", "--max-size", "0"), ("--max-size", "2")):
            code, out, err = run_cli(capsys, "strata", "1,1,2", *argv)
            assert code == 2 and out == "" and "unrecognized arguments: --max-size" in err, argv


class TestWitness:
    def test_family_fixture(self, capsys):
        data = run_json(
            capsys, "witness", "1,1,2,2,2,2", "--degrees", "3,4",
            "--stratum", "2,3,4,5", "--prime", "7", "--seed", "1",
        )
        assert data["status"] == "searched"
        assert data["r"] == 1 and data["S_points"]

    def test_default_stratum(self, capsys):
        data = run_json(
            capsys, "witness", "1,1,2,2,2,2", "--degrees", "3,4", "--prime", "5",
        )
        assert data["stratum"]["indices"] == [2, 3, 4, 5]

    def test_linear_cone_escape(self, capsys):
        data = run_json(
            capsys, "witness", "1,1,2", "--degrees", "1", "--stratum", "2", "--prime", "5",
        )
        assert data["linear_cone_escape"] is True and data["origin_in_Z"] is False

    def test_bad_stratum_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "witness", "1,1,2", "--degrees", "1", "--stratum", "9", "--prime", "5",
        )
        assert code == 2

    def test_non_singular_stratum_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "witness", "1,1,2", "--degrees", "1", "--stratum", "0,1", "--prime", "5",
        )
        assert code == 2 and "singular" in err

    def test_smooth_ambient_without_stratum_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "witness", "1,1,1", "--degrees", "2", "--prime", "5")
        assert code == 2 and out == ""
        assert err == "error: the ambient space is smooth; no singular stratum to search\n"

    def test_poly_file(self, capsys, tmp_path):
        poly_file = tmp_path / "sys.txt"
        poly_file.write_text("x0*x1\n")
        data = run_json(
            capsys, "probe", "1,1,1", "--degrees", "2",
            "--poly-file", str(poly_file), "--primes", "5",
        )
        assert data["status"] == "singular_witness"

    def test_poly_file_error_names_its_line(self, capsys, tmp_path):
        # Lines count from 1, blank and comment lines included, and the
        # position is within the line.
        poly_file = tmp_path / "sys.txt"
        for text, expected in (
            ("# a pair\nx0^2 @ x1\n", "line 2: unexpected character '@' (at position 5)"),
            ("x0*x1\n\n  x0 + \n", "line 3: expected a variable or integer (at position 7)"),
            ("x0^2\n\n#\nx0 + x1^2\n",
             "line 4: mixed weighted degrees: x0 has degree 1 but x1^2 has degree 2"),
            # Only newlines end a line; a form feed is whitespace.
            ("x0*x1\f\r\nx2^2\f+ @\n", "line 2: unexpected character '@' (at position 7)"),
        ):
            poly_file.write_text(text)
            code, out, err = run_cli(
                capsys, "probe", "1,1,1", "--degrees", "2",
                "--poly-file", str(poly_file), "--primes", "5",
            )
            assert (code, out, err) == (2, "", f"error: {expected}\n")

    def test_poly_file_literal_past_the_digit_limit_exits_2(self, capsys, tmp_path):
        poly_file = tmp_path / "sys.txt"
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for text, position in (("1" * 5000 + "*x0^2", 0), ("x0^" + "1" * 5000, 3)):
                poly_file.write_text(text + "\n")
                code, out, err = run_cli(
                    capsys, "probe", "1,1,1", "--degrees", "2",
                    "--poly-file", str(poly_file), "--primes", "5",
                )
                assert (code, out) == (2, "")
                assert err == (
                    "error: line 1: integer literal of 5000 digits exceeds the limit of 4300"
                    f" digits (sys.get_int_max_str_digits()) (at position {position})\n"
                )
        finally:
            sys.set_int_max_str_digits(limit)

    def test_poly_file_degree_mismatch_exits_2(self, capsys, tmp_path):
        poly_file = tmp_path / "sys.txt"
        poly_file.write_text("x0^3\n")
        code, _, err = run_cli(
            capsys, "witness", "1,1,2", "--degrees", "2",
            "--poly-file", str(poly_file), "--prime", "5",
        )
        assert code == 2 and "degrees" in err


class TestProbe:
    def test_fermat(self, capsys, tmp_path):
        poly_file = tmp_path / "fermat.txt"
        poly_file.write_text("x0^3 + x1^3 + x2^3 + x3^3\n")
        data = run_json(
            capsys, "probe", "1,1,1,1", "--degrees", "3",
            "--poly-file", str(poly_file), "--primes", "5,7",
        )
        assert data["status"] == "no_witness_found"
        assert data["fields_probed"] == [5, 7] and data["exhaustive"] is True

    def test_poly_file_multi_prime_equals_one_call(self, capsys, tmp_path):
        # A rank-3 quadric cone in P^3 is singular at (0:0:0:1); GF(3)^4 and
        # GF(5)^4 (orbit slices of 40 and 156 points) are scanned
        # exhaustively, GF(7)^4 (400 points) is sampled.
        poly_file = tmp_path / "cone.txt"
        poly_file.write_text("x0*x1 + x2^2\n")
        data = run_json(
            capsys, "probe", "1,1,1,1", "--degrees", "2", "--poly-file", str(poly_file),
            "--primes", "3,5,7", "--max-points", "200", "--sample-count", "500", "--seed", "4",
        )
        system = PolySystem((parse_poly("x0*x1 + x2^2", (1, 1, 1, 1), QQ),))
        expected = quasi_smooth_probe(system, (3, 5, 7), 200, sample_count=500, seed=4)
        assert {p for p, _ in expected.witnesses} == {3, 5, 7} and not expected.exhaustive
        assert data == expected.to_json()

    def test_generic_member_beyond_term_bound_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "probe", "1,1", "--degrees", "1000001", "--primes", "3")
        assert code == 2 and out == "" and "monomial-enumeration steps" in err

    def test_huge_exponents_finish_at_once(self, tmp_path):
        # Exponents are reduced mod p-1, so the power table has one column
        # per distinct reduced exponent whatever the degree; with full
        # exponents it had p*10^9 entries.  A child process under a 1 GB
        # address-space limit fails fast instead if that comes back.
        point = {3: [[1, 0], [2, 0]], 5: [[t, 0] for t in range(1, 5)]}
        for poly, expected in (
            ("x0^1000000001 + x1^1000000001", {3: [], 5: []}),
            ("x0*x1^1000000000", point),
        ):
            poly_file = tmp_path / "huge.txt"
            poly_file.write_text(poly + "\n")
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            child = subprocess.run(
                [sys.executable, "-m", "wcikit", "probe", "1,1", "--degrees", "1000000001",
                 "--poly-file", str(poly_file), "--primes", "3,5"],
                capture_output=True, text=True, timeout=20,
                env={**os.environ, "PYTHONPATH": str(Path(wcikit.__file__).parents[1])},
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
            )
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            assert child.returncode == 0, child.stderr
            cpu_s = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
            assert cpu_s < 1.0, (poly, cpu_s)
            data = json.loads(child.stdout)
            witnesses = {p: [w["point"] for w in data["witnesses"] if w["prime"] == p] for p in (3, 5)}
            assert witnesses == expected, poly
            assert data["status"] == ("singular_witness" if expected[3] else "no_witness_found")
            assert data["fields_probed"] == [3, 5] and data["exhaustive"] is True

    def test_generic_seeded(self, capsys):
        data = run_json(
            capsys, "probe", "1,1,2,2,2,2", "--degrees", "3,4",
            "--primes", "5", "--seed", "2",
        )
        assert data["status"] == "singular_witness"

    def test_generic_default_primes(self, capsys):
        # One generic member per field, joined in prime order as one call reports.
        joined = run_json(capsys, "probe", "1,1,1,1", "--degrees", "4")
        single = [
            run_json(capsys, "probe", "1,1,1,1", "--degrees", "4", "--primes", str(p))
            for p in DEFAULT_PRIMES
        ]
        witnesses = [w for v in single for w in v["witnesses"]]
        assert joined == {
            "status": "singular_witness" if witnesses else "no_witness_found",
            "witnesses": witnesses,
            "fields_probed": list(DEFAULT_PRIMES),
            "points_scanned": sum(v["points_scanned"] for v in single),
            "exhaustive": True,
        }
        assert [w["prime"] for w in witnesses] == sorted(w["prime"] for w in witnesses)

    def test_generic_drops_bad_primes_first(self, capsys):
        # 3 divides the degree 3, so only GF(5) and GF(7) are drawn and probed.
        data = run_json(capsys, "probe", "1,1,2,2,2", "--degrees", "3,4", "--primes", "3,5,7")
        assert data["fields_probed"] == [5, 7] and data["exhaustive"] is True

    def test_generic_single_prime_unchanged(self, capsys):
        data = run_json(
            capsys, "probe", "1,1,2,2,2,2", "--degrees", "3,4", "--primes", "5", "--seed", "2",
        )
        system = PolySystem.generic((1, 1, 2, 2, 2, 2), (3, 4), GF(5), 2)
        assert data == quasi_smooth_probe(system, [5], seed=2).to_json()

    def test_bad_prime_exits_2(self, capsys, tmp_path):
        poly_file = tmp_path / "sys.txt"
        poly_file.write_text("x0*x1\n")
        for extra in ((), ("--poly-file", str(poly_file))):
            code, _, err = run_cli(
                capsys, "probe", "1,1,1", "--degrees", "2", "--primes", "0,5", *extra,
            )
            assert code == 2 and "not a prime" in err

    def test_budget_below_one_exits_2(self, capsys):
        for flag, value in (("--sample-count", "-3"), ("--sample-count", "0"), ("--max-points", "0")):
            code, out, err = run_cli(
                capsys, "probe", "1,1,1,1,1,1,1", "--degrees", "3", "--primes", "5",
                "--max-points", "100", flag, value,
            )
            assert code == 2 and out == "" and "must be at least 1" in err, (flag, value)

    def test_all_primes_bad_exits_2(self, capsys):
        # The refusal names the flag that keeps the primes, not the API's keyword.
        for argv in (("1,1,1,1", "--degrees", "3", "--primes", "3", "--seed", "1"),
                     ("1,1", "--degrees", "2", "--primes", "2")):
            code, _, err = run_cli(capsys, "probe", *argv)
            assert code == 2 and "pass --allow-bad-primes to probe" in err, argv
            assert "allow_bad_primes" not in err, argv


class TestCensus:
    def test_small_run(self, capsys, tmp_path):
        out = tmp_path / "census.jsonl"
        code, stdout, _ = run_cli(
            capsys, "census", "--max-n", "4", "--max-weight", "2",
            "--max-weight-sum", "9", "--max-k", "2", "--max-degree", "4",
            "--output", str(out),
        )
        assert code == 0
        summary = json.loads(stdout)
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert summary["total"] == len(lines)
        keys = {
            "{}/{}".format(
                ",".join(map(str, rec["report"]["spec"]["weights"])),
                ",".join(map(str, rec["report"]["spec"]["degrees"])),
            )
            for rec in lines
        }
        assert "1,1,2,2,2/3,4" in keys
        assert (tmp_path / "census.jsonl.summary.json").exists()

    def test_missing_output_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "census", "--max-n", "2", "--max-weight", "2",
            "--max-weight-sum", "4", "--max-k", "1", "--max-degree", "2",
        )
        assert code == 2 and out == ""
        assert err == "error: census needs --output PATH for the JSONL records\n"

    def test_config_array_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bounds.json"
        cfg.write_text(json.dumps([2, 2, 4, 1, 2]))
        out = tmp_path / "census.jsonl"
        code, stdout, err = run_cli(capsys, "census", "--config", str(cfg), "--output", str(out))
        assert code == 2 and stdout == ""
        assert err == "error: census config must be a JSON object\n"
        assert not out.exists()

    def test_config_not_json_exits_2_naming_the_file(self, capsys, tmp_path):
        cfg = tmp_path / "bounds.json"
        cfg.write_text("max_n = 2\n")
        out = tmp_path / "census.jsonl"
        code, stdout, err = run_cli(capsys, "census", "--config", str(cfg), "--output", str(out))
        assert code == 2 and stdout == ""
        assert err == f"error: census config {cfg} is not valid JSON: Expecting value: line 1 column 1 (char 0)\n"
        assert not out.exists()

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "bounds.json"
        cfg.write_text(json.dumps({
            "max_n": 2, "max_weight": 2, "max_weight_sum": 4,
            "max_k": 1, "max_degree": 2,
        }))
        out = tmp_path / "census.jsonl"
        code, stdout, _ = run_cli(capsys, "census", "--config", str(cfg), "--output", str(out))
        assert code == 0
        assert json.loads(stdout)["total"] == 6

    def test_config_with_a_non_bool_flag_or_a_bool_dim_exits_2(self, capsys, tmp_path):
        box = {"max_n": 2, "max_weight": 2, "max_weight_sum": 4, "max_k": 1, "max_degree": 2}
        out = tmp_path / "census.jsonl"
        cfg = tmp_path / "bounds.json"
        for extra, message in (
            ({"require_non_linear_cone": "no"}, "require_non_linear_cone must be true or false"),
            ({"require_non_linear_cone": 1}, "require_non_linear_cone must be true or false"),
            ({"min_dim": True}, "min_dim must be a non-negative integer"),
        ):
            cfg.write_text(json.dumps({**box, **extra}))
            code, _, err = run_cli(capsys, "census", "--config", str(cfg), "--output", str(out))
            assert code == 2 and message in err, (extra, err)
            assert not out.exists()
        for extra, total in (({"require_non_linear_cone": False}, 6),
                             ({"require_non_linear_cone": True}, 2), ({"min_dim": 1}, 4)):
            cfg.write_text(json.dumps({**box, **extra}))
            code, stdout, err = run_cli(capsys, "census", "--config", str(cfg), "--output", str(out))
            assert code == 0, err
            assert json.loads(stdout)["total"] == total, extra

    def test_empty_bounds(self, capsys, tmp_path):
        out = tmp_path / "census.jsonl"
        code, stdout, _ = run_cli(
            capsys, "census", "--max-n", "3", "--max-weight", "4",
            "--max-weight-sum", "8", "--max-k", "2", "--max-degree", "4",
            "--min-dim", "3", "--output", str(out),
        )
        assert code == 0
        assert out.read_text() == ""
        assert json.loads(stdout)["total"] == 0

    def test_unwritable_output_exits_2(self, capsys, tmp_path, monkeypatch):
        classified = []

        def no_classify(spec):
            classified.append(spec)
            raise AssertionError("a spec was classified")

        monkeypatch.setattr("wcikit.census.classify", no_classify)
        bounds = ("--max-n", "13", "--max-weight", "8", "--max-weight-sum", "10",
                  "--max-k", "3", "--max-degree", "10")
        directory = tmp_path / "out"
        directory.mkdir()
        for output in (tmp_path / "no" / "dir" / "x.jsonl", directory):
            code, out, _ = run_cli(
                capsys, "census", *bounds, "--output", str(output),
                "--summary", str(tmp_path / "s.json"),
            )
            assert code == 2 and out == "", output
        assert classified == []
        assert json.loads((tmp_path / "s.json").read_text())["status"] == "aborted_partial_output"

    def test_failure_mid_stream_leaves_partial_jsonl_and_marker(self, capsys, tmp_path, monkeypatch):
        real_classify, seen = wcikit.census.classify, []

        def failing_classify(spec):
            seen.append(spec)
            if len(seen) == 4:
                raise ValueError("classification failed")
            return real_classify(spec)

        bounds = ("--max-n", "2", "--max-weight", "2", "--max-weight-sum", "4",
                  "--max-k", "1", "--max-degree", "2")
        out = tmp_path / "c.jsonl"
        sidecar = tmp_path / "c.jsonl.summary.json"
        assert run_cli(capsys, "census", *bounds, "--output", str(out))[0] == 0
        assert json.loads(sidecar.read_text())["total"] == 6
        monkeypatch.setattr("wcikit.census.classify", failing_classify)
        code, stdout, err = run_cli(capsys, "census", *bounds, "--output", str(out))
        assert code == 2 and stdout == "" and "classification failed" in err
        assert len(out.read_text().splitlines()) == 3
        assert json.loads(sidecar.read_text()) == {
            "status": "aborted_partial_output", "error": "classification failed",
        }

    def test_probed_census_bytes_pinned(self, capsys, tmp_path):
        # Unlike the benchmark pin, which hashes only the reports, this pins
        # every byte of the probed records: witness lists (each field's first
        # singular orbit), points scanned.
        out = tmp_path / "c.jsonl"
        code, stdout, _ = run_cli(
            capsys, "census", "--max-n", "5", "--max-weight", "2", "--max-weight-sum", "11",
            "--max-k", "2", "--max-degree", "4", "--min-dim", "3", "--non-linear-cone",
            "--probe", "--probe-primes", "5", "--probe-max-points", "20000",
            "--probe-seed", "1", "--output", str(out),
        )
        assert code == 0
        summary = "6f19ceb24923d3d36c16f4c772d94081cc3ab4f96586582f6c158f19d0b718d8"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "d5f8946b887abe14f4e6dbef4133fa7db7df7d0e0ea11a7b825658276f949cc6"
        )
        assert hashlib.sha256(stdout.encode()).hexdigest() == summary
        assert hashlib.sha256((tmp_path / "c.jsonl.summary.json").read_bytes()).hexdigest() == summary
        assert len(out.read_text().splitlines()) == json.loads(stdout)["total"] == 38

    def test_bad_probe_primes_exit_2_before_classifying(self, capsys, tmp_path, monkeypatch):
        def no_census(*args, **kwargs):
            raise AssertionError("the census ran")

        monkeypatch.setattr("wcikit.census.enumerate_specs", no_census)
        for primes in ("0", "1", "4", "5,4"):
            code, _, err = run_cli(
                capsys, "census", "--max-n", "5", "--max-weight", "2",
                "--max-weight-sum", "11", "--max-k", "2", "--max-degree", "4",
                "--probe", "--probe-primes", primes, "--output", str(tmp_path / "c.jsonl"),
            )
            assert code == 2 and "not a prime below 2^16" in err, (primes, err)

    def test_bad_probe_budget_exits_2_before_classifying(self, capsys, tmp_path, monkeypatch):
        def no_census(*args, **kwargs):
            raise AssertionError("the census ran")

        monkeypatch.setattr("wcikit.census.enumerate_specs", no_census)
        for points in ("0", "-5"):
            code, _, err = run_cli(
                capsys, "census", "--max-n", "5", "--max-weight", "2",
                "--max-weight-sum", "11", "--max-k", "2", "--max-degree", "4",
                "--probe", "--probe-max-points", points, "--output", str(tmp_path / "c.jsonl"),
            )
            assert code == 2 and "max_points must be at least 1" in err, (points, err)

    def test_special_output_needs_summary_before_classifying(self, capsys, tmp_path, monkeypatch):
        def no_census(*args, **kwargs):
            raise AssertionError("the census ran")

        monkeypatch.setattr("wcikit.census.enumerate_specs", no_census)
        bounds = ("--max-n", "2", "--max-weight", "2", "--max-weight-sum", "4",
                  "--max-k", "1", "--max-degree", "2")
        for output in (os.devnull, str(tmp_path)):
            code, out, err = run_cli(capsys, "census", *bounds, "--output", output)
            assert code == 2 and out == "" and "--summary" in err, (output, err)
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        code, out, _ = run_cli(
            capsys, "census", *bounds, "--output", os.devnull, "--summary", str(tmp_path / "s.json"),
        )
        assert code == 0 and json.loads(out)["total"] == 6
        assert json.loads((tmp_path / "s.json").read_text())["total"] == 6

    def test_summary_naming_the_output_is_refused_before_classifying(self, capsys, tmp_path, monkeypatch):
        bounds = ("--max-n", "2", "--max-weight", "2", "--max-weight-sum", "4",
                  "--max-k", "1", "--max-degree", "2")
        out = tmp_path / "c.jsonl"
        code, _, err = run_cli(capsys, "census", *bounds, "--output", str(out), "--summary", str(out))
        assert code == 2 and "one file" in err, err
        assert not out.exists()
        assert run_cli(capsys, "census", *bounds, "--output", str(out), "--summary", str(tmp_path / "s"))[0] == 0
        records = out.read_bytes()
        assert len(records.splitlines()) == 6
        os.link(out, tmp_path / "hard.jsonl")
        os.symlink(out, tmp_path / "soft.jsonl")

        def no_classify(spec):
            raise AssertionError("a spec was classified")

        monkeypatch.setattr("wcikit.census.classify", no_classify)
        for summary in (out, tmp_path / "sub" / ".." / "c.jsonl", tmp_path / "hard.jsonl",
                        tmp_path / "soft.jsonl"):
            code, stdout, err = run_cli(
                capsys, "census", *bounds, "--output", str(out), "--summary", str(summary),
            )
            assert code == 2 and stdout == "" and "one file" in err, (summary, err)
            assert out.read_bytes() == records
        monkeypatch.undo()
        code, stdout, _ = run_cli(
            capsys, "census", *bounds, "--output", os.devnull, "--summary", os.devnull,
        )
        assert code == 0 and json.loads(stdout)["total"] == 6

    def test_verbose_progress_notes(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "census", "--max-n", "2", "--max-weight", "2",
            "--max-weight-sum", "4", "--max-k", "1", "--max-degree", "2",
            "--output", str(tmp_path / "c.jsonl"), "--verbose",
        )
        assert code == 0 and "census bounds" in err and "wrote 6 records" in err

    def test_missing_bounds_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "census", "--max-n", "2", "--output", "/tmp/x.jsonl")
        assert code == 2 and "missing census bounds" in err


class TestHarness:
    def test_missing_subcommand_exits_2(self, capsys):
        assert run_cli(capsys, )[0] == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert run_cli(capsys, "analyze", "1,1", "--bogus")[0] == 2

    def test_verbose_only_on_census(self, capsys):
        for argv in (
            ("analyze", "1,1,2,2,2", "--degrees", "3,4"),
            ("wellform", "4,6,10"),
            ("strata", "1,1,2,2,2"),
            ("witness", "1,1,2,2,2,2", "--degrees", "3,4", "--prime", "5"),
            ("probe", "1,1,1,1", "--degrees", "3", "--primes", "5"),
        ):
            code, _, err = run_cli(capsys, *argv, "--verbose")
            assert code == 2 and "--verbose" in err, argv

    def test_internal_error_without_text_names_its_type(self, capsys, monkeypatch):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(wcikit.cli, "cmd_analyze", exhausted)
        code, out, err = run_cli(capsys, "analyze", "1,1,2,2,2", "--degrees", "3,4")
        assert (code, out, err) == (3, "", "internal error: MemoryError\n")

    def test_version(self, capsys):
        code, out, err = run_cli(capsys, "--version")
        assert code == 0 and "wcikit" in out + err

    def test_json_roundtrip_all_subcommands(self, capsys, tmp_path):
        poly_file = tmp_path / "f.txt"
        poly_file.write_text("x0*x1\n")
        out = tmp_path / "c.jsonl"
        calls = [
            ("analyze", "1,1,2,2,2", "--degrees", "3,4"),
            ("wellform", "4,6,10"),
            ("strata", "1,1,2,2,2"),
            ("witness", "1,1,2,2,2,2", "--degrees", "3,4", "--prime", "5"),
            ("probe", "1,1,1", "--degrees", "2", "--poly-file", str(poly_file), "--primes", "5"),
        ]
        for argv in calls:
            data = run_json(capsys, *argv)
            assert isinstance(data, dict)
        code, stdout, _ = run_cli(
            capsys, "census", "--max-n", "2", "--max-weight", "2",
            "--max-weight-sum", "4", "--max-k", "1", "--max-degree", "2",
            "--output", str(out),
        )
        assert code == 0 and isinstance(json.loads(stdout), dict)

    def test_every_document_matches_the_stdlib_encoder(self, capsys, tmp_path):
        def emitted(*argv):
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, err
            return out

        def indented(obj):
            return json.dumps(obj, indent=2) + "\n"

        def written(*argv):
            out = tmp_path / "written.json"
            assert emitted(*argv, "--output", str(out)) == ""
            return out.read_text(encoding="utf-8")

        # Every leaf case of a strata row: covering strata cut and contained,
        # with int and bool Dimca fields, weak strata with null ones, no
        # strata (an ambient that is not well formed, a smooth one), more
        # strata than a write batch, and the quadric in P^2999, whose
        # integers pass the 4,300-digit limit.
        strata, counts = [], []
        for weights, degrees in (
            ("1,1,2,2,2", (3, 4)),
            ("1,6,10,15", (9223372036854775807,)),
            ("2,2,3", (6,)),
            ("1,1,2,4,6", (2, 3)),
            ("1,1," + ",".join(["2"] * 13), (3,) * 7),
            (",".join(["1"] * 3000), (2,)),
        ):
            report = classify(WCISpec(Weights.parse(weights), degrees))
            strata.extend(report.strata)
            counts.append(len(report.strata))
            with exact_ints():
                expected = indented(report.to_json())
            argv = ("analyze", weights, "--degrees", ",".join(map(str, degrees)))
            assert emitted(*argv) == expected
            assert written(*argv) == expected
        assert {(si.dimca_codim is None, si.dimca_agrees is None, bool(si.cutting_degrees))
                for si in strata} == {(False, False, False), (False, False, True), (True, True, False)}
        assert 0 in counts and max(counts) > _BATCH
        start = Weights.parse("4,6,10")
        result, trace = well_form(start)
        assert trace.steps
        assert emitted("wellform", "4,6,10") == indented(
            {"input": start.to_json(), "weights": str(result),
             "entries": result.to_json(), "trace": trace.to_json()}
        )
        for weights, flags in (("1,1,2,2,2", ("--all",)), ("1,1,2,2,2,2,3,3,6", ()), ("1,1,1", ()),
                               ("1,1," + ",".join(["2"] * 11), ("--all",))):
            w = Weights.parse(weights)
            expected = indented(
                {"weights": w.to_json(), "maximal_only": not flags,
                 "strata": [s.to_json() for s in singular_strata(w, maximal_only=not flags)]}
            )
            assert emitted("strata", weights, *flags) == expected
            assert written("strata", weights, *flags) == expected
        w = Weights.parse("1,1,2,2,2,2")
        report = wf_witness_search(
            WCISpec(w, (3, 4)), PolySystem.generic(w, (3, 4), GF(7), 1), Stratum.of(w, (2, 3, 4, 5)), 7,
        )
        assert report.s_points
        assert emitted(
            "witness", "1,1,2,2,2,2", "--degrees", "3,4", "--stratum", "2,3,4,5", "--prime", "7",
        ) == indented(report.to_json())
        poly_file = tmp_path / "node.txt"
        poly_file.write_text("x0*x1\n")
        verdict = quasi_smooth_probe(PolySystem((parse_poly("x0*x1", (1, 1, 1), QQ),)), DEFAULT_PRIMES)
        assert emitted("probe", "1,1,1", "--degrees", "2", "--poly-file", str(poly_file)) == (
            indented(verdict.to_json())
        )
        census = run_census(CensusBounds(max_n=2, max_weight=2, max_weight_sum=4, max_k=1, max_degree=2))
        while True:
            try:
                next(census)
            except StopIteration as done:
                summary = indented(done.value.to_json())
                break
        out = tmp_path / "c.jsonl"
        assert emitted("census", "--max-n", "2", "--max-weight", "2", "--max-weight-sum", "4",
                       "--max-k", "1", "--max-degree", "2", "--output", str(out)) == summary
        assert (tmp_path / "c.jsonl.summary.json").read_text(encoding="utf-8") == summary

    def test_emit_streams_without_holding_the_document(self, capsys, tmp_path):
        obj = {"strata": [{"indices": [i, i + 1, i + 2], "delta": 2, "dim": 2} for i in range(20_000)]}
        expected = json.dumps(obj, indent=2) + "\n"
        out = tmp_path / "big.json"
        tracemalloc.start()
        try:
            _emit(argparse.Namespace(output=str(out)), obj)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.read_text(encoding="utf-8") == expected
        assert peak < len(expected) / 4, (peak, len(expected))
        _emit(argparse.Namespace(), obj)
        assert capsys.readouterr().out == expected


    def test_analyze_streams_without_holding_the_document(self, monkeypatch, tmp_path):
        weights, degrees = "1,1," + ",".join(["2"] * 15), (3,) * 8
        report = classify(WCISpec(Weights.parse(weights), degrees))
        assert len(report.strata) == 6436
        # Classified beforehand, so the peak is the writer's.
        monkeypatch.setattr("wcikit.cli.classify", lambda spec: report)
        out = tmp_path / "analyze.json"
        tracemalloc.start()
        try:
            code = main(["analyze", weights, "--degrees", ",".join(map(str, degrees)), "--output", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        expected = json.dumps(report.to_json(), indent=2) + "\n"
        assert out.read_text(encoding="utf-8") == expected
        assert peak < len(expected) / 4, (peak, len(expected))


def _limited():
    """In the child only: 1 GB of address space and 20 s of CPU."""
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    resource.setrlimit(resource.RLIMIT_CPU, (20, 20))


# Inputs at the validators' boundaries, one row per subcommand and bound:
# (id, argv with {dir} for the test's directory, file contents by name, the
# exit code).  Every accepted input finishes, every refused one exits 2.
CATALOGUE = [
    ("analyze-63-bit-degree", ["analyze", "1,6,10,15", "--degrees", str(2**63 - 1)], {}, 0),
    ("analyze-degree-1000001", ["analyze", "1,2,3,5,7", "--degrees", "1000001"], {}, 0),
    ("probe-exponent-10^9",
     ["probe", "1,1", "--degrees", "1000000001", "--poly-file", "{dir}/f.txt", "--primes", "3,5"],
     {"f.txt": "x0*x1^1000000000\n"}, 0),
    ("probe-generic-degree-1000001", ["probe", "1,1", "--degrees", "1000001", "--primes", "3"],
     {}, 2),
    ("probe-largest-prime-degree-1000",
     ["probe", "1,1", "--degrees", "1000", "--primes", "65521", "--poly-file", "{dir}/f.txt"],
     {"f.txt": "x0^1000 + x1^1000\n"}, 0),
    ("probe-generic-largest-prime-degree-1000",
     ["probe", "1,1", "--degrees", "1000", "--primes", "65521"], {}, 2),
    ("strata-all-41-weights", ["strata", "1,1," + ",".join(["2"] * 39), "--all"], {}, 0),
    ("strata-all-21-even-values", ["strata", "1,1," + ",".join(map(str, range(2, 43, 2))), "--all"], {}, 2),
    ("analyze-63-bit-weights",
     ["analyze", f"{2**63 - 1},{2**63 - 2},{2**63 - 3}", "--degrees", str(2**63 - 1)], {}, 0),
    ("analyze-300-weights", ["analyze", ",".join(["1"] * 300), "--degrees", "2"], {}, 0),
    ("analyze-P2999-quadric", ["analyze", ",".join(["1"] * 3000), "--degrees", "2"], {}, 0),
    ("census-max-n-1000",
     ["census", "--max-n", "1000", "--max-weight", "1", "--max-weight-sum", "1001", "--max-k",
      "1", "--max-degree", "2", "--min-dim", "999", "--output", "{dir}/c.jsonl"], {}, 0),
    ("census-empty-max-n-10^9",
     ["census", "--max-n", "1000000000", "--max-weight", "1", "--max-weight-sum", "1000000001",
      "--max-k", "1", "--max-degree", "1", "--min-dim", "1000000000", "--non-linear-cone",
      "--output", "{dir}/c.jsonl"], {}, 0),
    ("witness-cone-of-65521^4-points",
     ["witness", "1,1,2,2,2,2", "--degrees", "3,4", "--stratum", "2,3,4,5", "--prime", "65521"],
     {}, 2),
    # Z and S are the whole cone (degree 6 has no monomial on the 4s): 17^4 - 1
    # points are decided, 19^4 - 1 are past MAX_WITNESS_POINTS.
    ("witness-whole-cone-under-the-bound",
     ["witness", "1,1,4,4,4,4", "--degrees", "6", "--stratum", "2,3,4,5", "--prime", "17"], {}, 0),
    ("witness-whole-cone-past-the-bound",
     ["witness", "1,1,4,4,4,4", "--degrees", "6", "--stratum", "2,3,4,5", "--prime", "19"], {}, 2),
    ("census-max-degree-2^63",
     ["census", "--config", "{dir}/c.json", "--output", "{dir}/c.jsonl"],
     {"c.json": json.dumps({"max_n": 2, "max_weight": 2, "max_weight_sum": 4, "max_k": 1,
                            "max_degree": 2**63})}, 2),
]


class TestTerminationCatalogue:
    """Each row runs in a child process under its own address-space and CPU
    limits, one after another; a kill (a negative return code) or an
    internal error fails the row."""

    @pytest.mark.parametrize("argv, files, expected",
                             [row[1:] for row in CATALOGUE], ids=[row[0] for row in CATALOGUE])
    def test_row_finishes_or_is_refused(self, tmp_path, argv, files, expected):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        child = subprocess.run(
            [sys.executable, "-m", "wcikit", *(a.format(dir=tmp_path) for a in argv)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(wcikit.__file__).parents[1])},
            preexec_fn=_limited,
        )
        assert child.returncode == expected, (child.returncode, child.stderr[-2000:])
