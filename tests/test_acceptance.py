"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the census and exhaustive-normalization criteria take the longest
(about a minute combined).
"""

import json
import time
from itertools import combinations_with_replacement, product

from wcikit import (
    GF,
    CensusBounds,
    PolySystem,
    QQ,
    Stratum,
    WCISpec,
    classify,
    determinantal_codim_bound,
    evaluate,
    generic_poly,
    is_representable,
    is_well_formed_space,
    jacobian_rank,
    matrix_rank,
    parse_poly,
    quasi_smooth_probe,
    run_census,
    well_form,
    wf_witness_search,
)
from wcikit.cli import main


def drain(census):
    """The records of a ``run_census`` generator, as a list, and the summary it returns."""
    records = []
    while True:
        try:
            records.append(next(census))
        except StopIteration as done:
            return records, done.value


def _pass(number, message):
    print(f"criterion {number}: PASS - {message}")


def run_cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_criterion_1_line_on_cone(capsys):
    start = time.perf_counter()
    data = run_cli_json(capsys, "analyze", "1,1,2", "--degrees", "1")
    elapsed = time.perf_counter() - start
    assert data["linear_cone"] is True
    assert data["well_formed"] is False
    assert data["weakly_well_formed"] is False
    assert data["dim_X"] == 1
    assert elapsed < 1.0
    _pass(1, f"line-on-a-cone booleans exact in {elapsed:.3f}s")


def test_criterion_2_surface_fixture(capsys):
    start = time.perf_counter()
    data = run_cli_json(capsys, "analyze", "1,1,2,2,2", "--degrees", "3,4")
    elapsed = time.perf_counter() - start
    assert data["well_formed"] is False
    assert data["weakly_well_formed"] is True
    assert data["sing_intersection_dim"] == 1
    assert data["amplitude"] == -1
    assert data["canonical_self_intersection"] == {"num": 3, "den": 2}
    assert data["theorem_status"] == "not_applicable_dim"
    assert elapsed < 1.0
    _pass(2, f"surface fixture exact (self-intersection 3/2) in {elapsed:.3f}s")


def test_criterion_3_family_fixture():
    start = time.perf_counter()
    for n in (5, 6, 7, 8):
        spec = WCISpec((1, 1) + (2,) * (n - 1), (3, 4))
        rep = classify(spec)
        assert rep.sing_intersection_dim == n - 3 == rep.dim_X - 1
        assert rep.weakly_well_formed is True
        assert rep.well_formed is False
        assert rep.theorem_status == "implies_not_quasismooth"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(3, f"family fixture exact for N=5..8 in {elapsed:.3f}s")


def test_criterion_4_theorem_census():
    bounds = CensusBounds(
        max_n=11, max_weight=12, max_weight_sum=12, max_k=3, max_degree=12,
        require_non_linear_cone=True, min_dim=3,
    )
    start = time.perf_counter()
    records, summary = drain(run_census(bounds))
    elapsed = time.perf_counter() - start
    violations = [
        r.report.spec.key()
        for r in records
        if r.report.well_formed and not r.report.weakly_well_formed
    ]
    missing_implication = [
        r.report.spec.key()
        for r in records
        if r.report.weakly_well_formed != r.report.well_formed
        and r.report.theorem_status != "implies_not_quasismooth"
    ]
    assert violations == []
    assert missing_implication == []
    assert summary.total == len(records) > 0
    assert elapsed < 300.0
    _pass(4, f"{summary.total} census records, no implication violations, in {elapsed:.1f}s")


def test_criterion_5_witness_existence():
    spec = WCISpec((1, 1, 2, 2, 2, 2), (3, 4))
    stratum = Stratum.of(spec.weights, (2, 3, 4, 5))
    start = time.perf_counter()
    nonempty = 0
    verified = 0
    for seed in (1, 2, 3):
        for p in (5, 7):
            system = PolySystem.generic(spec.weights, spec.degrees, GF(p), seed)
            report = wf_witness_search(spec, system, stratum, p)
            assert report.status == "searched" and report.r == 1
            if report.s_points:
                nonempty += 1
            for pt in report.s_points:
                assert all(evaluate(f, pt.coords) == 0 for f in system.polys)
                assert jacobian_rank(system, pt) < 2
                verified += 1
    elapsed = time.perf_counter() - start
    assert nonempty >= 1, "no (seed, prime) pair produced singular stratum points"
    assert elapsed < 120.0
    _pass(5, f"{verified} witnesses re-verified across {nonempty} runs in {elapsed:.1f}s")


def test_criterion_6_representability_cross_check():
    def brute_force(d, weights):
        def rec(i, remaining):
            if remaining == 0:
                return True
            if i == len(weights):
                return False
            step = weights[i]
            return any(rec(i + 1, remaining - c * step) for c in range(remaining // step + 1))

        return rec(0, d)

    checked = 0
    for size in range(1, 6):
        for ws in combinations_with_replacement(range(1, 7), size):
            for d in range(1, 21):
                assert is_representable(d, ws) == brute_force(d, ws), (d, ws)
                checked += 1
    _pass(6, f"representability agreed with enumeration on {checked} cases")


def test_criterion_7_normalization_exhaustive(capsys):
    count = 0
    for length in range(2, 7):
        for w in product(range(1, 13), repeat=length):
            result, _ = well_form(w)
            assert is_well_formed_space(result)
            again, trace = well_form(result)
            assert again == result and trace.steps == ()
            count += 1
    data = run_cli_json(capsys, "wellform", "1,2,2")
    assert data["weights"] == "1,1,1"
    _pass(7, f"normalization idempotent and well formed on {count} tuples")


def test_criterion_8_quasi_smooth_sanity():
    start = time.perf_counter()
    fermat = PolySystem((parse_poly("x0^3 + x1^3 + x2^3 + x3^3", (1, 1, 1, 1), QQ),))
    verdict = quasi_smooth_probe(fermat, (5, 7))
    assert verdict.status == "no_witness_found" and verdict.exhaustive

    node = PolySystem((parse_poly("x0*x1", (1, 1, 1), QQ),))
    verdict2 = quasi_smooth_probe(node, (5,))
    assert verdict2.status == "singular_witness"
    for p, pt in verdict2.witnesses:
        sys_p = node.reduce_mod(p)
        assert all(evaluate(f, pt.coords) == 0 for f in sys_p.polys)
        assert jacobian_rank(sys_p, pt) < 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _pass(8, f"Fermat clean and node witnessed in {elapsed:.2f}s")


def test_criterion_9_determinantal_bound_and_origin():
    start = time.perf_counter()
    assert determinantal_codim_bound(1, 2, 0) == 2

    field = GF(5)
    for seed in range(100):
        row = [
            generic_poly((1, 1, 1), 1, field, 1000 + 2 * seed),
            generic_poly((1, 1, 1), 1, field, 1001 + 2 * seed),
        ]
        z = [
            pt
            for pt in product(range(5), repeat=3)
            if matrix_rank([[evaluate(g, pt) for g in row]], field) < 1
        ]
        assert (0, 0, 0) in z
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _pass(9, f"bound instance equals 2; origin in Z for 100 seeded matrices in {elapsed:.2f}s")
