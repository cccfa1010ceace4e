"""Tests for finite-field singularity probing and the witness search."""

import itertools
import random
from math import gcd

import pytest

from wcikit import (
    GF,
    QQ,
    ConePoint,
    PolySystem,
    QSVerdict,
    Stratum,
    WCISpec,
    determinantal_codim_bound,
    evaluate,
    is_singular_witness,
    jacobian_rank,
    matrix_rank,
    parse_poly,
    partial_derivative,
    quasi_smooth_probe,
    restrict,
    wf_witness_search,
)
from wcikit.oracle import _compiled_eval, _max_exponent, _power_table

P1111 = (1, 1, 1, 1)
FERMAT = PolySystem((parse_poly("x0^3 + x1^3 + x2^3 + x3^3", P1111, QQ),))
NODE = PolySystem((parse_poly("x0*x1", (1, 1, 1), QQ),))


def weighted_action(point, weights, t, p):
    return tuple(x * pow(t, a, p) % p for x, a in zip(point, weights))


class TestMatrixRank:
    def test_over_prime_field(self):
        f5 = GF(5)
        assert matrix_rank([[1, 2], [2, 4]], f5) == 1
        assert matrix_rank([[1, 2], [2, 3]], f5) == 2
        assert matrix_rank([[0, 0], [0, 0]], f5) == 0
        assert matrix_rank([], f5) == 0

    def test_rank_depends_on_characteristic(self):
        rows = [[1, 2], [3, 6]]
        assert matrix_rank(rows, GF(5)) == 1
        assert matrix_rank(rows, GF(7)) == 1
        rows2 = [[1, 2], [3, 11]]  # det 5
        assert matrix_rank(rows2, GF(5)) == 1
        assert matrix_rank(rows2, GF(7)) == 2

    def test_over_rationals(self):
        from fractions import Fraction

        rows = [[Fraction(1, 2), Fraction(1)], [Fraction(1, 4), Fraction(1, 2)]]
        assert matrix_rank(rows, QQ) == 1


class TestJacobianRank:
    def test_fermat_gradient_row(self):
        assert jacobian_rank(FERMAT.reduce_mod(5), (1, 0, 0, 0)) == 1

    def test_node_apex(self):
        assert jacobian_rank(NODE.reduce_mod(5), (0, 0, 1)) == 0

    def test_diagonal_pair(self):
        sys_ = PolySystem(
            (parse_poly("x0^2", (1, 1, 1), GF(5)), parse_poly("x1^2", (1, 1, 1), GF(5)))
        )
        assert jacobian_rank(sys_, (1, 1, 0)) == 2


class TestQuasiSmoothProbe:
    def test_fermat_clean(self):
        verdict = quasi_smooth_probe(FERMAT, (5, 7))
        assert verdict.status == "no_witness_found"
        assert verdict.fields_probed == (5, 7)
        assert verdict.exhaustive
        assert verdict.points_scanned == 5**4 - 1 + 7**4 - 1

    def test_node_witnesses(self):
        verdict = quasi_smooth_probe(NODE, (5,))
        assert verdict.status == "singular_witness"
        got = {pt.coords for _, pt in verdict.witnesses}
        assert got == {(0, 0, c) for c in range(1, 5)}

    def test_witness_soundness_independent_recheck(self):
        verdict = quasi_smooth_probe(NODE, (5, 7))
        assert verdict.witnesses
        for p, pt in verdict.witnesses:
            sys_p = NODE.reduce_mod(p)
            assert all(evaluate(f, pt.coords) == 0 for f in sys_p.polys)
            assert jacobian_rank(sys_p, pt) < len(sys_p.polys)
            assert is_singular_witness(sys_p, pt)

    def test_scaling_invariance_of_witness_set(self):
        # The weighted multiplicative action preserves the singular locus.
        spec = WCISpec((1, 1, 2, 2, 2, 2), (3, 4))
        sys_ = PolySystem.generic(spec.weights, spec.degrees, GF(5), seed=2)
        verdict = quasi_smooth_probe(sys_, (5,))
        witness_set = {pt.coords for _, pt in verdict.witnesses}
        assert witness_set
        for coords in witness_set:
            for t in range(1, 5):
                assert weighted_action(coords, spec.weights, t, 5) in witness_set

    def test_hygiene_excludes_bad_primes(self):
        verdict = quasi_smooth_probe(FERMAT, (3, 5))
        assert verdict.fields_probed == (5,)  # 3 divides the degree
        with pytest.raises(ValueError):
            quasi_smooth_probe(FERMAT, (3,))
        forced = quasi_smooth_probe(FERMAT, (3,), allow_bad_primes=True)
        assert forced.fields_probed == (3,)

    def test_sampling_mode_flagged_not_exhaustive(self):
        sys_ = PolySystem.generic((1, 1, 1, 1, 1, 1, 1), (3,), GF(11), seed=1)
        verdict = quasi_smooth_probe(sys_, (11,), max_points=10_000, sample_count=500, seed=4)
        assert not verdict.exhaustive
        assert verdict.points_scanned <= 500

    def test_budget_below_one_refused(self):
        for max_points, sample_count in ((0, 100), (-1, 100), (100, 0), (100, -3)):
            with pytest.raises(ValueError, match="must be at least 1"):
                quasi_smooth_probe(FERMAT, (5,), max_points, sample_count=sample_count)
        assert quasi_smooth_probe(FERMAT, (5,), 1, sample_count=1).points_scanned <= 1

    def test_failed_reverification_is_an_internal_error(self, monkeypatch):
        # Both scans hand their singular points to one independent re-check.
        spec = WCISpec((1, 1, 4, 6), (2,))
        lam = Stratum.of(spec.weights, (2, 3))
        sys_ = PolySystem.generic(spec.weights, spec.degrees, GF(5), 1)
        assert quasi_smooth_probe(NODE, (5,)).witnesses
        assert quasi_smooth_probe(NODE, (5,), max_points=10, sample_count=500).witnesses
        assert wf_witness_search(spec, sys_, lam, 5).s_points
        monkeypatch.setattr("wcikit.oracle.is_singular_witness", lambda sys, point: False)
        with pytest.raises(RuntimeError, match="failed re-verification"):
            quasi_smooth_probe(NODE, (5,))
        with pytest.raises(RuntimeError, match="failed re-verification"):
            quasi_smooth_probe(NODE, (5,), max_points=10, sample_count=500)
        with pytest.raises(RuntimeError, match="failed re-verification"):
            wf_witness_search(spec, sys_, lam, 5)

    def test_sampling_scans_each_point_once(self):
        # 2000 draws from the 625 points of F_5^4 repeat most of them.
        sys_ = PolySystem.generic((1, 2, 3, 3), (6,), GF(5), 2)
        verdict = quasi_smooth_probe(sys_, (5,), max_points=100, sample_count=2000, seed=5)
        rng = random.Random(5)
        draws = {tuple(rng.randrange(5) for _ in range(4)) for _ in range(2000)}
        points = [pt.coords for _, pt in verdict.witnesses]
        assert points and len(set(points)) == len(points)
        assert verdict.points_scanned == len(draws - {(0, 0, 0, 0)}) <= 5**4 - 1
        full = quasi_smooth_probe(sys_, (5,))
        assert set(points) <= {pt.coords for _, pt in full.witnesses}

    def test_generic_surface_family_witness_on_stratum(self):
        # Weakly-but-not-well-formed family of dimension 3: witnesses appear
        # on the even stratum (seed chosen by a prior exhaustive scan).
        spec = WCISpec((1, 1, 2, 2, 2, 2), (3, 4))
        sys_ = PolySystem.generic(spec.weights, spec.degrees, GF(5), seed=2)
        verdict = quasi_smooth_probe(sys_, (5,))
        assert verdict.status == "singular_witness"
        assert any(pt.coords[0] == 0 and pt.coords[1] == 0 for _, pt in verdict.witnesses)


class TestVerdictJoin:
    def test_multi_prime_probe_is_join_of_single_prime_probes(self):
        for kwargs in ({}, {"max_points": 200, "sample_count": 100, "seed": 3}):
            # With max_points=200, GF(5)^3 is scanned exhaustively and GF(7)^3 sampled.
            joined = QSVerdict.join(quasi_smooth_probe(NODE, (p,), **kwargs) for p in (5, 7))
            assert quasi_smooth_probe(NODE, (5, 7), **kwargs) == joined
        assert joined.fields_probed == (5, 7) and not joined.exhaustive

    def test_join_order_and_fields(self):
        clean = QSVerdict((), (5,), 624, True)
        singular = QSVerdict(((7, ConePoint((0, 0, 1))),), (7,), 50, False)
        joined = QSVerdict.join([clean, singular])
        assert joined == QSVerdict(((7, ConePoint((0, 0, 1))),), (5, 7), 674, False)
        assert QSVerdict.join([clean, clean]).exhaustive

    def test_status_follows_witnesses(self):
        singular = quasi_smooth_probe(NODE, (5,))
        smooth = quasi_smooth_probe(FERMAT, (5,))
        assert singular.witnesses and singular.status == "singular_witness"
        assert not smooth.witnesses and smooth.status == "no_witness_found"
        assert singular.to_json()["status"] == "singular_witness"
        assert smooth.to_json()["status"] == "no_witness_found"
        with pytest.raises(TypeError):
            QSVerdict("singular_witness", (), (5,), 0, True)  # status is not a field

    def test_prime_field_system_probed_over_its_field_only(self):
        sys3 = PolySystem.generic((1, 1, 1), (2,), GF(3), 1)
        assert sys3.reduce_mod(3) is sys3
        assert quasi_smooth_probe(sys3, (3,)).fields_probed == (3,)
        with pytest.raises(ValueError, match=r"cannot move a GF\(3\) polynomial to GF\(5\)"):
            quasi_smooth_probe(sys3, (5,))


class TestDeterminantalBound:
    def test_proof_instance(self):
        assert determinantal_codim_bound(1, 2, 0) == 2

    def test_degenerate(self):
        assert determinantal_codim_bound(3, 3, 3) == 0

    def test_arithmetic(self):
        assert determinantal_codim_bound(3, 4, 1) == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            determinantal_codim_bound(0, 2, 0)
        with pytest.raises(ValueError):
            determinantal_codim_bound(1, 2, -1)


class TestConePoint:
    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            ConePoint((0, 0, 0))

    def test_json(self):
        assert ConePoint((0, 1, 2)).to_json() == [0, 1, 2]


class TestWitnessSearch:
    def fixture(self, seed, p):
        spec = WCISpec((1, 1, 2, 2, 2, 2), (3, 4))
        lam = Stratum.of(spec.weights, (2, 3, 4, 5))
        sys_ = PolySystem.generic(spec.weights, spec.degrees, GF(p), seed)
        return spec, sys_, lam

    def test_family_fixture_engages(self):
        spec, sys_, lam = self.fixture(1, 5)
        report = wf_witness_search(spec, sys_, lam, 5)
        assert report.status == "searched"
        assert report.r == 1 and report.vanishing_poly_indices == (0,)
        assert report.r_from_divisibility == 1
        assert report.g_columns == (0, 1)
        assert report.origin_in_z
        assert len(report.z_points) > 0  # Z exceeds the origin
        assert not report.linear_cone_escape

    def test_s_points_nonempty_somewhere_and_sound(self):
        spec = WCISpec((1, 1, 2, 2, 2, 2), (3, 4))
        lam = Stratum.of(spec.weights, (2, 3, 4, 5))
        found = False
        for seed in (1, 2, 3):
            for p in (5, 7):
                sys_ = PolySystem.generic(spec.weights, spec.degrees, GF(p), seed)
                report = wf_witness_search(spec, sys_, lam, p)
                for pt in report.s_points:
                    found = True
                    assert all(evaluate(f, pt.coords) == 0 for f in sys_.polys)
                    assert jacobian_rank(sys_, pt) < 2
        assert found

    def test_z_points_have_low_full_jacobian_rank(self):
        spec, sys_, lam = self.fixture(2, 5)
        report = wf_witness_search(spec, sys_, lam, 5)
        for pt in report.z_points:
            assert jacobian_rank(sys_, pt) < len(sys_.polys)

    def test_z_closed_under_weighted_action(self):
        spec, sys_, lam = self.fixture(1, 7)
        report = wf_witness_search(spec, sys_, lam, 7)
        zset = {pt.coords for pt in report.z_points}
        for coords in zset:
            for t in range(1, 7):
                assert weighted_action(coords, spec.weights, t, 7) in zset

    def test_dim2_case_still_searches(self):
        spec = WCISpec((1, 1, 2, 2, 2), (3, 4))
        lam = Stratum.of(spec.weights, (2, 3, 4))
        sys_ = PolySystem.generic(spec.weights, spec.degrees, GF(5), 1)
        report = wf_witness_search(spec, sys_, lam, 5)
        assert report.status == "searched" and report.r == 1
        for pt in report.s_points:
            assert is_singular_witness(sys_, pt)

    def test_linear_cone_escape(self):
        spec = WCISpec((1, 1, 2), (1,))
        lam = Stratum.of(spec.weights, (2,))
        sys_ = PolySystem.generic(spec.weights, spec.degrees, GF(5), 1)
        report = wf_witness_search(spec, sys_, lam, 5)
        assert report.r == 1
        assert report.linear_cone_escape
        assert not report.origin_in_z

    def test_r_disagreement_surfaced(self):
        # Degree 2 is divisible by delta=2 yet has no monomial over weights
        # {4,6}, so the actual vanishing count exceeds the divisibility count;
        # the report carries both.
        spec = WCISpec((1, 1, 4, 6), (2,))
        lam = Stratum.of(spec.weights, (2, 3))
        sys_ = PolySystem.generic(spec.weights, spec.degrees, GF(5), 1)
        report = wf_witness_search(spec, sys_, lam, 5)
        assert report.r == 1 and report.r_from_divisibility == 0
        assert report.to_json()["r_agrees"] is False
        # Every equation vanishes on the stratum, so all of it lands in S.
        assert len(report.s_points) == 5 * 5 - 1
        for pt in report.s_points:
            assert is_singular_witness(sys_, pt)

    def test_not_engaged_when_no_restriction_vanishes(self):
        spec = WCISpec((1, 1, 2), (2,))
        lam = Stratum.of(spec.weights, (2,))
        sys_ = PolySystem.generic(spec.weights, spec.degrees, GF(5), 1)
        report = wf_witness_search(spec, sys_, lam, 5)
        assert report.status == "no_vanishing_restriction"
        assert report.r == 0 and report.z_points == () and report.s_points == ()

    def test_validation(self):
        spec, sys_, lam = self.fixture(1, 5)
        with pytest.raises(ValueError):
            wf_witness_search(spec, sys_, Stratum.of(spec.weights, (0, 1)), 5)  # delta 1
        other = PolySystem.generic(spec.weights, (3, 3), GF(5), 1)
        with pytest.raises(ValueError):
            wf_witness_search(spec, other, lam, 5)
        with pytest.raises(ValueError, match=r"indices \[2, 3, 9\] out of range for 6 coordinates"):
            wf_witness_search(spec, sys_, Stratum((2, 3, 9), 2), 5)
        with pytest.raises(ValueError, match="delta 4 does not match gcd 2 of weights"):
            wf_witness_search(spec, sys_, Stratum((2, 3), 4), 5)

    def test_report_json(self):
        spec, sys_, lam = self.fixture(1, 5)
        data = wf_witness_search(spec, sys_, lam, 5).to_json()
        for key in (
            "status",
            "prime",
            "stratum",
            "delta",
            "r",
            "r_from_divisibility",
            "r_agrees",
            "vanishing_poly_indices",
            "G_columns",
            "Z_points",
            "S_points",
            "origin_in_Z",
            "linear_cone_escape",
        ):
            assert key in data
        assert all(isinstance(pt, list) for pt in data["Z_points"])

    def test_origin_facts_match_evaluation_at_origin(self):
        # origin_in_Z and linear_cone_escape against the restricted partials
        # evaluated at the origin through the generic evaluator.
        cases = [
            ((1, 1, 2), (1,), (2,), 5),
            ((1, 1, 2), (4,), (2,), 5),
            ((1, 1, 2, 2, 2, 2), (3, 4), (2, 3, 4, 5), 7),
            ((1, 1, 2, 2, 2), (1, 4), (2, 3, 4), 5),
            ((1, 2, 2, 3), (3,), (1, 2), 5),
        ]
        escapes = set()
        for w, degs, lam_idx, p in cases:
            spec = WCISpec(w, degs)
            lam = Stratum.of(spec.weights, lam_idx)
            sys_ = PolySystem.generic(spec.weights, spec.degrees, GF(p), 2)
            report = wf_witness_search(spec, sys_, lam, p)
            if report.status != "searched":
                continue
            off_idx = [i for i in range(len(w)) if i not in lam_idx]
            at_origin = [
                [evaluate(restrict(partial_derivative(sys_.polys[j], i), lam_idx), (0,) * len(w))
                 for i in off_idx]
                for j in report.vanishing_poly_indices
            ]
            assert report.linear_cone_escape == any(v for row in at_origin for v in row)
            assert report.origin_in_z == (matrix_rank(at_origin, GF(p)) < report.r)
            escapes.add(report.linear_cone_escape)
        assert escapes == {True, False}

    def test_origin_in_z_for_positive_degree_entries(self):
        # Generic engaged searches without the linear-cone escape always put
        # the origin in Z: the matrix entries are homogeneous of positive degree.
        for w, degs, lam_idx, p in [
            ((1, 1, 2, 2, 2, 2), (3, 4), (2, 3, 4, 5), 5),
            ((1, 1, 2, 2, 2), (3, 4), (2, 3, 4), 7),
            ((1, 1, 2), (4,), None, 5),
        ]:
            spec = WCISpec(w, degs)
            lam = Stratum.of(spec.weights, lam_idx or (len(w) - 1,))
            sys_ = PolySystem.generic(spec.weights, spec.degrees, GF(p), 3)
            report = wf_witness_search(spec, sys_, lam, p)
            if report.status == "searched" and not report.linear_cone_escape:
                assert report.origin_in_z


# -- Reference scans over the full space ---------------------------------------
#
# The loops the orbit-sliced scans replaced: every nonzero point of the field
# (or of the stratum's cone) is evaluated, in itertools.product order.


def reference_probe(sys_, p, max_points=10**7, sample_count=100_000, seed=0):
    k, n1 = len(sys_.polys), len(sys_.weights)
    field = GF(p)
    derivs = [[partial_derivative(f, i) for i in range(n1)] for f in sys_.polys]
    max_exp = max(_max_exponent(sys_.polys), _max_exponent([d for row in derivs for d in row]))
    powt = _power_table(p, max_exp)
    f_evals = [_compiled_eval(f, powt, p) for f in sys_.polys]
    d_evals = [[_compiled_eval(d, powt, p) for d in row] for row in derivs]
    exhaustive = p**n1 <= max_points
    if exhaustive:
        points = itertools.product(range(p), repeat=n1)
    else:
        rng = random.Random(seed)
        points = dict.fromkeys(
            tuple(rng.randrange(p) for _ in range(n1)) for _ in range(sample_count)
        )
    witnesses, scanned = [], 0
    for pt in points:
        if not any(pt):
            continue
        scanned += 1
        if any(fe(pt) for fe in f_evals):
            continue
        rows = [[de(pt) for de in row] for row in d_evals]
        if matrix_rank(rows, field) < k:
            witnesses.append((p, ConePoint(pt)))
    status = "singular_witness" if witnesses else "no_witness_found"
    return status, tuple(witnesses), scanned, exhaustive


def reference_search(sys_, on_idx, p):
    n1 = len(sys_.weights)
    field = GF(p)
    off_idx = [i for i in range(n1) if i not in on_idx]
    restrictions = [restrict(f, on_idx) for f in sys_.polys]
    vanishing = [j for j, rf in enumerate(restrictions) if rf.is_zero]
    remaining = [rf for j, rf in enumerate(restrictions) if j not in vanishing]
    g_rows = [
        [restrict(partial_derivative(sys_.polys[j], i), on_idx) for i in off_idx]
        for j in vanishing
    ]
    z_points, s_points, scanned = [], [], 0
    for assignment in itertools.product(range(p), repeat=len(on_idx)):
        if not any(assignment):
            continue
        scanned += 1
        pt = [0] * n1
        for i, v in zip(on_idx, assignment):
            pt[i] = v
        pt = tuple(pt)
        rows = [[evaluate(g, pt) for g in row] for row in g_rows]
        if matrix_rank(rows, field) < len(vanishing):
            z_points.append(ConePoint(pt))
            if all(evaluate(f, pt) == 0 for f in remaining):
                s_points.append(ConePoint(pt))
    return tuple(z_points), tuple(s_points), scanned


def leading_gcds(witnesses, weights, p):
    """gcd(a_i, p-1) at the first nonzero coordinate of each witness: the
    number of coset representatives the slice takes there."""
    return {
        gcd(weights[next(i for i, x in enumerate(pt.coords) if x)], p - 1)
        for _, pt in witnesses
    }


class TestOrbitSliceMatchesFullScan:
    # (weights, degrees, p, seed), seeds chosen so that witnesses exist and
    # some lead with a coordinate whose gcd(a_i, p-1) exceeds 1.
    CASES = [
        ((1, 2, 2, 3), (6,), 5, 12),
        ((1, 2, 2, 3), (6,), 7, 11),
        ((1, 2, 2, 3), (6,), 13, 11),
        ((1, 1, 3, 3, 3), (6, 6), 5, 3),
        ((1, 1, 3, 3, 3), (6, 6), 7, 10),
        ((1, 1, 3, 3, 3), (6, 6), 13, 4),
        ((1, 2, 3, 3), (6,), 13, 3),
    ]

    @pytest.mark.parametrize("weights,degrees,p,seed", CASES)
    def test_probe_equals_reference(self, weights, degrees, p, seed):
        sys_ = PolySystem.generic(weights, degrees, GF(p), seed)
        verdict = quasi_smooth_probe(sys_, (p,))
        status, witnesses, scanned, exhaustive = reference_probe(sys_, p)
        assert witnesses
        assert verdict.witnesses == witnesses
        assert verdict.status == status
        assert verdict.points_scanned == scanned == p ** len(weights) - 1
        assert verdict.exhaustive and exhaustive

    def test_cases_cover_every_coset_count(self):
        seen = set()
        for weights, degrees, p, seed in self.CASES:
            sys_ = PolySystem.generic(weights, degrees, GF(p), seed)
            seen |= leading_gcds(quasi_smooth_probe(sys_, (p,)).witnesses, weights, p)
        assert seen == {1, 2, 3}

    @pytest.mark.parametrize(
        "weights,degrees,p,seed",
        [((1, 2, 2, 3), (6,), 3, 6), ((1, 1, 3, 3, 3), (6, 6), 3, 1), ((1, 2, 2, 3), (6,), 2, 1)],
    )
    def test_bad_prime_dividing_a_weight(self, weights, degrees, p, seed):
        assert any(a % p == 0 for a in weights)
        sys_ = PolySystem.generic(weights, degrees, GF(p), seed)
        verdict = quasi_smooth_probe(sys_, (p,), allow_bad_primes=True)
        status, witnesses, scanned, exhaustive = reference_probe(sys_, p)
        assert verdict.witnesses == witnesses
        assert (verdict.status, verdict.points_scanned, verdict.exhaustive) == (
            status, scanned, exhaustive,
        )

    def test_sampling_unchanged(self):
        # The second case draws the origin (200 draws from the 27 points of
        # F_3^3), which is neither scanned nor counted.
        cases = [
            (PolySystem.generic((1, 2, 3, 3), (6,), GF(5), 2), 5, 100, 500, 5),
            (NODE.reduce_mod(3), 3, 10, 200, 1),
        ]
        for sys_, p, max_points, sample_count, seed in cases:
            verdict = quasi_smooth_probe(
                sys_, (p,), max_points=max_points, sample_count=sample_count, seed=seed
            )
            status, witnesses, scanned, exhaustive = reference_probe(
                sys_, p, max_points=max_points, sample_count=sample_count, seed=seed
            )
            assert witnesses and not exhaustive
            assert verdict.witnesses == witnesses
            assert (verdict.status, verdict.points_scanned, verdict.exhaustive) == (
                status, scanned, exhaustive,
            )
        rng = random.Random(1)
        draws = {tuple(rng.randrange(3) for _ in range(3)) for _ in range(200)}
        assert (0, 0, 0) in draws and verdict.points_scanned == len(draws) - 1

    @pytest.mark.parametrize("p", [7, 11])
    def test_witness_search_equals_reference(self, p):
        spec = WCISpec((1, 1, 2, 2, 2, 2), (3, 4))
        lam = Stratum.of(spec.weights, (2, 3, 4, 5))
        s_total = 0
        for seed in (1, 2, 3):
            sys_ = PolySystem.generic(spec.weights, spec.degrees, GF(p), seed)
            report = wf_witness_search(spec, sys_, lam, p)
            z_points, s_points, scanned = reference_search(sys_, lam.indices, p)
            assert report.z_points == z_points
            assert report.s_points == s_points
            assert report.points_scanned == scanned
            s_total += len(s_points)
        assert s_total
