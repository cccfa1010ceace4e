"""Tests for finite-field singularity probing and the witness search."""

import itertools
import random
import re
import sys
import threading
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

import wcikit.codegen as codegen
import wcikit.oracle as oracle

from wcikit import (
    GF,
    QQ,
    ConePoint,
    PolySystem,
    QSVerdict,
    SparsePoly,
    Stratum,
    WCISpec,
    determinantal_codim_bound,
    evaluate,
    generic_poly,
    is_singular_witness,
    jacobian_rank,
    matrix_rank,
    parse_poly,
    partial_derivative,
    quasi_smooth_probe,
    restrict,
    wf_witness_search,
)
from wcikit.oracle import (
    _CHUNK_TERMS,
    _compiled_eval,
    _jacobian,
    _orbit_slice,
    _orbit_slice_size,
    _scan,
)

P1111 = (1, 1, 1, 1)
FERMAT = PolySystem((parse_poly("x0^3 + x1^3 + x2^3 + x3^3", P1111, QQ),))
NODE = PolySystem((parse_poly("x0*x1", (1, 1, 1), QQ),))


def weighted_action(point, weights, t, p):
    return tuple(x * pow(t, a, p) % p for x, a in zip(point, weights))


def reference_rank(rows, field):
    """The eager elimination ``matrix_rank`` replaced: every entry is drawn
    first, then rows are pivoted on the first nonzero entry of each column."""
    m = [list(r) for r in rows]
    if len(m) == 1:
        return 1 if any(m[0]) else 0
    if not m or not m[0]:
        return 0
    cols = len(m[0])
    rank = 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = field.inv(m[rank][c])
        m[rank] = [field.mul(inv, v) for v in m[rank]]
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            if f:
                m[i] = [field.sub(m[i][j], field.mul(f, m[rank][j])) for j in range(cols)]
        rank += 1
        if rank == len(m):
            break
    return rank


class CountedRow:
    """A row that counts the entries drawn from it."""

    def __init__(self, entries):
        self.entries, self.drawn = entries, 0

    def __iter__(self):
        for v in self.entries:
            self.drawn += 1
            yield v


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
        rows = [[Fraction(1, 2), Fraction(1)], [Fraction(1, 4), Fraction(1, 2)]]
        assert matrix_rank(rows, QQ) == 1

    @pytest.mark.parametrize("field", [GF(2), GF(5), GF(13), QQ])
    def test_one_row_equals_elimination(self, field):
        # A zero second row leaves the rank alone and forces the elimination.
        rng = random.Random(7)
        for n in range(0, 6):
            for _ in range(40):
                row = [rng.choice((0, 0, 1, 2, 3)) for _ in range(n)]
                if field is QQ:
                    row = [Fraction(v, rng.randrange(1, 4)) for v in row]
                else:
                    row = [field.coerce(v) for v in row]
                assert matrix_rank([row], field) == matrix_rank([row, [0] * n], field)
                assert matrix_rank([row], field) == (1 if any(row) else 0)

    # Column by column: the answer equals the eager elimination's on every
    # shape and field, and drawing stops at full rank.

    @staticmethod
    def random_matrix(rng, field, rows, cols):
        def entry():
            v = rng.choice((0, 0, 1, 2, 3, 4, 5, 6))
            return Fraction(v, rng.randrange(1, 4)) if field is QQ else field.coerce(v)

        m = [[entry() for _ in range(cols)] for _ in range(rows)]
        if rows >= 2 and rng.random() < 0.5:
            # Rank deficient: the last row a combination of the others.
            coeffs = [entry() for _ in range(rows - 1)]
            m[-1] = [field.coerce(0) for _ in range(cols)]
            for c, row in zip(coeffs, m[:-1]):
                m[-1] = [field.add(v, field.mul(c, w)) for v, w in zip(m[-1], row)]
        return m

    @pytest.mark.parametrize("field", [GF(2), GF(5), GF(7), QQ])
    def test_against_eager_elimination(self, field):
        rng = random.Random(23)
        deficient = 0
        for rows in range(0, 5):
            for cols in range(0, 8):
                for _ in range(12):
                    m = self.random_matrix(rng, field, rows, cols)
                    expected = reference_rank(m, field)
                    deficient += expected < min(rows, cols)
                    assert matrix_rank(m, field) == expected, m
                    assert matrix_rank([tuple(r) for r in m], field) == expected, m
                    assert matrix_rank([iter(r) for r in m], field) == expected, m
                    assert matrix_rank((iter(r) for r in m), field) == expected, m
        assert deficient > 50

    @pytest.mark.parametrize("field", [GF(5), GF(7), QQ])
    def test_full_rank_draws_exactly_k_entries_per_row(self, field):
        rng = random.Random(5)
        for k in range(1, 5):
            for extra in (0, 1, 3):
                while True:
                    head = self.random_matrix(rng, field, k, k)
                    if reference_rank(head, field) == k:
                        break
                tail = self.random_matrix(rng, field, k, extra)
                rows = [CountedRow(h + t) for h, t in zip(head, tail)]
                assert matrix_rank(rows, field) == k
                assert [row.drawn for row in rows] == [k] * k

    def test_single_row_stops_at_its_first_nonzero_entry(self):
        f7 = GF(7)
        row = CountedRow([3, 0, 5, 1])
        assert matrix_rank([row], f7) == 1 and row.drawn == 1
        row = CountedRow([0, 0, 2, 1])
        assert matrix_rank([row], f7) == 1 and row.drawn == 3
        row = CountedRow([0, 0, 0])
        assert matrix_rank([row], f7) == 0 and row.drawn == 3


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

    def test_point_off_the_cone_is_no_witness(self):
        # Over GF(5) every partial of x0^5 + x1^5 vanishes, so the Jacobian
        # has rank 0 everywhere; (1, 0) is no witness since it is off the cone.
        sys_ = PolySystem((parse_poly("x0^5 + x1^5", (1, 1), GF(5)),))
        assert jacobian_rank(sys_, (1, 0)) == 0
        assert not is_singular_witness(sys_, (1, 0))


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
        with pytest.raises(ValueError, match="pass allow_bad_primes=True to probe anyway"):
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
        for kwargs in ({}, {"max_points": 40, "sample_count": 100, "seed": 3}):
            # With max_points=40, GF(5)^3 (an orbit slice of 31 points) is
            # scanned exhaustively and GF(7)^3 (57 points) sampled.
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

    def test_system_over_other_weights_refused(self):
        spec, _, lam = self.fixture(1, 5)
        other = PolySystem.generic((1, 1, 1, 1, 1, 1), spec.degrees, GF(5), 1)
        with pytest.raises(ValueError, match="^system weights do not match the family weights$"):
            wf_witness_search(spec, other, lam, 5)

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

    def test_cone_past_the_bound_refused_before_any_scan(self, monkeypatch):
        spec, sys_, lam = self.fixture(1, 5)
        scans = []
        real_scan = oracle._scan
        monkeypatch.setattr(oracle, "_scan", lambda *args: scans.append(args) or real_scan(*args))
        # The stratum's cone over GF(5) has 5^4 - 1 = 624 nonzero points.
        monkeypatch.setattr(oracle, "MAX_WITNESS_POINTS", 623)
        with pytest.raises(ValueError, match=r"^the cone of stratum \[2, 3, 4, 5\] over GF\(5\) "
                           r"has 624 nonzero points, more than 623$"):
            wf_witness_search(spec, sys_, lam, 5)
        assert scans == []
        monkeypatch.setattr(oracle, "MAX_WITNESS_POINTS", 624)
        assert wf_witness_search(spec, sys_, lam, 5).points_scanned == 624
        assert scans
        # At the real bound: GF(65521) is refused at once.
        monkeypatch.undo()
        sys_ = PolySystem.generic(spec.weights, spec.degrees, GF(65521), 1)
        with pytest.raises(ValueError, match=f"more than {oracle.MAX_WITNESS_POINTS}$"):
            wf_witness_search(spec, sys_, lam, 65521)

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


def power_table(p, max_exp):
    return [[pow(x, e, p) for e in range(max_exp + 1)] for x in range(p)]


def reference_eval(poly, p):
    """The closure evaluator the generated straight-line code replaced: it
    loops over the terms and their variables, with its own power table."""
    powt = power_table(p, max((e for exps, _ in poly.terms for e in exps), default=1))
    terms = [
        (coeff, [(i, e) for i, e in enumerate(exps) if e]) for exps, coeff in poly.terms
    ]

    def ev(pt):
        s = 0
        for coeff, ves in terms:
            v = coeff
            for i, e in ves:
                x = pt[i]
                if not x:
                    v = 0
                    break
                v = v * powt[x][e] % p
            if v:
                s += v
        return s % p

    return ev


def reference_probe(sys_, p, max_points=10**7, sample_count=100_000, seed=0):
    k, n1 = len(sys_.polys), len(sys_.weights)
    field = GF(p)
    derivs = [[partial_derivative(f, i) for i in range(n1)] for f in sys_.polys]
    f_evals = [reference_eval(f, p) for f in sys_.polys]
    d_evals = [[reference_eval(d, p) for d in row] for row in derivs]
    slice_size = sum(gcd(a, p - 1) * p ** (n1 - 1 - i) for i, a in enumerate(sys_.weights))
    exhaustive = slice_size <= max_points
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

    # (weights, degrees, stratum, r): the one-row search of r = 1, whose Z
    # scan tests the row's entries as equations, the matrix search of r = 2,
    # and a stratum without the last coordinate, whose slice points share no
    # prefix.
    SEARCHES = [
        ((1, 1, 2, 2, 2, 2), (3, 4), (2, 3, 4, 5), 1),
        ((1, 1, 2, 2, 2, 2), (3, 3), (2, 3, 4, 5), 2),
        ((1, 1, 2, 4, 4), (6, 6, 8), (3, 4), 2),
        ((1, 2, 2, 2, 2, 1), (3, 4), (1, 2, 3, 4), 1),
    ]

    @pytest.mark.parametrize("p", [7, 11])
    def test_witness_search_equals_reference(self, p):
        for weights, degrees, indices, r in self.SEARCHES:
            spec = WCISpec(weights, degrees)
            lam = Stratum.of(spec.weights, indices)
            s_total = 0
            for seed in (1, 2, 3):
                sys_ = PolySystem.generic(spec.weights, spec.degrees, GF(p), seed)
                report = wf_witness_search(spec, sys_, lam, p)
                z_points, s_points, scanned = reference_search(sys_, lam.indices, p)
                assert report.r == r and z_points
                assert report.z_points == z_points
                assert report.s_points == s_points
                assert report.points_scanned == scanned
                s_total += len(s_points)
            # Over GF(7) these seeds give (1,1,2,4,4)/(6,6,8) Z points only.
            assert s_total or (p, weights) == (7, (1, 1, 2, 4, 4))

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_stratum_slice_in_place(self, p):
        # The slice of a stratum's cone, built with the off-stratum
        # coordinates at 0, is the slice of the stratum's own weights with
        # each point embedded, point for point and in order.
        for weights in [(1, 1, 2, 2, 2, 2), (1, 2, 2, 2, 2, 1), (1, 1, 2, 4, 4), (2, 3, 6)]:
            n = len(weights)
            assert list(_orbit_slice(p, weights)) == list(reference_slice(p, weights))
            for size in range(1, n + 1):
                for indices in itertools.combinations(range(n), size):

                    def embed(assignment):
                        pt = [0] * n
                        for i, v in zip(indices, assignment):
                            pt[i] = v
                        return tuple(pt)

                    expected = map(embed, reference_slice(p, [weights[i] for i in indices]))
                    assert list(_orbit_slice(p, weights, indices)) == list(expected)


def reference_slice(p, weights):
    """The slice generator that joined a head of zeros and a representative
    to each tail of ``itertools.product``, over every coordinate."""
    n = len(weights)
    for i, a in enumerate(weights):
        powers = {pow(t, a, p) for t in range(1, p)}
        covered = set()
        for rep in range(1, p):
            if rep in covered:
                continue
            covered.update(rep * h % p for h in powers)
            head = (0,) * i + (rep,)
            for tail in itertools.product(range(p), repeat=n - i - 1):
                yield head + tail


class TestExhaustiveBySliceSize:
    """A field is scanned exhaustively when its orbit slice fits ``max_points``."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_size_formula_counts_the_slice(self, p):
        for n in (1, 2, 3):
            for weights in itertools.product(range(1, 5), repeat=n):
                assert _orbit_slice_size(p, weights) == sum(1 for _ in _orbit_slice(p, weights))

    def test_cubic_in_p6_fits_its_slice(self):
        # p^7 = 78,125 points exceed the budget; the slice has 19,531.
        sys_ = PolySystem.generic((1,) * 7, (3,), GF(5), 1)
        assert _orbit_slice_size(5, (1,) * 7) == 19_531
        verdict = quasi_smooth_probe(sys_, (5,), max_points=20_000)
        assert verdict.exhaustive and verdict.points_scanned == 5**7 - 1
        assert len(verdict.witnesses) == 4
        assert verdict == quasi_smooth_probe(sys_, (5,), max_points=10**5)

    def test_one_point_short_of_the_slice_samples(self):
        sys_ = PolySystem.generic((1,) * 7, (3,), GF(5), 1)
        verdict = quasi_smooth_probe(sys_, (5,), max_points=19_530, sample_count=300)
        assert not verdict.exhaustive and verdict.points_scanned <= 300


# -- The generated evaluator -----------------------------------------------------


def compiled(poly, p):
    # The reference table has a column for every exponent up to the largest,
    # so each exponent is its own column.
    max_exp = max((e for exps, _ in poly.terms for e in exps), default=1)
    return _compiled_eval(poly, power_table(p, max_exp), range(max_exp + 1), p)


def agrees_with_evaluate(poly, p, draws=300, seed=0):
    ev = compiled(poly, p)
    rng = random.Random(seed)
    n = len(poly.weights)
    points = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(draws)]
    points += [(0,) * n, (1,) * n]
    return all(ev(pt) == evaluate(poly, pt) for pt in points)


class TestCompiledEval:
    @pytest.mark.parametrize("p", [2, 5, 13])
    def test_dense_generic_members(self, p):
        for weights, degree in [((1, 2, 2, 3), 6), ((1, 1, 3, 3, 3), 6), ((1, 1, 1, 1, 2), 5)]:
            for seed in (1, 2):
                poly = generic_poly(weights, degree, GF(p), seed)
                assert poly.num_terms > 5
                assert agrees_with_evaluate(poly, p, seed=seed)

    @pytest.mark.parametrize("p", [2, 5, 13])
    def test_sparse_parsed_members(self, p):
        for text, weights in [
            ("x0^3 + x1^3 + x2^3 + x3^3", P1111),
            ("x0*x1", (1, 1, 1)),
            ("3*x0^6 - 2*x1^3 + 7*x2^2*x1 + x3^2", (1, 2, 2, 3)),
            ("x4^5", (1, 1, 1, 1, 1)),
        ]:
            poly = parse_poly(text, weights, GF(p))
            assert agrees_with_evaluate(poly, p)

    def test_constant_and_zero_polynomials(self):
        constant = SparsePoly.from_terms(GF(5), (1, 1), {(0, 0): 3})
        zero = SparsePoly.from_terms(GF(5), (1, 1), {}, degree=2)
        assert zero.is_zero and constant.num_terms == 1
        for pt in itertools.product(range(5), repeat=2):
            assert compiled(constant, 5)(pt) == 3
            assert compiled(zero, 5)(pt) == 0

    def test_many_terms_compile_and_agree(self):
        # A chain of 5,005 additions overflows the compiler's recursion limit;
        # a sum over a tuple, in chunks, does not.
        poly = generic_poly((1,) * 10, 6, GF(7), 1)
        assert poly.num_terms == 5005
        assert agrees_with_evaluate(poly, 7, draws=50)

    def test_compile_memory_is_bounded(self):
        poly = generic_poly((1,) * 10, 7, GF(7), 1)
        powt = power_table(7, 7)
        assert poly.num_terms >= 10_000
        tracemalloc.start()
        try:
            ev = _compiled_eval(poly, powt, range(8), 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        assert ev((1,) * 10) == evaluate(poly, (1,) * 10)

    def test_non_int_coefficient_is_refused(self):
        poly = parse_poly("x0^2 + x1^2", (1, 1), QQ)
        with pytest.raises(TypeError):
            compiled(poly, 5)


# -- The generated scan -----------------------------------------------------------


def reference_scan(p, points, equations, matrix, rank):
    """The scan through closure evaluators, one call per equation and entry."""
    f_evals = [reference_eval(f, p) for f in equations]
    m_evals = [[reference_eval(g, p) for g in row] for row in matrix]
    return [
        pt
        for pt in points
        if not any(fe(pt) for fe in f_evals)
        and matrix_rank([[ge(pt) for ge in row] for row in m_evals], GF(p)) < rank
    ]


def scans_agree(sys_, p, points):
    """``_scan`` over the system's equations and Jacobian equals the reference,
    and finds something to agree on unless the point list is empty."""
    args = (sys_.polys, _jacobian(sys_), len(sys_.polys))
    found = _scan(p, GF(p), points, *args)
    assert found == reference_scan(p, points, *args)
    return found


def nonzero_points(p, n):
    return [pt for pt in itertools.product(range(p), repeat=n) if any(pt)]


class TestScan:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_hypersurfaces_and_pairs(self, p):
        # k = 1 and k = 2, generic members and sparse ones with witnesses.
        # A hypersurface's row, with rank bound 1, is scanned as equations
        # after f.
        systems = [
            PolySystem.generic((1, 2, 2, 3), (6,), GF(p), 12),
            PolySystem.generic((1, 1, 3, 3, 3), (6, 6), GF(p), 3),
            NODE.reduce_mod(p),
            PolySystem(
                (
                    parse_poly("x0*x1 + x2^2", (1, 1, 1, 1), GF(p)),
                    parse_poly("x0^2 + x3^2", (1, 1, 1, 1), GF(p)),
                )
            ),
            PolySystem.generic((1, 1, 1, 1), (3,), GF(p), 3),
            PolySystem.generic((1, 1, 1, 2, 2), (4,), GF(p), 2),
        ]
        found = [scans_agree(s, p, nonzero_points(p, len(s.weights))) for s in systems]
        assert [len(s.polys) for s in systems] == [1, 2, 1, 2, 1, 1]
        assert found[2] and found[3] and found[5]
        # The septic in five variables (330 terms) and its row (1,045 more)
        # pass the inline bound inside the row, so the row's last entries
        # are compiled functions.  It is scanned on its orbit slice.
        septic = PolySystem.generic((1,) * 5, (7,), GF(p), 3)
        f, row = septic.polys[0], _jacobian(septic)[0]
        assert len(f.terms) <= _CHUNK_TERMS < len(f.terms) + sum(len(g.terms) for g in row)
        scans_agree(septic, p, list(_orbit_slice(p, septic.weights.entries)))

    def test_zero_polynomial(self):
        zero = SparsePoly.from_terms(GF(5), (1, 1, 1), {}, degree=2)
        x0 = parse_poly("x0^2", (1, 1, 1), GF(5))
        points = nonzero_points(5, 3)
        # A zero equation vanishes everywhere; a zero entry never adds rank.
        on_x0 = [pt for pt in points if pt[0] == 0]
        for equation, entry, expected in [
            (zero, x0, on_x0), (x0, zero, on_x0), (zero, zero, points)
        ]:
            found = _scan(5, GF(5), points, (equation,), [[entry]], 1)
            assert found == reference_scan(5, points, (equation,), [[entry]], 1) == expected

    def test_no_equations(self):
        # The witness search's Z scan: the rank test alone, two rows.
        rows = [
            [parse_poly(t, (1, 1, 1), GF(7)) for t in row]
            for row in (("x0", "x1", "x2"), ("x1", "x2", "x0 + x1"))
        ]
        points = nonzero_points(7, 3)
        found = _scan(7, GF(7), points, (), rows, 2)
        assert found == reference_scan(7, points, (), rows, 2)
        assert 0 < len(found) < len(points)

    def test_sampled_points_as_a_dict(self):
        sys_ = PolySystem.generic((1, 1, 1, 1, 1), (3,), GF(5), 2)
        rng = random.Random(4)
        points = dict.fromkeys(tuple(rng.randrange(5) for _ in range(5)) for _ in range(400))
        points.pop((0,) * 5, None)
        assert scans_agree(sys_, 5, points) == scans_agree(sys_, 5, list(points))

    def test_equation_above_the_chunk_bound(self):
        sys_ = PolySystem.generic((1,) * 8, (6,), GF(7), 1)
        assert sys_.polys[0].num_terms > _CHUNK_TERMS
        rng = random.Random(2)
        points = list(dict.fromkeys(tuple(rng.randrange(7) for _ in range(8)) for _ in range(150)))
        # Points on the hypersurface, so the Jacobian entries are evaluated too.
        f = sys_.polys[0]
        for pt in list(points[:60]):
            for x in range(7):
                zero = pt[:-1] + (x,)
                if any(zero) and evaluate(f, zero) == 0:
                    points.append(zero)
        assert scans_agree(sys_, 7, points) == []
        assert any(evaluate(f, pt) == 0 for pt in points)

    def test_no_compile_sees_more_than_the_chunk_bound(self, monkeypatch):
        # With a bound of 20 terms, the linear equation (7 terms) is inlined
        # in the scan and the quadric (28 terms) is compiled in chunks of 20
        # and 8.  The linear equation's row (7 constants) is one generator,
        # compiled with the scan; the quadric's (7 entries of 7 terms) draws
        # from one function per entry, and the 7 entries share one shape.
        monkeypatch.setattr(oracle, "_CHUNK_TERMS", 20)
        monkeypatch.setattr(codegen, "_shapes", {})
        sources = recorded_compiles(monkeypatch)
        sys_ = PolySystem.generic((1,) * 7, (1, 2), GF(5), 1)
        assert [f.num_terms for f in sys_.polys] == [7, 28]
        scans_agree(sys_, 5, nonzero_points(5, 7)[::7])
        # Every term of generated code reads one coefficient name.
        terms = [len(re.findall(r"\bK\d+\b", source)) for source in sources]
        assert [defined(source) for source in sources] == [["ev"], ["ev"], ["ev"], ["row", "scan"]]
        assert terms == [20, 8, 7, 14]

    @pytest.mark.parametrize("chunk", [6, 1024])
    def test_row_generators(self, monkeypatch, chunk):
        # k = 1, 2 and 3, generic members and sparse ones with witnesses.
        # The one row of k = 1 is scanned as equations, each past the first
        # an "eq" function.  For k >= 2, under a bound of 6 terms the rows of
        # the sparse and the linear equations are generators and the rows of
        # the generic quadrics and cubics draw from one "ev" function per
        # entry; under the default bound every row is a generator.
        monkeypatch.setattr(oracle, "_CHUNK_TERMS", chunk)
        monkeypatch.setattr(codegen, "_shapes", {})
        sources = recorded_compiles(monkeypatch)
        systems = [
            (5, PolySystem.generic((1, 1, 1, 1), (3,), GF(5), 1)),
            (5, NODE.reduce_mod(5)),
            (5, PolySystem.generic((1, 1, 1, 1), (2, 3), GF(5), 2)),
            (5, system(["x0*x1 + x2^2", "x0^2 + x3^2"], (1, 1, 1, 1), 5)),
            (3, PolySystem.generic((1, 1, 1, 1, 1), (1, 1, 2), GF(3), 3)),
            (3, system(["x0 + x1", "x2*x3", "x0*x1 + x4^2"], (1,) * 5, 3)),
        ]
        found = [scans_agree(s, p, nonzero_points(p, len(s.weights))) for p, s in systems]
        assert [len(s.polys) for _, s in systems] == [1, 1, 2, 2, 3, 3]
        assert found[1] and found[3] and found[5]
        kinds = {kind for source in sources for kind in defined(source)}
        assert kinds == {"scan", "eq", "row", *(["ev"] if chunk == 6 else [])}
        assert max(len(re.findall(r"\bK\d+\b", source)) for source in sources) <= chunk

    def test_zero_column_matrices(self):
        # Rows without entries have rank 0: every common zero is returned.
        s = system(["x0*x2 + x1^2", "x2^2 + x0*x1"], (1, 1, 1), 5)
        points = nonzero_points(5, 3)
        zeros = common_zeros_agree(5, points, s.polys)
        assert zeros
        for matrix, rank in (([[]], 1), ([[], []], 1), ([[], []], 2)):
            assert _scan(5, GF(5), points, s.polys, matrix, rank) == zeros
            assert reference_scan(5, points, s.polys, matrix, rank) == zeros

    @pytest.mark.parametrize("degrees", [(3,), (2, 3), (1, 2, 2)])
    def test_one_compile_per_row(self, monkeypatch, degrees):
        # A member whose equations and rows fit the bound makes one compile()
        # call: the scan and, once per shape, its later equations and its
        # rows (for k >= 2).  The 4 partials of the cubic share one shape,
        # and so do the two quadrics and their rows.  A second member of the
        # family compiles its scan alone.
        kinds = ["eq", "scan"] if len(degrees) == 1 else ["eq", "row", "row", "scan"]
        monkeypatch.setattr(codegen, "_shapes", {})
        sources = recorded_compiles(monkeypatch)
        first, second = (PolySystem.generic((1, 1, 1, 1), degrees, GF(5), seed) for seed in (1, 2))
        assert sum(f.num_terms for f in first.polys) <= _CHUNK_TERMS
        quasi_smooth_probe(first, [5])
        quasi_smooth_probe(second, [5])
        assert [defined(source) for source in sources] == [kinds, ["scan"]]

    @pytest.mark.parametrize("p", [5, 7])
    def test_members_of_a_family_share_their_shapes(self, monkeypatch, p):
        # Two generic members of one family, drawn with different seeds, both
        # equal the reference, and the second compiles no shape the first
        # did: only its scan, which holds its first equation.
        monkeypatch.setattr(codegen, "_shapes", {})
        sources = recorded_compiles(monkeypatch)
        for weights, degrees in [((1, 1, 3, 3, 3), (6, 6)), ((1, 1, 1, 1, 2), (4,)),
                                 ((1, 1, 1, 1, 1), (2, 3)), ((1, 1, 1, 2, 2), (1, 2, 4))]:
            members = [PolySystem.generic(weights, degrees, GF(p), seed) for seed in (1, 2)]
            assert members[0].polys != members[1].polys
            for member in members:
                del sources[:]
                scans_agree(member, p, list(_orbit_slice(p, weights)))
                assert len(sources) == 1
            assert defined(sources[0]) == ["scan"]

    def test_shape_cache_holds_at_most_its_bound(self, monkeypatch):
        # A cache about to pass its bound is emptied first, and a dropped
        # shape is compiled again when a member needs it.
        monkeypatch.setattr(codegen, "_shapes", {})
        monkeypatch.setattr(codegen, "SHAPE_CACHE_SIZE", 3)
        sources = recorded_compiles(monkeypatch)
        sizes = []
        for weights, degrees in [((1, 1, 1, 1), (2, 3)), ((1, 1, 1, 1, 1), (3,)),
                                 ((1, 1, 2, 2), (4, 4)), ((1, 1, 1, 1), (2, 3))]:
            member = PolySystem.generic(weights, degrees, GF(5), 1)
            scans_agree(member, 5, list(_orbit_slice(5, weights)))
            sizes.append(len(codegen._shapes))
        assert sizes == [3, 1, 3, 3]
        assert defined(sources[0]) == defined(sources[-1]) == ["eq", "row", "row", "scan"]

    def test_shape_cache_under_threads(self, monkeypatch):
        # Threads scanning members of several families share the cache: each
        # scan still equals the reference, and the cache keeps its bound.
        monkeypatch.setattr(codegen, "_shapes", {})
        monkeypatch.setattr(codegen, "SHAPE_CACHE_SIZE", 3)
        families = [((1, 1, 1, 1), (2, 3)), ((1, 1, 1, 1, 1), (3,)), ((1, 1, 2, 2), (4, 4))]
        members = [PolySystem.generic(w, d, GF(5), seed) for w, d in families for seed in (1, 2)]
        points = [list(_orbit_slice(5, m.weights.entries)) for m in members]
        expected = [reference_scan(5, pts, m.polys, _jacobian(m), len(m.polys))
                    for m, pts in zip(members, points)]
        failures, sizes = [], []

        def work(i):
            j = i % len(members)
            for _ in range(5):
                m = members[j]
                if _scan(5, GF(5), points[j], m.polys, _jacobian(m), len(m.polys)) != expected[j]:
                    failures.append(i)
                sizes.append(len(codegen._shapes))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures and len(sizes) == 40 and max(sizes) <= 3

    def test_scan_memory_is_bounded(self):
        # The 11,440-term octic goes through its chunks, not inline, so the
        # scan keeps the bound of TestCompiledEval.test_compile_memory_is_bounded.
        # Few points: under tracemalloc every evaluated term is slow.
        poly = generic_poly((1,) * 10, 7, GF(7), 1)
        entry = parse_poly("x0", (1,) * 10, GF(7))
        assert poly.num_terms >= 10_000
        # A point of the octic with x0 = 0, where the entry drops rank.
        rng = random.Random(3)
        lines = ((0, *(rng.randrange(1, 7) for _ in range(8))) for _ in range(100))
        on = next(pt + (x,) for pt in lines for x in range(7) if not evaluate(poly, pt + (x,)))
        points = [(0,) * 9 + (1,), on]
        tracemalloc.start()
        try:
            found = _scan(7, GF(7), points, (poly,), [[entry]], 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        assert found == reference_scan(7, points, (poly,), [[entry]], 1)
        assert evaluate(poly, points[0]) and found == [on]


def recorded_compiles(monkeypatch):
    """The source of every compile() call of generated code from now on, in order."""
    sources = []

    def recording_compile(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(codegen, "compile", recording_compile, raising=False)
    return sources


def defined(source):
    """The kinds of the functions a generated source defines, sorted: its
    ``def`` names without their numbers."""
    return sorted(re.sub(r"\d+$", "", name) for name in re.findall(r"^def (\w+)\(", source, re.M))


def common_zeros_agree(p, points, equations):
    """``_scan`` with an empty matrix (rank 0 < 1 everywhere) returns the
    equations' common zeros in scan order; it equals the reference, whose
    full-exponent power table checks the Fermat reduction independently."""
    found = _scan(p, GF(p), points, equations, (), 1)
    assert found == reference_scan(p, points, equations, (), 1)
    return found


def system(polys, weights, p):
    return PolySystem(tuple(parse_poly(f, weights, GF(p)) for f in polys))


def sparse_member(rng, p):
    """A member of random shape over GF(p): 1 to 5 coordinates of weights in
    {1, 2, 3}, one or two equations of degree at most 6, each keeping every
    term of a generic member with probability 1/2."""
    weights = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(1, 5)))
    polys = []
    for _ in range(rng.randint(1, 2)):
        d = rng.randint(1, 6)
        f = generic_poly(weights, d, GF(p), rng.randrange(10**6))
        kept = [t for t in f.terms if rng.random() < 0.5]
        polys.append(SparsePoly.from_terms(GF(p), weights, kept, degree=d))
    return PolySystem(tuple(polys))


class TestGroupedScan:
    """The inline equations are polynomials in the last two coordinates:
    their term sums are computed once per prefix (x_0, ..., x_{N-2}) and
    their coefficients in x_N once per prefix (x_0, ..., x_{N-1}), with
    exponents reduced mod p-1; every point order and every shape of system
    agrees with the reference."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_sparse_members_in_every_order(self, seed):
        # Product order, the orbit slice, a shuffled order (sampled draws,
        # which share no prefix) and the slice of a stratum that leaves out
        # x_N or x_{N-1}, so that one or both prefixes change at every point.
        rng = random.Random(seed)
        shapes, found = set(), 0
        for _ in range(100):
            p = rng.choice((2, 3, 5, 7))
            s = sparse_member(rng, p)
            weights, n = s.weights.entries, len(s.weights)
            shapes.add((n, len(s.polys)))
            points = nonzero_points(p, n)
            shuffled = rng.sample(points, len(points))
            orders = [points, list(_orbit_slice(p, weights)), shuffled]
            if n > 1:
                off = {rng.choice((n - 2, n - 1)), *rng.sample(range(n), rng.randint(0, n - 2))}
                orders.append(list(_orbit_slice(p, weights, [i for i in range(n) if i not in off])))
            for order in orders:
                found += len(scans_agree(s, p, order))
        assert shapes == {(n, k) for n in range(1, 6) for k in (1, 2)} and found

    def test_one_coordinate(self):
        # x_N alone: no x_{N-1} to group by, and x0^2 vanishes nowhere on
        # the punctured line.
        s = system(["x0^2"], (1,), 5)
        assert quasi_smooth_probe(s, [5]).status == "no_witness_found"
        assert scans_agree(s, 5, nonzero_points(5, 1)) == []
        pair = system(["x0^2", "3*x0^2"], (1,), 5)
        assert common_zeros_agree(5, nonzero_points(5, 1), pair.polys) == []

    def test_later_equation_beside_the_rows(self, monkeypatch):
        # k = 2: the second equation is an "eq" function with prefix
        # trackers of its own, and the Jacobian rows are generators R0, R1
        # called at the common zeros.  No local of the scan shadows a name
        # it reads from its globals.
        monkeypatch.setattr(codegen, "_shapes", {})
        sources = recorded_compiles(monkeypatch)
        s = system(["x0*x1*x3 + x2^2*x3", "x0^3 + x1*x3^2 + x2^2*x3"], (1, 1, 1, 1), 5)
        assert scans_agree(s, 5, nonzero_points(5, 4))
        module = compile(sources[-1], "<scan>", "exec")
        scan = next(c for c in module.co_consts if getattr(c, "co_name", None) == "scan")
        assert {"E1", "R0", "R1", "matrix_rank"} <= set(scan.co_names)
        assert not set(scan.co_varnames) & set(scan.co_names)

    def test_reduced_exponents_act_as_the_full_ones(self):
        for p in (2, 3, 5, 7, 13):
            for e in range(3 * p):
                r = oracle._reduced(e, p)
                assert r <= p - 1 and (r == 0) == (e == 0)
                assert all(pow(x, r, p) == pow(x, e, p) for x in range(p)), (p, e)
            # One column per distinct nonzero reduced exponent, at most p - 1,
            # however large the exponents.
            every = system([" + ".join(f"x0^{e}*x1^{3 * p - e}" for e in range(1, 3 * p))],
                           (1, 1), p)
            column = oracle._columns(every.polys, p)
            assert column == {e: e - 1 for e in range(1, p)}
            assert [len(row) for row in oracle._power_table(p, column)] == [p - 1] * p
            huge = system(["x0^100000 + x1^100000"], (1, 1), p)
            assert len(oracle._columns(huge.polys, p)) == 1

    def test_power_table_past_the_cell_bound_refused(self, monkeypatch):
        # p x len(column) cells at most; one cell more is refused before any
        # row is built, by the probe as by the table.
        monkeypatch.setattr(oracle, "MAX_POWER_TABLE_CELLS", 10)
        assert len(oracle._power_table(5, {1: 0, 2: 1})) == 5
        with pytest.raises(ValueError, match="power table of 5 x 3 cells, more than 10"):
            oracle._power_table(5, {1: 0, 2: 1, 3: 2})
        s = system(["x0^3 + x1^3"], (1, 1), 5)
        assert quasi_smooth_probe(s, [5]).status == "no_witness_found"
        with pytest.raises(ValueError, match="more than 10"):
            quasi_smooth_probe(system(["x0^3 + x0*x1^2"], (1, 1), 5), [5])

    @pytest.mark.parametrize("p", [2, 3, 5, 13])
    def test_orbit_slice_in_runs_of_p(self, p):
        # k = 1, 2 and 3; the slice comes in runs of p points sharing a prefix.
        systems = [
            PolySystem.generic((1, 1, 1, 1), (3,), GF(p), 1),
            PolySystem.generic((1, 1, 1, 1), (2, 3), GF(p), 2),
            PolySystem.generic((1, 1, 1, 1, 1), (1, 1, 2), GF(p), 3),
        ]
        for s in systems:
            points = list(_orbit_slice(p, s.weights.entries))
            assert common_zeros_agree(p, points, s.polys)
            scans_agree(s, p, points)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_exponents_at_least_p(self, p):
        # x2^14 is an equation in the last coordinate alone, x0^13*x1 + x1^14
        # one without it.
        members = [
            ["x0^13*x1 + x1^14"],
            ["x0^13*x2 + x1^7*x2^7 + x2^14", "x0^13*x1 + x1^14"],
            ["x2^14", "x0^2*x1^12 + x1^13*x2 + x0^9*x2^5"],
            ["x0^13*x1 + x1^14", "x1^12*x2^2 + x0^3*x2^11", "x2^14 + x0^7*x1^7"],
        ]
        for polys in members:
            n = 2 if len(polys) == 1 else 3
            s = system(polys, (1,) * n, p)
            points = nonzero_points(p, n)
            assert common_zeros_agree(p, points, s.polys)
            scans_agree(s, p, points)

    def test_sampled_dict(self):
        s = PolySystem.generic((1, 1, 2, 2, 3), (4, 6), GF(7), 5)
        rng = random.Random(11)
        points = dict.fromkeys(tuple(rng.randrange(7) for _ in range(5)) for _ in range(3000))
        points.pop((0,) * 5, None)
        assert common_zeros_agree(7, points, s.polys) == common_zeros_agree(7, list(points), s.polys)
        scans_agree(s, 7, points)

    def test_a_prefix_that_comes_back(self):
        # Runs with prefixes A, B, A: the second A run is new, not the first's.
        s = system(["x0 + 4*x2", "x1*x2 + 4*x2^2", "x0^2 + 4*x1*x2"], (1, 1, 1), 5)
        a, b = (1, 1), (2, 2)
        points = [q + (x,) for q in (a, b, a) for x in range(5)]
        for k in (1, 2, 3):
            found = common_zeros_agree(5, points, s.polys[:k])
            assert found.count((1, 1, 1)) == 2 and (2, 2, 2) in found

    def test_lazy_coefficients_belong_to_their_prefix(self):
        # Equation 1's coefficients are computed at B's second point, the
        # first to pass equation 0 there, after A's were: x0 = x1 = x2 only
        # holds if they are B's.
        s = system(["x0 + 4*x2", "x1 + 4*x2"], (1, 1, 1), 5)
        points = [(1, 1, 1), (2, 2, 0), (2, 2, 2), (3, 2, 1), (3, 2, 3), (3, 3, 3)]
        assert common_zeros_agree(5, points, s.polys) == [(1, 1, 1), (2, 2, 2), (3, 3, 3)]
        # The same with the equations' coordinates read in another order.
        s = system(["x2 + 4*x0", "x2^2 + 4*x1^2"], (1, 1, 1), 5)
        assert common_zeros_agree(5, points, s.polys) == [(1, 1, 1), (2, 2, 2), (3, 2, 3), (3, 3, 3)]

    def test_zero_polynomial_among_equations(self):
        zero = SparsePoly.from_terms(GF(5), (1, 1, 1), {}, degree=2)
        f, g = (parse_poly(t, (1, 1, 1), GF(5)) for t in ("x0*x2 + x1^2", "x2^2 + x0*x1"))
        points = nonzero_points(5, 3)
        zeros = common_zeros_agree(5, points, (f, g))
        for equations in ((zero, f, g), (f, zero, g), (f, g, zero)):
            assert common_zeros_agree(5, points, equations) == zeros
        assert common_zeros_agree(5, points, (zero,)) == points

    def test_inline_and_chunked_equations(self, monkeypatch):
        # Under a bound of 10 terms a 3-term equation listed first is inlined
        # and the 15-term quadrics after it are compiled in chunks; listed
        # after them it is chunked too, the budget being spent.
        monkeypatch.setattr(oracle, "_CHUNK_TERMS", 10)
        generic = PolySystem.generic((1,) * 5, (2, 2), GF(3), 4)
        assert [f.num_terms for f in generic.polys] == [15, 15]
        short = parse_poly("x0*x4 + x1*x2 + x4^2", (1,) * 5, GF(3))
        points = nonzero_points(3, 5)
        for equations in ((short, *generic.polys), (*generic.polys, short)):
            assert common_zeros_agree(3, points, equations)
            scans_agree(PolySystem(equations), 3, points)
