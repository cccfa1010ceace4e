"""Tests for the sparse weighted-homogeneous polynomial engine."""

import itertools
import random
from fractions import Fraction

import pytest

from wcikit import (
    GF,
    QQ,
    DegreeMismatchError,
    ParseError,
    PolyError,
    PolySystem,
    SparsePoly,
    evaluate,
    generic_poly,
    is_representable,
    monomials_of_degree,
    parse_poly,
    partial_derivative,
    restrict,
    to_prime_field,
    weighted_degree,
)

W112 = (1, 1, 2)


def dp_monomial_count(weights, degree):
    """Independent count of exponent vectors of a weighted degree: one
    convolution pass per coordinate."""
    counts = [0] * (degree + 1)
    counts[0] = 1
    for a in weights:
        for t in range(a, degree + 1):
            counts[t] += counts[t - a]
    return counts[degree]


def poly_terms(f):
    return dict(f.terms)


def scale_shift(f, index):
    """Test-side x_i * d f / d x_i as a term dict."""
    out = {}
    df = partial_derivative(f, index)
    for exps, c in df.terms:
        shifted = exps[:index] + (exps[index] + 1,) + exps[index + 1 :]
        out[shifted] = c
    return out


class TestParse:
    def test_two_term_cubic(self):
        f = parse_poly("x0^3 + 2*x0*x2", W112, QQ)
        assert f.degree == 3 and f.num_terms == 2
        assert f.coefficient((3, 0, 0)) == 1
        assert f.coefficient((1, 0, 1)) == 2

    def test_mixed_weights_same_degree(self):
        f = parse_poly("x0^2 + x2", W112, QQ)
        assert f.degree == 2 and f.num_terms == 2

    def test_mixed_degree_error_names_monomials(self):
        with pytest.raises(DegreeMismatchError) as err:
            parse_poly("x0 + x2", W112, QQ)
        assert err.value.degrees == (1, 2)
        assert "x0" in str(err.value) and "x2" in str(err.value)

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x0 + ", W112, QQ)
        assert err.value.position == 5

    def test_unknown_variable(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x7", W112, QQ)
        assert "x7" in str(err.value)

    def test_bad_exponent(self):
        with pytest.raises(ParseError):
            parse_poly("x0^0", W112, QQ)
        with pytest.raises(ParseError):
            parse_poly("x0^", W112, QQ)

    def test_leading_minus_and_signs(self):
        f = parse_poly("-x0^2 + 3*x1^2 - x2", W112, QQ)
        assert f.coefficient((2, 0, 0)) == -1
        assert f.coefficient((0, 2, 0)) == 3
        assert f.coefficient((0, 0, 1)) == -1

    def test_constants_fold(self):
        f = parse_poly("2*3*x0", W112, QQ)
        assert f.coefficient((1, 0, 0)) == 6

    def test_like_terms_combine_and_cancel(self):
        f = parse_poly("x0^2 - x0^2 + x1^2", W112, QQ)
        assert f.num_terms == 1
        z = parse_poly("x0 - x0", W112, QQ)
        assert z.is_zero and z.degree == 1

    def test_mod_p_reduction(self):
        f = parse_poly("7*x0^2 + x2", W112, GF(5))
        assert f.coefficient((2, 0, 0)) == 2
        g = parse_poly("5*x0^2", W112, GF(5))
        assert g.is_zero and g.degree == 2

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_poly("   ", W112, QQ)

    def test_whitespace_insignificant(self):
        assert parse_poly(" x0 ^ 3+2 * x0*x2 ", W112, QQ) == parse_poly(
            "x0^3 + 2*x0*x2", W112, QQ
        )


class TestPrintRoundTrip:
    def test_canonical_roundtrip(self):
        for text in ["x0^3 + 2*x0*x2", "-x0^2 + 3*x1^2 - x2", "7", "x1*x0"]:
            f = parse_poly(text, W112, QQ)
            if f.is_zero:
                continue
            assert parse_poly(str(f), W112, QQ) == f

    def test_zero_prints_as_zero(self):
        assert str(SparsePoly.from_terms(QQ, W112, {}, degree=3)) == "0"

    def test_generic_roundtrip_mod_p(self):
        for seed in range(5):
            f = generic_poly((1, 1, 2, 2, 2), 4, GF(7), seed)
            assert parse_poly(str(f), (1, 1, 2, 2, 2), GF(7)) == f

    def test_terms_sorted_by_exponent_vector(self):
        f = parse_poly("x2 + x0^2 + x0*x1", W112, QQ)
        assert [e for e, _ in f.terms] == sorted(e for e, _ in f.terms)

    def test_nonintegral_coefficient_not_printable(self):
        f = SparsePoly.from_terms(QQ, W112, {(1, 0, 0): Fraction(1, 2)})
        with pytest.raises(PolyError):
            str(f)


def recursive_monomials(weights, degree):
    """Reference enumeration by recursion over the coordinates, each prefix
    ascending, the last exponent forced."""
    if len(weights) == 1:
        q, r = divmod(degree, weights[0])
        if r == 0 and degree >= 0:
            yield (q,)
        return
    for e in range(degree // weights[0] + 1):
        for rest in recursive_monomials(weights[1:], degree - e * weights[0]):
            yield (e,) + rest


class TestMonomials:
    def test_same_sequence_as_recursive_enumeration(self):
        cases = [
            (w, d)
            for n in range(1, 5)
            for w in itertools.product(range(1, 5), repeat=n)
            for d in range(-1, 13)
        ]
        cases += [((2, 3, 5, 7), 30), ((1,) * 7, 9), ((3,), 5), ((2, 2), 3), ((1, 6, 10, 15), 60)]
        for w, d in cases:
            assert list(monomials_of_degree(w, d)) == list(recursive_monomials(w, d)), (w, d)


class TestGenericPoly:
    def test_surface_quartic_count(self):
        f = generic_poly((1, 1, 2, 2, 2), 4, GF(5), seed=1)
        assert f.num_terms == 20  # 5 pure-x + 9 one-y + 6 two-y

    def test_no_monomials_gives_zero(self):
        f = generic_poly((2, 2, 2), 3, GF(5), seed=1)
        assert f.is_zero and f.degree == 3 and f.num_terms == 0

    def test_single_variable(self):
        f = generic_poly((1,), 5, GF(7), seed=0)
        assert [e for e, _ in f.terms] == [(5,)]

    def test_deterministic_in_seed(self):
        a = generic_poly((1, 1, 2), 4, GF(11), seed=9)
        b = generic_poly((1, 1, 2), 4, GF(11), seed=9)
        c = generic_poly((1, 1, 2), 4, GF(11), seed=10)
        assert a == b and a != c

    def test_all_coefficients_nonzero(self):
        f = generic_poly((1, 2, 3), 12, GF(3), seed=4)
        assert all(c % 3 for _, c in f.terms)

    def test_requires_prime_field(self):
        with pytest.raises(ValueError):
            generic_poly((1, 1), 3, QQ, seed=0)

    def test_count_matches_dp_at_stated_bounds(self):
        # Sum of weights <= 12, degree <= 12; enumeration counts are
        # permutation-invariant so ascending tuples represent all orderings.
        def ascending(length, lo, budget):
            if length == 0:
                yield ()
                return
            for v in range(lo, budget // length + 1):
                for rest in ascending(length - 1, v, budget - v):
                    yield (v,) + rest

        checked = 0
        for length in range(1, 13):
            for w in ascending(length, 1, 12):
                for d in range(1, 13):
                    expected = dp_monomial_count(w, d)
                    assert sum(1 for _ in monomials_of_degree(w, d)) == expected
                    if expected <= 3000:
                        g = generic_poly(w, d, GF(5), seed=0)
                        assert g.num_terms == expected
                    checked += 1
        assert checked > 1000


class TestDerivative:
    def test_examples(self):
        f = parse_poly("x0^3 + x1*x2", W112, QQ)
        assert str(partial_derivative(f, 0)) == "3*x0^2"
        assert str(partial_derivative(f, 2)) == "x1"

    def test_characteristic_kills_multiplier(self):
        f = parse_poly("x0^3", W112, GF(3))
        assert partial_derivative(f, 0).is_zero

    def test_degree_drop(self):
        f = parse_poly("x2^2", W112, QQ)
        d = partial_derivative(f, 2)
        assert d.degree == f.degree - 2

    def test_index_out_of_range(self):
        f = parse_poly("x0", W112, QQ)
        with pytest.raises(ValueError):
            partial_derivative(f, 3)

    def test_euler_identity(self):
        # sum_i a_i x_i df/dx_i == degree * f for weighted-homogeneous f over Q.
        rng = random.Random(99)
        for w, d in [((1, 1, 2), 4), ((1, 2, 3), 6), ((1, 1, 1, 1), 3), ((2, 3, 5), 10)]:
            terms = {
                m: rng.randrange(-9, 10) or 1 for m in monomials_of_degree(w, d)
            }
            f = SparsePoly.from_terms(QQ, w, terms, degree=d)
            total = {}
            for i, a in enumerate(w):
                for exps, c in scale_shift(f, i).items():
                    total[exps] = total.get(exps, Fraction(0)) + a * c
            expected = {exps: d * c for exps, c in f.terms}
            total = {e: c for e, c in total.items() if c}
            assert total == expected


class TestRestrict:
    def test_general_cubic_vanishes_on_even_stratum(self):
        for seed in range(4):
            f = generic_poly((1, 1, 2, 2, 2), 3, GF(5), seed)
            assert restrict(f, (2, 3, 4)).is_zero

    def test_partial_survival(self):
        f = parse_poly("x0^2 + x2", W112, QQ)
        assert str(restrict(f, (2,))) == "x2"

    def test_identity(self):
        f = parse_poly("x0^3 + x1*x2", W112, QQ)
        assert restrict(f, (0, 1, 2)) == f

    def test_links_to_representability(self):
        # restrict(generic f, J) == 0 iff degree not representable over the J weights.
        for w in [(1, 1, 2), (1, 2, 3), (1, 1, 2, 2, 2), (2, 3, 5)]:
            for d in range(1, 9):
                f = generic_poly(w, d, GF(5), seed=d)
                if f.is_zero:
                    continue
                for size in range(1, len(w)):
                    from itertools import combinations

                    for idx in combinations(range(len(w)), size):
                        expect = is_representable(d, [w[i] for i in idx])
                        assert restrict(f, idx).is_zero == (not expect), (w, d, idx)


class TestEvaluate:
    def test_rational(self):
        f = parse_poly("x0^3 + x1*x2", W112, QQ)
        assert evaluate(f, (1, 1, 1)) == 2

    def test_zero_poly(self):
        z = SparsePoly.from_terms(QQ, W112, {}, degree=4)
        assert evaluate(z, (3, 4, 5)) == 0

    def test_mod_p(self):
        f = parse_poly("x2^2", W112, GF(5))
        assert evaluate(f, (0, 0, 3)) == 4

    def test_length_mismatch(self):
        f = parse_poly("x0", W112, QQ)
        with pytest.raises(PolyError):
            evaluate(f, (1, 2))

    def test_field_mismatch(self):
        f = parse_poly("x0", W112, GF(5))
        with pytest.raises(PolyError):
            evaluate(f, (1.5, 0, 0))


class TestFieldsAndSystem:
    def test_prime_field_validation(self):
        GF(2)
        GF(65521)
        with pytest.raises(ValueError):
            GF(4)
        with pytest.raises(ValueError):
            GF(65537)  # prime, but at 2^16

    def test_fraction_reduction_mod_p(self):
        f = SparsePoly.from_terms(QQ, (1, 1), {(1, 0): Fraction(1, 2)})
        g = to_prime_field(f, 5)
        assert g.coefficient((1, 0)) == 3  # 1/2 = 3 mod 5
        with pytest.raises(PolyError):
            to_prime_field(f, 2)

    def test_system_shares_ring(self):
        f = parse_poly("x0^2", (1, 1), QQ)
        g = parse_poly("x0^3", (1, 1, 2), QQ)
        with pytest.raises(ValueError):
            PolySystem((f, g))

    def test_generic_system_seeds_differ_per_equation(self):
        sys_ = PolySystem.generic((1, 1, 2, 2), (2, 2), GF(5), seed=3)
        assert sys_.degrees == (2, 2)
        assert sys_.polys[0] != sys_.polys[1]

    def test_homogeneity_enforced(self):
        with pytest.raises(DegreeMismatchError):
            SparsePoly.from_terms(QQ, W112, {(1, 0, 0): 1, (0, 0, 1): 1})

    def test_zero_needs_declared_degree(self):
        with pytest.raises(PolyError):
            SparsePoly.from_terms(QQ, W112, {})

    def test_weighted_degree(self):
        assert weighted_degree((1, 0, 2), W112) == 5
