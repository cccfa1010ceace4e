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
from wcikit.poly import MAX_GENERIC_TERMS
from wcikit.weights import as_weights

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

    @pytest.mark.parametrize("text, message, position", [
        ("x0 x1", "expected '+', '-', or end of input", 3),
        ("x + x0", "variable needs a decimal index", 0),
        ("x0 $", "unexpected character '$'", 3),
    ])
    def test_syntax_error_messages(self, text, message, position):
        with pytest.raises(ParseError) as err:
            parse_poly(text, W112, QQ)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

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


# The recursive-descent parser and character-loop tokenizer that the
# token-regex parser replaced, kept verbatim (only the parser renamed) as
# the differential reference.
def reference_parse_poly(text: str, weights, field) -> SparsePoly:
    """Parse the module grammar into a weighted-homogeneous polynomial.

    Raises ParseError with a position for syntax problems and unknown
    variables, DegreeMismatchError when two monomials disagree in weighted
    degree.
    """
    w = as_weights(weights)
    n = len(w)
    tokens = _tokenize(text)
    state = {"i": 0}

    def peek():
        return tokens[state["i"]]

    def advance():
        state["i"] += 1

    def parse_term():
        coeff = 1
        exps = [0] * n
        while True:
            kind, value, pos = peek()
            if kind == "int":
                coeff *= value
                advance()
            elif kind == "var":
                if value >= n:
                    raise ParseError(f"unknown variable x{value}: only {n} coordinates", pos)
                advance()
                exp = 1
                if peek()[0] == "^":
                    advance()
                    ekind, evalue, epos = peek()
                    if ekind != "int" or evalue < 1:
                        raise ParseError("exponent must be a positive integer", epos)
                    exp = evalue
                    advance()
                exps[value] += exp
            else:
                raise ParseError("expected a variable or integer", pos)
            if peek()[0] == "*":
                advance()
                continue
            break
        return coeff, tuple(exps)

    raw_terms = []
    sign = 1
    if peek()[0] == "-":
        sign = -1
        advance()
    if peek()[0] == "end":
        raise ParseError("empty polynomial", peek()[2])
    while True:
        coeff, exps = parse_term()
        raw_terms.append((exps, sign * coeff))
        kind, _, pos = peek()
        if kind == "end":
            break
        if kind == "+":
            sign = 1
        elif kind == "-":
            sign = -1
        else:
            raise ParseError("expected '+', '-', or end of input", pos)
        advance()
    return SparsePoly.from_terms(field, w, raw_terms)


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^":
            tokens.append((ch, None, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch == "x":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("variable needs a decimal index", i)
            tokens.append(("var", int(text[i + 1 : j]), i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


# Pieces of random parser input: variables (x3 and up are unknown on three
# coordinates, x4 and up on four), integers with leading zeros, the
# operators, ASCII and Unicode whitespace (\x1c is str.isspace), a decimal
# digit int() reads (Arabic-Indic 3), a digit it refuses (superscript 2)
# and a stray character.
PIECES = (
    ["x"] + [f"x{i}" for i in range(13)] + ["0", "1", "2", "3", "7", "00", "05", "012", "10"]
    + ["+", "-", "*", "^"] + [" ", "\t", "\n", "\x1c", "\u00a0", "\u2003", "\u0663", "\u00b2", "@"]
)


def random_input(rng: random.Random) -> str:
    """Half concatenations of random pieces, half grammatical polynomials
    with random spacing, one piece in four of them replaced or dropped."""
    if rng.random() < 0.5:
        return "".join(rng.choices(PIECES, k=rng.randrange(9)))
    pieces = ["-"] if rng.random() < 0.3 else []
    for t in range(rng.randrange(1, 4)):
        if t:
            pieces.append(rng.choice("+-"))
        for f in range(rng.randrange(1, 4)):
            if f:
                pieces.append("*")
            if rng.random() < 0.3:
                pieces.append(str(rng.randrange(12)))
            else:
                pieces.append(f"x{rng.randrange(5)}")
                if rng.random() < 0.4:
                    pieces += ["^", str(rng.randrange(4))]
    for i in range(len(pieces)):
        roll = rng.random()
        if roll < 0.1:
            pieces[i] = rng.choice(PIECES)
        elif roll < 0.15:
            pieces[i] = ""
    return "".join(p + s for p, s in zip(pieces, rng.choices(["", "", " ", "\t"], k=len(pieces))))


def parse_outcome(parse, text, weights, field):
    try:
        return parse(text, weights, field)
    except Exception as exc:  # compared by type, message and position
        return type(exc), str(exc), getattr(exc, "position", None)


class TestParserDifferential:
    def test_agrees_with_reference_parser(self):
        # A bare ValueError from int() on a digit run with a non-decimal digit
        # is the one announced difference: that digit is now an unexpected
        # character, and every run before it was decimal.
        rng = random.Random(20240)
        rings = [(W112, QQ), (W112, GF(5)), ((1, 1, 1, 1), QQ), ((1, 1, 1, 1), GF(5))]
        kinds = set()
        for case in range(40_000):
            text = random_input(rng)
            weights, field = rings[case % 4]
            expected = parse_outcome(reference_parse_poly, text, weights, field)
            kind = expected[0] if isinstance(expected, tuple) else "poly"
            kinds.add(kind)
            if kind is ValueError:
                k = next(i for i, c in enumerate(text) if c.isdigit() and not c.isdecimal())
                expected = ParseError, f"unexpected character {text[k]!r} (at position {k})", k
            assert parse_outcome(parse_poly, text, weights, field) == expected, repr(text)
        assert kinds == {"poly", ParseError, DegreeMismatchError, ValueError}

    @pytest.mark.parametrize("text, char, position", [
        # A non-decimal digit, alone or after a variable, an index or an integer.
        ("\u00b2", "\u00b2", 0), ("x\u00b2", "\u00b2", 1), ("x1\u00b2", "\u00b2", 2),
        ("3\u00b2 + x0", "\u00b2", 1), ("x0 + \u00b2\u0663", "\u00b2", 5),
        # A stray character is reported before the grammar error ahead of it.
        ("x0 x1 @", "@", 6),
    ])
    def test_unexpected_character(self, text, char, position):
        with pytest.raises(ParseError) as err:
            parse_poly(text, W112, QQ)
        assert str(err.value) == f"unexpected character {char!r} (at position {position})"


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

    def test_generic_terms_bounded(self, monkeypatch):
        # Over (1,1) the odometer takes d + 1 steps for degree d: the bound
        # itself is allowed, one step more is refused before any monomial is
        # enumerated.
        f = generic_poly((1, 1), MAX_GENERIC_TERMS - 1, GF(3), seed=1)
        assert f.num_terms == MAX_GENERIC_TERMS

        def unreachable(*_):
            raise AssertionError("monomials enumerated before the bound was checked")

        monkeypatch.setattr("wcikit.poly.monomials_of_degree", unreachable)
        for degree in (MAX_GENERIC_TERMS, 1_000_001, 2**63 - 1):
            with pytest.raises(ValueError, match=f"more than {MAX_GENERIC_TERMS} monomial"):
                generic_poly((1, 1), degree, GF(3), seed=1)
        # The steps, not only the terms, are bounded: (1, 10^6) has one
        # monomial of degree 10^6 but 10^6 + 1 odometer steps.
        with pytest.raises(ValueError, match="monomial-enumeration steps"):
            generic_poly((1, 10**6), 10**6, GF(3), seed=1)

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


X0 = SparsePoly.from_terms(QQ, W112, {(1, 0, 0): 1})


@pytest.mark.parametrize("call, error, message", [
    (lambda: SparsePoly.from_terms(QQ, W112, {(1, 0): 1}),
     PolyError, "exponent vector (1, 0) does not match 3 coordinates"),
    (lambda: SparsePoly.from_terms(QQ, W112, {(2, -1, 1): 1}),
     PolyError, "exponents must be non-negative integers: (2, -1, 1)"),
    (lambda: SparsePoly.from_terms(QQ, W112, {(1, 0, 0): 1}, degree=2),
     PolyError, "declared degree 2 does not match monomial degree 1"),
    (lambda: SparsePoly.from_terms(QQ, W112, {}, degree=-1),
     PolyError, "degree must be non-negative, got -1"),
    (lambda: PolySystem(()), ValueError, "a polynomial system needs at least one polynomial"),
    (lambda: PolySystem((X0, to_prime_field(X0, 5))),
     ValueError, "all system polynomials must share the same coefficient field"),
    (lambda: restrict(X0, (0, 3)), ValueError, "stratum indices [0, 3] out of range"),
    (lambda: generic_poly(W112, 0, GF(5), seed=1), ValueError, "degree must be positive, got 0"),
])
def test_refusals(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


def test_to_prime_field_keeps_a_polynomial_already_there():
    f = to_prime_field(X0, 5)
    assert to_prime_field(f, 5) is f
