"""Sparse weighted-homogeneous polynomials over exact coefficient fields.

Coefficients live in Q (``fractions.Fraction``) or in a prime field F_p with
p < 2^16.  Polynomials are immutable maps from exponent vectors to nonzero
coefficients; every stored term has the same weighted degree.  The text
grammar is::

    expression := ['-'] term (('+'|'-') term)*
    term       := factor ('*' factor)*
    factor     := variable ['^' positive-integer] | integer
    variable   := 'x' decimal-index

Whitespace is insignificant.  The canonical printer emits the same grammar
with terms sorted by exponent vector.
"""

from __future__ import annotations

import operator
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .weights import Weights, as_weights

# Per-equation seed separation for generic systems.
SEED_STRIDE = 1_000_003


class PolyError(ValueError):
    """Base class for polynomial input errors."""


class ParseError(PolyError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DegreeMismatchError(PolyError):
    """Two monomials of a would-be homogeneous polynomial disagree in degree."""

    def __init__(self, mono_a: str, deg_a: int, mono_b: str, deg_b: int):
        super().__init__(
            f"mixed weighted degrees: {mono_a or '1'} has degree {deg_a}"
            f" but {mono_b or '1'} has degree {deg_b}"
        )
        self.monomials = (mono_a, mono_b)
        self.degrees = (deg_a, deg_b)


class RationalField:
    """Exact rational coefficients."""

    name = "QQ"

    def coerce(self, x):
        if isinstance(x, bool):
            raise PolyError(f"cannot use {x!r} as a rational coefficient")
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise PolyError(f"cannot use {x!r} as a rational coefficient")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a

    def mul_int(self, a, n: int):
        return a * n

    def pow(self, a, e: int):
        return a**e

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")


QQ = RationalField()


def _is_small_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """Integers modulo a prime p, with p < 2^16."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or isinstance(self.p, bool):
            raise ValueError(f"prime field characteristic {self.p!r} is not an integer")
        if self.p >= 2**16 or not _is_small_prime(self.p):
            raise ValueError(f"{self.p} is not a prime below 2^16")

    @property
    def name(self) -> str:
        return f"GF({self.p})"

    def coerce(self, x):
        if isinstance(x, bool):
            raise PolyError(f"cannot use {x!r} as a coefficient mod {self.p}")
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise PolyError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(den, -1, self.p) % self.p
        raise PolyError(f"cannot use {x!r} as a coefficient mod {self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of zero mod {self.p}")
        return pow(a, -1, self.p)

    def mul_int(self, a, n: int):
        return (a * n) % self.p

    def pow(self, a, e: int):
        return pow(a, e, self.p)

    def __repr__(self):
        return self.name


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def weighted_degree(exponents, weights) -> int:
    w = as_weights(weights)
    return sum(e * a for e, a in zip(exponents, w.entries))


def _format_monomial(exponents) -> str:
    parts = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exponents) if e]
    return "*".join(parts)


@dataclass(frozen=True)
class SparsePoly:
    """Weighted-homogeneous polynomial as sorted (exponent vector, coefficient) pairs.

    The zero polynomial has no terms but still carries a declared degree.
    """

    field: object
    weights: Weights
    degree: int
    terms: tuple

    @classmethod
    def from_terms(cls, field, weights, terms, degree: int | None = None) -> "SparsePoly":
        """Build from a mapping or iterable of (exponents, coefficient) pairs.

        Coefficients are coerced into the field and like terms combined; zero
        coefficients drop out.  Every monomial must have the same weighted
        degree; a zero polynomial needs an explicit ``degree``.
        """
        w = as_weights(weights)
        n = len(w)
        items = terms.items() if hasattr(terms, "items") else terms
        combined: dict[tuple[int, ...], object] = {}
        common_degree = None
        first_mono = None
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != n:
                raise PolyError(f"exponent vector {exps} does not match {n} coordinates")
            # Plain non-negative ints pass at C speed; the loop names the fault.
            if not (set(map(type, exps)) <= {int} and min(exps, default=0) >= 0) and any(
                (not isinstance(e, int)) or isinstance(e, bool) or e < 0 for e in exps
            ):
                raise PolyError(f"exponents must be non-negative integers: {exps}")
            d = sum(map(operator.mul, exps, w.entries))
            if common_degree is None:
                common_degree, first_mono = d, exps
            elif d != common_degree:
                raise DegreeMismatchError(
                    _format_monomial(first_mono), common_degree, _format_monomial(exps), d
                )
            c = field.coerce(coeff)
            if exps in combined:
                c = field.add(combined[exps], c)
            combined[exps] = c
        combined = {e: c for e, c in combined.items() if c}
        if degree is None:
            if common_degree is None:
                raise PolyError("a zero polynomial needs an explicit degree")
            degree = common_degree
        elif common_degree is not None and common_degree != degree:
            raise PolyError(
                f"declared degree {degree} does not match monomial degree {common_degree}"
            )
        if degree < 0:
            raise PolyError(f"degree must be non-negative, got {degree}")
        return cls(field, w, degree, tuple(sorted(combined.items())))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def coefficient(self, exponents):
        exps = tuple(exponents)
        for e, c in self.terms:
            if e == exps:
                return c
        return self.field.coerce(0)

    def constant_term(self):
        return self.coefficient((0,) * len(self.weights))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exps, coeff in self.terms:
            mono = _format_monomial(exps)
            if isinstance(coeff, Fraction):
                if coeff.denominator != 1:
                    raise PolyError(
                        f"coefficient {coeff} is not representable in the integer grammar"
                    )
                value = coeff.numerator
            else:
                value = coeff
            negative = value < 0
            mag = -value if negative else value
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if not chunks:
                chunks.append(f"-{body}" if negative else body)
            else:
                chunks.append(f" - {body}" if negative else f" + {body}")
        return "".join(chunks)


# Steps the monomial odometer may take for one equation of a generic member:
# one per exponent vector of all but the last coordinate whose weighted
# degree is at most the degree, so at least the member's term count.  A
# degree needing more is refused with ValueError before any term is stored.
MAX_GENERIC_TERMS = 2**16


def _odometer(head, degree: int):
    """Each exponent vector of the ``head`` weights of weighted degree at most
    ``degree``, lexicographically ascending, with the degree left over.  The
    vector is one list, updated in place between steps."""
    exps = [0] * len(head)
    left = degree
    while True:
        yield exps, left
        i = len(head) - 1
        while i >= 0 and left < head[i]:
            left += exps[i] * head[i]
            exps[i] = 0
            i -= 1
        if i < 0:
            return
        exps[i] += 1
        left -= head[i]


def monomials_of_degree(weights, degree: int):
    """Yield all exponent vectors of the given weighted degree, lexicographically ascending."""
    *head, last = as_weights(weights).entries
    if degree < 0:
        return
    # The last coordinate's exponent is forced by the degree left over.
    for exps, left in _odometer(head, degree):
        q, r = divmod(left, last)
        if r == 0:
            yield (*exps, q)


def generic_poly(weights, degree: int, field: PrimeField, seed: int) -> SparsePoly:
    """Polynomial with every monomial of the degree present, each with an
    independent pseudo-random nonzero coefficient from a generator seeded by
    ``seed``.  Returns the zero polynomial when no monomial of that degree
    exists.  The monomials are enumerated only after the odometer has been
    counted to at most ``MAX_GENERIC_TERMS`` steps; a degree needing more
    raises ValueError."""
    if not isinstance(field, PrimeField):
        raise ValueError("generic polynomials are drawn over prime fields")
    if degree < 1:
        raise ValueError(f"degree must be positive, got {degree}")
    w = as_weights(weights)
    *head, _ = w.entries
    if sum(1 for _ in islice(_odometer(head, degree), MAX_GENERIC_TERMS + 1)) > MAX_GENERIC_TERMS:
        raise ValueError(
            f"a generic member of degree {degree} over the weights {list(w)} "
            f"needs more than {MAX_GENERIC_TERMS} monomial-enumeration steps"
        )
    rng = random.Random(seed)
    # The monomials come distinct, of the degree and in ascending order.
    terms = tuple((m, rng.randrange(1, field.p)) for m in monomials_of_degree(w, degree))
    return SparsePoly(field, w, degree, terms)


def parse_poly(text: str, weights, field) -> SparsePoly:
    """Parse the module grammar into a weighted-homogeneous polynomial.

    The whole text is tokenized first, so a stray character (a non-decimal
    digit such as ``²`` too) is reported before any grammar error; one loop
    then reads the terms, in input order.  Raises ParseError with a position
    for syntax problems and unknown variables, DegreeMismatchError when two
    monomials disagree in weighted degree.
    """
    w = as_weights(weights)
    n = len(w)
    tokens = _tokenize(text)
    sign, i = (-1, 1) if tokens[0][0] == "-" else (1, 0)
    if tokens[i][0] == "end":
        raise ParseError("empty polynomial", tokens[i][2])
    raw_terms = []
    coeff, exps = 1, [0] * n
    while True:
        kind, value, pos = tokens[i]
        if kind == "int":
            coeff *= value
        elif kind == "var":
            if value >= n:
                raise ParseError(f"unknown variable x{value}: only {n} coordinates", pos)
            exp = 1
            if tokens[i + 1][0] == "^":
                i += 2
                ekind, exp, epos = tokens[i]
                if ekind != "int" or exp < 1:
                    raise ParseError("exponent must be a positive integer", epos)
            exps[value] += exp
        else:
            raise ParseError("expected a variable or integer", pos)
        i += 1
        kind, _, pos = tokens[i]
        if kind == "*":
            i += 1
            continue
        raw_terms.append((tuple(exps), sign * coeff))
        if kind == "end":
            return SparsePoly.from_terms(field, w, raw_terms)
        if kind not in ("+", "-"):
            raise ParseError("expected '+', '-', or end of input", pos)
        sign = 1 if kind == "+" else -1
        coeff, exps = 1, [0] * n
        i += 1


# One token per match: an integer, a variable (a bare x has the empty index),
# an operator or a stray character.  finditer steps over whitespace, which no
# alternative matches.  \d is str.isdecimal and \S is not str.isspace.
_TOKEN = re.compile(r"(\d+)|x(\d*)|([-+*^])|\S")


def _tokenize(text: str):
    """The ``(kind, value, position)`` tokens of ``text`` and a final ``end``."""
    tokens = []
    for m in _TOKEN.finditer(text):
        number, index, op = m.groups()
        pos = m.start()
        if number:
            tokens.append(("int", _decimal(number, pos), pos))
        elif index:
            tokens.append(("var", _decimal(index, pos + 1), pos))
        elif op:
            tokens.append((op, None, pos))
        elif index is None:
            raise ParseError(f"unexpected character {m.group()!r}", pos)
        elif text[m.end() : m.end() + 1].isdigit():  # a non-decimal digit such as ²
            raise ParseError(f"unexpected character {text[m.end()]!r}", m.end())
        else:
            raise ParseError("variable needs a decimal index", pos)
    tokens.append(("end", None, len(text)))
    return tokens


def _decimal(digits: str, pos: int) -> int:
    """The int of a run of decimal digits at ``pos``.  A run longer than the
    interpreter's limit on int-string conversion, the only ValueError of
    ``int`` here, is a ParseError at ``pos`` naming that limit."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"integer literal of {len(digits)} digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()} digits (sys.get_int_max_str_digits())",
            pos,
        ) from None


def partial_derivative(f: SparsePoly, index: int) -> SparsePoly:
    """Formal partial derivative; over F_p the exponent multiplier reduces mod p,
    so terms whose exponent is divisible by p vanish."""
    if index < 0 or index > f.weights.dim:
        raise ValueError(f"coordinate index {index} out of range")
    terms = {}
    for exps, coeff in f.terms:
        e = exps[index]
        if e == 0:
            continue
        c = f.field.mul_int(coeff, e)
        if not c:
            continue
        terms[exps[:index] + (e - 1,) + exps[index + 1 :]] = c
    degree = f.degree - f.weights[index]
    if not terms:
        degree = max(degree, 0)
    # Lowering one exponent keeps the vectors distinct, of one degree and in
    # ascending order, and the coefficients are nonzero field elements.
    return SparsePoly(f.field, f.weights, degree, tuple(terms.items()))


def restrict(f: SparsePoly, indices) -> SparsePoly:
    """Set every coordinate outside ``indices`` to zero: terms with a positive
    exponent there drop; the result lives in the same ambient ring."""
    keep = set(indices)
    if keep and (min(keep) < 0 or max(keep) > f.weights.dim):
        raise ValueError(f"stratum indices {sorted(keep)} out of range")
    terms = {
        exps: coeff
        for exps, coeff in f.terms
        if all(e == 0 for i, e in enumerate(exps) if i not in keep)
    }
    return SparsePoly.from_terms(f.field, f.weights, terms, degree=f.degree)


def evaluate(f: SparsePoly, point):
    """Evaluate at a point given as a tuple of field elements (exact)."""
    pt = tuple(point)
    if len(pt) != len(f.weights):
        raise PolyError(f"point has {len(pt)} coordinates, expected {len(f.weights)}")
    field = f.field
    mul, power, add = field.mul, field.pow, field.add
    values = tuple(map(field.coerce, pt))
    total = zero = field.coerce(0)
    for exps, coeff in f.terms:
        v = coeff
        for x, e in zip(values, exps):
            if e:
                if not x:
                    v = zero
                    break
                v = mul(v, power(x, e))
        if v:
            total = add(total, v)
    return total


def to_prime_field(f: SparsePoly, p: int) -> SparsePoly:
    """Reduce a rational-coefficient polynomial mod p (terms vanishing mod p drop)."""
    field = GF(p)
    if f.field == field:
        return f
    if isinstance(f.field, PrimeField):
        raise ValueError(f"cannot move a {f.field.name} polynomial to GF({p})")
    terms = {exps: field.coerce(coeff) for exps, coeff in f.terms}
    return SparsePoly.from_terms(field, f.weights, terms, degree=f.degree)


@dataclass(frozen=True)
class PolySystem:
    """Ordered tuple of polynomials sharing one ambient ring and coefficient field."""

    polys: tuple[SparsePoly, ...]

    def __post_init__(self):
        polys = tuple(self.polys)
        object.__setattr__(self, "polys", polys)
        if not polys:
            raise ValueError("a polynomial system needs at least one polynomial")
        first = polys[0]
        for f in polys[1:]:
            if f.weights != first.weights:
                raise ValueError("all system polynomials must share the same weights")
            if f.field != first.field:
                raise ValueError("all system polynomials must share the same coefficient field")

    @property
    def field(self):
        return self.polys[0].field

    @property
    def weights(self) -> Weights:
        return self.polys[0].weights

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(f.degree for f in self.polys)

    def __len__(self):
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    @classmethod
    def generic(cls, weights, degrees, field: PrimeField, seed: int) -> "PolySystem":
        """Generic member of the family: equation j is seeded with
        ``seed * SEED_STRIDE + j`` so the equations draw independent streams."""
        return cls(
            tuple(
                generic_poly(weights, d, field, seed * SEED_STRIDE + j)
                for j, d in enumerate(degrees)
            )
        )

    def reduce_mod(self, p: int) -> "PolySystem":
        """The system over GF(p): itself if it is already there, else each
        rational polynomial reduced mod p (``to_prime_field`` refuses any other
        prime field)."""
        if self.field == GF(p):
            return self
        return PolySystem(tuple(to_prime_field(f, p) for f in self.polys))

    def to_json(self) -> list[str]:
        return [str(f) for f in self.polys]
