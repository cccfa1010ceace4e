"""Weight arithmetic for weighted projective spaces.

A weighted projective space is described here purely by the ordered tuple of
positive integer weights attached to its homogeneous coordinates.  This module
decides whether such a tuple is well formed (every choice of all-but-one
weights is collectively coprime), normalizes an arbitrary tuple to a
well-formed representative via the standard grading isomorphisms, and
enumerates the singular coordinate strata of a well-formed tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb, gcd
from operator import eq, ge

# Entries beyond this cap are rejected at construction; arithmetic stays exact.
MAX_ENTRY = 2**63 - 1

# Index subsets (weight-value sets, for orbit types) a sweep may walk before it refuses.
MAX_SWEEP_SUBSETS = 2**20

OVERALL_GCD = "overall-gcd"
EXCLUDED_INDEX = "excluded-index"


def parse_ints(text: str, what: str) -> tuple[int, ...]:
    """Parse comma-separated decimal ints, e.g. ``"1,1,2,2,2"``; a ValueError
    names ``what`` and the text."""
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse {what} from {text!r}") from None


@dataclass(frozen=True, slots=True)
class Weights:
    """Coordinate weights (a0, ..., aN) of a graded polynomial ring.

    A weighted projective space needs at least two coordinates; the
    space-level operations enforce that, while a single-variable tuple is
    still a valid ring context for polynomials.
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("need at least one weight")
        for a in entries:
            if type(a) is not int and (not isinstance(a, int) or isinstance(a, bool)):
                raise ValueError(f"weight {a!r} is not an integer")
            if a < 1:
                raise ValueError(f"weights must be positive, got {a}")
            if a > MAX_ENTRY:
                raise ValueError(f"weight {a} exceeds the 2^63-1 limit")

    @classmethod
    def parse(cls, text: str) -> "Weights":
        """Parse comma-separated decimal weights, e.g. ``"1,1,2,2,2"``."""
        return cls(parse_ints(text, "weights"))

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    @property
    def dim(self) -> int:
        """Projective dimension of the ambient space (one less than the coordinate count)."""
        return len(self.entries) - 1

    def at(self, indices) -> tuple[int, ...]:
        """Weights at the given coordinate indices, in index order."""
        return tuple(self.entries[i] for i in indices)

    def to_json(self) -> list[int]:
        return list(self.entries)


def as_weights(w) -> Weights:
    """Coerce a Weights instance or any iterable of integers."""
    if isinstance(w, Weights):
        return w
    return Weights(tuple(w))


def _unchecked(cls, **fields):
    """The frozen dataclass ``cls`` holding ``fields``, built past its
    validator: only for values valid by construction."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, slots=True)
class Stratum:
    """Coordinate subspace on which every coordinate outside ``indices`` vanishes.

    ``delta`` is the gcd of the weights at ``indices``; the stratum lies in the
    singular locus of a well-formed space exactly when ``delta > 1``.
    """

    indices: tuple[int, ...]
    delta: int

    def __post_init__(self):
        # A strictly ascending tuple is kept as it is; anything else is
        # sorted, and then distinct exactly when it is strictly ascending.
        idx = self.indices
        if type(idx) is not tuple or any(map(ge, idx, idx[1:])):
            idx = tuple(sorted(idx))
            if any(map(eq, idx, idx[1:])):
                raise ValueError("stratum indices must be distinct")
            object.__setattr__(self, "indices", idx)
        if not idx:
            raise ValueError("a stratum needs at least one coordinate index")
        if idx[0] < 0:
            raise ValueError("stratum indices must be non-negative")
        if not isinstance(self.delta, int) or self.delta < 1:
            raise ValueError(f"delta must be a positive integer, got {self.delta!r}")

    @classmethod
    def of(cls, weights, indices) -> "Stratum":
        """Build the stratum on ``indices``, computing delta from the weights."""
        w = as_weights(weights)
        idx = tuple(sorted(set(indices)))
        if not idx or idx[0] < 0 or idx[-1] > w.dim:
            raise ValueError(
                f"stratum indices {sorted(set(indices))} out of range for {len(w)} coordinates"
            )
        return cls(idx, gcd(*w.at(idx)))

    def weights_in(self, weights) -> tuple[int, ...]:
        """The weights at ``indices``; ValueError if one is out of range or delta is not their gcd."""
        w = as_weights(weights)
        if self.indices[-1] > w.dim:
            raise ValueError(f"stratum indices {list(self.indices)} out of range for {len(w)} coordinates")
        stratum_weights = w.at(self.indices)
        if gcd(*stratum_weights) != self.delta:
            raise ValueError(
                f"stratum delta {self.delta} does not match gcd {gcd(*stratum_weights)} of weights {stratum_weights}"
            )
        return stratum_weights

    @property
    def dim(self) -> int:
        return len(self.indices) - 1

    @property
    def is_singular(self) -> bool:
        return self.delta > 1

    def to_json(self) -> dict:
        return {"indices": list(self.indices), "delta": self.delta, "dim": self.dim}


@dataclass(frozen=True)
class NormalizationStep:
    """One division step of the normalization: either all entries were divided
    by ``divisor`` (overall-gcd) or all entries except ``index`` were
    (excluded-index)."""

    kind: str
    divisor: int
    index: int | None = None

    def __post_init__(self):
        if self.kind not in (OVERALL_GCD, EXCLUDED_INDEX):
            raise ValueError(f"unknown step kind {self.kind!r}")
        if self.divisor <= 1:
            raise ValueError("step divisors must exceed 1")
        if (self.kind == EXCLUDED_INDEX) != (self.index is not None):
            raise ValueError("excluded-index steps carry an index; overall-gcd steps do not")

    def to_json(self) -> dict:
        return {"kind": self.kind, "index": self.index, "divisor": self.divisor}


@dataclass(frozen=True)
class NormalizationTrace:
    """Audit trail of ``well_form``: replaying the steps reproduces the result."""

    steps: tuple[NormalizationStep, ...]
    result: Weights

    def replay(self, start) -> Weights:
        entries = list(as_weights(start).entries)
        for step in self.steps:
            if step.kind == OVERALL_GCD:
                entries = [a // step.divisor for a in entries]
            else:
                entries = [
                    a if i == step.index else a // step.divisor
                    for i, a in enumerate(entries)
                ]
        return Weights(tuple(entries))

    def to_json(self) -> list[dict]:
        return [step.to_json() for step in self.steps]


def _excluded_gcds(entries) -> list[int]:
    """For every position i, the gcd of all entries except entries[i]."""
    n = len(entries)
    out = [1] * n
    if entries.count(1) > 1:
        return out  # every complement holds a 1
    # prefix[i] = gcd(entries[:i]), kept only until it reaches 1: from there
    # on every excluded gcd to the right is 1.  gcd(x, 0) == x, so 0 seeds it.
    prefix = [0]
    for a in entries:
        g = gcd(prefix[-1], a)
        if g == 1:
            break
        prefix.append(g)
    suffix = 0
    for i in range(n - 1, -1, -1):
        if i < len(prefix):
            out[i] = gcd(prefix[i], suffix)
        suffix = gcd(suffix, entries[i])
        if suffix == 1:
            break  # every excluded gcd to the left is 1
    return out


def _space_entries(w) -> tuple[int, ...]:
    entries = as_weights(w).entries
    if len(entries) < 2:
        raise ValueError("a weighted projective space needs at least two coordinates")
    return entries


def _first_excluded(entries) -> tuple[int, int] | None:
    """The smallest index whose complementary gcd exceeds 1, with that gcd;
    None when there is none (the entries of a well-formed space).

    One gcd call decides index 0.  If entries[0] is coprime to some
    entries[k], every other index has both in its complement, so only k is
    left and one more gcd call decides it; without such a k,
    ``_excluded_gcds`` does."""
    a, rest = entries[0], entries[1:]
    g = gcd(*rest)
    if g > 1:
        return 0, g
    k = 1
    for b in rest:
        if gcd(a, b) == 1:
            break
        k += 1
    else:
        return next(((i, g) for i, g in enumerate(_excluded_gcds(entries)) if g > 1), None)
    g = gcd(*entries[:k], *entries[k + 1:])
    return (k, g) if g > 1 else None


def is_well_formed_space(w) -> bool:
    """True iff for every index i the remaining weights have gcd 1."""
    return _first_excluded(_space_entries(w)) is None


def well_form(w) -> tuple[Weights, NormalizationTrace]:
    """Normalize weights to a well-formed representative of the same space.

    Divides all entries by their overall gcd; then, while some index's
    complementary gcd g exceeds 1, divides every entry except the smallest
    such index by g.  Each move realizes a grading isomorphism, the entry
    product strictly decreases, and the entry order is preserved.  No
    overall gcd reappears: a prime dividing the kept entry and every
    quotient would divide every entry before the move, whose gcd is 1
    by then.  Returns the result
    together with a replayable trace.  When no move applies (at once when
    two entries are 1) the result is the input's ``Weights`` itself;
    otherwise the result, whose entries are quotients of valid entries, is
    built past the validator.
    """
    start = as_weights(w)
    entries = _space_entries(start)
    steps: list[NormalizationStep] = []
    if entries.count(1) < 2:
        g = gcd(*entries)
        if g > 1:
            entries = [a // g for a in entries]
            steps.append(NormalizationStep(OVERALL_GCD, g))
        while found := _first_excluded(entries):
            i, g = found
            kept = entries[i]
            entries = [a // g for a in entries]
            entries[i] = kept
            steps.append(NormalizationStep(EXCLUDED_INDEX, g, i))
    result = _unchecked(Weights, entries=tuple(entries)) if steps else start
    return result, NormalizationTrace(tuple(steps), result)


def _coprime_base(values) -> list[int]:
    """Pairwise-coprime integers > 1 over whose powers every input factors.

    Built by repeated gcd splitting, so no integer factorization is needed
    even for 63-bit weights.  Primes inside one base element divide exactly
    the same inputs, hence the base elements reproduce the divisibility
    patterns of all primes dividing some input.
    """
    base: list[int] = []
    pending = [v for v in values if v > 1]
    while pending:
        n = pending.pop()
        for j, b in enumerate(base):
            g = gcd(n, b)
            if g > 1:
                del base[j]
                pending.extend(x for x in (g, b // g, n // g) if x > 1)
                break
        else:
            base.append(n)
    return sorted(set(base))


def _covering_index_sets(entries) -> set[tuple[int, ...]]:
    """The index set of each coprime-base element (each prime divisibility pattern)."""
    return {tuple(i for i, a in enumerate(entries) if a % b == 0) for b in _coprime_base(entries)}


def _singular_index_sets(entries, sizes) -> set[tuple[int, ...]]:
    """Every index subset of one of the given sizes (>= 1) whose entries share
    a divisor > 1.  Such a subset lies inside the covering set of any prime
    dividing its gcd, so only subsets of the covering sets are walked; past
    ``MAX_SWEEP_SUBSETS`` of them the sweep is refused."""
    covers = _covering_index_sets(entries)
    sizes = [s for s in sizes if s >= 1]
    count = sum(comb(len(cover), s) for cover in covers for s in sizes)
    if count > MAX_SWEEP_SUBSETS:
        raise ValueError(
            f"the singular-subset sweep would enumerate {count} index subsets, more than "
            f"{MAX_SWEEP_SUBSETS}"
        )
    return {idx for cover in covers for s in sizes for idx in combinations(cover, s)}


def singular_strata(w, maximal_only: bool = True) -> list[Stratum]:
    """Singular strata of a well-formed weight tuple, sorted by (dimension
    descending, indices ascending).

    With ``maximal_only`` the covering family is returned: one stratum per
    prime p dividing some weight, on the indices of the p-divisible weights,
    deduplicated by index set; delta is the full gcd over the index set (it
    may be composite when several primes share a pattern).  Otherwise one
    stratum per orbit type: for each set V of weight values with
    gcd(V) > 1, on every index whose weight is in V, with delta gcd(V); it
    stands for every index subset with the values V, as whether a degree
    cuts a stratum depends only on its values.  Each V lies among the
    values of a covering stratum, so only their nonempty subsets are
    walked; more than ``MAX_SWEEP_SUBSETS`` of them raise ValueError."""
    weights = as_weights(w)
    if not is_well_formed_space(weights):
        raise ValueError("singular strata are defined for well-formed weights; run well_form first")
    entries = _space_entries(weights)
    if maximal_only:
        strata = [Stratum(idx, gcd(*weights.at(idx))) for idx in _covering_index_sets(entries)]
    else:
        positions: dict[int, list[int]] = {}
        for i, a in enumerate(entries):
            positions.setdefault(a, []).append(i)
        covers = {tuple(v for v in sorted(positions) if v % b == 0) for b in _coprime_base(positions)}
        if (count := sum(2 ** len(values) - 1 for values in covers)) > MAX_SWEEP_SUBSETS:
            raise ValueError(f"the orbit-type sweep would enumerate {count} weight-value sets, "
                             f"more than {MAX_SWEEP_SUBSETS}")
        # One stratum per distinct index set: its indices come ascending from
        # sorted() and delta > 1 is the gcd of its values, so it is built
        # past the validator.
        strata = [_unchecked(Stratum, indices=idx, delta=d) for idx, d in {
            tuple(sorted(chain.from_iterable(map(positions.__getitem__, v)))): gcd(*v)
            for values in covers for size in range(1, len(values) + 1) for v in combinations(values, size)
        }.items()]
    strata.sort(key=lambda s: (-s.dim, s.indices))
    return strata
