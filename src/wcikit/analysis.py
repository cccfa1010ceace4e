"""Combinatorial classification of weighted complete intersection families.

Everything here is evaluated for the *general* member of a family: a defining
polynomial restricts to zero on a coordinate stratum exactly when its degree
is not representable in the numerical semigroup of the stratum weights, and
each surviving restriction is modeled as cutting the stratum dimension by
one (floored at -1, the dimension of the empty set).  Where that model is
known to be fragile the report says so via flags instead of trusting it
silently.
"""

from __future__ import annotations

from bisect import bisect, insort
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress, repeat
from math import gcd, prod
from operator import attrgetter, or_
from typing import Iterator

from .weights import (
    MAX_ENTRY,
    Stratum,
    Weights,
    _singular_index_sets,
    _unchecked,
    as_weights,
    is_well_formed_space,
    singular_strata,
)

THEOREM_NOT_APPLICABLE_DIM = "not_applicable_dim"
THEOREM_NOT_APPLICABLE_LINEAR_CONE = "not_applicable_linear_cone"
THEOREM_CONSISTENT = "consistent"
THEOREM_IMPLIES_NOT_QUASISMOOTH = "implies_not_quasismooth"

# Report flags.
FLAG_DEGENERATE_CONTAINMENT = "degenerate_stratum_containment"
FLAG_DIMCA_MISMATCH = "dimca_codim_mismatch"
FLAG_NONINTEGRAL_SURFACE = "nonintegral_surface_self_intersection"

# Steps (weights times least weight) a representability residue table may
# take; a weight set needing more is refused with ValueError.
MAX_RESIDUE_WORK = 2**21


@dataclass(frozen=True)
class WCISpec:
    """A weighted complete intersection family: ambient weights plus a multidegree."""

    weights: Weights
    degrees: tuple[int, ...]

    def __post_init__(self):
        w = as_weights(self.weights)
        object.__setattr__(self, "weights", w)
        degrees = tuple(self.degrees)
        object.__setattr__(self, "degrees", degrees)
        if not degrees:
            raise ValueError("need at least one defining degree")
        for d in degrees:
            if not isinstance(d, int) or isinstance(d, bool) or d < 1:
                raise ValueError(f"degree {d!r} is not a positive integer")
            if d > MAX_ENTRY:
                raise ValueError(f"degree {d} exceeds the 2^63-1 limit")
        if len(degrees) > w.dim:
            raise ValueError(
                f"codimension {len(degrees)} exceeds the ambient dimension {w.dim}"
            )

    @property
    def codimension(self) -> int:
        return len(self.degrees)

    @property
    def dimension(self) -> int:
        return self.weights.dim - len(self.degrees)

    def key(self) -> str:
        """Canonical identifier, e.g. ``"1,1,2,2,2/3,4"``."""
        return f"{self.weights}/{','.join(str(d) for d in self.degrees)}"

    def to_json(self) -> dict:
        return {"weights": self.weights.to_json(), "degrees": list(self.degrees)}


@dataclass(frozen=True, slots=True)
class StratumIntersection:
    """How the general member meets one stratum.

    ``cutting_degrees`` are the indices (0-based) of degrees whose general
    restriction to the stratum is not identically zero; each one cuts the
    stratum dimension by one in the model.  ``contained`` means no degree
    cuts, i.e. the general member contains the stratum.  For strata of the
    maximal covering family, ``dimca_codim`` carries the divisibility-count
    codimension formula and ``dimca_agrees`` compares it with the model.
    """

    stratum: Stratum
    cutting_degrees: tuple[int, ...]
    dim_general: int
    contained: bool
    dimca_codim: int | None = None
    dimca_agrees: bool | None = None

    def to_json(self) -> dict:
        return {
            "stratum": self.stratum.to_json(),
            "cutting_degrees": list(self.cutting_degrees),
            "dim_general": self.dim_general,
            "contained": self.contained,
            "dimca_codim": self.dimca_codim,
            "dimca_agrees": self.dimca_agrees,
        }


@dataclass(frozen=True)
class AnalysisReport:
    """Full classification verdict for one family."""

    spec: WCISpec
    space_well_formed: bool
    dim_X: int
    linear_cone: bool
    amplitude: int
    canonical_self_intersection: Fraction
    strata: tuple[StratumIntersection, ...]
    sing_intersection_dim: int
    well_formed: bool
    weakly_well_formed: bool
    theorem_status: str
    flags: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "space_well_formed": self.space_well_formed,
            "dim_X": self.dim_X,
            "linear_cone": self.linear_cone,
            "amplitude": self.amplitude,
            "canonical_self_intersection": {
                "num": self.canonical_self_intersection.numerator,
                "den": self.canonical_self_intersection.denominator,
            },
            "strata": [si.to_json() for si in self.strata],
            "sing_intersection_dim": self.sing_intersection_dim,
            "well_formed": self.well_formed,
            "weakly_well_formed": self.weakly_well_formed,
            "theorem_status": self.theorem_status,
            "flags": list(self.flags),
        }


def is_linear_cone(spec: WCISpec) -> bool:
    """True iff some defining degree equals some weight, so one equation could
    eliminate a variable."""
    return not set(spec.degrees).isdisjoint(spec.weights.entries)


def is_representable(d: int, weight_multiset) -> bool:
    """Whether d is a non-negative integer combination of the given weights,
    i.e. whether any monomial of weighted degree d exists in variables of
    those weights.

    The cost does not depend on d.  After dividing d and the weights by
    their gcd, a weight of 1, d = 0, d below the least weight, two weights
    (a closed form) and d above Schur's bound (a_1 - 1)(a_k - 1) - 1 on the
    Frobenius number are decided directly.  What is left is answered from
    the Böcker–Lipták residue table of the weight set, built once in
    O(k * a_1) steps: n[r] is the least representable value congruent to r
    mod a_1, and d is representable iff n[d mod a_1] <= d.  A table above
    ``MAX_RESIDUE_WORK`` steps raises ValueError; it is only needed when
    a_1 <= d, so the dynamic program over 0..d would take at least as many.
    """
    ws = tuple(sorted(set(weight_multiset)))
    if not ws:
        raise ValueError("weight multiset must be nonempty")
    # Plain ints pass the first test at C speed; anything else (bools, floats,
    # int subclasses) gets the detailed check.
    if not (set(map(type, ws)) <= {int} and ws[0] >= 1 and type(d) is int and d >= 0):
        if any((not isinstance(x, int)) or isinstance(x, bool) or x < 1 for x in ws):
            raise ValueError(f"weights must be positive integers: {sorted(weight_multiset)}")
        if not isinstance(d, int) or isinstance(d, bool) or d < 0:
            raise ValueError(f"degree {d!r} must be a non-negative integer")
    g = gcd(*ws)
    if d % g:
        return False
    d //= g
    a = ws[0] // g
    if a == 1 or d == 0:
        return True
    if d < a:
        return False
    if len(ws) == 2:
        # The least y >= 0 with y*b = d (mod a) is d * b^-1 mod a; d = x*a + y*b
        # is representable iff x >= 0.
        b = ws[1] // g
        return (d * pow(b, -1, a)) % a * b <= d
    if d > (a - 1) * (ws[-1] // g - 1) - 1:
        return True
    return _residue_table(tuple(w // g for w in ws))[d % a] <= d


@lru_cache(maxsize=64)
def _residue_table(ws: tuple[int, ...]) -> tuple:
    """n[r], the least non-negative combination of the coprime, ascending
    weights ws that is congruent to r mod ws[0], by Böcker and Lipták's
    round-robin algorithm (Algorithmica 47, 2007)."""
    a = ws[0]
    if len(ws) * a > MAX_RESIDUE_WORK:
        raise ValueError(
            f"representability over the weights {list(ws)} needs a residue table of "
            f"{len(ws)} x {a} steps, more than {MAX_RESIDUE_WORK}"
        )
    inf = float("inf")
    n = [inf] * a
    n[0] = 0
    for b in ws[1:]:
        g = gcd(a, b)
        for r in range(g):
            # The residues congruent to r mod g form one cycle under adding b
            # (mod a); walk it from its least entry, relaxing each by one more b.
            m = min(n[r::g])
            if m == inf:
                continue
            for _ in range(a // g - 1):
                m += b
                p = m % a
                if n[p] < m:
                    m = n[p]
                else:
                    n[p] = m
    return tuple(n)


def stratum_intersection(spec: WCISpec, stratum: Stratum) -> StratumIntersection:
    """Intersection of the general member with one stratum, in the
    one-cut-per-surviving-degree model."""
    stratum_weights = stratum.weights_in(spec.weights)
    cutting = tuple(
        j for j, d in enumerate(spec.degrees) if is_representable(d, stratum_weights)
    )
    dim_general = max(stratum.dim - len(cutting), -1)
    return StratumIntersection(stratum, cutting, dim_general, contained=not cutting)


def dimca_codim(spec: WCISpec, delta: int) -> int:
    """Divisibility-count formula for the codimension (inside the family) of
    the intersection with the delta-divisible stratum: k(delta) - N(delta)
    + N - k + 1, where k(delta) counts delta-divisible degrees and N(delta)
    counts delta-divisible weights."""
    if not isinstance(delta, int) or delta <= 1:
        raise ValueError(f"delta must be an integer greater than 1, got {delta!r}")
    k_delta = sum(1 for d in spec.degrees if d % delta == 0)
    n_delta = sum(1 for a in spec.weights if a % delta == 0)
    return k_delta - n_delta + spec.weights.dim - spec.codimension + 1


def is_well_formed(spec: WCISpec) -> tuple[bool, list[StratumIntersection]]:
    """Whether the general member meets the ambient singular locus in
    codimension at least two.  Requires a well-formed ambient space (false
    otherwise, with empty evidence); the evidence lists every stratum
    violating the bound."""
    report = classify(spec)
    return report.well_formed, [
        si for si in report.strata if report.dim_X - si.dim_general < 2
    ]


def is_weakly_well_formed(spec: WCISpec) -> tuple[bool, list[Stratum]]:
    """Whether the general member contains no singular stratum of codimension
    one in itself.  All singular index subsets of the critical size are
    checked, not only the maximal covering family, because containment is not
    monotone upward in the subset; every contained one is among the report's
    strata, and the evidence lists them in index order."""
    report = classify(spec)
    contained = [si.stratum for si in report.strata if si.contained]
    return report.weakly_well_formed, [st for st in contained if st.dim == report.dim_X - 1]


def adjunction_data(spec: WCISpec) -> tuple[int, Fraction]:
    """Amplitude (sum of degrees minus sum of weights) and the canonical
    self-intersection number amplitude^dim * (prod degrees)/(prod weights) as
    an exact rational.  Both carry geometric meaning only for quasi-smooth
    well-formed families; the classification report flags the caveats."""
    entries = spec.weights.entries
    records = _degree_records(None, entries, spec.degrees)
    _, _, amplitude, num, den = _analysis(records, spec.dimension, sum(entries), prod(entries))
    return amplitude, Fraction(num, den)


# The (degree, value-set) pairs whose representability classify keeps.  A
# census box asks a few hundred; the bound keeps a caller who sweeps many
# degrees from growing the cache with them.
REPRESENTABLE_CACHE_SIZE = 4096

_INDICES = attrgetter("stratum.indices")


def _values(weights) -> tuple[int, ...]:
    """Sorted distinct weight values, on which representability alone depends."""
    return tuple(sorted(set(weights)))


@lru_cache(maxsize=REPRESENTABLE_CACHE_SIZE)
def _representable(d: int, values: tuple[int, ...]) -> bool:
    """``is_representable`` of a degree over one value set of an ambient's
    table, decided once per pair.  A miss calls the module-level
    ``is_representable``, so a wrapper installed on it sees every decision."""
    return is_representable(d, values)


@lru_cache(maxsize=1024)
def _ambient(weights: Weights, dim_x: int):
    """The facts of an ambient and a dimension that do not depend on the
    degrees: None for a non-well-formed ambient, otherwise a (values,
    covering, split, weak bits, weak) tuple.  ``values``, the value-set
    table, lists once and in order each sorted distinct weight-value set a
    degree is tested over; bit i of a degree's facts means "representable
    over ``values[i]``".  ``covering`` holds one (stratum, its dimension,
    the bit of its values, the bit of ``(delta,)``, over which delta's
    multiples are representable) tuple per covering stratum, in report
    order, and ``split`` counts those of dimension at least dim_x and at
    least dim_x - 1.  ``weak`` holds each weak candidate (another singular
    stratum of dimension dim_x - 1), in index order, as a report lists it
    when the general member contains it: a ready intersection, which does
    not depend on the degrees.  ``weak bits`` holds the bit of each one's
    values, on which containment alone depends.  A candidate's indices come
    ascending from ``combinations`` and its delta is the gcd of its values,
    so its ``Stratum`` is built past the validator."""
    if not is_well_formed_space(weights):
        return None
    covering = [
        (st, _values(st.weights_in(weights))) for st in singular_strata(weights, maximal_only=True)
    ]
    known = {st.indices for st, _ in covering}
    at = weights.entries.__getitem__
    indices = [idx for idx in sorted(_singular_index_sets(weights.entries, (dim_x,))) if idx not in known]
    # Each candidate's group: the first-seen index of its value set.
    groups: dict[frozenset, int] = {}
    group = [groups.setdefault(frozenset(map(at, idx)), len(groups)) for idx in indices]
    keys = [tuple(sorted(v)) for v in groups]
    table = sorted({v for _, v in covering} | {(st.delta,) for st, _ in covering} | {*keys})
    bit = {v: 1 << i for i, v in enumerate(table)}
    bits, deltas = [bit[v] for v in keys], [gcd(*v) for v in keys]
    strata = [_unchecked(Stratum, indices=idx, delta=deltas[g]) for idx, g in zip(indices, group)]
    negated_dims = [-st.dim for st, _ in covering]
    return (
        tuple(table),
        tuple((st, st.dim, bit[v], bit[(st.delta,)]) for st, v in covering),
        (bisect(negated_dims, -dim_x), bisect(negated_dims, 1 - dim_x)),
        tuple(map(bits.__getitem__, group)),
        tuple(map(StratumIntersection, strata, repeat(()), repeat(dim_x - 1), repeat(True))),
    )


def _pattern(ambient, dim_x: int, facts: tuple[int, ...]):
    """The degree-dependent verdict of every family over a well-formed
    ambient whose degrees, in order, have the given facts: the strata tuple,
    the singular intersection dimension, and whether the weak check failed,
    a stratum is degenerately contained and the Dimca count disagrees.  The
    report lists the strata by dimension, descending, then by indices: the
    covering strata arrive in that order, and the contained weak ones, kept
    in index order, are merged in with those of dimension dim_x - 1."""
    _, covering, (above, at_least), weak_bits, weak = ambient
    inters = []
    sing_dim = -1
    weak_found = degenerate = mismatch = False
    for st, st_dim, vbit, dbit in covering:
        cutting = tuple(j for j, f in enumerate(facts) if f & vbit)
        # dimca_codim(spec, delta): delta divides exactly the st_dim + 1
        # weights of its own covering set, so N(delta) needs no count.
        dc = sum(1 for f in facts if f & dbit) + dim_x - st_dim
        if cutting:
            dim_general = max(st_dim - len(cutting), -1)
        else:
            dim_general = st_dim
            weak_found = weak_found or st_dim == dim_x - 1
            degenerate = degenerate or st_dim == dim_x
        sing_dim = max(sing_dim, dim_general)
        # Compare dimensions with both sides floored at -1: below that both
        # formulas just mean the empty set.
        agrees = max(dim_x - dc, -1) == dim_general
        mismatch = mismatch or not agrees
        inters.append(StratumIntersection(st, cutting, dim_general, not cutting, dc, agrees))
    # A contained stratum of codimension one in the family forces the
    # singular intersection up to dim_X - 1 even when the covering family's
    # per-stratum model misses it (the restrictions need not cut
    # independently); fold those strata in so well_formed cannot contradict
    # weakly_well_formed.  A weak candidate is contained when no degree has
    # the bit of its values.
    if weak:
        unmet = ~reduce(or_, facts)
        contained = list(compress(weak, map(unmet.__and__, weak_bits)))
        if contained:
            weak_found = True
            sing_dim = max(sing_dim, dim_x - 1)
            for si in inters[above:at_least]:
                insort(contained, si, key=_INDICES)
            inters[above:at_least] = contained
    return tuple(inters), sing_dim, weak_found, degenerate, mismatch


def _degree_records(ambient, entries, degrees) -> Iterator[tuple[int, int, bool]]:
    """Each degree's record over one ambient, drawn one at a time as the
    degrees are: the degree, its facts (bit i set when it is representable
    over the ambient's ``values[i]``; 0 over a non-well-formed ambient,
    which has no table) and whether it equals one of the weight
    ``entries``."""
    table = tuple(enumerate(ambient[0])) if ambient else ()
    return ((d, sum(1 << i for i, v in table if _representable(d, v)), d in entries) for d in degrees)


def _analysis(records, dim_x: int, weight_sum: int, weight_prod: int):
    """The degrees, key, amplitude and canonical self-intersection (a
    numerator and a positive denominator in lowest terms, as ``Fraction``
    would hold them) of the family whose degrees have the given
    ``_degree_records``, over weights of the given sum and product, of
    dimension ``dim_x``.

    The key is the tuple of the degrees' facts, whether the family is a
    linear cone (some degree equals a weight), and whether it is a surface
    with a non-integral self-intersection.  Key invariant: bit i of a fact
    says only "representable over the ambient's ``values[i]``", and over
    one ambient and codimension every field of the ``classify`` report but
    the spec and the adjunction data is a function of the key, so a caller
    that classifies many specs of one ambient (the census) need classify
    only the first spec of each key.  ``classify`` keys its spec here too,
    so the two cannot drift apart."""
    degrees, facts, cones = zip(*records)
    amplitude = sum(degrees) - weight_sum
    num = amplitude**dim_x * prod(degrees)
    g = gcd(num, weight_prod)
    den = weight_prod // g
    return degrees, (facts, True in cones, dim_x == 2 and den != 1), amplitude, num // g, den


def classify(spec: WCISpec) -> AnalysisReport:
    """Assemble the full report and the main-theorem consistency status.

    The comparison theorem concerns quasi-smooth families of dimension at
    least 3 that are not intersections with a linear cone; inside that range
    differing verdicts imply the general member is not quasi-smooth.

    The facts that do not depend on the degrees (well-formedness of the
    ambient, its value-set table, its covering strata and weak candidates)
    are computed once per weight tuple and dimension, in the bounded
    ``_ambient`` cache.  A degree's facts are one int whose bit i says
    whether it is representable over the table's set i, decided once per
    (degree, value-set) pair in the bounded ``_representable`` cache: a
    stratum is cut by the degrees with the bit of its values, and its Dimca
    count reads the bit of ``(delta,)``.  The verdict depends on the
    degrees only through the tuple of their facts, the pattern, from which
    ``_pattern`` computes the strata, the singular intersection dimension
    and the weak, degenerate and Dimca outcomes.  The call then adds what
    is specific to the record: the linear cone and the adjunction data
    (from ``_analysis``, as the census's), the flags and the status.  A
    caller that classifies many specs of one ambient and pattern keeps the
    reports itself, as the census does per key.
    """
    dim_x = spec.dimension
    entries = spec.weights.entries
    ambient = _ambient(spec.weights, dim_x)
    records = _degree_records(ambient, entries, spec.degrees)
    _, (facts, cone, nonintegral), amplitude, num, den = _analysis(
        records, dim_x, sum(entries), prod(entries)
    )
    space_well_formed = ambient is not None
    if space_well_formed:
        inters, sing_dim, weak_found, degenerate, mismatch = _pattern(ambient, dim_x, facts)
    else:
        inters, sing_dim, weak_found, degenerate, mismatch = (), -1, False, False, False
    well_formed = space_well_formed and dim_x - sing_dim >= 2
    weakly_well_formed = space_well_formed and not weak_found

    flags = []
    if degenerate:
        flags.append(FLAG_DEGENERATE_CONTAINMENT)
    if mismatch:
        flags.append(FLAG_DIMCA_MISMATCH)
    if nonintegral:
        flags.append(FLAG_NONINTEGRAL_SURFACE)

    if dim_x < 3:
        status = THEOREM_NOT_APPLICABLE_DIM
    elif cone:
        status = THEOREM_NOT_APPLICABLE_LINEAR_CONE
    elif well_formed == weakly_well_formed:
        status = THEOREM_CONSISTENT
    else:
        status = THEOREM_IMPLIES_NOT_QUASISMOOTH

    return AnalysisReport(
        spec=spec,
        space_well_formed=space_well_formed,
        dim_X=dim_x,
        linear_cone=cone,
        amplitude=amplitude,
        canonical_self_intersection=Fraction(num, den),
        strata=inters,
        sing_intersection_dim=sing_dim,
        well_formed=well_formed,
        weakly_well_formed=weakly_well_formed,
        theorem_status=status,
        flags=tuple(flags),
    )
