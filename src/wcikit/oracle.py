"""Finite-field probing for singular points on affine cones.

The probes replace the complex numbers with small prime fields, which fixes
the semantics once and for all: a reported witness is a definitive singular
point of that explicit member over that field, while an empty scan is
evidence only and never a proof of quasi-smoothness.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .analysis import WCISpec
from .poly import (
    GF,
    PolySystem,
    SparsePoly,
    evaluate,
    partial_derivative,
    restrict,
)
from .weights import Stratum

STATUS_NO_WITNESS = "no_witness_found"
STATUS_SINGULAR_WITNESS = "singular_witness"

SEARCH_COMPLETED = "searched"
SEARCH_NOT_ENGAGED = "no_vanishing_restriction"

DEFAULT_PRIMES = (3, 5, 7)
EXHAUSTIVE_LIMIT = 10**7
DEFAULT_SAMPLE_COUNT = 100_000


@dataclass(frozen=True)
class ConePoint:
    """A nonzero point of the affine cone coordinates over a prime field."""

    coords: tuple[int, ...]

    def __post_init__(self):
        coords = tuple(self.coords)
        object.__setattr__(self, "coords", coords)
        if not coords:
            raise ValueError("a cone point needs coordinates")
        if not any(coords):
            raise ValueError("the origin is not a punctured-cone point")

    def to_json(self) -> list[int]:
        return list(self.coords)


def matrix_rank(rows, field) -> int:
    """Exact Gaussian-elimination rank, pivoting on the first nonzero entry in
    each column."""
    m = [list(r) for r in rows]
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


def _jacobian(sys: PolySystem) -> tuple[tuple[SparsePoly, ...], ...]:
    """The k x (N+1) partial derivatives of the system, built once per system
    object and kept on it."""
    jac = sys.__dict__.get("_jacobian")
    if jac is None:
        n = len(sys.weights)
        jac = tuple(tuple(partial_derivative(f, i) for i in range(n)) for f in sys.polys)
        object.__setattr__(sys, "_jacobian", jac)
    return jac


def jacobian_rank(sys: PolySystem, point) -> int:
    """Rank of the k x (N+1) matrix of partial derivatives evaluated at the point."""
    coords = point.coords if isinstance(point, ConePoint) else tuple(point)
    rows = [[evaluate(d, coords) for d in row] for row in _jacobian(sys)]
    return matrix_rank(rows, sys.field)


def is_singular_witness(sys: PolySystem, point) -> bool:
    """Whether the point lies on the cone (all equations vanish) with Jacobian
    rank below the codimension."""
    coords = point.coords if isinstance(point, ConePoint) else tuple(point)
    if any(evaluate(f, coords) for f in sys.polys):
        return False
    return jacobian_rank(sys, coords) < len(sys.polys)


def hygienic_primes(primes, weights, degrees) -> tuple[int, ...]:
    """Drop primes dividing any weight or any degree (their derivatives degenerate)."""
    values = tuple(weights) + tuple(degrees)
    return tuple(p for p in primes if all(v % p for v in values))


def probe_primes(primes, weights, degrees, allow_bad_primes: bool) -> tuple[int, ...]:
    """The fields a probe scans: the distinct primes in the given order, each
    checked to be a prime below 2^16, without those dividing a weight or
    degree unless ``allow_bad_primes``.  Raises ValueError if none is left."""
    primes = tuple(dict.fromkeys(int(p) for p in primes))
    for p in primes:
        GF(p)
    if allow_bad_primes:
        return primes
    usable = hygienic_primes(primes, weights, degrees)
    if not usable:
        raise ValueError(
            f"all of the primes {list(primes)} divide a weight or degree; "
            "pass allow_bad_primes=True to probe anyway"
        )
    return usable


def _check_budget(max_points: int, sample_count: int) -> None:
    """Refuse a probe budget that would scan nothing: both bounds must be at least 1."""
    for name, value in (("max_points", max_points), ("sample_count", sample_count)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


@dataclass(frozen=True)
class QSVerdict:
    """Outcome of a quasi-smoothness probe.

    ``status`` follows from ``witnesses``: ``singular_witness`` if there are
    any, definitive for the scanned member, else ``no_witness_found``, which
    is one-sided evidence.  ``exhaustive`` is true only when every probed
    field was scanned completely.  An exhaustive scan evaluates one orbit
    slice of the weighted F_p^* action, yet ``witnesses`` lists every
    singular point of the field, in ascending order, each re-verified.
    ``points_scanned`` counts the nonzero points the verdict decides: p^(N+1)-1
    per exhaustive field, the distinct nonzero draws per sampled one.
    """

    witnesses: tuple[tuple[int, ConePoint], ...]
    fields_probed: tuple[int, ...]
    points_scanned: int
    exhaustive: bool

    @property
    def status(self) -> str:
        return STATUS_SINGULAR_WITNESS if self.witnesses else STATUS_NO_WITNESS

    @classmethod
    def join(cls, verdicts) -> QSVerdict:
        """One verdict over the fields of the given ones, in order: witnesses
        and fields concatenated, points summed, exhaustive only if every field
        was."""
        verdicts = tuple(verdicts)
        return cls(
            tuple(w for v in verdicts for w in v.witnesses),
            tuple(p for v in verdicts for p in v.fields_probed),
            sum(v.points_scanned for v in verdicts),
            all(v.exhaustive for v in verdicts),
        )

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "witnesses": [
                {"prime": p, "point": pt.to_json()} for p, pt in self.witnesses
            ],
            "fields_probed": list(self.fields_probed),
            "points_scanned": self.points_scanned,
            "exhaustive": self.exhaustive,
        }


def _compiled_eval(poly, powt, p):
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


def _power_table(p, max_exp):
    return [[pow(x, e, p) for e in range(max_exp + 1)] for x in range(p)]


def _max_exponent(polys) -> int:
    return max(
        (e for f in polys for exps, _ in f.terms for e in exps), default=1
    )


def _orbit_slice(p: int, weights):
    """Nonzero points of F_p^n whose first nonzero coordinate x_i is a coset
    representative of (F_p^*)^{a_i}; later coordinates are free.

    Every orbit of the weighted action lambda.x = (lambda^{a_i} x_i) meets the
    slice, and x_i takes gcd(a_i, p-1) values instead of p-1.
    """
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


def _expand_orbits(points, weights, p: int) -> list[tuple[int, ...]]:
    """The union of the weighted-action orbits of the points, in ascending
    (``itertools.product``) order."""
    scalings = [tuple(pow(t, a, p) for a in weights) for t in range(1, p)]
    return sorted(
        {tuple(x * s % p for x, s in zip(pt, sc)) for pt in points for sc in scalings}
    )


def _scan(p, field, points, equations, matrix, rank) -> list[tuple[int, ...]]:
    """The points, in scan order, where every equation vanishes and the matrix
    of polynomials has rank below ``rank``.  Equations and matrix entries are
    compiled against one power table; the equations are tested first and
    short-circuit, so the rank is computed only on their common zeros."""
    entries = [g for row in matrix for g in row]
    powt = _power_table(p, _max_exponent([*equations, *entries]))
    f_evals = [_compiled_eval(f, powt, p) for f in equations]
    m_evals = [[_compiled_eval(g, powt, p) for g in row] for row in matrix]
    return [
        pt
        for pt in points
        if not any(fe(pt) for fe in f_evals)
        and matrix_rank([[ge(pt) for ge in row] for row in m_evals], field) < rank
    ]


def _verified(sys: PolySystem, points) -> tuple[ConePoint, ...]:
    """The points as cone points, each re-verified against the full Jacobian
    through ``poly.evaluate``, independently of the compiled scan."""
    verified = tuple(ConePoint(pt) for pt in points)
    for point in verified:
        if not is_singular_witness(sys, point):
            raise RuntimeError(f"internal: singular point {point.coords} failed re-verification")
    return verified


def quasi_smooth_probe(
    sys: PolySystem,
    primes=DEFAULT_PRIMES,
    max_points: int = EXHAUSTIVE_LIMIT,
    *,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
    allow_bad_primes: bool = False,
) -> QSVerdict:
    """Scan nonzero points of F_p^(N+1) for singular points of the affine cone.

    The verdict is the ``QSVerdict.join`` of one scan per field of
    ``probe_primes``.  Fields with p^(N+1) <= max_points are scanned
    exhaustively; larger ones by ``sample_count`` seeded uniform draws
    (deterministic), each distinct nonzero point scanned once.  An exhaustive
    scan evaluates one orbit slice (``_orbit_slice``): the equations are
    weighted homogeneous, so vanishing and Jacobian rank are constant on each
    orbit of the weighted F_p^* action, in every characteristic.  The singular
    slice points are expanded to their orbits and every expanded point is
    re-verified.  Primes dividing a weight or degree are excluded unless
    ``allow_bad_primes``.  A rational-coefficient system is reduced mod each
    prime; a system over a prime field is probed over that field only.
    ``max_points`` and ``sample_count`` below 1 raise ValueError.
    """
    _check_budget(max_points, sample_count)
    n1 = len(sys.weights)
    verdicts = []
    for p in probe_primes(primes, sys.weights, sys.degrees, allow_bad_primes):
        fsys = sys.reduce_mod(p)
        weights = fsys.weights.entries
        exhaustive = p**n1 <= max_points
        if exhaustive:
            # The slice decides every nonzero point of F_p^(N+1).
            points, scanned = _orbit_slice(p, weights), p**n1 - 1
        else:
            rng = random.Random(seed)
            draws = (tuple(rng.randrange(p) for _ in range(n1)) for _ in range(sample_count))
            # A repeated draw is scanned and counted once, in first-draw order.
            points = dict.fromkeys(pt for pt in draws if any(pt))
            scanned = len(points)
        singular = _scan(p, fsys.field, points, fsys.polys, _jacobian(fsys), len(fsys.polys))
        if exhaustive:
            singular = _expand_orbits(singular, weights, p)
        witnesses = tuple((p, point) for point in _verified(fsys, singular))
        verdicts.append(QSVerdict(witnesses, (p,), scanned, exhaustive))
    return QSVerdict.join(verdicts)


def determinantal_codim_bound(r: int, m: int, u: int) -> int:
    """Codimension bound (r-u)(m-u) for the locus where an r x m matrix of
    regular functions has rank at most u."""
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (r, m, u)):
        raise ValueError("arguments must be integers")
    if r < 1 or m < 1 or u < 0:
        raise ValueError(f"need r, m >= 1 and u >= 0, got r={r}, m={m}, u={u}")
    return (r - u) * (m - u)


@dataclass(frozen=True)
class WitnessSearchReport:
    """Mechanized well-formedness witness search along one singular stratum.

    ``r`` counts the equations whose restriction to the stratum is
    identically zero; the search scans the stratum's cone for points where
    the r x (off-stratum) matrix of restricted partials drops rank (the locus
    Z) and filters by the remaining equations (the set S).  Every S point is
    a singular point of the affine cone, re-verified against the full
    Jacobian.  Z and S are unions of orbits of the weighted F_p^* action, so
    the scan evaluates one orbit slice of the stratum's cone and expands it;
    ``z_points`` and ``s_points`` are still the full sets, in ascending order.
    ``status``, ``delta`` and ``points_scanned`` are derived: the search is
    engaged when r > 0, and then decides the p^(dim+1)-1 nonzero points of
    the stratum's cone.  ``r_from_divisibility`` is the count k - k(delta)
    predicted by degree divisibility alone; disagreement is surfaced, not
    hidden.
    """

    prime: int
    stratum: Stratum
    r: int
    r_from_divisibility: int
    vanishing_poly_indices: tuple[int, ...]
    g_columns: tuple[int, ...]
    z_points: tuple[ConePoint, ...]
    s_points: tuple[ConePoint, ...]
    origin_in_z: bool
    linear_cone_escape: bool

    @property
    def status(self) -> str:
        return SEARCH_COMPLETED if self.r else SEARCH_NOT_ENGAGED

    @property
    def delta(self) -> int:
        return self.stratum.delta

    @property
    def points_scanned(self) -> int:
        return self.prime ** len(self.stratum.indices) - 1 if self.r else 0

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "prime": self.prime,
            "stratum": self.stratum.to_json(),
            "delta": self.delta,
            "r": self.r,
            "r_from_divisibility": self.r_from_divisibility,
            "r_agrees": self.r == self.r_from_divisibility,
            "vanishing_poly_indices": list(self.vanishing_poly_indices),
            "G_columns": list(self.g_columns),
            "Z_points": [pt.to_json() for pt in self.z_points],
            "S_points": [pt.to_json() for pt in self.s_points],
            "origin_in_Z": self.origin_in_z,
            "linear_cone_escape": self.linear_cone_escape,
            "points_scanned": self.points_scanned,
        }


def wf_witness_search(
    spec: WCISpec, sys: PolySystem, stratum: Stratum, p: int
) -> WitnessSearchReport:
    """Search the stratum's affine cone over F_p for singular points of the
    member's cone, following the rank-drop mechanism.

    When no restriction vanishes identically (r = 0) the mechanism does not
    engage and an empty report with a distinct status is returned.  When some
    restricted partial derivative is a nonzero constant the origin may escape
    Z; that is exactly the linear-cone escape and is flagged.
    """
    if not stratum.is_singular:
        raise ValueError(f"stratum {list(stratum.indices)} has delta 1; nothing singular to search")
    stratum.weights_in(spec.weights)
    fsys = sys.reduce_mod(p)
    if fsys.weights != spec.weights:
        raise ValueError("system weights do not match the family weights")
    if fsys.degrees != spec.degrees:
        raise ValueError(
            f"system degrees {fsys.degrees} do not match the family degrees {spec.degrees}"
        )
    field = fsys.field
    k = len(fsys.polys)
    n1 = len(spec.weights)
    on_idx = stratum.indices
    off_idx = tuple(i for i in range(n1) if i not in set(on_idx))
    r_div = k - sum(1 for d in spec.degrees if d % stratum.delta == 0)

    restrictions = [restrict(f, on_idx) for f in fsys.polys]
    vanishing = tuple(j for j, rf in enumerate(restrictions) if rf.is_zero)
    r = len(vanishing)
    if r == 0:
        return WitnessSearchReport(p, stratum, 0, r_div, (), off_idx, (), (), False, False)

    jac = _jacobian(fsys)
    g_rows = [[restrict(jac[j][i], on_idx) for i in off_idx] for j in vanishing]
    # The restricted partials at the origin: a nonzero entry is the linear-cone
    # escape, a rank drop puts the origin in Z.
    at_origin = [[g.constant_term() for g in row] for row in g_rows]
    escape = any(v for row in at_origin for v in row)
    origin_in_z = matrix_rank(at_origin, field) < r
    remaining = [restrictions[j] for j in range(k) if j not in vanishing]

    # Z and S are unions of orbits of the weighted action (the entries of row
    # j scale by lambda^(d_j - a_i), the remaining equations by lambda^(d_j)),
    # so one orbit slice of the stratum's cone decides them.
    def embed(assignment):
        pt = [0] * n1
        for i, v in zip(on_idx, assignment):
            pt[i] = v
        return tuple(pt)

    cone = map(embed, _orbit_slice(p, spec.weights.at(on_idx)))
    z_slice = _scan(p, field, cone, (), g_rows, r)
    s_slice = _scan(p, field, z_slice, remaining, g_rows, r)
    weights = spec.weights.entries
    z_points = tuple(ConePoint(pt) for pt in _expand_orbits(z_slice, weights, p))
    s_points = _verified(fsys, _expand_orbits(s_slice, weights, p))
    return WitnessSearchReport(
        p, stratum, r, r_div, vanishing, off_idx, z_points, s_points, origin_in_z, escape,
    )
