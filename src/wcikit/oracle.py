"""Finite-field probing for singular points on affine cones.

The probes replace the complex numbers with small prime fields, which fixes
the semantics once and for all: a reported witness is a definitive singular
point of that explicit member over that field, while an empty scan is
evidence only and never a proof of quasi-smoothness.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, islice, product
from math import gcd

from . import codegen
from .analysis import WCISpec
from .codegen import reduced as _reduced
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
# Nonzero points of a stratum's cone a witness search may decide; a larger
# cone is refused with ValueError before any scan.
MAX_WITNESS_POINTS = 10**5
# Cells (p rows times one column per distinct reduced exponent) a scan's
# power table may hold; a larger table is refused with ValueError.
MAX_POWER_TABLE_CELLS = 2**23


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
    """Exact rank of the matrix whose rows are the given iterables.

    Entries are drawn column by column, one from each row in turn; each column
    is reduced against the independent columns before it, and drawing stops
    once the rank equals the number of rows, so a single row is drawn up to
    its first nonzero entry.
    """
    rows = list(rows)
    # Each independent column, scaled to 1 at its pivot row and reduced to 0
    # at the pivot rows before it.
    basis = []
    for column in zip(*rows):
        for i, b in basis:
            f = column[i]
            if f:
                column = [field.sub(v, field.mul(f, w)) for v, w in zip(column, b)]
        pivot = next((i for i, v in enumerate(column) if v), None)
        if pivot is None:
            continue
        inv = field.inv(column[pivot])
        basis.append((pivot, [field.mul(inv, v) for v in column]))
        if len(basis) == len(rows):
            break
    return len(basis)


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


def probe_primes(primes, weights, degrees, allow_bad_primes: bool,
                 override: str = "allow_bad_primes=True") -> tuple[int, ...]:
    """The fields a probe scans: the distinct primes in the given order, each
    checked to be a prime below 2^16, without those dividing a weight or
    degree unless ``allow_bad_primes``.  Raises ValueError if none is left,
    naming ``override``, the caller's way to keep them."""
    primes = tuple(dict.fromkeys(int(p) for p in primes))
    for p in primes:
        GF(p)
    if allow_bad_primes:
        return primes
    usable = hygienic_primes(primes, weights, degrees)
    if not usable:
        raise ValueError(
            f"all of the primes {list(primes)} divide a weight or degree; "
            f"pass {override} to probe anyway"
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
    field was scanned completely.  One singular point settles a field, so
    each field's scan stops at its first: ``witnesses`` holds, per field,
    the weighted F_p^* orbit of the first singular point of an exhaustive
    field's orbit slice, in ascending order, or the least singular distinct
    draw of a sampled field, each re-verified.
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


# Compiling costs a few KB of transient memory per term, so no compile() call
# sees more than this many terms: a large polynomial is compiled in chunks.
_CHUNK_TERMS = 1024


def _compiled_eval(poly, powt, column, p):
    """A function of a point (a tuple of residues mod p) returning the value of
    the polynomial over GF(p), with x^e read from ``powt[x][column[e]]``:
    generated "ev" code (``codegen.source``) in chunks of at most
    ``_CHUNK_TERMS`` terms, their values summed."""
    # The zero polynomial gets one empty chunk.
    starts = range(0, max(len(poly.terms), 1), _CHUNK_TERMS)
    chunks = [poly.terms[i : i + _CHUNK_TERMS] for i in starts]
    units = [(codegen.source("ev", [c], column, p), len(c)) for c in chunks]
    codes = codegen.codes(units, _CHUNK_TERMS)
    parts = [codegen.bind(code, c, {"powt": powt}) for code, c in zip(codes, chunks)]
    if len(parts) == 1:
        return parts[0]
    return lambda pt: sum(part(pt) for part in parts) % p


def _columns(polys, p) -> dict[int, int]:
    """The power-table column of each nonzero ``_reduced`` exponent that the
    polynomials use, in ascending order of the exponents."""
    exponents = {e for f in polys for exps, _ in f.terms for e in exps if e}
    return {e: j for j, e in enumerate(sorted({_reduced(e, p) for e in exponents}))}


def _power_table(p, column):
    """``powt[x][column[e]]`` = x^e mod p: p rows of one entry per exponent
    of ``column``, so a member of few distinct exponents gets a narrow table
    over a large field.  A table of more than ``MAX_POWER_TABLE_CELLS``
    cells raises ValueError before any row is built."""
    if p * len(column) > MAX_POWER_TABLE_CELLS:
        raise ValueError(
            f"a scan over GF({p}) of {len(column)} distinct exponents needs a power table "
            f"of {p} x {len(column)} cells, more than {MAX_POWER_TABLE_CELLS}"
        )
    return [[pow(x, e, p) for e in column] for x in range(p)]


def _orbit_slice(p: int, weights, indices=None):
    """Nonzero points of F_p^n whose coordinates outside ``indices`` (by
    default none) are 0 and whose first nonzero coordinate x_i is a coset
    representative of (F_p^*)^{a_i}; later coordinates of ``indices`` are free.

    Every orbit of the weighted action lambda.x = (lambda^{a_i} x_i) on those
    points meets the slice, and x_i takes gcd(a_i, p-1) values instead of p-1.
    The points come in ``itertools.product`` order, one product per leading
    coordinate over the values each coordinate takes.
    """
    n = len(weights)
    on = range(n) if indices is None else indices

    def leading(i):
        powers = {pow(t, weights[i], p) for t in range(1, p)}
        reps, covered = [], set()
        for rep in range(1, p):
            if rep not in covered:
                covered.update(rep * h % p for h in powers)
                reps.append(rep)
        choices = [(0,)] * n
        choices[i] = reps
        for j in on:
            if j > i:
                choices[j] = range(p)
        return product(*choices)

    return chain.from_iterable(map(leading, on))


def _orbit_slice_size(p: int, weights) -> int:
    """The number of points ``_orbit_slice`` yields: the sum over i of
    gcd(a_i, p-1) * p^(n-1-i)."""
    n = len(weights)
    return sum(gcd(a, p - 1) * p ** (n - 1 - i) for i, a in enumerate(weights))


def _expand_orbits(points, weights, p: int) -> list[tuple[int, ...]]:
    """The union of the weighted-action orbits of the points, in ascending
    (``itertools.product``) order."""
    scalings = [tuple(pow(t, a, p) for a in weights) for t in range(1, p)]
    return sorted(
        {tuple(x * s % p for x, s in zip(pt, sc)) for pt in points for sc in scalings}
    )


def _scan(p, field, points, equations, matrix, rank) -> Iterator[tuple[int, ...]]:
    """An iterator over the points, in scan order, where every equation
    vanishes and the matrix of polynomials has rank below ``rank``; each
    point is tested only when the iterator is asked for the next one.

    A matrix of one row with ``rank`` 1 has rank below 1 exactly where every
    entry vanishes, so its entries are scanned as further equations after
    the given ones.  One generated generator runs the loop, e.g. for f0 =
    x1^4 + 2*x0^3*x2, a further equation f1 = x0*x1^3 + 3*x1*x2^3 + x2^4 and
    one f2 past the bound below, over GF(5) and against a table of every
    exponent::

        def scan(points):
            Q = W = Q1 = W1 = None
            for pt in points:
                if Q != pt[:-1]:
                    Q = pt[:-1]
                    if W != pt[:-2]:
                        W = pt[:-2]
                        G0 = E0(pt)
                    U = powt[pt[-2]]
                    C0_0, C0_1, = (G0[1]*U[4]) % 5, G0[0],
                T = powt[pt[-1]]
                if (C0_0 + C0_1*T[1]) % 5:
                    continue
                if Q1 is not Q:
                    Q1 = Q
                    if W1 is not W:
                        W1 = W
                        G1 = E1(pt)
                    C1_0, C1_3, C1_4, = (G1[2]*U[3]) % 5, (G1[1]*U[1]) % 5, G1[0],
                if (C1_0 + C1_3*T[3] + C1_4*T[4]) % 5:
                    continue
                if F2(pt):
                    continue
                yield pt

    with no coefficient in its text.  Equations are polynomials in the last
    two coordinates while their terms total at most ``_CHUNK_TERMS``, each
    a shared "eq" function (E0 and E1 here, ``codegen.source``) that sums
    its terms by ``codegen.trailing`` exponents once per prefix ``pt[:-2]``:
    Gj holds the sums of the terms in x_{N-1}^a*x_N^e by ascending (a, e).
    The coefficients in x_N (Cj_e) follow from these sums and the powers
    ``U`` of x_{N-1} once per prefix ``pt[:-1]``.  The first equation's are
    computed when a prefix changes, each later one's the first time a point
    of the prefix passes the equations before it (``Qj`` and ``Wj``,
    compared by identity, hold the prefixes they were computed for and so
    keep them alive).  An exhaustive slice comes in runs of p points
    sharing ``pt[:-1]`` and p^2 sharing ``pt[:-2]``, where a point costs a
    few products per equation.  Sampled draws, scanned in ascending order,
    share a prefix as often as they are dense in the space, and laziness
    spares them the sums of equations they never reach.  A lone
    coordinate has no x_{N-1}: its terms all fall in groups with a = 0.
    The power table has one column per distinct ``_reduced`` exponent,
    which ``column`` maps.  A further equation (F2 here) is a
    ``_compiled_eval`` function.

    Any other matrix is tested at the equations' common zeros, as
    ``matrix_rank([R0(pt), R1(pt)], field) < rank`` for two rows, which
    draws the entries column by column until the rank reaches the row count.
    A row within the bound is a shared "row" generator, a larger or empty
    one draws from one ``_compiled_eval`` function per entry.  With no rows
    left, the rank 0 is compared with ``rank`` once, here.  The scan's text
    and the shared functions' are compiled together where the cache lacks
    them (``codegen.codes``); the scan's C lines count as one term per
    group sum they read, so no compile() sees more than ``_CHUNK_TERMS``.
    """
    if len(matrix) == 1 and rank == 1:
        equations, matrix = (*equations, *matrix[0]), ()
    if not matrix and rank < 1:
        return iter(())
    entries = [g for row in matrix for g in row]
    column = _columns([*equations, *entries], p)
    powt = _power_table(p, column)
    # matrix_rank is read from the module here, so a wrapper installed on it
    # sees every call.
    namespace = {"powt": powt, "field": field, "matrix_rank": matrix_rank}
    # The shared functions by name, and the number of group sums the C lines read.
    units, prefixes, body, groups = {}, [], [], 0
    budget, last_row = _CHUNK_TERMS, "        T = powt[pt[-1]]"
    u_row = "            U = powt[pt[-2]]"
    for j, f in enumerate(equations):
        budget -= len(f.terms)
        if budget < 0:
            namespace[f"F{j}"] = _compiled_eval(f, powt, column, p)
            body += [f"        if F{j}(pt):", "            continue"]
            continue
        if not f.terms:
            # The zero polynomial vanishes everywhere.
            continue
        keys = sorted({codegen.trailing(exps, p) for exps, _ in f.terms})
        groups += len(keys)
        # An equation after the first keeps prefix trackers of its own.
        if units:
            prefixes.append(f"Q{j} = W{j} = ")
            body += [f"        if Q{j} is not Q:", f"            Q{j} = Q"]
            body += [f"            if W{j} is not W:", f"                W{j} = W"]
        else:
            body += ["        if Q != pt[:-1]:", "            Q = pt[:-1]"]
            body += ["            if W != pt[:-2]:", "                W = pt[:-2]"]
        units[f"E{j}"] = ("eq", [f.terms])
        body.append(f"                G{j} = E{j}(pt)")
        if keys[-1][0] and u_row not in body:
            body.append(u_row)
        # Cj_e, the coefficient of x_N^e: the sum over a of group (a, e) times x_{N-1}^a.
        es = sorted({e for _, e in keys})
        sums = [" + ".join(f"G{j}[{i}]*U[{column[a]}]" if a else f"G{j}[{i}]"
                           for i, (a, b) in enumerate(keys) if b == e) for e in es]
        sums = ", ".join(f"({s}) % {p}" if "U" in s else s for s in sums)
        body.append("            " + "".join(f"C{j}_{e}, " for e in es) + f"= {sums},")
        if es[-1] and last_row not in body:
            body.append(last_row)
        value = " + ".join(f"C{j}_{e}*T[{column[e]}]" if e else f"C{j}_0" for e in es)
        value = f"({value}) % {p}" if es[-1] else value
        body += [f"        if {value}:", "            continue"]
    for r, row in enumerate(matrix):
        if row and sum(len(g.terms) for g in row) <= _CHUNK_TERMS:
            units[f"R{r}"] = ("row", [g.terms for g in row])
        else:
            evs = [_compiled_eval(g, powt, column, p) for g in row]
            namespace[f"R{r}"] = lambda pt, evs=evs: (ev(pt) for ev in evs)
    if matrix:
        rows = ", ".join(f"R{r}(pt)" for r in range(len(matrix)))
        body += [f"        if matrix_rank([{rows}], field) >= {rank}:", "            continue"]
    lines = ["def scan(points):", f"    Q = W = {''.join(prefixes)}None"]
    lines += ["    for pt in points:", *body, "        yield pt"]
    texts = [(codegen.source(kind, lists, column, p), sum(map(len, lists)))
             for kind, lists in units.values()]
    scan, *codes = codegen.codes([("\n".join(lines), groups), *texts], _CHUNK_TERMS)
    for (name, (_, lists)), code in zip(units.items(), codes):
        namespace[name] = codegen.bind(code, chain(*lists), {"powt": powt})
    return codegen.bind(scan, (), namespace)(points)


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
    ``probe_primes``.  A field is scanned exhaustively when its orbit slice
    (``_orbit_slice``), the sum over i of gcd(a_i, p-1) * p^(N-i) points,
    has at most ``max_points`` points; otherwise by ``sample_count`` seeded
    uniform draws (deterministic), each distinct nonzero point scanned once,
    in ascending order.  An exhaustive scan evaluates only the slice: the
    equations are weighted homogeneous, so vanishing and Jacobian rank are
    constant on each orbit of the weighted F_p^* action, in every
    characteristic.  One singular point settles a field, so its scan stops
    at the first: an exhaustive field reports that slice point's orbit, a
    sampled field that one draw, and every reported point is re-verified.
    ``points_scanned`` counts every point the field's verdict decides.
    Primes dividing a weight or degree are excluded unless
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
        exhaustive = _orbit_slice_size(p, weights) <= max_points
        if exhaustive:
            # The slice decides every nonzero point of F_p^(N+1).
            points, scanned = _orbit_slice(p, weights), p**n1 - 1
        else:
            rng = random.Random(seed)
            draws = (tuple(rng.randrange(p) for _ in range(n1)) for _ in range(sample_count))
            # A repeated draw is scanned and counted once; in ascending
            # order, consecutive draws share their prefixes where they can.
            points = sorted({pt for pt in draws if any(pt)})
            scanned = len(points)
        # One singular point settles the field: the scan stops at its first.
        scan = _scan(p, fsys.field, points, fsys.polys, _jacobian(fsys), len(fsys.polys))
        singular = islice(scan, 1)
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
    engage and an empty report with a distinct status is returned.  An
    engaged search of a cone with more than ``MAX_WITNESS_POINTS`` nonzero
    points is refused with ValueError before any scan.  When some restricted
    partial derivative is a nonzero constant the origin may escape Z; that
    is exactly the linear-cone escape and is flagged.
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
    cone = p ** len(on_idx) - 1
    if cone > MAX_WITNESS_POINTS:
        raise ValueError(
            f"the cone of stratum {list(on_idx)} over GF({p}) has {cone} nonzero points, "
            f"more than {MAX_WITNESS_POINTS}"
        )

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
    # so one orbit slice of the stratum's cone, scanned in place with the
    # off-stratum coordinates at 0, decides them.  For r = 1 the scan of Z
    # tests the one row's entries as equations.
    weights = spec.weights.entries
    # Both scans run to the end: the report lists the full sets.
    z_slice = list(_scan(p, field, _orbit_slice(p, weights, on_idx), (), g_rows, r))
    # S: the Z points where the remaining equations vanish (an empty matrix
    # has rank 0 < 1 everywhere), so no rank is tested twice.
    s_slice = list(_scan(p, field, z_slice, remaining, (), 1))
    z_points = tuple(ConePoint(pt) for pt in _expand_orbits(z_slice, weights, p))
    s_points = _verified(fsys, _expand_orbits(s_slice, weights, p))
    return WitnessSearchReport(
        p, stratum, r, r_div, vanishing, off_idx, z_points, s_points, origin_in_z, escape,
    )
