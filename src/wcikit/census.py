"""Bounded enumeration and classification of the WCI parameter space.

Specs are enumerated with ascending weights and degrees (one representative
per permutation class), ambient weights pre-filtered to well-formed tuples,
in blocks of one ambient and codimension: ``enumerate_specs`` yields
``(weights, k, degrees)``, whose specs are the ascending k-tuples of the
degrees.  The census keys each spec from its block's per-degree records,
builds and classifies one spec per key, and streams the records as
deterministic JSONL with a JSON summary sidecar.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from itertools import combinations_with_replacement, filterfalse
from math import comb, prod
from pathlib import Path
from typing import Generator, Iterator, Optional

from .analysis import (
    THEOREM_CONSISTENT,
    THEOREM_IMPLIES_NOT_QUASISMOOTH,
    AnalysisReport,
    WCISpec,
    _ambient,
    _analysis,
    _degree_records,
    classify,
)
from .jsonout import HOLE, dump, exact_ints, template
from .oracle import DEFAULT_PRIMES, QSVerdict, _check_budget, hygienic_primes, quasi_smooth_probe
from .poly import GF, PolySystem
from .weights import MAX_ENTRY, Weights, is_well_formed_space

# Keys whose entries (a report and its cut line) the census keeps for one
# block; they are dropped when they number this many, so a block of many
# degree tuples holds a bounded number of reports.
PATTERN_CACHE_SIZE = 512


@dataclass(frozen=True)
class CensusBounds:
    """Search box: ambient dimension, weight size/sum, codimension, degree."""

    max_n: int
    max_weight: int
    max_weight_sum: int
    max_k: int
    max_degree: int
    require_non_linear_cone: bool = False
    min_dim: int = 0

    def __post_init__(self):
        for name in ("max_n", "max_weight", "max_weight_sum", "max_k", "max_degree"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.max_degree > MAX_ENTRY:
            # Refused here, before any spec is built; WCISpec enforces it too.
            raise ValueError(f"max_degree {self.max_degree} exceeds the 2^63-1 limit")
        if not isinstance(self.min_dim, int) or isinstance(self.min_dim, bool) or self.min_dim < 0:
            raise ValueError(f"min_dim must be a non-negative integer, got {self.min_dim!r}")
        if not isinstance(self.require_non_linear_cone, bool):
            raise ValueError(
                f"require_non_linear_cone must be true or false, got {self.require_non_linear_cone!r}"
            )

    @classmethod
    def from_json(cls, obj: dict) -> "CensusBounds":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown census bound keys: {sorted(unknown)}")
        return cls(**obj)

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ProbeBudget:
    """Finite-field spot-check budget for theorem-applicable census records.

    Each record is probed over one field only: the first of ``primes`` that
    divides no weight or degree of the record.  The later primes are
    fallbacks for records that the earlier ones divide, not extra fields.
    The field is scanned exhaustively when its orbit slice, the sum over i
    of gcd(a_i, p-1) * p^(N-i) points, has at most ``max_points`` points,
    and by ``sample_count`` seeded draws otherwise.
    """

    primes: tuple[int, ...] = DEFAULT_PRIMES
    max_points: int = 100_000
    sample_count: int = 20_000
    seed: int = 1

    def __post_init__(self):
        for p in self.primes:
            GF(p)
        _check_budget(self.max_points, self.sample_count)

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CensusRecord:
    report: AnalysisReport
    oracle_verdict: Optional[QSVerdict] = None

    def to_json(self) -> dict:
        return {
            "report": self.report.to_json(),
            "oracle_verdict": None if self.oracle_verdict is None else self.oracle_verdict.to_json(),
        }


@dataclass(frozen=True)
class CensusSummary:
    total: int
    well_formed: int
    weakly_only: int
    neither: int
    linear_cone_skipped: int
    theorem_implies_not_quasismooth: int
    probed: int

    def to_json(self) -> dict:
        return asdict(self)


def _ascending_tuples(length: int, lo: int, max_value: int, budget: int):
    """Non-decreasing tuples of the given length with entries in [lo, max_value]
    and sum bounded by budget, in lexicographic order.

    An odometer, not a recursion, so the length is not bounded by the
    interpreter's recursion limit.  An entry with ``r`` entries still to
    place (itself included) stays at or below ``budget_left // r``, since the
    entries after it are at least as large."""
    if length == 0:
        yield ()
        return
    entries: list[int] = []
    v = lo
    while True:
        left = length - len(entries)
        if v <= min(max_value, budget // left):
            if left == 1:
                yield (*entries, v)
                v += 1
            else:
                entries.append(v)
                budget -= v
        elif entries:
            v = entries.pop()
            budget += v
            v += 1
        else:
            return


def enumerate_specs(bounds: CensusBounds) -> Iterator[tuple[Weights, int, Iterator[int]]]:
    """Every block of the box exactly once, in deterministic order: one
    ``(weights, k, degrees)`` per ambient and codimension, ambient dimension
    ascending, then weights lexicographically, then codimension.  Weights
    ascend and are well formed; ``degrees`` is a fresh one-shot iterator
    over the allowed degree values, ascending, and the block's specs are
    ``combinations_with_replacement(degrees, k)``, in that order.  When the
    bounds require it, linear cones are never built: the degrees are drawn
    from the degree range without the weight tuple's values.  Such a block
    is yielded even when no degree is left, as for (1,1,2) with
    ``max_degree`` 2.  Ambient dimensions start above ``min_dim``, so a box
    that admits none yields nothing at once."""
    degree_range = range(1, bounds.max_degree + 1)
    for n in range(bounds.min_dim + 1, bounds.max_n + 1):
        count = n + 1
        if count > bounds.max_weight_sum:
            break
        k_top = min(bounds.max_k, n - bounds.min_dim)
        for entries in _ascending_tuples(count, 1, bounds.max_weight, bounds.max_weight_sum):
            w = Weights(entries)
            if is_well_formed_space(w):
                skip = entries if bounds.require_non_linear_cone else ()
                for k in range(1, k_top + 1):
                    yield w, k, filterfalse(skip.__contains__, degree_range)


def _probe_seed(spec: WCISpec, base_seed: int) -> int:
    return zlib.crc32(spec.key().encode()) ^ base_seed


def _spot_probe(spec: WCISpec, budget: ProbeBudget) -> Optional[QSVerdict]:
    usable = hygienic_primes(budget.primes, spec.weights, spec.degrees)
    if not usable:
        return None
    p = usable[0]
    sys = PolySystem.generic(spec.weights, spec.degrees, GF(p), _probe_seed(spec, budget.seed))
    return quasi_smooth_probe(
        sys, [p], budget.max_points, sample_count=budget.sample_count, seed=budget.seed
    )


# The compact encoding of a census record and of an oracle verdict.
# json.dumps with non-default separators would build a new encoder per call;
# to_json builds fresh trees, so there are no cycles to check for.
_encode_line = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def _entry(report: AnalysisReport) -> tuple:
    """The report and the six pieces of its census line around the values
    that differ between the specs of one key: the degrees, the amplitude,
    the self-intersection's numerator and denominator, and the verdict, in
    the order the line encodes them.  The record's ``to_json()`` gets
    ``jsonout.HOLE`` for each value (the degrees become ``[HOLE]``) and is
    cut by ``jsonout.template`` in its compact encoding, so the pieces
    follow the record's layout whatever its other fields."""
    record = CensusRecord(report).to_json()
    fields = record["report"]
    fields["spec"]["degrees"] = [HOLE]
    fields["amplitude"] = record["oracle_verdict"] = HOLE
    fields["canonical_self_intersection"] = {"num": HOLE, "den": HOLE}
    return (report, *template(_encode_line, record))


def _rows(bounds: CensusBounds, probe: Optional[ProbeBudget]):
    """The census engine: one row (weights, degrees, amplitude, the
    self-intersection's numerator and denominator, entry, verdict) per spec
    of the box, in enumeration order; the summary, tallied on the way, is
    the return value.

    The specs of a block of ``enumerate_specs`` share the ambient and the
    codimension, so each allowed degree's record (``analysis._degree_records``:
    its facts, whether it equals a weight) is drawn once per block, as the
    block's degrees are, and each spec's key and adjunction data come from
    its records by ``analysis._analysis``, as ``classify``'s do; no spec is
    built for it.  A block of codimension 1 streams its records, one spec
    per record, so memory stays flat in ``max_degree``; a longer one holds
    one record per allowed degree, since its spec count grows like D^k/k!.
    Over one block, a report depends on its spec only through the key and
    the adjunction data.  So the first spec of each key is built and
    classified, and its entry (``_entry``: the report and its line cut
    around the per-spec values) serves every later spec of the key.  The
    entries are dropped at each block and when they number
    ``PATTERN_CACHE_SIZE``.  With a budget, the theorem-applicable specs are
    built and spot-probed.  A probe can only certify non-quasi-smoothness,
    so it never contradicts a record's theorem status.  The linear cones,
    which the enumeration never builds, are counted in closed form as each
    block goes by: with D = ``max_degree`` and ``free`` the values up to D
    that are no weight, C(D+k-1, k) - C(free+k-1, k) degree tuples of the
    block meet a weight."""
    top = bounds.max_degree
    total = well_formed = weakly_only = neither = implies = probed = skipped = 0
    for w, k, degrees in enumerate_specs(bounds):
        values = w.entries
        dim_x = w.dim - k
        if bounds.require_non_linear_cone:
            free = top - len({a for a in values if a <= top})
            skipped += comb(top + k - 1, k) - comb(free + k - 1, k)
        records = _degree_records(_ambient(w, dim_x), values, degrees)
        weight_sum, weight_prod = sum(values), prod(values)
        entries: dict = {}
        # CPython's combinations_with_replacement copies its whole input first; zip streams it.
        for chosen in zip(records) if k == 1 else combinations_with_replacement(records, k):
            degs, key, amplitude, num, den = _analysis(chosen, dim_x, weight_sum, weight_prod)
            if len(entries) >= PATTERN_CACHE_SIZE:
                entries.clear()
            found = entries.get(key)
            if found is None:
                found = entries[key] = _entry(classify(WCISpec(w, degs)))
            report = found[0]
            status = report.theorem_status
            verdict = None
            if probe is not None and status in (THEOREM_CONSISTENT, THEOREM_IMPLIES_NOT_QUASISMOOTH):
                verdict = _spot_probe(WCISpec(w, degs), probe)
            total += 1
            well_formed += report.well_formed
            weakly_only += report.weakly_well_formed and not report.well_formed
            neither += not report.weakly_well_formed
            implies += status == THEOREM_IMPLIES_NOT_QUASISMOOTH
            probed += verdict is not None
            yield w, degs, amplitude, num, den, found, verdict
    return CensusSummary(
        total=total, well_formed=well_formed, weakly_only=weakly_only, neither=neither,
        linear_cone_skipped=skipped, theorem_implies_not_quasismooth=implies, probed=probed,
    )


def run_census(
    bounds: CensusBounds, probe: Optional[ProbeBudget] = None
) -> Generator[CensusRecord, None, CensusSummary]:
    """Yield each spec's record, ``CensusRecord(classify(spec), verdict)``,
    in enumeration order; with a budget, the verdict of each
    theorem-applicable spec is a spot-probe over the first of the budget's
    primes that divides none of its weights and degrees.  The summary,
    tallied on the way, is the return value.

    The records come from the engine that ``write_census`` writes its lines
    from: each report is the report of its key's first spec with the spec,
    the amplitude and the self-intersection of its own spec put in, so
    ``classify`` runs once per key here too."""
    rows = _rows(bounds, probe)
    while True:
        try:
            w, degs, amplitude, num, den, entry, verdict = next(rows)
        except StopIteration as done:
            return done.value
        report = replace(
            entry[0], spec=WCISpec(w, degs), amplitude=amplitude,
            canonical_self_intersection=Fraction(num, den),
        )
        yield CensusRecord(report, verdict)


def summary_sidecar_path(path) -> Path:
    return Path(str(path) + ".summary.json")


def write_census(
    bounds: CensusBounds, path, summary_path=None, probe: Optional[ProbeBudget] = None
) -> CensusSummary:
    """Census the box, writing each record as one compact JSON line as it is
    classified (and, with a budget, probed), then the summary sidecar; return
    the summary.

    Each line is the compact encoding of the ``CensusRecord.to_json()`` that
    ``run_census`` yields for the spec, byte for byte, but no record or
    report is built for it: the line is the spec's degrees, amplitude,
    self-intersection and verdict spliced between the pieces of the entry
    (``_entry``), which is encoded once per key.

    Ints of any size are written exactly (``jsonout.exact_ints`` is in
    force while the records are drawn and written).

    The output is opened before the first spec is drawn, so an unwritable
    path is refused before any spec is classified.  On any exception,
    KeyboardInterrupt included, the lines written so far stay and the sidecar
    is replaced by a partial-output marker (best effort) before it propagates.
    A sidecar that names the records' file is refused first, since writing it
    would replace the records; two names of one device (``/dev/null``) are not.
    """
    if not isinstance(bounds, CensusBounds):
        raise TypeError(f"write_census takes CensusBounds, got {type(bounds).__name__}")
    path = Path(path)
    summary_path = summary_sidecar_path(path) if summary_path is None else Path(summary_path)
    if path.exists() and summary_path.exists():
        same = path.is_file() and os.path.samefile(path, summary_path)
    else:
        same = path.resolve() == summary_path.resolve()
    if same:
        raise ValueError(f"the summary {summary_path} and the records {path} are one file")
    try:
        with exact_ints(), open(path, "w", encoding="utf-8") as fh:
            write = fh.write
            rows = _rows(bounds, probe)
            while True:
                try:
                    _, degs, amplitude, num, den, (_, a, b, c, d, e, f), verdict = next(rows)
                except StopIteration as done:
                    summary = done.value
                    break
                write(
                    f'{a}{",".join(map(str, degs))}{b}{amplitude}{c}{num}{d}{den}{e}'
                    f'{"null" if verdict is None else _encode_line(verdict.to_json())}{f}\n'
                )
        with open(summary_path, "w", encoding="utf-8") as fh:
            dump(summary.to_json(), fh)
            fh.write("\n")
    except BaseException as exc:
        try:
            with open(summary_path, "w", encoding="utf-8") as fh:
                error = str(exc) or type(exc).__name__  # KeyboardInterrupt has no text
                dump({"status": "aborted_partial_output", "error": error}, fh)
                fh.write("\n")
        except OSError:
            pass
        raise
    return summary
