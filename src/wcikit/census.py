"""Bounded enumeration and classification of the WCI parameter space.

Specs are enumerated with ascending weights and degrees (one representative
per permutation class), ambient weights pre-filtered to well-formed tuples,
and records streamed as deterministic JSONL with a JSON summary sidecar.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from json.encoder import encode_basestring_ascii
from math import comb
from pathlib import Path
from typing import Generator, Iterator, Optional

from .analysis import (
    PATTERN_CACHE_SIZE,
    THEOREM_CONSISTENT,
    THEOREM_IMPLIES_NOT_QUASISMOOTH,
    AnalysisReport,
    WCISpec,
    classify,
)
from .jsonout import dump
from .oracle import DEFAULT_PRIMES, QSVerdict, _check_budget, hygienic_primes, quasi_smooth_probe
from .poly import GF, PolySystem
from .weights import MAX_ENTRY, Weights, is_well_formed_space


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
    and sum bounded by budget."""
    if length == 0:
        yield ()
        return
    top = min(max_value, budget // length)  # the remaining entries are all >= the current one
    for v in range(lo, top + 1):
        for rest in _ascending_tuples(length - 1, v, max_value, budget - v):
            yield (v,) + rest


def _ambients(bounds: CensusBounds):
    """Each well-formed ascending weight tuple of the box, as ``Weights``,
    with the largest codimension the box allows it (at least 1), in
    enumeration order."""
    for n in range(1, bounds.max_n + 1):
        count = n + 1
        if count > bounds.max_weight_sum:
            break
        k_top = min(bounds.max_k, n - bounds.min_dim)
        if k_top < 1:
            continue
        for entries in _ascending_tuples(count, 1, bounds.max_weight, bounds.max_weight_sum):
            w = Weights(entries)
            if is_well_formed_space(w):
                yield w, k_top


def enumerate_specs(bounds: CensusBounds) -> Iterator[WCISpec]:
    """Every spec in the box exactly once, in deterministic order: ambient
    dimension ascending, then weights lexicographically, then codimension,
    then degrees.  Weights ascend and must be well formed; degrees ascend.
    When the bounds require it, linear cones are never built: the degrees
    are drawn from the degree range without the weight tuple's values."""
    degree_range = range(1, bounds.max_degree + 1)
    for w, k_top in _ambients(bounds):
        degrees = degree_range
        if bounds.require_non_linear_cone:
            degrees = [d for d in degree_range if d not in w.entries]
        for k in range(1, k_top + 1):
            # For degrees the sum bound k * max_degree never binds, so these
            # are _ascending_tuples(k, 1, max_degree, k * max_degree) in the
            # same order, less the tuples that meet a weight when cones are
            # filtered, built lazily at C speed.
            for degs in combinations_with_replacement(degrees, k):
                yield WCISpec(w, degs)


def _linear_cone_count(bounds: CensusBounds) -> int:
    """How many linear cones the box holds: for each weight tuple with m
    distinct values up to D = max_degree, the degree tuples of each length k
    that meet one, C(D+k-1, k) - C(D-m+k-1, k)."""
    top = bounds.max_degree
    total = 0
    for w, k_top in _ambients(bounds):
        free = top - sum(1 for a in set(w.entries) if a <= top)
        total += sum(comb(top + k - 1, k) - comb(free + k - 1, k) for k in range(1, k_top + 1))
    return total


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


def run_census(
    bounds: CensusBounds, probe: Optional[ProbeBudget] = None
) -> Generator[CensusRecord, None, CensusSummary]:
    """Yield each spec's record in enumeration order as it is classified and,
    with a budget, its theorem-applicable records spot-probed.  The summary,
    tallied on the way, is the return value; the linear cones, which the
    enumeration never builds, are counted in closed form at the end.
    A probe can only certify non-quasi-smoothness, so it never contradicts a
    record's theorem status; its verdict is stored with the report."""
    total = well_formed = weakly_only = neither = implies = probed = 0
    for spec in enumerate_specs(bounds):
        report = classify(spec)
        status = report.theorem_status
        verdict = None
        if probe is not None and status in (THEOREM_CONSISTENT, THEOREM_IMPLIES_NOT_QUASISMOOTH):
            verdict = _spot_probe(spec, probe)
        total += 1
        well_formed += report.well_formed
        weakly_only += report.weakly_well_formed and not report.well_formed
        neither += not report.weakly_well_formed
        implies += status == THEOREM_IMPLIES_NOT_QUASISMOOTH
        probed += verdict is not None
        yield CensusRecord(report, verdict)
    skipped = _linear_cone_count(bounds) if bounds.require_non_linear_cone else 0
    return CensusSummary(
        total=total, well_formed=well_formed, weakly_only=weakly_only, neither=neither,
        linear_cone_skipped=skipped, theorem_implies_not_quasismooth=implies, probed=probed,
    )


def summary_sidecar_path(path) -> Path:
    return Path(str(path) + ".summary.json")


# The compact encoding of an oracle verdict and of the cached line fragments
# below.  json.dumps with non-default separators would build a new encoder
# per call; to_json builds fresh trees, so there are no cycles to check for.
_encode_line = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode

# Distinct weight tuples whose line heads are kept.  The 54,566-record
# census box meets 247 weight tuples, in runs.
LINE_HEAD_CACHE_SIZE = 1024

_LITERAL = {True: "true", False: "false", None: "null"}


@lru_cache(maxsize=LINE_HEAD_CACHE_SIZE)
def _spec_head(weights: tuple[int, ...]) -> str:
    return '{"report":{"spec":{"weights":%s,"degrees":[' % _encode_line(list(weights))


# The encoded strata list of each strata tuple, keyed by id(): classify
# shares one tuple among the reports of a degree pattern.  Each entry holds
# its tuple, so no id is reused while its entry lives; the dict is cleared
# when it holds PATTERN_CACHE_SIZE tuples.
_strata_lines: dict[int, tuple[tuple, str]] = {}


def _strata_line(strata: tuple) -> str:
    entry = _strata_lines.get(id(strata))
    if entry is None:
        if len(_strata_lines) >= PATTERN_CACHE_SIZE:
            _strata_lines.clear()
        entry = _strata_lines[id(strata)] = (strata, _encode_line([si.to_json() for si in strata]))
    return entry[1]


def _record_line(record: CensusRecord) -> str:
    """The line ``_encode_line(record.to_json())`` and its newline, built
    from a cached head per weight tuple and an encoded strata list per strata
    tuple, without the record's dict tree.  Ints format as ``int.__repr__``
    does, booleans and None through ``_LITERAL``, and strings through the
    encoder's own ASCII escaping."""
    r = record.report
    self_int = r.canonical_self_intersection
    verdict = record.oracle_verdict
    return (
        f'{_spec_head(r.spec.weights.entries)}{",".join(map(str, r.spec.degrees))}]}},'
        f'"space_well_formed":{_LITERAL[r.space_well_formed]},"dim_X":{r.dim_X},'
        f'"linear_cone":{_LITERAL[r.linear_cone]},"amplitude":{r.amplitude},'
        f'"canonical_self_intersection":{{"num":{self_int.numerator},"den":{self_int.denominator}}},'
        f'"strata":{_strata_line(r.strata)},"sing_intersection_dim":{r.sing_intersection_dim},'
        f'"well_formed":{_LITERAL[r.well_formed]},'
        f'"weakly_well_formed":{_LITERAL[r.weakly_well_formed]},'
        f'"theorem_status":{encode_basestring_ascii(r.theorem_status)},'
        f'"flags":[{",".join(map(encode_basestring_ascii, r.flags))}]}},'
        f'"oracle_verdict":{"null" if verdict is None else _encode_line(verdict.to_json())}}}\n'
    )


def write_census(census, path, summary_path=None) -> CensusSummary:
    """Write each record of ``census`` (a ``run_census`` generator) as one
    compact JSON line as it arrives, then the summary sidecar; return the summary.
    Each line is the compact encoding of ``CensusRecord.to_json()``, byte for
    byte, but is built from cached per-weight-tuple heads and one encoded
    strata list per degree pattern (``_record_line``).

    The output is opened before the first record is drawn, so an unwritable
    path is refused before any spec is classified.  On any exception,
    KeyboardInterrupt included, the lines written so far stay and the sidecar
    is replaced by a partial-output marker (best effort) before it propagates.
    A sidecar that names the records' file is refused first, since writing it
    would replace the records; two names of one device (``/dev/null``) are not.
    """
    path = Path(path)
    summary_path = summary_sidecar_path(path) if summary_path is None else Path(summary_path)
    if path.exists() and summary_path.exists():
        same = path.is_file() and os.path.samefile(path, summary_path)
    else:
        same = path.resolve() == summary_path.resolve()
    if same:
        raise ValueError(f"the summary {summary_path} and the records {path} are one file")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            while True:
                try:
                    fh.write(_record_line(next(census)))
                except StopIteration as done:
                    summary = done.value
                    break
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
