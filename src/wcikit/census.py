"""Bounded enumeration and classification of the WCI parameter space.

Specs are enumerated with ascending weights and degrees (one representative
per permutation class), ambient weights pre-filtered to well-formed tuples,
and records streamed as deterministic JSONL with a JSON summary sidecar.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict, dataclass, replace
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Generator, Iterator, Optional

from .analysis import (
    THEOREM_CONSISTENT,
    THEOREM_IMPLIES_NOT_QUASISMOOTH,
    AnalysisReport,
    WCISpec,
    classify,
    is_linear_cone,
)
from .oracle import DEFAULT_PRIMES, QSVerdict, _check_budget, hygienic_primes, quasi_smooth_probe
from .poly import GF, PolySystem
from .weights import Weights, is_well_formed_space


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


def enumerate_specs(bounds: CensusBounds) -> Iterator[WCISpec]:
    """Every spec in the box exactly once, in deterministic order: ambient
    dimension ascending, then weights lexicographically, then codimension,
    then degrees.  Weights ascend and must be well formed; degrees ascend;
    linear cones are skipped when the bounds require it."""
    degree_range = range(1, bounds.max_degree + 1)
    for n in range(1, bounds.max_n + 1):
        count = n + 1
        if count > bounds.max_weight_sum:
            break
        k_top = min(bounds.max_k, n - bounds.min_dim)
        if k_top < 1:
            continue
        for entries in _ascending_tuples(count, 1, bounds.max_weight, bounds.max_weight_sum):
            w = Weights(entries)
            if not is_well_formed_space(w):
                continue
            for k in range(1, k_top + 1):
                # For degrees the sum bound k * max_degree never binds, so these
                # are _ascending_tuples(k, 1, max_degree, k * max_degree), in
                # the same order, built lazily at C speed.
                for degs in combinations_with_replacement(degree_range, k):
                    spec = WCISpec(w, degs)
                    if bounds.require_non_linear_cone and is_linear_cone(spec):
                        continue
                    yield spec


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
    tallied on the way (skipped linear cones included), is the return value.
    A probe can only certify non-quasi-smoothness, so it never contradicts a
    record's theorem status; its verdict is stored with the report."""
    total = well_formed = weakly_only = neither = skipped = implies = probed = 0
    base = replace(bounds, require_non_linear_cone=False)
    for spec in enumerate_specs(base):
        if bounds.require_non_linear_cone and is_linear_cone(spec):
            skipped += 1
            continue
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
    return CensusSummary(
        total=total, well_formed=well_formed, weakly_only=weakly_only, neither=neither,
        linear_cone_skipped=skipped, theorem_implies_not_quasismooth=implies, probed=probed,
    )


def summary_sidecar_path(path) -> Path:
    return Path(str(path) + ".summary.json")


# One compact encoder for every record: json.dumps with non-default separators
# would build a new one per call.  to_json builds fresh trees, so there are no
# cycles to check for.
_encode_line = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def write_census(census, path, summary_path=None) -> CensusSummary:
    """Write each record of ``census`` (a ``run_census`` generator) as one
    compact JSON line as it arrives, then the summary sidecar; return the summary.

    The output is opened before the first record is drawn, so an unwritable
    path is refused before any spec is classified.  On any exception,
    KeyboardInterrupt included, the lines written so far stay and the sidecar
    is replaced by a partial-output marker (best effort) before it propagates.
    """
    path = Path(path)
    summary_path = summary_sidecar_path(path) if summary_path is None else Path(summary_path)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            while True:
                try:
                    fh.write(_encode_line(next(census).to_json()) + "\n")
                except StopIteration as done:
                    summary = done.value
                    break
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(summary.to_json(), fh, indent=2)
            fh.write("\n")
    except BaseException as exc:
        try:
            with open(summary_path, "w", encoding="utf-8") as fh:
                error = str(exc) or type(exc).__name__  # KeyboardInterrupt has no text
                json.dump({"status": "aborted_partial_output", "error": error}, fh)
                fh.write("\n")
        except OSError:
            pass
        raise
    return summary
