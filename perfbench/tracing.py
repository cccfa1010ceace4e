"""Per-layer tracing by wrapping the public names each caller module imported.

Nothing under ``src/`` is edited: the tracer replaces module attributes such
as ``wcikit.census.classify`` with timing wrappers and restores them on
``uninstall``.  Spans nest through a stack, so each span's self time is its
duration minus the time of the wrapped spans it caused.  Only aggregates are
kept (count, total, self time, and per-call durations where a percentile is
reported).
"""

from __future__ import annotations

import importlib
import statistics
from time import perf_counter


class TraceError(RuntimeError):
    """A wrapped name is missing or an expected counter read zero."""


class Stat:
    __slots__ = ("calls", "total", "self_time", "samples")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.samples: list[float] | None = None


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [child_time, span name] per open span
        self._patches: list[tuple[object, str, object]] = []
        self._distinct: set = set()

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def add(self, counter: str, n: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n

    # -- patching -----------------------------------------------------------

    def _patch(self, target: str, make) -> None:
        """Replace ``module.attr`` (or ``module.Class.attr``) by make(original)."""
        module_name, _, attr = target.rpartition(".")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            module_name, _, cls = module_name.rpartition(".")
            owner = getattr(importlib.import_module(module_name), cls, None)
        raw = owner.__dict__.get(attr) if owner is not None else None
        if raw is None:
            raise TraceError(f"cannot trace {target}: the name is missing")
        self._patches.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def span(self, target: str, name: str, *, on_result=None, samples=False, under=None):
        """Time every call of ``target`` as span ``name``.  With ``under``, only
        calls made directly inside that span are timed; others pass through."""
        stat = self.stat(name)
        if samples:
            stat.samples = []
        stack = self._stack

        def make(fn):
            def wrapper(*args, **kwargs):
                if under is not None and (not stack or stack[-1][1] != under):
                    return fn(*args, **kwargs)
                frame = [0.0, name]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - t0
                    stack.pop()
                    if stack:
                        stack[-1][0] += dur
                    stat.calls += 1
                    stat.total += dur
                    stat.self_time += dur - frame[0]
                    if samples:
                        stat.samples.append(dur)
                if on_result is not None:
                    on_result(result, args)
                return result

            return wrapper

        self._patch(target, make)

    def generator(self, target: str, name: str) -> None:
        """Time the work inside each ``next`` of a generator function and count
        the items it yields."""
        stat = self.stat(name)
        stack = self._stack

        def make(fn):
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = [0.0, name]
                    stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dur = perf_counter() - t0
                        stack.pop()
                        if stack:
                            stack[-1][0] += dur
                        stat.total += dur
                        stat.self_time += dur - frame[0]
                    stat.calls += 1
                    yield item

            return wrapper

        self._patch(target, make)

    # -- the wcikit layers --------------------------------------------------

    def install_wcikit(self) -> None:
        def probe_result(verdict, _args):
            self.add("oracle.points_scanned", verdict.points_scanned)
            self.add("oracle.witnesses", len(verdict.witnesses))

        def search_result(report, _args):
            self.add("oracle.wf_witness_search.points", report.points_scanned)

        def generic_result(system, _args):
            self.add("poly.generic_terms", sum(len(f.terms) for f in system.polys))

        def classify_result(report, _args):
            self.add("analysis.strata_reported", len(report.strata))

        def representable_args(_result, args):
            d, ws = args
            self._distinct.add((d, tuple(sorted(set(ws)))))

        self.span("wcikit.cli.main", "cli.main")
        for caller in ("wcikit.cli", "wcikit.census"):
            self.span(f"{caller}.classify", "analysis.classify",
                      samples=True, on_result=classify_result)
            self.span(f"{caller}.quasi_smooth_probe", "oracle.quasi_smooth_probe",
                      samples=True, on_result=probe_result)
        self.span("wcikit.cli.run_census", "census.run_census")
        self.span("wcikit.cli.write_census", "census.write_census")
        self.span("wcikit.cli.wf_witness_search", "oracle.wf_witness_search",
                  on_result=search_result)
        self.span("wcikit.cli.parse_poly", "poly.parse_poly")
        self.generator("wcikit.census.enumerate_specs", "census.enumerate_specs")
        self.span("wcikit.poly.PolySystem.generic", "poly.PolySystem.generic",
                  on_result=generic_result)
        # Only the scan's own rank checks, one per cone point; re-verification
        # and the witness search call matrix_rank too.
        self.span("wcikit.oracle.matrix_rank", "oracle.matrix_rank",
                  under="oracle.quasi_smooth_probe")
        self.span("wcikit.oracle.is_singular_witness", "oracle.is_singular_witness")
        self.span("wcikit.oracle.partial_derivative", "poly.partial_derivative")
        self.span("wcikit.oracle.evaluate", "poly.evaluate")
        self.span("wcikit.analysis.is_representable", "analysis.is_representable",
                  on_result=representable_args)
        self.span("wcikit.analysis.singular_strata", "weights.singular_strata")
        for caller in ("wcikit.analysis", "wcikit.census"):
            self.span(f"{caller}.is_well_formed_space", "weights.is_well_formed_space")
        self.span("wcikit.weights.well_form", "weights.well_form")

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric by name (without the trace overhead)."""
        s, c = self.stats, self.counters
        probe, classify = s["oracle.quasi_smooth_probe"], s["analysis.classify"]
        rep, wf = s["analysis.is_representable"], s["weights.well_form"]
        points = c.get("oracle.points_scanned", 0)
        cone_points = s["oracle.matrix_rank"].calls
        m = {
            "oracle.quasi_smooth_probe.calls": probe.calls,
            "oracle.quasi_smooth_probe.s": probe.total,
            "oracle.quasi_smooth_probe.self_s": probe.self_time,
            "oracle.quasi_smooth_probe.p50_ms": 1e3 * _median(probe.samples),
            "oracle.quasi_smooth_probe.tail_ms": 1e3 * _tail(probe.samples),
            "oracle.points_scanned": points,
            "oracle.us_per_point": 1e6 * probe.self_time / points if points else 0.0,
            "oracle.matrix_rank.calls": cone_points,
            "oracle.matrix_rank.s": s["oracle.matrix_rank"].total,
            "oracle.is_singular_witness.calls": s["oracle.is_singular_witness"].calls,
            "oracle.is_singular_witness.s": s["oracle.is_singular_witness"].total,
            "poly.evaluate.calls": s["poly.evaluate"].calls,
            "oracle.witnesses": c.get("oracle.witnesses", 0),
            "oracle.witness_yield": (
                c.get("oracle.witnesses", 0) / cone_points if cone_points else 0.0
            ),
            "oracle.wf_witness_search.s": s["oracle.wf_witness_search"].total,
            "oracle.wf_witness_search.points": c.get("oracle.wf_witness_search.points", 0),
            "poly.PolySystem.generic.calls": s["poly.PolySystem.generic"].calls,
            "poly.PolySystem.generic.s": s["poly.PolySystem.generic"].total,
            "poly.generic_terms": c.get("poly.generic_terms", 0),
            "poly.partial_derivative.calls": s["poly.partial_derivative"].calls,
            "poly.partial_derivative.s": s["poly.partial_derivative"].total,
            "poly.parse_poly.s": s["poly.parse_poly"].total,
            "analysis.classify.calls": classify.calls,
            "analysis.classify.self_s": classify.self_time,
            "analysis.classify.p50_us": 1e6 * _median(classify.samples),
            "analysis.classify.tail_us": 1e6 * _tail(classify.samples),
            "analysis.is_representable.calls": rep.calls,
            "analysis.is_representable.s": rep.total,
            "analysis.is_representable.distinct_ratio": (
                len(self._distinct) / rep.calls if rep.calls else 0.0
            ),
            "analysis.strata_reported": c.get("analysis.strata_reported", 0),
            "weights.singular_strata.calls": s["weights.singular_strata"].calls,
            "weights.singular_strata.s": s["weights.singular_strata"].total,
            "weights.is_well_formed_space.calls": s["weights.is_well_formed_space"].calls,
            "weights.is_well_formed_space.s": s["weights.is_well_formed_space"].total,
            "weights.well_form.calls": wf.calls,
            "weights.well_form.mean_us": 1e6 * wf.total / wf.calls if wf.calls else 0.0,
            "census.enumerate_specs.specs": s["census.enumerate_specs"].calls,
            "census.enumerate_specs.s": s["census.enumerate_specs"].total,
            "census.run_census.self_s": s["census.run_census"].self_time,
            "census.write_census.s": s["census.write_census"].total,
            "cli.main.calls": s["cli.main"].calls,
            "cli.main.self_s": s["cli.main"].self_time,
        }
        return m


def _median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def _tail(samples) -> float:
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest duration.  With ten samples or fewer, the largest."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(len(ordered) - 11, 0)] if len(ordered) > 10 else ordered[-1]
