"""One repetition of one workload in a fresh interpreter.

Started by run.py, which passes the CLOCK_MONOTONIC time at which it spawned
this process.  Set-up runs from then until wcikit.cli is imported and the
inputs are built; ``setup_s`` is the process's CPU time over it and
``setup_wall_s`` its wall time.  The last line of stdout is one JSON object.
A tracing failure exits nonzero without a result line.

The host's speed drifts by tens of percent within seconds and minutes
(shared physical cores), which no number of repetitions averages out.  So
the workload's process CPU time is rescaled to a fixed reference speed: a
profiling timer interrupts the workload every REF_PERIOD_S of CPU time to
time two fixed pure-Python kernels (an arithmetic loop and a recursive call
tree) in thread CPU time, and ``norm_cpu_s`` divides the CPU time by the
kernels' slowdown against REF_NOMINAL_S.  The slowdown of each kernel is the
harmonic mean of its samples, so that each stretch of the run is weighted
by the CPU time it took, and the two kernels' slowdowns are combined by
their geometric mean.  CPU time rather than wall time leaves out time the
process spends preempted or descheduled by the hypervisor.  The sampling
costs about 2% of the CPU time.  Set-up time, the process's CPU time until
set-up ends, is rescaled the same way by a burst of samples taken right
after it.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import wcikit.cli  # noqa: E402,F401  (part of set-up: every CLI user pays it)

from tracing import TraceError, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Per workload, the per-layer counters that must be nonzero in a traced run
# for any seed: a refactor that renames a traced name cannot silently blind
# a layer.
EXPECTED_NONZERO = {
    "census-classify": (
        "analysis.classify.calls", "analysis.is_representable.calls", "analysis.strata_reported",
        "weights.singular_strata.calls", "weights.is_well_formed_space.calls",
        "census.enumerate_specs.specs", "census.jsonl_bytes", "cli.main.calls", "cli.output_bytes",
    ),
    "census-probe": (
        "oracle.quasi_smooth_probe.calls", "oracle.points_scanned", "oracle.matrix_rank.calls",
        "poly.PolySystem.generic.calls", "poly.generic_terms", "poly.partial_derivative.calls",
        "analysis.classify.calls", "analysis.is_representable.calls",
        "census.enumerate_specs.specs", "census.jsonl_bytes", "cli.main.calls", "cli.output_bytes",
    ),
    "probe-explicit": (
        "oracle.quasi_smooth_probe.calls", "oracle.points_scanned", "oracle.matrix_rank.calls",
        "oracle.is_singular_witness.calls", "poly.evaluate.calls", "oracle.witnesses",
        "oracle.wf_witness_search.points", "poly.PolySystem.generic.calls",
        "poly.partial_derivative.calls", "cli.main.calls", "cli.output_bytes",
    ),
    "analyze-scaling": (
        "analysis.classify.calls", "analysis.is_representable.calls", "analysis.strata_reported",
        "weights.singular_strata.calls", "weights.is_well_formed_space.calls",
        "weights.well_form.calls", "cli.main.calls", "cli.output_bytes",
    ),
}


REF_PERIOD_S = 0.1
REF_LOOPS = 10000
REF_DEPTH = 18
# The kernels' durations on a 2-core Xeon VM at 2.0 GHz (Python 3.11) at
# its fastest; they only set the scale of the normalized times.
REF_NOMINAL_S = (0.8e-3, 0.5e-3)


def _loop_kernel() -> int:
    s = 0
    for i in range(REF_LOOPS):
        s += i * i % 7
    return s


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def _call_kernel() -> int:
    return _fib(REF_DEPTH)


REF_KERNELS = (_loop_kernel, _call_kernel)


def cpu_s() -> float:
    """CPU time of this process and of any children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class SpeedSampler:
    """Times the reference kernels at the start, on every timer tick, and at the end."""

    def __init__(self):
        self.samples: list[list[float]] = [[] for _ in REF_KERNELS]

    def _sample(self, *_):
        for kernel, samples in zip(REF_KERNELS, self.samples):
            t0 = time.thread_time()
            kernel()
            samples.append(time.thread_time() - t0)

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._sample()

    def burst(self, n: int = 9) -> "SpeedSampler":
        for _ in range(n):
            self._sample()
        return self

    @property
    def slowdown(self) -> float:
        return statistics.geometric_mean(
            statistics.harmonic_mean(samples) / nominal
            for samples, nominal in zip(self.samples, REF_NOMINAL_S)
        )


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True, help="empty directory for this repetition's files")
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](Path(args.work), args.seed)
    setup_wall_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    setup_s = cpu_s() / SpeedSampler().burst().slowdown
    result = {"setup_s": setup_s, "setup_wall_s": setup_wall_s, "attempted": 0, "failed": 0}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install_wcikit()
    with SpeedSampler() as speed:
        t0, c0 = time.perf_counter(), cpu_s()
        workload.run()
        wall_s, used_cpu_s = time.perf_counter() - t0, cpu_s() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))[args.workload]
    failed, _ = workload.check(pins)
    for message in workload.failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    result.update(
        attempted=workload.attempted,
        failed=failed,
        wall_s=wall_s,
        cpu_s=used_cpu_s,
        norm_cpu_s=used_cpu_s / speed.slowdown,
        peak_rss_mb=peak_rss_mb,
        records=workload.records() if not failed else 0,
    )
    if tracer is not None:
        layers = tracer.layer_metrics()
        files = workload.output_files()
        layers["cli.output_bytes"] = sum(p.stat().st_size for p in files)
        layers["census.jsonl_bytes"] = sum(p.stat().st_size for p in files if p.suffix == ".jsonl")
        zero = [name for name in EXPECTED_NONZERO[args.workload] if not layers[name]]
        if zero:
            raise TraceError(f"{args.workload}: expected counters read zero: {zero}")
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
