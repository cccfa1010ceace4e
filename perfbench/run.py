"""wcikit benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload census-classify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Every repetition is a fresh interpreter (child.py), so the
package's unbounded caches start cold as they do for every CLI user, and
``peak_rss_mb`` is that process's own ``ru_maxrss``.  One caller runs one
job at a time (a closed loop, no threads).

With ``--trace 0`` repetitions run until ``--seconds`` is used up and the
end-to-end metrics are medians over them; extra set-up-only interpreters
bring the set-up samples to SETUP_SAMPLES.  With ``--trace 1`` one untraced
and one traced repetition run, and the per-layer metrics come from the
traced one.  Metric names and units are those of BENCHMARK.json.

The last stdout line is the result object.  The exit code is 1 when an
output check failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The keys of workloads.WORKLOADS; this process never imports wcikit itself.
WORKLOADS = ("census-classify", "census-probe", "probe-explicit", "analyze-scaling")
SETUP_SAMPLES = 15
RUN_LIMIT_S = 170


class BenchError(RuntimeError):
    pass


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _git_sha():
    """HEAD of the checkout, read from .git without running git (None outside a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
        self.started = time.monotonic()
        self.children = 0

    def child(self, *, trace: int = 0, setup_only: bool = False) -> dict:
        """Run one fresh interpreter and return its result object."""
        self.children += 1
        work = self.work / str(self.children)
        work.mkdir(parents=True)
        timeout = RUN_LIMIT_S - (time.monotonic() - self.started)
        if timeout <= 0:
            raise BenchError(f"out of time after {self.children - 1} interpreters")
        cmd = [
            sys.executable, str(HERE / "child.py"), "--workload", self.workload,
            "--seed", str(self.seed), "--work", str(work), "--trace", str(trace),
        ]
        if setup_only:
            cmd.append("--setup-only")
        cmd += ["--spawned-ns", str(time.monotonic_ns())]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload}: an interpreter ran past the {RUN_LIMIT_S} s limit")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{self.workload}: child exited with code {proc.returncode}")
        return json.loads(lines[-1])

    def measure(self, seconds: int) -> tuple[dict, list[dict], dict]:
        reps = []
        start = time.perf_counter()
        while True:
            reps.append(self.child())
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(reps) > seconds:
                break
        setups = [r["setup_s"] for r in reps]
        setup_walls = [r["setup_wall_s"] for r in reps]
        while len(setups) < SETUP_SAMPLES:
            r = self.child(setup_only=True)
            setups.append(r["setup_s"])
            setup_walls.append(r["setup_wall_s"])
        metrics = {
            "norm_cpu_s": statistics.median(r["norm_cpu_s"] for r in reps),
            "records_per_norm_s": statistics.median(r["records"] / r["norm_cpu_s"] for r in reps),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
        detail = {
            "reps": len(reps),
            "wall_s": [r["wall_s"] for r in reps],
            "cpu_s": [r["cpu_s"] for r in reps],
            "norm_cpu_s": [r["norm_cpu_s"] for r in reps],
            "setup_s": setups,
            "setup_wall_s": setup_walls,
        }
        return metrics, reps, detail

    def trace(self) -> tuple[dict, list[dict], dict]:
        untraced = self.child()
        traced = self.child(trace=1)
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["norm_cpu_s"] - untraced["norm_cpu_s"]
        detail = {"untraced_norm_cpu_s": untraced["norm_cpu_s"],
                  "traced_norm_cpu_s": traced["norm_cpu_s"]}
        return metrics, [untraced, traced], detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "wcikit" / "cli.py").is_file():
        print(f"error: no wcikit sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    runner = Runner(args.workload, args.seed)
    machine = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "loadavg_start": _loadavg(),
    }
    try:
        if args.trace:
            metrics, reps, detail = runner.trace()
        else:
            metrics, reps, detail = runner.measure(args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
        try:
            runner.work.parent.rmdir()
        except OSError:
            pass
    machine["loadavg_end"] = _loadavg()

    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(json.dumps({"machine": machine, "workload": args.workload, "seed": args.seed,
                      "error_rate": failed / attempted, **detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
