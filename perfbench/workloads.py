"""The four benchmark workloads.

Each workload builds its inputs from a seed, makes its timed calls through
the public entry points a user calls (mostly ``wcikit.cli.main``), and then
checks the outputs outside the timed region.  Calls go through module
attributes (``cli.main``, ``weights.well_form``) so that the tracer can wrap
them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import traceback
import zlib
from pathlib import Path

from wcikit import cli, weights
from wcikit.oracle import is_singular_witness
from wcikit.poly import GF, QQ, PolySystem, parse_poly

# The CLI's default seed.  Pins marked seed-specific hold for it only.
DEFAULT_SEED = 1


def _call_main(argv, failures: list) -> bool:
    """One CLI call; a nonzero exit or an exception is a failed operation."""
    try:
        rc = cli.main(argv)
    except Exception:
        failures.append(f"{' '.join(argv[:2])}: exception\n{traceback.format_exc()}")
        return False
    if rc != 0:
        failures.append(f"{' '.join(argv[:2])}: exit code {rc}")
        return False
    return True


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


class Workload:
    """Base: subclasses set ``argvs`` in ``__init__`` and may extend run/check."""

    name = ""
    # Observations compared with the pins only when the seed is DEFAULT_SEED.
    seed_specific: tuple[str, ...] = ()

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.argvs: list[list[str]] = []
        self.failures: list[str] = []
        self.ok: list[bool] = []

    @property
    def attempted(self) -> int:
        return len(self.argvs)

    def run(self) -> None:
        """The timed region."""
        self.ok = [_call_main(argv, self.failures) for argv in self.argvs]

    def records(self) -> int:
        """Result records the calls produced (for ``records_per_s``)."""
        raise NotImplementedError

    def observe(self) -> dict:
        """Values compared with the pins; invariant checks append to failures."""
        raise NotImplementedError

    def output_files(self) -> list[Path]:
        return sorted(p for p in self.work.iterdir() if p.suffix in (".json", ".jsonl"))

    def check(self, pins: dict) -> tuple[int, dict]:
        """Failed operation count and the observations, after the timed region."""
        if not all(self.ok):
            return len(self.failures), {}
        try:
            observed = self.observe()
        except Exception:
            self.failures.append(f"{self.name}: output check raised\n{traceback.format_exc()}")
            return 1, {}
        for key, want in pins.items():
            if key in self.seed_specific and self.seed != DEFAULT_SEED:
                continue
            if observed.get(key) != want:
                self.failures.append(f"{self.name}: {key} differs from the pinned seed-code value")
        return min(self.attempted, len(self.failures)), observed


class CensusClassify(Workload):
    """Classification-only census of a box about 3.8x the criterion-4 box."""

    name = "census-classify"

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.out = work / "census.jsonl"
        self.argvs = [[
            "census", "--max-n", "13", "--max-weight", "14", "--max-weight-sum", "14",
            "--max-k", "3", "--max-degree", "14", "--min-dim", "3", "--non-linear-cone",
            "--output", str(self.out),
        ]]

    def records(self):
        with open(self.out, "rb") as fh:
            return sum(1 for _ in fh)

    def observe(self):
        # The summary sidecar is not pinned: streaming and provenance change it.
        return {"jsonl_sha256": _sha256(self.out), "records": self.records()}


class CensusProbe(Workload):
    """The probed census box of tests/test_census.py: 38 generic members at p=5."""

    name = "census-probe"
    seed_specific = ("status_exhaustive",)

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.out = work / "census.jsonl"
        self.argvs = [[
            "census", "--max-n", "5", "--max-weight", "2", "--max-weight-sum", "11",
            "--max-k", "2", "--max-degree", "4", "--min-dim", "3", "--non-linear-cone",
            "--probe", "--probe-primes", "5", "--probe-max-points", "20000",
            "--probe-seed", str(seed), "--output", str(self.out),
        ]]

    def records(self):
        return len(_jsonl(self.out))

    def observe(self):
        records = _jsonl(self.out)
        reports = hashlib.sha256()
        status = []
        for rec in records:
            reports.update(_canonical(rec["report"]).encode() + b"\n")
            verdict = rec["oracle_verdict"]
            if verdict is None:
                status.append(None)
                continue
            status.append([verdict["status"], verdict["exhaustive"]])
            self._reverify(rec["report"]["spec"], verdict)
        # Points scanned and the witness lists are not pinned: orbit
        # reduction and first-witness exit legitimately change them.
        return {
            "records": len(records),
            "reports_sha256": reports.hexdigest(),
            "status_exhaustive": status,
        }

    def _reverify(self, spec: dict, verdict: dict) -> None:
        key = f"{','.join(map(str, spec['weights']))}/{','.join(map(str, spec['degrees']))}"
        if (verdict["status"] == "singular_witness") != bool(verdict["witnesses"]):
            self.failures.append(f"{key}: status {verdict['status']} disagrees with its witnesses")
        systems = {}
        for w in verdict["witnesses"]:
            p = w["prime"]
            if p not in systems:
                # The census draws each record's member from crc32(key) ^ seed.
                member_seed = zlib.crc32(key.encode()) ^ self.seed
                systems[p] = PolySystem.generic(spec["weights"], spec["degrees"], GF(p), member_seed)
            if not is_singular_witness(systems[p], w["point"]):
                self.failures.append(f"{key}: witness {w['point']} at p={p} is not singular")


# name -> (weights, degrees, polynomials, primes)
EXPLICIT_MEMBERS = {
    "fermat-cubic-P5": ("1,1,1,1,1,1", "3", ["+".join(f"x{i}^3" for i in range(6))], "5,7"),
    "diagonal-quadrics-P5": (
        "1,1,1,1,1,1", "2,2",
        ["+".join(f"x{i}^2" for i in range(6)), "+".join(f"{i + 1}*x{i}^2" for i in range(6))],
        "7",
    ),
    "weighted-sextic": ("1,1,1,1,2,2", "6", ["x0^6+x1^6+x2^6+x3^6+x4^3+x5^3"], "7"),
    "fermat-quintic-P4": ("1,1,1,1,1", "5", ["+".join(f"x{i}^5" for i in range(5))], "7,11"),
    "node-P2": ("1,1,1", "2", ["x0*x1"], "5,7,11,13"),
}
WITNESS_FAMILY = ("1,1,2,2,2,2", "3,4", "2,3,4,5")
WITNESS_PRIMES = (7, 11, 13)


class ProbeExplicit(Workload):
    """Exhaustive probes of sparse explicit members plus a rank-drop search."""

    name = "probe-explicit"

    def __init__(self, work, seed):
        super().__init__(work, seed)
        for name, (w, degrees, polys, primes) in EXPLICIT_MEMBERS.items():
            poly_file = work / f"{name}.txt"
            poly_file.write_text("\n".join(polys) + "\n", encoding="utf-8")
            self.argvs.append([
                "probe", w, "--degrees", degrees, "--poly-file", str(poly_file),
                "--primes", primes, "--output", str(work / f"probe-{name}.json"),
            ])
        w, degrees, stratum = WITNESS_FAMILY
        for p in WITNESS_PRIMES:
            self.argvs.append([
                "witness", w, "--degrees", degrees, "--stratum", stratum,
                "--prime", str(p), "--seed", str(seed), "--output", str(work / f"witness-{p}.json"),
            ])

    def records(self):
        return len(self.argvs)

    def observe(self):
        status = {}
        for name, (w, _, polys, _) in EXPLICIT_MEMBERS.items():
            verdict = json.loads((self.work / f"probe-{name}.json").read_text(encoding="utf-8"))
            status[name] = verdict["status"]
            weights_ = tuple(int(a) for a in w.split(","))
            system = PolySystem(tuple(parse_poly(f, weights_, QQ) for f in polys))
            for wit in verdict["witnesses"]:
                if not is_singular_witness(system.reduce_mod(wit["prime"]), wit["point"]):
                    self.failures.append(f"{name}: witness {wit['point']} is not singular")
        w, degrees, _ = WITNESS_FAMILY
        weights_ = tuple(int(a) for a in w.split(","))
        degrees_ = tuple(int(d) for d in degrees.split(","))
        search = {}
        for p in WITNESS_PRIMES:
            report = json.loads((self.work / f"witness-{p}.json").read_text(encoding="utf-8"))
            search[str(p)] = [report["status"], report["r"]]
            system = PolySystem.generic(weights_, degrees_, GF(p), self.seed)
            for pt in report["S_points"]:
                if not is_singular_witness(system, pt):
                    self.failures.append(f"witness p={p}: S point {pt} is not singular")
        return {"probe_status": status, "witness_search": search}


def _family(ones: int, twos: int, threes: int) -> tuple[str, str]:
    return ",".join(["1"] * ones + ["2"] * twos), ",".join(["3"] * threes)


ANALYZE_FAMILIES = (
    _family(2, 13, 7),
    _family(2, 15, 8),
    _family(2, 17, 9),
    ("1,6,10,15", "1000001"),
    ("1,6,7,10,15", "200003,300001"),
)
# Report fields pinned per family; the strata list is not (its schema is due to change).
ANALYZE_PINNED = (
    "well_formed", "weakly_well_formed", "sing_intersection_dim", "dim_X", "amplitude",
    "canonical_self_intersection", "theorem_status", "flags",
)
WELL_FORM_RANGE = range(1, 13)
WELL_FORM_LENGTH = 4


class AnalyzeScaling(Workload):
    """Large-N and large-degree ``analyze`` calls plus a ``well_form`` sweep."""

    name = "analyze-scaling"

    def __init__(self, work, seed):
        super().__init__(work, seed)
        for i, (w, degrees) in enumerate(ANALYZE_FAMILIES):
            self.argvs.append(
                ["analyze", w, "--degrees", degrees, "--output", str(work / f"analyze-{i}.json")]
            )
        self.tuples = list(itertools.product(WELL_FORM_RANGE, repeat=WELL_FORM_LENGTH))
        random.Random(seed).shuffle(self.tuples)
        self.normal_forms: list = []

    @property
    def attempted(self):
        return len(self.argvs) + len(self.tuples)

    def run(self):
        super().run()
        well_form = weights.well_form
        self.normal_forms = [well_form(t)[0] for t in self.tuples]

    def records(self):
        return len(self.argvs) + len(self.normal_forms)

    def observe(self):
        pinned = []
        for i in range(len(ANALYZE_FAMILIES)):
            report = json.loads((self.work / f"analyze-{i}.json").read_text(encoding="utf-8"))
            pinned.append({k: report[k] for k in ANALYZE_PINNED})
        for start, result in zip(self.tuples, self.normal_forms):
            again, trace = weights.well_form(result)
            if not weights.is_well_formed_space(result) or again != result or trace.steps:
                self.failures.append(f"well_form{start}: {result} not well formed or not idempotent")
        return {"analyze": pinned, "well_form_results": len(self.normal_forms)}


WORKLOADS = {cls.name: cls for cls in (CensusClassify, CensusProbe, ProbeExplicit, AnalyzeScaling)}
