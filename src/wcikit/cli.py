"""Command-line front end: analyze, wellform, strata, witness, probe, census.

Every subcommand prints a single JSON document (census streams JSONL to a
file).  Exit codes: 0 computed (whatever the verdicts), 2 input error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

from . import __version__
from .analysis import WCISpec, classify
from .census import CensusBounds, ProbeBudget, summary_sidecar_path, write_census

# The census's record generator stays importable here: profilers that wrap
# this module's census names look it up, though the CLI writes its census
# through write_census.
from .census import run_census  # noqa: F401
from .jsonout import Rows, dump
from .oracle import (
    DEFAULT_PRIMES,
    DEFAULT_SAMPLE_COUNT,
    EXHAUSTIVE_LIMIT,
    QSVerdict,
    probe_primes,
    quasi_smooth_probe,
    wf_witness_search,
)
from .poly import QQ, GF, PolyError, PolySystem, parse_poly
from .weights import Stratum, Weights, parse_ints, singular_strata, well_form

# Used whenever --seed is omitted, so unseeded runs stay reproducible.
DEFAULT_SEED = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _spec(args) -> WCISpec:
    return WCISpec(Weights.parse(args.weights), parse_ints(args.degrees, "degrees"))


def _emit(args, obj) -> None:
    # jsonout.dump writes the stdlib's indented text, and strata as rows of one
    # template, in bounded batches as it encodes, so a large document (strata
    # --all, an analyze with thousands of strata) is never held as one string.
    path = getattr(args, "output", None)
    with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as out:
        dump(obj, out)
        out.write("\n")


def _paths(tree: dict, prefix: str = ""):
    """The dotted key path of each leaf of a ``to_json`` tree, in order."""
    for key, value in tree.items():
        yield from _paths(value, f"{prefix}{key}.") if type(value) is dict else (prefix + key,)


def _rows(items):
    """``[item.to_json() for item in items]`` as rows for ``jsonout.dump``:
    the first item's tree is the template, and each leaf of a row is read
    off its item by the leaf's key path.  Strata and their intersections
    key each value of their trees by the attribute that holds it."""
    if not items:
        return []
    sample = items[0].to_json()
    return Rows(sample, map(attrgetter(*_paths(sample)), items))


def _verbose(args, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def _load_system(args, spec: WCISpec):
    """The member to scan over each prime field, as a function of the prime:
    the polynomials of --poly-file (one per line, rational coefficients, read
    once) or a generic system over GF(prime) from --seed.  A line that does
    not parse is named by its 1-based number in the file, blank and ``#``
    lines counted, and the position is within that line.  Lines end at a
    newline only (reading turns CR LF and CR into one), so the number is
    an editor's; other line separators, such as a form feed, are whitespace
    inside a line."""
    if args.poly_file:
        polys = []
        text = Path(args.poly_file).read_text(encoding="utf-8")
        for number, line in enumerate(text.split("\n"), 1):
            if not line.strip() or line.strip().startswith("#"):
                continue
            try:
                polys.append(parse_poly(line, spec.weights, QQ))
            except PolyError as exc:
                raise ValueError(f"line {number}: {exc}") from None
        sys_ = PolySystem(tuple(polys))
        if sys_.degrees != spec.degrees:
            raise ValueError(
                f"polynomial degrees {sys_.degrees} do not match --degrees {spec.degrees}"
            )
        return lambda prime: sys_
    return lambda prime: PolySystem.generic(spec.weights, spec.degrees, GF(prime), args.seed)


def cmd_analyze(args) -> int:
    report = classify(_spec(args))
    doc = replace(report, strata=()).to_json()
    doc["strata"] = _rows(report.strata)
    _emit(args, doc)
    return EXIT_OK


def cmd_wellform(args) -> int:
    start = Weights.parse(args.weights)
    result, trace = well_form(start)
    _emit(
        args,
        {"input": start.to_json(), "weights": str(result),
         "entries": result.to_json(), "trace": trace.to_json()},
    )
    return EXIT_OK


def cmd_strata(args) -> int:
    w = Weights.parse(args.weights)
    strata = singular_strata(w, maximal_only=not args.all)
    _emit(args, {"weights": w.to_json(), "maximal_only": not args.all, "strata": _rows(strata)})
    return EXIT_OK


def cmd_witness(args) -> int:
    spec = _spec(args)
    if args.stratum:
        stratum = Stratum.of(spec.weights, parse_ints(args.stratum, "stratum indices"))
    else:
        candidates = singular_strata(spec.weights, maximal_only=True)
        if not candidates:
            raise ValueError("the ambient space is smooth; no singular stratum to search")
        stratum = candidates[0]
    report = wf_witness_search(spec, _load_system(args, spec)(args.prime), stratum, args.prime)
    _emit(args, report.to_json())
    return EXIT_OK


def cmd_probe(args) -> int:
    spec = _spec(args)
    primes = parse_ints(args.primes, "primes")
    member = _load_system(args, spec)
    # A generic member is drawn over one prime field, so each field is probed
    # on its own and the verdicts join as one call over all of them would.
    verdict = QSVerdict.join(
        quasi_smooth_probe(
            member(p),
            (p,),
            args.max_points,
            sample_count=args.sample_count,
            seed=args.seed,
            allow_bad_primes=args.allow_bad_primes,
        )
        for p in probe_primes(primes, spec.weights, spec.degrees, args.allow_bad_primes, "--allow-bad-primes")
    )
    _emit(args, verdict.to_json())
    return EXIT_OK


_BOUND_FLAGS = ("max_n", "max_weight", "max_weight_sum", "max_k", "max_degree", "min_dim")


def _census_bounds(args) -> CensusBounds:
    base: dict = {}
    if args.config:
        try:
            base = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"census config {args.config} is not valid JSON: {exc}") from None
        if not isinstance(base, dict):
            raise ValueError("census config must be a JSON object")
    for name in _BOUND_FLAGS:
        value = getattr(args, name)
        if value is not None:
            base[name] = value
    if args.non_linear_cone:
        base["require_non_linear_cone"] = True
    missing = [n for n in ("max_n", "max_weight", "max_weight_sum", "max_k", "max_degree")
               if n not in base]
    if missing:
        raise ValueError(f"missing census bounds: {missing} (flags or --config)")
    return CensusBounds.from_json(base)


def cmd_census(args) -> int:
    bounds = _census_bounds(args)
    if not args.output:
        raise ValueError("census needs --output PATH for the JSONL records")
    output = Path(args.output)
    if args.summary is None and output.exists() and not output.is_file():
        raise ValueError(
            f"--output {output} is not a regular file, so the default sidecar "
            f"{summary_sidecar_path(output)} is not written next to it; pass --summary PATH"
        )
    probe = None
    if args.probe:
        probe = ProbeBudget(
            primes=parse_ints(args.probe_primes, "probe primes"),
            max_points=args.probe_max_points,
            seed=args.probe_seed,
        )
    _verbose(args, f"census bounds: {bounds.to_json()}")
    summary = write_census(bounds, args.output, args.summary, probe)
    _verbose(args, f"wrote {summary.total} records to {args.output}")
    dump(summary.to_json(), sys.stdout)
    sys.stdout.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcikit",
        description="Exact-arithmetic analysis of weighted complete intersections "
        "in weighted projective spaces.",
    )
    parser.add_argument("--version", action="version", version=f"wcikit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="write the JSON result to this path instead of stdout")

    p = sub.add_parser("analyze", help="classify a family: well-formedness, adjunction data, theorem status")
    p.add_argument("weights", help='comma-separated weights, e.g. "1,1,2,2,2"')
    p.add_argument("--degrees", required=True, help='comma-separated degrees, e.g. "3,4"')
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("wellform", help="normalize weights to a well-formed representative")
    p.add_argument("weights")
    common(p)
    p.set_defaults(func=cmd_wellform)

    p = sub.add_parser("strata", help="singular strata of a well-formed weight tuple")
    p.add_argument("weights")
    p.add_argument("--all", action="store_true",
                   help="one stratum per orbit type (the indices of each weight-value set with "
                   "a common divisor), not just the covering family (refused past 2^20 value sets)")
    common(p)
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("witness", help="rank-drop witness search along a singular stratum")
    p.add_argument("weights")
    p.add_argument("--degrees", required=True)
    p.add_argument("--stratum", default=None, help='stratum indices, e.g. "2,3,4,5" (default: top covering stratum)')
    p.add_argument("--prime", type=int, required=True, help="prime field to scan")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"generic-system seed (default {DEFAULT_SEED})")
    p.add_argument("--poly-file", default=None, help="explicit polynomials, one per line")
    common(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("probe", help="finite-field quasi-smoothness probe of an explicit or generic member")
    p.add_argument("weights")
    p.add_argument("--degrees", required=True)
    p.add_argument("--primes", default=",".join(str(q) for q in DEFAULT_PRIMES),
                   help="comma-separated primes (default 3,5,7; unsafe ones are dropped)")
    p.add_argument("--max-points", type=int, default=EXHAUSTIVE_LIMIT,
                   help="scan a field exhaustively when its orbit slice, "
                   "sum_i gcd(a_i, p-1)*p^(N-i) points, has at most this many")
    p.add_argument("--sample-count", type=int, default=DEFAULT_SAMPLE_COUNT,
                   help="seeded sample size for a field whose orbit slice exceeds --max-points")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--poly-file", default=None)
    p.add_argument("--allow-bad-primes", action="store_true",
                   help="keep primes dividing a weight or degree")
    common(p)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("census", help="classify every family in a bounded box; write JSONL + summary")
    p.add_argument("--config", default=None, help="JSON file with census bounds")
    p.add_argument("--max-n", dest="max_n", type=int, default=None)
    p.add_argument("--max-weight", dest="max_weight", type=int, default=None)
    p.add_argument("--max-weight-sum", dest="max_weight_sum", type=int, default=None)
    p.add_argument("--max-k", dest="max_k", type=int, default=None)
    p.add_argument("--max-degree", dest="max_degree", type=int, default=None)
    p.add_argument("--min-dim", dest="min_dim", type=int, default=None)
    p.add_argument("--non-linear-cone", action="store_true",
                   help="skip intersections with a linear cone")
    p.add_argument("--probe", action="store_true", help="spot-probe theorem-applicable records")
    p.add_argument("--probe-primes", default=",".join(str(q) for q in DEFAULT_PRIMES),
                   help="comma-separated primes (default 3,5,7); each record is probed over one "
                   "field only, the first of them dividing none of its weights and degrees")
    p.add_argument("--probe-max-points", type=int, default=ProbeBudget.max_points,
                   help="scan a record's field exhaustively when its orbit slice, "
                   "sum_i gcd(a_i, p-1)*p^(N-i) points, has at most this many (default "
                   f"{ProbeBudget.max_points}); otherwise sample {ProbeBudget.sample_count} points")
    p.add_argument("--probe-seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--summary", default=None,
                   help="summary sidecar path (default: <output>.summary.json; required when "
                   "--output is not a regular file, such as /dev/null)")
    p.add_argument("--verbose", action="store_true", help="progress notes on stderr")
    common(p)
    p.set_defaults(func=cmd_census)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_INPUT
        return EXIT_INPUT if code not in (0,) else code
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - invariant violations
        # MemoryError has no text; name its type instead.
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
