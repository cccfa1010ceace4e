"""Write pins.json: the outputs the benchmark checks, at the default seed.

    python3 perfbench/pin.py

Run it only on code whose outputs are trusted.  The committed pins.json was
written from the seed code, and later code is checked against it; re-pinning
is a deliberate, reviewed change of expected behaviour.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    pins = {}
    for name, cls in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
            workload = cls(Path(tmp), DEFAULT_SEED)
            workload.run()
            failed, observed = workload.check({})
        if failed:
            print("\n".join(workload.failures), file=sys.stderr)
            return 1
        pins[name] = observed
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
