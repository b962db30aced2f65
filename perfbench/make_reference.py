"""Store the outcome fingerprint of every unit at the default seed in reference/.

    python3 perfbench/make_reference.py [workload ...]

The benchmark compares the outcomes of later commits with these files, so
run this only on a commit whose outputs are known to be right, and commit
the result together with the reason the outcomes changed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, measure, workloads  # noqa: E402


def main(names) -> int:
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out:
            workload = workloads.make(name, workloads.DEFAULT_SEED, Path(out))
            ledger = checks.FingerprintLedger({})
            tally = measure.run_units(workload, ledger, range(workload.units))
        if tally.problems:
            print(f"{name}: not stored, outputs fail the checks:", *tally.problems[:10], sep="\n  ")
            return 1
        units = ",\n".join(f"  {json.dumps(key)}: {json.dumps(fp)}" for key, fp in ledger.seen.items())
        checks.reference_path(name).write_text(
            f'{{"workload": "{name}", "seed": {workloads.DEFAULT_SEED}, "fingerprints": {{\n{units}\n}}}}\n'
        )
        print(f"{name}: {len(ledger.seen)} units stored")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
