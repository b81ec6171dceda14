"""Record the verdict digests that perfbench/run.py checks against.

    python3 perfbench/record.py

Runs every workload once in this interpreter and writes
perfbench/reference.json.  Refuses to record a workload in which a check
raised or did not pass (a skip by design, such as the golden fixture away
from (2,2), is recorded as it is).  Re-record only when a change is meant to
alter a verdict or witness, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from quivertilt import report  # noqa: E402
from workloads import WORKLOADS, check_digest, instance_key  # noqa: E402

RECORD_SEED = 0


def record() -> dict:
    out = {}
    for workload in WORKLOADS.values():
        digests = {}
        for index, (a1, a2) in enumerate(workload.instances):
            rep = report.run_checks(
                a1,
                a2,
                checks=list(workload.checks_for(index)),
                laurent_cap=workload.laurent_cap,
                property_seed=RECORD_SEED,
            )
            if not rep.overall:
                bad = [c.check_id for c in rep.checks if not c.ok]
                raise SystemExit(f"{workload.name} ({a1},{a2}): checks {bad} did not pass; not recorded")
            digests[instance_key(a1, a2)] = {
                c["id"]: check_digest(c, RECORD_SEED) for c in rep.to_json()["checks"]
            }
        out[workload.name] = digests
        print(f"recorded {workload.name}: {len(digests)} instances", file=sys.stderr)
    return out


def main() -> int:
    data = {
        "about": "sha256 of each check's report JSON without 'seconds'; "
        "the property suite's echoed seed is replaced by '<seed>'",
        "workloads": record(),
    }
    (HERE / "reference.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
