"""Verdict digests for a fixed set of instances and Laurent caps.

    PYTHONPATH=src python3 tests/verdict_digests.py    # re-record verdict_digests.json

Each case runs `report.run_checks` on one instance with an explicit Laurent
cap and digests every check's JSON with its `seconds` stripped, the way
perfbench/workloads.check_digest does.  tests/test_verdict_digests.py
compares a fresh run with the recorded table, so any change to a verdict or
a witness shows up in tier-1.  Re-record only when a change means to alter a
witness, and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from quivertilt import report

TABLE = Path(__file__).resolve().with_name("verdict_digests.json")
NO_PROPERTIES = tuple(c for c in report.ALL_CHECKS if c != "properties")
MUTATION_CHECKS = ("palindrome", "order-two", "t-to-shift")

# (a1, a2, Laurent cap, checks): the default grid a1 <= 4, a2 <= 5 with the
# property suite on its first instance only, as `quivertilt sweep` runs it;
# (6,8) with every check at cap 12 and with the mutation checks at cap 19,
# where the Laurent level is tracked at n = 19; and (10,12), n = 31.
CASES = (
    [
        (a1, a2, 12, report.ALL_CHECKS if (a1, a2) == (1, 2) else NO_PROPERTIES)
        for a1 in range(1, 5)
        for a2 in range(2, 6)
    ]
    + [(6, 8, 12, NO_PROPERTIES), (6, 8, 19, MUTATION_CHECKS), (10, 12, 12, NO_PROPERTIES)]
)


def case_key(a1: int, a2: int, cap: int) -> str:
    return f"{a1},{a2},cap={cap}"


def digests(a1: int, a2: int, cap: int, checks) -> dict[str, str]:
    """sha256 of each check's JSON without `seconds`, keyed by check id."""
    rep = report.run_checks(a1, a2, checks=list(checks), laurent_cap=cap)
    out = {}
    for check in rep.to_json()["checks"]:
        data = {k: v for k, v in check.items() if k != "seconds"}
        text = json.dumps(data, sort_keys=True, separators=(",", ":"))
        out[check["id"]] = hashlib.sha256(text.encode()).hexdigest()
    return out


def main() -> None:
    table = {case_key(a1, a2, cap): digests(a1, a2, cap, checks) for a1, a2, cap, checks in CASES}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
