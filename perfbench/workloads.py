"""The benchmark's workloads and its correctness gate.

Each workload is a list of family instances, the checks run on each and a
Laurent cap.  `run_workload` calls `report.run_checks` once per instance, the
way `quivertilt sweep` does, but contains a failure to its instance: the
instance's checks get an error verdict and the next instance still runs.
Every verdict is reduced to a digest of the check's JSON with its timing
stripped, which `reference.json` pins for this code's outputs.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from dataclasses import dataclass
from typing import Optional

# The check lists are pinned here rather than read from quivertilt.report, so
# a check added to the program later does not silently change a workload.
ALL_CHECKS = (
    "submodule-counts",
    "golden-fixture",
    "tau-closed-forms",
    "projective-identifications",
    "pd-le-1",
    "tilting",
    "hom-table",
    "end-iso",
    "acyclic-type",
    "source-sink-discipline",
    "palindrome",
    "order-two",
    "t-to-shift",
    "properties",
)
TILTING_CHECKS = (
    "tau-closed-forms",
    "projective-identifications",
    "pd-le-1",
    "tilting",
    "hom-table",
    "end-iso",
)
LAURENT_CHECKS = ("palindrome", "order-two", "t-to-shift")
SEED_PLACEHOLDER = "<seed>"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    instances: tuple[tuple[int, int], ...]
    checks: tuple[str, ...]
    laurent_cap: int
    # the sweep runs the randomized property suite on its first instance only
    properties_once: bool = False

    def checks_for(self, index: int) -> tuple[str, ...]:
        if self.properties_once and index > 0:
            return tuple(c for c in self.checks if c != "properties")
        return self.checks


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-default",
            "the default grid users run (quivertilt sweep --a1-max 4 --a2-max 5): "
            "16 small instances, so per-call overhead and instance builds dominate",
            tuple((a1, a2) for a1 in range(1, 5) for a2 in range(2, 6)),
            ALL_CHECKS,
            12,
            properties_once=True,
        ),
        Workload(
            "tilting-large",
            "one large instance (6,8), n=19, tilting and Hom/Ext checks only: "
            "linalg and reps do all the work, fpoly and submodules none",
            ((6, 8),),
            TILTING_CHECKS,
            12,
        ),
        Workload(
            "laurent-large",
            "(6,8) with the Laurent cap at n=19, mutation checks only: fpoly, "
            "cluster and submodule enumeration heavy, linalg and reps light",
            ((6, 8),),
            LAURENT_CHECKS,
            19,
        ),
    )
}


def instance_key(a1: int, a2: int) -> str:
    return f"{a1},{a2}"


def check_digest(check: dict, seed: int) -> str:
    """Digest of one check's JSON without `seconds`.  The property suite's
    witness echoes the seed it was given; that echo is replaced by a
    placeholder so one reference serves every seed."""
    data = {k: v for k, v in check.items() if k != "seconds"}
    if data.get("id") == "properties" and data.get("witness", {}).get("seed") == seed:
        data["witness"] = dict(data["witness"], seed=SEED_PLACEHOLDER)
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_instance(report, a1: int, a2: int, checks, laurent_cap: int, seed: int) -> dict[str, str]:
    """Digest per check id for one instance; an exception from `run_checks`
    gives every check of the instance an `error:` verdict instead."""
    try:
        rep = report.run_checks(
            a1, a2, checks=list(checks), laurent_cap=laurent_cap, property_seed=seed
        )
        return {c["id"]: check_digest(c, seed) for c in rep.to_json()["checks"]}
    except Exception as exc:  # contained: the other instances still run
        traceback.print_exc()
        return {c: f"error: {type(exc).__name__}: {exc}" for c in checks}


def run_workload(report, workload: Workload, seed: int, tracer=None) -> dict[str, dict[str, str]]:
    verdicts = {}
    for index, (a1, a2) in enumerate(workload.instances):
        key = instance_key(a1, a2)
        if tracer is not None:
            tracer.instance = key
        verdicts[key] = run_instance(
            report, a1, a2, workload.checks_for(index), workload.laurent_cap, seed
        )
    return verdicts


def count_failures(
    workload: Workload, verdicts: dict[str, dict[str, str]], reference: Optional[dict]
) -> tuple[int, int]:
    """(attempted, failed): a check fails when it raised, is missing, or its
    digest differs from the reference (a check that did not pass differs,
    since every reference check passed or was skipped by design)."""
    attempted = failed = 0
    for index, (a1, a2) in enumerate(workload.instances):
        key = instance_key(a1, a2)
        got = verdicts.get(key, {})
        want = (reference or {}).get(key, {})
        for check in workload.checks_for(index):
            attempted += 1
            if check not in want or got.get(check) != want[check]:
                failed += 1
    return attempted, failed
