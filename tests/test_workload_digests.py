"""The benchmark's correctness gate, run in-process: every check of every
perfbench workload keeps the digest that perfbench/reference.json pins,
with no worker interpreter, yardstick or timing in the way."""

import json
from pathlib import Path

import pytest

from quivertilt import report

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


@pytest.mark.parametrize("name", ["sweep-default", "tilting-large", "laurent-large"])
def test_workload_verdicts_match_reference_digests(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import WORKLOADS, count_failures, run_workload

    workload = WORKLOADS[name]
    reference = json.loads((PERFBENCH / "reference.json").read_text())["workloads"][name]
    verdicts = run_workload(report, workload, SEED)
    attempted = sum(len(workload.checks_for(i)) for i in range(len(workload.instances)))
    assert count_failures(workload, verdicts, reference) == (attempted, 0)
