"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import yardstick  # noqa: E402
from quivertilt import cluster, quiver, report  # noqa: E402
from workloads import WORKLOADS, Workload, count_failures, run_workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = Workload(
    "tiny",
    "(2,2) with the sweep's checks",
    ((2, 2),),
    WORKLOADS["sweep-default"].checks_for(1),
    12,
)


def tiny_reference() -> dict:
    return {"2,2": run.load_reference("sweep-default")["2,2"]}


def test_metric_names_are_well_formed():
    names = list(run.END_TO_END_UNITS) + list(tracer.LAYER_METRICS) + list(run.TRACE_RUN_UNITS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_json_lists_what_the_run_reports():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    reported = {name: unit for name, (unit, _) in tracer.LAYER_METRICS.items()}
    reported.update(run.TRACE_RUN_UNITS)
    assert layer == reported
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _bindings() -> dict:
    out = {}
    for mod in tracer.package_modules():
        for attr, obj in vars(mod).items():
            out[(mod.__name__, attr)] = obj
    for (short, cls_name, meth) in tracer.METHODS:
        cls = getattr(sys.modules[f"quivertilt.{short}"], cls_name)
        out[(cls, meth)] = cls.__dict__.get(meth)
    return out


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    original = quiver.mutate_matrix
    tr = tracer.Tracer()
    with tr:
        # the second binding made by `from .quiver import mutate_matrix`
        assert cluster.mutate_matrix is quiver.mutate_matrix is not original
        verdicts = run_workload(report, TINY, 0, tr)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert count_failures(TINY, verdicts, tiny_reference()) == (len(TINY.checks), 0)

    spans, counters = tracer.combine(tr.snapshot())
    assert set(tr.snapshot()) == {"2,2"}
    assert spans["quiver.mutate_matrix"]["calls"] > 0
    for name, sp in spans.items():
        assert -1e-9 <= sp["self_s"] <= sp["s"] + 1e-9, name
    metrics = tracer.layer_metrics(tr.snapshot())
    assert metrics["fpoly.mul.calls"] > 0
    assert 0 < metrics["reps.submodules_thin.useful_ratio"] <= 1


def test_tiny_instance_matches_its_digest_traced_and_untraced():
    plain = run_workload(report, TINY, 5, None)
    assert count_failures(TINY, plain, tiny_reference()) == (len(TINY.checks), 0)
    with tracer.Tracer() as tr:
        traced = run_workload(report, TINY, 5, tr)
    assert traced == plain


def test_properties_digest_is_seed_independent():
    sweep = WORKLOADS["sweep-default"]
    first = Workload("first", "", sweep.instances[:1], sweep.checks_for(0), 12)
    ref = {"1,2": run.load_reference("sweep-default")["1,2"]}
    for seed in (1, 99):
        assert count_failures(first, run_workload(report, first, seed), ref) == (len(first.checks), 0)


def test_ticker_samples_during_a_section_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with yardstick.Ticker(0.01) as ticker:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(ticker.samples) >= 5
    assert 0 < sum(ticker.samples) <= ticker.spent
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_rescale_is_relative_to_the_reference_speed():
    ref = yardstick.REFERENCE_S
    assert yardstick.rescale(5.0, [ref, ref]) == 5.0
    # the machine ran at half speed: the same timing means twice as fast a program
    assert yardstick.rescale(5.0, [ref, 3 * ref]) == 2.5


class _RaisingReport:
    """Stands in for `quivertilt.report`; fails on (2,2) only."""

    @staticmethod
    def run_checks(a1, a2, **kwargs):
        if (a1, a2) == (2, 2):
            raise AssertionError("boom")
        return report.run_checks(a1, a2, **kwargs)


def test_a_raising_instance_is_contained():
    two = Workload("two", "", ((2, 2), (1, 2)), TINY.checks, 12)
    verdicts = run_workload(_RaisingReport, two, 0)
    assert all(v.startswith("error: AssertionError") for v in verdicts["2,2"].values())
    ref = {key: run.load_reference("sweep-default")[key] for key in ("2,2", "1,2")}
    attempted, failed = count_failures(two, verdicts, ref)
    assert (attempted, failed) == (2 * len(TINY.checks), len(TINY.checks))


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "tilting-large", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
