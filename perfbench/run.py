"""Time-to-verdict benchmark for quivertilt.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
`src/` next to this directory.  One caller, one process at a time: every
iteration is a fresh interpreter (perfbench/worker.py) that imports the
package, builds the workload's instances and runs its checks through
`report.run_checks`, so import and set-up are paid each time, as a user of
the CLI pays them.  The seed reaches the program only as `property_seed`.

With `--trace 0` it reports the end-to-end metrics, medians over the
iterations that fit in S seconds: `wall_s` (first `run_checks` call to last
verdict), `setup_s` (interpreter start to instances built, median of several
set-up-only interpreters plus the timed ones) and `peak_rss_mb`.  The two
times are rescaled to the reference machine's speed with the yardstick
samples each interpreter takes beside them (perfbench/yardstick.py), so that
the host's drifting speed cancels; the raw times are printed in the table.
With `--trace 1` it alternates untraced and traced iterations and reports
the per-layer metrics of perfbench/tracer.py plus the tracing overhead; the
per-instance spans go to perfbench/out/.

Every verdict is compared with perfbench/reference.json; a check that
raised, did not pass or whose verdict or witness changed counts as failed.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS, layer_metrics  # noqa: E402
from yardstick import rescale  # noqa: E402
from workloads import WORKLOADS, count_failures  # noqa: E402

REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# per-layer metrics a traced run adds to perfbench/tracer.py's LAYER_METRICS
TRACE_RUN_UNITS = {
    "process.cpu_s": "s",
    "process.wall_raw_s": "s",
    "process.yardstick_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run one worker interpreter to completion and return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    started = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(started)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_reference(workload: str):
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text())["workloads"].get(workload)


def measure(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    """Set-up probes, then iterations (untraced, or untraced/traced pairs)
    while the next one is expected to finish within `seconds`."""
    spawn(workload, seed, "setup")  # fills the bytecode cache; not timed
    setups = [spawn(workload, seed, "setup") for _ in range(SETUP_PROBES)]
    plain, traces = [], []
    start = time.monotonic()
    durations: list[float] = []
    while not durations or time.monotonic() - start + statistics.median(durations) <= seconds:
        t0 = time.monotonic()
        plain.append(spawn(workload, seed, "run"))
        if traced:
            traces.append(spawn(workload, seed, "trace"))
        durations.append(time.monotonic() - t0)
    return {"setups": setups + plain, "plain": plain, "traces": traces}


def summarize(workload_name: str, seed: int, runs: dict, traced: bool) -> dict:
    workload = WORKLOADS[workload_name]
    reference = load_reference(workload_name)
    attempted = failed = 0
    for r in runs["plain"] + runs["traces"]:
        a, f = count_failures(workload, r["verdicts"], reference)
        attempted += a
        failed += f
    # the traced program must give the untraced verdicts, bit for bit
    same = all(t["verdicts"] == runs["plain"][0]["verdicts"] for t in runs["traces"])
    if not same:
        print("traced verdicts differ from untraced ones", file=sys.stderr)
    if reference is None:
        print(f"no reference verdicts for {workload_name}; run perfbench/record.py", file=sys.stderr)
    med = statistics.median
    wall = med(rescale(r["wall_s"], r["run_yardstick_s"]) for r in runs["plain"])
    if traced:
        per_layer = [layer_metrics(t["trace"]) for t in runs["traces"]]
        values = {name: med(m[name] for m in per_layer) for name in LAYER_METRICS}
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        values["process.cpu_s"] = med(r["cpu_s"] for r in runs["plain"])
        values["process.wall_raw_s"] = med(r["wall_s"] for r in runs["plain"])
        values["process.yardstick_s"] = med(statistics.fmean(r["run_yardstick_s"]) for r in runs["plain"])
        values["trace.wall_s"] = med(rescale(t["wall_s"], t["run_yardstick_s"]) for t in runs["traces"])
        values["trace.overhead_s"] = values["trace.wall_s"] - wall
        units.update(TRACE_RUN_UNITS)
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{workload_name}-seed{seed}.json").write_text(
            json.dumps({"workload": workload_name, "seed": seed, "instances": runs["traces"][-1]["trace"]}, indent=1)
        )
    else:
        values = {
            "wall_s": wall,
            "setup_s": med(rescale(r["setup_s"], r["setup_yardstick_s"]) for r in runs["setups"]),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in runs["plain"]),
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in values}
    return {
        "correct": failed == 0 and same and reference is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quivertilt" / "__init__.py").is_file():
        print(f"no quivertilt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    try:
        runs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    result = summarize(args.workload, args.seed, runs, bool(args.trace))

    n_plain, n_traced = len(runs["plain"]), len(runs["traces"])
    print(f"workload {args.workload}  seed {args.seed}  iterations {n_plain} untraced, {n_traced} traced")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    med = statistics.median
    raw = {
        "raw wall_s": med(r["wall_s"] for r in runs["plain"]),
        "raw setup_s": med(r["setup_s"] for r in runs["setups"]),
        "yardstick sample": med(statistics.fmean(r["run_yardstick_s"]) for r in runs["plain"]),
    }
    for name, value in raw.items():
        print(f"  {name:44s} {value:>14.6g} s")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'check_fail_ratio':44s} {ratio:>14.6g} ratio ({result['failed']}/{result['attempted']} checks)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
