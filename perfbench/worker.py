"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --spawned-at T --mode MODE

MODE is `setup` (import and instance builds only), `run` (untraced) or
`trace`.  T is `time.monotonic()` in the parent just before it started this
process, so `setup_s` covers interpreter start, `import quivertilt` and
`family_instance` for every instance of the workload.  Yardstick samples
(perfbench/yardstick.py) are taken right after set-up and, in the other
modes, every 0.2 s during the timed section; the time those take is
subtracted from it.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# yardstick samples right after set-up, and the period of those taken
# during the timed section
SETUP_SAMPLES = 40
TICK_PERIOD_S = 0.2


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import quivertilt
    from quivertilt import family, report

    if Path(quivertilt.__file__).resolve().parent != SRC / "quivertilt":
        print(f"imported quivertilt from {quivertilt.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from tracer import Tracer
    from workloads import WORKLOADS, run_workload

    workload = WORKLOADS[args.workload]
    for a1, a2 in workload.instances:
        family.family_instance(a1, a2)
    out = {"setup_s": time.monotonic() - args.spawned_at}
    import yardstick  # after the set-up timing, which it is no part of

    yardstick.sample()  # warm-up, not kept
    out["setup_yardstick_s"] = yardstick.samples(SETUP_SAMPLES)
    if args.mode != "setup":
        tracer = Tracer() if args.mode == "trace" else None
        cpu0 = time.process_time()
        start = time.perf_counter()
        with yardstick.Ticker(TICK_PERIOD_S) as ticker:
            if tracer is None:
                verdicts = run_workload(report, workload, args.seed)
            else:
                with tracer:
                    verdicts = run_workload(report, workload, args.seed, tracer)
        out["wall_s"] = time.perf_counter() - start - ticker.spent
        out["cpu_s"] = time.process_time() - cpu0 - ticker.spent
        out["run_yardstick_s"] = ticker.samples
        out["verdicts"] = verdicts
        if tracer is not None:
            out["trace"] = tracer.snapshot()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
