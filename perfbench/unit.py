"""One benchmark unit in a fresh process: set up, run, report.

    python perfbench/unit.py --workload NAME --seed N --trace 0|1 \
        --report REPORT.json --result RESULT.json [--setup-only]

Set-up imports spancat from the checkout's `src/` and builds the workload's
instance.  The result file gets the monotonic clock reading at the end of
set-up (the parent started the clock before launching this process), the
wall seconds from the start of the work until the report is written, this
process's CPU seconds and peak RSS, the machine's pace during set-up and
during the work, and, with --trace 1, the tracer's counts.  The exit code
is the unit's: 0 when every check passed.

The pace is the mean CPU time of a fixed burst of interpreter work divided
by its nominal BURST_S.  The machine is a shared host whose speed drifts by
tens of percent between minutes; dividing a time by the pace measured over
the same interval cancels that drift but not a change in spancat.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BURST_S = 0.001  # nominal CPU seconds of one burst
PACE_INTERVAL_S = 0.1  # a unit samples one burst per interval
SETUP_BURSTS = 20  # bursts timed right after set-up, for the set-up pace


def burst() -> float:
    """CPU seconds this thread spends on a fixed piece of interpreter work
    (small-integer matrix products, tuples, dict updates) that spancat's
    code cannot change."""
    t0 = time.thread_time()
    a = [[(i * j + 1) % 7 for j in range(4)] for i in range(4)]
    seen: dict = {}
    for k in range(40):
        b = [[(x + k) % 5 for x in row] for row in a]
        c = tuple(tuple(sum(a[i][t] * b[t][j] for t in range(4)) % 11 for j in range(4))
                  for i in range(4))
        seen[c] = seen.get(c, 0) + 1
    return time.thread_time() - t0


class Pacer:
    """Times one burst per PACE_INTERVAL_S on a background thread while the
    unit runs; the burst holds the interpreter lock for about a millisecond,
    about 1% of the unit's time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PACE_INTERVAL_S):
            self.samples.append(burst())

    def __enter__(self) -> "Pacer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    # one CPU for the unit and its pacing thread, so that the pace is the
    # pace of the CPU the unit runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import spancat.cli
    from spancat.config import RunConfig, load_instance

    if not os.path.abspath(spancat.__file__).startswith(src + os.sep):
        raise SystemExit(f"spancat imported from {spancat.__file__}, not from {src}")
    from workloads import WORKLOADS, run_unit

    w = WORKLOADS[args.workload]
    inst = load_instance(RunConfig(instance=w.instance))
    setup_done = time.monotonic()
    bursts = [burst() for _ in range(SETUP_BURSTS)]
    result: dict = {"setup_done": setup_done, "setup_pace": sum(bursts) / len(bursts) / BURST_S}
    code = 0
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.monotonic()
        with Pacer() as pacer:
            code = run_unit(w, inst, args.seed, args.report)
            result["verdict_s"] = time.monotonic() - start
        bursts += pacer.samples
        ru = resource.getrusage(resource.RUSAGE_SELF)
        result["cpu_s"] = ru.ru_utime + ru.ru_stime - sum(bursts)
        result["peak_rss_mb"] = ru.ru_maxrss / 1024
        samples = pacer.samples or bursts
        result["pace"] = sum(samples) / len(samples) / BURST_S
        if tracer is not None:
            result["trace"] = tracer.snapshot()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
