"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is a closed loop with one caller: units run one at a time, each in a
fresh Python process (cold caches and memory, as a user's command starts),
and the next starts only when the previous one has returned.  Units start
until S seconds have passed.  Set-up is also probed in separate processes
that only set up, and `setup_s` is the median over probes and units.  Time
metrics are divided by the machine's pace measured in the same process over
the same interval (see unit.py), so that the drifting speed of a shared
host cancels; the raw seconds are kept beside them as raw_*.

Every unit's verdict is checked: exit code 0, a report that parses with
passes == samples, and samples equal to the workload's fixed count.  With
--trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 untraced and traced units alternate, the traced reports must be
byte-identical to the untraced ones and the traced counts must repeat, and
the last line carries the per-layer metrics.  A results file with every
unit goes to perfbench/results/.  Exit code 0 when every verdict is
correct, 1 when one is not, 2 when the program cannot be set up.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import layer_metrics
from workloads import WORKLOADS, check_report

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 5
DEADLINE_S = 170  # a run ends within this, whatever --seconds says

END_TO_END = {  # name -> unit
    "verdict_s": "s",
    "checks_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {"calls": "count", "homs": "count", "decisions": "count", "self_s": "s"}


def layer_unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "ratio")


def spread(values: list[float]) -> dict:
    """Median, quartiles (statistics.quantiles, n=4) and count."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class UnitRunner:
    """Launches units and probes of one workload and checks each result."""

    def __init__(self, workload: str, seed: int, workdir: str, deadline: float):
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def launch(self, trace: int, setup_only: bool = False) -> dict:
        self.count += 1
        report = os.path.join(self.workdir, f"report{self.count}.json")
        result = os.path.join(self.workdir, f"result{self.count}.json")
        cmd = [
            sys.executable, os.path.join(HERE, "unit.py"),
            "--workload", self.w.name, "--seed", str(self.seed),
            "--trace", str(trace), "--report", report, "--result", result,
        ] + (["--setup-only"] if setup_only else [])
        env = dict(os.environ, PYTHONHASHSEED="0")
        rec: dict = {"mode": "traced" if trace else "untraced"}
        start = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, env=env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - start),
            )
            rec["exit"] = proc.returncode
            stderr = proc.stderr
        except subprocess.TimeoutExpired:
            rec["exit"], stderr = None, "timed out"
        try:
            with open(result, encoding="utf-8") as fh:
                child = json.load(fh)
            rec["setup_s"] = child["setup_done"] - start
            rec["setup_pace"] = child["setup_pace"]
        except (OSError, ValueError, KeyError):
            child = {}
        problems = [] if rec["exit"] == 0 else [f"exit {rec['exit']}: {stderr.strip()[-400:]}"]
        if "setup_s" not in rec:
            problems = problems or ["no result"]
        if setup_only:
            rec["problems"] = problems
            return rec
        for key in ("verdict_s", "cpu_s", "peak_rss_mb", "pace"):
            if key in child:
                rec[key] = child[key]
        try:
            with open(report, "rb") as fh:
                data = fh.read()
        except OSError:
            data = b""
        rec["report_sha256"] = hashlib.sha256(data).hexdigest()
        decided, failed, report_problems = check_report(
            self.w, data.decode("utf-8", "replace"))
        problems += report_problems
        rec["checks"] = self.w.checks
        rec["failed"] = self.w.checks if rec["exit"] != 0 else failed
        if "verdict_s" in rec:
            rec["checks_per_s"] = decided / rec["verdict_s"]
        if "trace" in child:
            rec["trace"] = child["trace"]
            rec["layers"] = layer_metrics(child["trace"])
        rec["problems"] = problems
        return rec


def paced(u: dict, name: str) -> float:
    """A unit's time metric divided by the machine's pace over the same
    interval (see unit.py): the seconds it would have taken at the pace
    where a burst takes its nominal time."""
    if name == "setup_s":
        return u[name] / u["setup_pace"]
    if name == "checks_per_s":
        return u[name] * u["pace"]
    return u[name] / u["pace"]


def run(workload: str, seed: int, seconds: int, trace: int, workdir: str) -> tuple[dict, int]:
    t_start = time.monotonic()
    runner = UnitRunner(workload, seed, workdir, t_start + DEADLINE_S)
    probes = [runner.launch(0, setup_only=True) for _ in range(SETUP_PROBES)]
    broken = [p["problems"] for p in probes if p["problems"]]
    if broken:
        print(f"error: set-up failed: {broken[0]}", file=sys.stderr)
        return {}, 2
    units: list[dict] = []
    modes = (0, 1) if trace else (0,)
    t_measure = time.monotonic()
    while True:
        units.append(runner.launch(modes[len(units) % len(modes)]))
        elapsed = time.monotonic() - t_measure
        if len(units) >= len(modes) and elapsed >= seconds:
            break
        if time.monotonic() > runner.deadline - 1:
            break

    problems = [p for u in units for p in u["problems"]]
    attempted = sum(u["checks"] for u in units)
    failed = sum(u["failed"] for u in units)
    timed = [u for u in units if "verdict_s" in u]
    untraced = [u for u in timed if u["mode"] == "untraced"]
    traced = [u for u in timed if u["mode"] == "traced"]
    if trace:
        if len({u["report_sha256"] for u in units}) != 1:
            problems.append("traced and untraced reports differ")
        counts = {json.dumps({k: v[0] for k, v in u["trace"]["stats"].items()}, sort_keys=True)
                  for u in traced}
        if len(counts) > 1:
            problems.append("traced call counts differ between traced units")
    set_up = [u for u in probes + units if "setup_s" in u]
    summary = {}
    if untraced:
        for name in ("verdict_s", "checks_per_s", "cpu_s"):
            summary[name] = spread([paced(u, name) for u in untraced])
            summary["raw_" + name] = spread([u[name] for u in untraced])
        summary["peak_rss_mb"] = spread([u["peak_rss_mb"] for u in untraced])
    summary["setup_s"] = spread([paced(u, "setup_s") for u in set_up])
    summary["raw_setup_s"] = spread([u["setup_s"] for u in set_up])
    metrics = {}
    if not trace:
        if untraced:
            metrics = {n: {"value": summary[n]["median"], "unit": END_TO_END[n]}
                       for n in END_TO_END}
    elif traced and untraced:
        # median_low keeps exact counts integral
        names = traced[0]["layers"]
        metrics = {n: {"value": statistics.median_low(u["layers"][n] for u in traced),
                       "unit": layer_unit(n)} for n in names}
        overhead = (statistics.median(paced(u, "verdict_s") for u in traced)
                    / summary["verdict_s"]["median"] - 1)
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    correct = not problems and len(timed) == len(units)
    out = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "machine": platform.machine(),
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_check_ratio": failed / attempted if attempted else 1.0,
        "problems": problems, "summary": summary, "metrics": metrics,
        "probes": probes, "units": units,
    }
    return out, 0 if correct and metrics else 1


def print_summary(res: dict) -> None:
    print(f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}"
          f"  units {len(res['units'])}  (closed loop, one caller, one process at a time)")
    for name, s in res["summary"].items():
        unit = END_TO_END.get(name.removeprefix("raw_"), "s")
        print(f"  {name:<22} {s['median']:.6g} {unit:<4}"
              f" (median; q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    print(f"  {'failed_check_ratio':<22} {res['failed_check_ratio']:.6g} ratio"
          f" ({res['failed']} of {res['attempted']} checks)")
    if res["trace"]:
        for name, m in res["metrics"].items():
            print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    for p in res["problems"]:
        print(f"  PROBLEM: {p}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # turn SIGTERM into SystemExit so that subprocess.run kills and reaps the unit
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "spancat", "__init__.py")):
        print(f"error: no spancat source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=results_dir) as workdir:
        res, code = run(args.workload, args.seed, args.seconds, args.trace, workdir)
    if code == 2:
        return code
    path = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)
    print_summary(res)
    print(f"results: {os.path.relpath(path, ROOT)}")
    if res["metrics"]:
        print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return code


if __name__ == "__main__":
    sys.exit(main())
