#!/usr/bin/env python3
"""Run the axiom suite and every property suite on all bundled instances,
writing one JSON report per (instance, suite) pair.

Usage:
    python scripts/run_all_suites.py --out-dir reports [--seed 0]

The goursat suite runs only on finab; everything else runs everywhere.
Exits nonzero when any suite reports a failure.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import sys

from spancat.cli import EXIT_OK, SUITES, main as cli_main
from spancat.core import symmetric_group_table


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="reports")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=None)
    args = parser.parse_args(argv)

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table_path = out_dir / "s3_table.json"
    table_path.write_text(
        json.dumps({"name": "s3", "table": symmetric_group_table(3)})
    )

    instances = ("finab", "pinj", f"groupoid:{table_path}")
    labels = ("finab", "pinj", "s3")
    worst = EXIT_OK
    for instance, label in zip(instances, labels):
        jobs = [("check-axioms", ["check-axioms"])]
        for suite in SUITES:
            if suite == "goursat" and label != "finab":
                continue
            jobs.append((suite, ["suite", "--suite", suite]))
        for name, command in jobs:
            report = out_dir / f"{label}_{name}.json"
            full = [
                *command,
                "--instance", instance,
                "--seed", str(args.seed),
                "--out", str(report),
            ]
            if args.samples is not None:
                full += ["--samples", str(args.samples)]
            rc = cli_main(full)
            worst = max(worst, rc)
            status = "ok" if rc == EXIT_OK else f"EXIT {rc}"
            print(f"{label:6s} {name:16s} {status}  -> {report}")
    return worst


if __name__ == "__main__":
    sys.exit(run())
