"""Tests of the benchmark itself: tracer counts, report checks, metric names.

Run from the repository root:  python -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import run  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, check_report  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
# a tiny fixed run: the finab associativity driver, a finab suite through the
# CLI, then the pinj sweep on end sets of size 0 and 1
TINY = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import spancat.cli, spancat.relations
from spancat.finab import FinAbInstance
from spancat.pinj import PInjInstance
from workloads import finab_associativity, pinj_sweep
if {trace}:
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
assert finab_associativity(FinAbInstance(), 0, {out!r} + ".assoc", 3, 4) == 0
common = ["--instance", "finab", "--max-order", "4", "--seed", "0"]
spancat.cli.main(["check-axioms", "--samples", "2", *common, "--out", {out!r} + ".axioms"])
sweep = pinj_sweep(PInjInstance(), spancat.relations, (0, 1))
print(json.dumps({{"sweep": sweep, "trace": tracer.snapshot() if {trace} else None}}))
"""


def tiny_run(tmp_path, name: str, trace: bool) -> tuple[dict, bytes]:
    out = str(tmp_path / name)
    code = TINY.format(src=SRC, bench=BENCH, trace=trace, out=out)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120)
    res = json.loads(proc.stdout.splitlines()[-1])
    with open(out + ".assoc", "rb") as a, open(out + ".axioms", "rb") as b:
        return res, a.read() + b.read()


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny")
    return [tiny_run(tmp, name, trace) for name, trace in
            (("plain", False), ("traced1", True), ("traced2", True))]


def test_traced_reports_are_byte_identical_to_untraced(tiny):
    (plain, plain_reports), (traced, traced_reports), _ = tiny
    assert plain_reports and traced_reports == plain_reports
    assert traced["sweep"] == plain["sweep"] == [338, 338]


def test_traced_counts_repeat_exactly(tiny):
    first, second = tiny[1][0]["trace"], tiny[2][0]["trace"]
    assert {k: v[0] for k, v in first["stats"].items()} == \
        {k: v[0] for k, v in second["stats"].items()}
    for key in ("homs", "pool_kept", "pool_enumerated"):
        assert first[key] == second[key]


# counts of the tiny run at seed 0
PINNED = {
    "finab.snf.calls": 457,
    "finab.hnf.calls": 116,
    "finab.hom_compose.calls": 1288,
    "finab.close_elements.calls": 122,
    "pinj.assign_ops.calls": 20400,
    "pinj.validate_assign.calls": 20520,
    "core.compose.calls": 13146,
    "core.pullback_along_M.calls": 2602,
    "core.pushout_along_E.calls": 877,
    "core.classify.calls": 21389,
    "core.factorize.calls": 1728,
    "core.enumerate_homs.calls": 492,
    "core.enumerate_homs.homs": 1256,
    "core.validate.calls": 24463,
    "gen.pool.calls": 650,
    "gen.em_span_legs.calls": 0,
    "axioms.decisions": 18,
    "spans.span_compose.calls": 1724,
    "spans.validate_em_span.calls": 3554,
    "spans.span_iso_eq.calls": 0,
    "spans.cell_between.calls": 0,
    "fakepb.fake_pullback.calls": 862,
    "relations.rel_compose.calls": 862,
    "relations.rel_iso_eq.calls": 341,
}


def test_tracer_counts_pinned_for_tiny_run(tiny):
    metrics = layer_metrics(tiny[1][0]["trace"])
    counts = {k: v for k, v in metrics.items()
              if not k.endswith("self_s") and not isinstance(v, float)}
    assert counts == PINNED


def test_self_time_splits_inclusive_time():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    traced_leaf = tracer.wrap("leaf", leaf)

    def outer():
        time.sleep(0.01)
        traced_leaf()
        traced_leaf()

    t0 = time.perf_counter()
    tracer.wrap("outer", outer)()
    total = time.perf_counter() - t0
    calls = {k: v[0] for k, v in tracer.stats.items()}
    assert calls == {"leaf": 2, "outer": 1}
    leaf_s, outer_s = tracer.stats["leaf"][1], tracer.stats["outer"][1]
    assert leaf_s >= 0.04 and 0.01 <= outer_s < leaf_s
    assert leaf_s + outer_s == pytest.approx(total, abs=0.005)


def good_report(samples: int, passes: int) -> str:
    return json.dumps({"totals": {"samples": samples, "passes": passes, "failed_checks": []}})


def test_check_report_accepts_a_full_passing_report():
    w = WORKLOADS["finab-relassoc-o16"]
    assert check_report(w, good_report(w.checks, w.checks)) == (w.checks, 0, [])


def test_check_report_rejects_doctored_passes():
    w = WORKLOADS["finab-axioms-o8"]
    _, failed, problems = check_report(w, good_report(w.checks, w.checks - 7))
    assert failed == 7 and problems


def test_check_report_rejects_a_short_sample_count():
    w = WORKLOADS["pinj-rel-sweep"]
    _, failed, problems = check_report(w, good_report(w.checks - 10, w.checks - 10))
    assert failed == 10 and problems


def test_check_report_fails_every_check_of_an_unparseable_report():
    w = WORKLOADS["finab-relassoc-o16"]
    assert check_report(w, "{not json")[:2] == (0, w.checks)
    assert check_report(w, "")[:2] == (0, w.checks)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    for name in names + e2e + layers:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(names + e2e + layers)) == len(names + e2e + layers)
    assert names == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    sample = layer_metrics({"stats": {}, "homs": 0, "pool_kept": 0,
                            "pool_enumerated": 0, "fp_s": 0.0, "fp_validate_s": 0.0})
    assert layers == [*sample, "trace.overhead_ratio"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {n: run.layer_unit(n) for n in layers}
    assert spec["paths"] == ["perfbench"]
