"""Tests for the command line front end: config validation, instance
loading, the four subcommands, output formats, exit codes, and report
determinism."""
from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys
from typing import Optional

import pytest

import spancat
from spancat import axioms, cli, config, finab
from spancat.cli import EXIT_ERROR, EXIT_OK, SuiteReport, main
from spancat.axioms import CheckReport
from spancat.config import ConfigError, RunConfig, env_seed, instance_bound, load_instance
from spancat.core import GroupoidInstance, Mor, ValidationFailure, symmetric_group_table
from spancat.finab import FinAbInstance, close_elements
from spancat.jsonio import dumps, parse_mor, parse_obj, relation_dict, span_dict
from spancat.pinj import PInjInstance
from spancat.relations import rel_identity, subgroup_to_zigzag
from spancat.spans import em_span, id_span, lift_m

FA = FinAbInstance()
PI = PInjInstance()


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(max_order=0)
    with pytest.raises(ConfigError):
        RunConfig(samples=0)
    with pytest.raises(ConfigError):
        RunConfig(seed=-1)
    with pytest.raises(ConfigError):
        RunConfig(format="yaml")
    with pytest.raises(ConfigError):
        RunConfig(instance="rings")


def test_env_seed_parsing():
    assert env_seed({}) is None
    assert env_seed({"SPANCAT_SEED": "17"}) == 17
    with pytest.raises(ConfigError):
        env_seed({"SPANCAT_SEED": "many"})
    with pytest.raises(ConfigError):
        env_seed({"SPANCAT_SEED": "-2"})


def test_instance_loading_and_bounds(tmp_path):
    cfg = RunConfig(instance="finab", max_order=6, max_size=3)
    inst = load_instance(cfg)
    assert isinstance(inst, FinAbInstance)
    assert instance_bound(cfg) == 6
    cfg = RunConfig(instance="pinj", max_order=6, max_size=3)
    inst = load_instance(cfg)
    assert isinstance(inst, PInjInstance)
    assert instance_bound(cfg) == 3
    table = tmp_path / "c2.json"
    table.write_text(json.dumps({"name": "c2", "table": [[0, 1], [1, 0]]}))
    cfg = RunConfig(instance=f"groupoid:{table}")
    inst = load_instance(cfg)
    assert inst.name == "groupoid:c2"
    assert instance_bound(cfg) == 1


def instance_messages(monkeypatch, capsys) -> tuple[str, str]:
    """The RunConfig error for an unknown instance and the suite help text,
    the latter on one line per option."""
    with pytest.raises(ConfigError) as err:
        RunConfig(instance="rings")
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        main(["suite", "--help"])
    return str(err.value), capsys.readouterr().out


def test_instance_messages_name_the_table(monkeypatch, capsys):
    error, usage = instance_messages(monkeypatch, capsys)
    assert error == "instance must be finab, pinj, or groupoid:<table file>"
    assert "finab, pinj, or groupoid:<table file> (default finab)" in usage
    monkeypatch.setitem(config.INSTANCES, "dummy", (PInjInstance, "max_size"))
    error, usage = instance_messages(monkeypatch, capsys)
    assert error == "instance must be finab, pinj, dummy, or groupoid:<table file>"
    assert "finab, pinj, dummy, or groupoid:<table file> (default finab)" in usage


def test_groupoid_loading_failures(tmp_path):
    with pytest.raises(ConfigError):
        load_instance(RunConfig(instance="groupoid:/nonexistent/table.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_instance(RunConfig(instance=f"groupoid:{bad}"))
    no_table = tmp_path / "no_table.json"
    no_table.write_text(json.dumps({"rows": []}))
    with pytest.raises(ConfigError):
        load_instance(RunConfig(instance=f"groupoid:{no_table}"))
    not_group = tmp_path / "not_group.json"
    not_group.write_text(json.dumps({"table": [[0, 0], [0, 0]]}))
    with pytest.raises(ConfigError):
        load_instance(RunConfig(instance=f"groupoid:{not_group}"))
    # JSON booleans and floats are no group elements: true used to run as 1
    # (exit 0) and 1.0 used to end in Python's own indexing message
    for label, table in (("bools", [[False, True], [True, False]]),
                         ("floats", [[0, 1.0], [1, 0]])):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps({"table": table}))
        proc = run_cli("check-axioms", "--instance", f"groupoid:{path}", "--samples", "5")
        assert proc.returncode == EXIT_ERROR, label
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "must be a JSON integer" in proc.stderr


# ---------------------------------------------------------------------------
# suite report assembly
# ---------------------------------------------------------------------------


def _report(name, passes, samples):
    failures = [] if passes == samples else [{"detail": "boom"}]
    return CheckReport(
        check_name=name, instance="finab", samples=samples, passes=passes,
        failures=failures, seed=0, bound=4,
    )


def test_suite_report_totals_and_sorting():
    sr = SuiteReport("demo", [_report("zeta", 3, 3), _report("alpha", 2, 2)], 0.5)
    assert [r.check_name for r in sr.reports] == ["alpha", "zeta"]
    assert sr.samples == 5 and sr.passes == 5 and sr.ok
    assert sr.as_dict()["totals"] == {
        "samples": 5, "passes": 5, "failed_checks": [],
    }
    assert "wall" not in dumps(sr.as_dict())
    assert "0.50s" in sr.as_text()


def test_suite_report_failure_totals():
    sr = SuiteReport("demo", [_report("alpha", 1, 2)], 0.1)
    assert not sr.ok
    assert sr.as_dict()["totals"]["failed_checks"] == ["alpha"]
    assert "FAIL" in sr.as_text()
    assert "counterexample" in sr.as_text()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


@pytest.fixture()
def cospan_file(tmp_path):
    z2, z8, z4 = FA.group(2), FA.group(8), FA.group(4)
    f = lift_m(FA, FA.hom(z2, z8, [[4]]))
    g = em_span(FA, FA.hom(z4, z2, [[1]]), FA.hom(z4, z8, [[2]]))
    path = tmp_path / "cospan.json"
    path.write_text(dumps({"f": span_dict(FA, f), "g": span_dict(FA, g)}))
    return path


def test_check_axioms_exit_zero(capsys):
    rc = main([
        "check-axioms", "--instance", "pinj", "--max-size", "3",
        "--samples", "40", "--format", "text",
    ])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS suite check-axioms" in out


def test_fake_pullback_identity_cospan(tmp_path, capsys):
    # the canonical pullback apex may pick any unit generator, so the legs
    # are identities up to iso, not on the nose
    from spancat.fakepb import span_pair_iso_eq
    from spancat.jsonio import parse_span

    z4 = FA.group(4)
    i = id_span(FA, z4)
    path = tmp_path / "idcospan.json"
    path.write_text(dumps({"f": span_dict(FA, i), "g": span_dict(FA, i)}))
    rc = main(["fake-pullback", str(path)])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["certification"] == []
    left = parse_span(FA, payload["left_leg"])
    right = parse_span(FA, payload["right_leg"])
    for leg in (left, right):
        assert FA.is_iso(leg.d) and FA.is_iso(leg.m)
        assert leg.apex.obj_key == (4,)
    assert span_pair_iso_eq(FA, (left, right), (i, i))


def test_fake_pullback_grid_output(cospan_file, capsys):
    rc = main(["fake-pullback", str(cospan_file)])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    grid = payload["grid"]
    assert set(grid["objects"]) == {"Q", "X", "Y", "Z", "U", "R", "S", "V", "W"}
    assert set(grid["morphisms"]) == set(grid["edge_classes"])
    assert payload["certification"] == []


def test_fake_pullback_dot(cospan_file, capsys):
    rc = main(["fake-pullback", str(cospan_file), "--format", "dot"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("digraph fake_pullback {")
    assert out.count("->") == 12
    assert "style=dashed" in out and "style=solid" in out


def test_fake_pullback_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"f": [1,2\n')
    rc = main(["fake-pullback", str(bad)])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert "bad.json:2:1" in err


SRC = pathlib.Path(spancat.__file__).resolve().parents[1]


def run_cli(*args: str, hashseed: Optional[str] = None,
            timeout: float = 60) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    if hashseed is not None:
        env["PYTHONHASHSEED"] = hashseed
    return subprocess.run(
        [sys.executable, "-m", "spancat.cli", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


# input files that cannot be decoded: bytes that are not UTF-8, an array
# nested past the decoder's recursion limit, and an integer literal past
# Python's 4,300-digit limit on converting strings to integers
UNDECODABLE = {
    "not_utf8": b"\xff\xfe{}",
    "too_deep": b"[" * 100_000 + b"]" * 100_000,
    "long_int": b"1" * 5_000,
}


@pytest.mark.parametrize("command", ["fake-pullback", "compose-relations", "check-axioms"])
@pytest.mark.parametrize("name", sorted(UNDECODABLE))
def test_undecodable_input_exits_two(tmp_path, name, command):
    # bad input (exit 2) in one line, not a failed law (exit 1) with a traceback
    path = tmp_path / f"{name}.json"
    path.write_bytes(UNDECODABLE[name])
    if command == "check-axioms":
        proc = run_cli(command, "--instance", f"groupoid:{path}")
    else:
        proc = run_cli(command, str(path))
    assert proc.returncode == EXIT_ERROR
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_check_axioms_report_pinned(tmp_path):
    # the sha256 of this report as the compose-loop decisions wrote it; a
    # faster decision must not move a verdict or a dump
    out = tmp_path / "axioms.json"
    proc = run_cli("check-axioms", "--instance", "finab", "--max-order", "6",
                   "--samples", "100", "--seed", "0", "--out", str(out))
    assert proc.returncode == EXIT_OK, proc.stderr
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "eccfc76cd40d066b4ed985ff6bad24971f10beb2bf7a887a01c686c5b75cb4cd"


# Runs the CLI on its arguments, then prints its own peak RSS in KB, or -1
# where /proc/self/status is missing.  On Linux, getrusage's ru_maxrss of a
# process started by fork and exec keeps the peak of the process that
# forked it (here, the test run), so the child reads the high-water mark
# of its own memory instead.
PEAK_RSS_CHILD = """
import sys
from spancat.cli import main
code = main(sys.argv[1:])
try:
    with open("/proc/self/status") as fh:
        print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
except OSError:
    print(-1)
sys.exit(code)
"""


def peak_rss_run(tmp_path_factory, *args: str) -> tuple[bytes, int]:
    """The report of the CLI run on args with --out, and the peak RSS in
    KB of the child that ran it."""
    out = tmp_path_factory.mktemp("peak") / "report.json"
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, *args, "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    return out.read_bytes(), int(proc.stdout.split()[-1])


@pytest.fixture(scope="module")
def order_8_run(tmp_path_factory):
    """check-axioms on finab at order 8, 1000 samples, seed 0 (the
    finab-axioms-o8 benchmark unit), run once in a child that prints its
    own peak RSS in KB as it ends."""
    return peak_rss_run(tmp_path_factory, "check-axioms", "--instance", "finab",
                        "--max-order", "8", "--samples", "1000", "--seed", "0")


@pytest.fixture(scope="module")
def order_16_run(tmp_path_factory):
    """check-axioms on finab at order 16, 200 samples, seed 3, run as
    order_8_run is."""
    return peak_rss_run(tmp_path_factory, "check-axioms", "--instance", "finab",
                        "--max-order", "16", "--samples", "200", "--seed", "3")


def test_check_axioms_order_8_report_pinned(order_8_run):
    # the sha256 of the finab-axioms-o8 benchmark unit's report as decisions
    # over the split catalog and the canonical cone wrote it; deciding at
    # one torsion group per prime must not move a verdict or a dump
    report, _ = order_8_run
    digest = hashlib.sha256(report).hexdigest()
    assert digest == "dfa9af1959d8aa9f7a87295a29231f0255f75b3cf0b1b00359d92886560ff182"


def test_check_axioms_order_8_peak_rss_is_bounded(order_8_run):
    # on Linux x86-64 with CPython 3.11: 21.4-21.5 MB with the bounded
    # decision and presentation tables, 22.6-22.7 MB with both unbounded
    _, peak_kb = order_8_run
    if peak_kb < 0:
        pytest.skip("no /proc/self/status to read the peak RSS from")
    assert peak_kb < 22 * 1024


def test_check_axioms_order_16_report_pinned(order_16_run):
    # the sha256 of this report as draws from whole hom sets wrote it;
    # drawing by index into the hom group must not move a draw
    report, _ = order_16_run
    digest = hashlib.sha256(report).hexdigest()
    assert digest == "3dad9c4112bae8004a9b7f10169f6d9833a4854311b29bd6af813050200bf7ee"


def test_check_axioms_order_16_peak_rss_is_bounded(order_16_run):
    # 72 MB when every draw of class any listed its whole hom set
    _, peak_kb = order_16_run
    if peak_kb < 0:
        pytest.skip("no /proc/self/status to read the peak RSS from")
    assert peak_kb < 50 * 1024


def test_finab_associativity_report_pinned(tmp_path):
    # the sha256 of this report as pools filtered by classify drew it; pools
    # made from structure must draw the same relations
    out = tmp_path / "associativity.json"
    proc = run_cli("suite", "--suite", "associativity", "--instance", "finab",
                   "--max-order", "16", "--samples", "50", "--seed", "0", "--out", str(out))
    assert proc.returncode == EXIT_OK, proc.stderr
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "a080d5bd94025d60266f3a23f16aba37cd188aa18e2e19c450586054d5135610"


def test_finab_associativity_at_order_32_runs_in_little_memory(tmp_path_factory):
    # Aut(Z2^5) alone has 9,999,360 members: listing the pools of this run
    # peaked at about 900 MB, where counting them keeps it near 25 MB
    _, peak_kb = peak_rss_run(tmp_path_factory, "suite", "--suite", "associativity",
                              "--instance", "finab", "--max-order", "32", "--samples", "50",
                              "--seed", "1")
    if peak_kb < 0:
        pytest.skip("no /proc/self/status to read the peak RSS from")
    assert peak_kb < 100 * 1024


def test_finab_associativity_work_is_pinned(tmp_path, monkeypatch):
    # a cost guard on the run whose report is pinned above: its pools build
    # only the homs drawn (311 matrix_at calls; listing the pools built
    # every member), zig-zag keys read one Smith form each where the
    # pullback read three, classify reads none into the trivial group, and
    # each distinct subgroup is presented once while it stays in finab's
    # presentation table (2,216 smith_normal_form calls before the first
    # two of those changes, 1,768 before the last), and the cones read one
    # kept form of their fixed leg and present their apex in one corner,
    # not in a sum of two (1,590 before); the subgroup keys close 230
    # element sets, the same count when each was a breadth-first walk
    calls = {"matrix_at": 0, "smith_normal_form": 0, "close_elements": 0}
    matrix_at, snf, close = finab.HomGroup.matrix_at, finab.smith_normal_form, finab.close_elements

    def counting_matrix_at(self, i):
        calls["matrix_at"] += 1
        return matrix_at(self, i)

    def counting_snf(mat, **kw):
        calls["smith_normal_form"] += 1
        return snf(mat, **kw)

    def counting_close(ambient, gens):
        calls["close_elements"] += 1
        return close(ambient, gens)

    monkeypatch.setattr(finab.HomGroup, "matrix_at", counting_matrix_at)
    monkeypatch.setattr(finab, "smith_normal_form", counting_snf)
    monkeypatch.setattr(finab, "close_elements", counting_close)
    out = tmp_path / "associativity.json"
    code = main(["suite", "--suite", "associativity", "--instance", "finab",
                 "--max-order", "16", "--samples", "50", "--seed", "0", "--out", str(out)])
    assert code == EXIT_OK
    assert calls == {"matrix_at": 311, "smith_normal_form": 1153, "close_elements": 230}


def test_finab_associativity_at_order_128_finishes(tmp_path):
    # a scale guard: with the cones presented in the sum of two corners,
    # this run stalled past 100 s in the Smith form of a subgroup of
    # (2, 60, 2, 60); it takes about a second with the cones built in one
    # corner.  The timeout makes a regression fail here, not hang the suite
    proc = run_cli("suite", "--suite", "associativity", "--instance", "finab",
                   "--max-order", "128", "--samples", "50", "--seed", "3",
                   "--out", str(tmp_path / "associativity.json"), timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr


def test_finab_axioms_work_is_pinned(tmp_path, monkeypatch):
    # a cost guard on the finab-axioms-o8 benchmark unit: each distinct
    # square is decided once while it stays in the decisions table, and
    # each distinct subgroup presented once while it stays in the
    # presentation table (10,582 mediator-bijection evaluations and 8,154
    # smith_normal_form calls without the two tables), and each post
    # system's form, and each cone's form of its fixed leg, is made once
    # while it stays in the forms table (6,002 calls without it).  The
    # evaluations were 5,206 when the cones presented their apex in the sum
    # of two corners: the legs are other matrices now, so the squares that
    # the decisions table keys on are too.  The decisions and the jointly
    # and properness scans walk each leg once per test object while it
    # stays in the walks table (26,433 compose_all calls without it; the
    # rest are fs1's walks and the sampler's commuting pairs)
    calls = {"_pullback_bijection_at": 0, "smith_normal_form": 0, "compose_all": 0}
    bijection, snf = axioms._pullback_bijection_at, finab.smith_normal_form
    compose_all = finab.FinAbInstance.compose_all

    def counting_bijection(*args):
        calls["_pullback_bijection_at"] += 1
        return bijection(*args)

    def counting_snf(mat, **kw):
        calls["smith_normal_form"] += 1
        return snf(mat, **kw)

    def counting_compose_all(self, *args, **kw):
        calls["compose_all"] += 1
        return compose_all(self, *args, **kw)

    monkeypatch.setattr(axioms, "_pullback_bijection_at", counting_bijection)
    monkeypatch.setattr(finab, "smith_normal_form", counting_snf)
    monkeypatch.setattr(finab.FinAbInstance, "compose_all", counting_compose_all)
    code = main(["check-axioms", "--instance", "finab", "--max-order", "8", "--samples", "1000",
                 "--seed", "0", "--out", str(tmp_path / "axioms.json")])
    assert code == EXIT_OK
    assert calls == {"_pullback_bijection_at": 5215, "smith_normal_form": 3243,
                     "compose_all": 8409}


def test_fake_pullback_law_reports_pinned(tmp_path):
    # the sha256 of each finab report at seed 0 as the three law suites
    # first wrote it from the command line
    pinned = {
        "identity": "dc23027db8adc54aed802c230b9a4539de4e76fa4809be30e1f0eef4583347d2",
        "fake-mono": "d7984760e8c1f68141300e50765fa18b1ebe60ded2d6c29ac907b594605d0117",
        "grid": "2d13e31ca531cfa14ca2f08b9e0744e7a2035805e392516cb866a779f5ae7c21",
    }
    for suite, expected in pinned.items():
        out = tmp_path / f"{suite}.json"
        proc = run_cli("suite", "--suite", suite, "--instance", "finab",
                       "--seed", "0", "--out", str(out))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


@pytest.fixture()
def order9_cospan_file(tmp_path):
    # on Z/9 a presentation that picks another unit shows in the matrices;
    # on the Z/2 quotients of cospan_file it does not
    z3, z9 = FA.group(3), FA.group(9)
    f = em_span(FA, FA.hom(z9, z3, [[1]]), FA.hom(z9, z9, [[1]]))
    g = em_span(FA, FA.hom(z9, z3, [[2]]), FA.hom(z9, z9, [[2]]))
    path = tmp_path / "cospan9.json"
    path.write_text(dumps({"f": span_dict(FA, f), "g": span_dict(FA, g)}))
    return path


@pytest.mark.parametrize("hashseed", ["0", "1", "777"])
def test_fake_pullback_output_pinned(cospan_file, order9_cospan_file, tmp_path, hashseed):
    # the sha256 of each grid as ab_pullback_along_M, ab_factorize and
    # ab_pushout_along_E built it; a change to the subgroup presentation
    # must not move a matrix.  The Z/9 grid moved when the cones were first
    # built in one corner, on other generators; the Z/2 grid did not
    pinned = {
        cospan_file: "678c1d7d018f9c155989ba48d815ee409b3939b714255f9715d4a82d9cee8c8f",
        order9_cospan_file: "22e57edb2fc1718d4201adfe8f6ce81f484d6b48f123122a633e954750c97175",
    }
    for cospan, expected in pinned.items():
        out = tmp_path / f"{cospan.stem}.grid.json"
        proc = run_cli("fake-pullback", "--instance", "finab", str(cospan),
                       "--out", str(out), hashseed=hashseed)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


@pytest.fixture()
def relation_chain_file(tmp_path):
    # Z4 -> Z2 -> Z2 + Z2 -> Z4; no subgroup of the chain or of its
    # composite is trivial or the whole ambient group
    z2, z4, v4 = FA.group(2), FA.group(4), FA.group(2, 2)

    def rel(x, z, gens):
        return subgroup_to_zigzag(FA, x, z, close_elements(x.obj_key + z.obj_key, gens))

    chain = [
        rel(z4, z2, [(1, 1)]),
        rel(z2, v4, [(1, 1, 0), (0, 0, 1)]),
        rel(v4, z4, [(1, 0, 1), (0, 1, 2)]),
    ]
    path = tmp_path / "chain.json"
    path.write_text(dumps([relation_dict(FA, r) for r in chain]))
    return path


@pytest.mark.parametrize("hashseed", ["0", "1", "777"])
def test_compose_relations_output_pinned(relation_chain_file, tmp_path, hashseed):
    # the sha256 of the composite and its Goursat generators as the
    # element-set keys gave them
    out = tmp_path / "composite.json"
    proc = run_cli("compose-relations", "--instance", "finab", str(relation_chain_file),
                   "--out", str(out), hashseed=hashseed)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(out.read_text())["goursat_subgroup"]["order"] == 8
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "b36bb257467472dc871fea824590a6c5e8a19dfdaee32d72d0cf18b488b592ce"


@pytest.mark.parametrize("hashseed", ["0", "1", "777"])
def test_associativity_reports_pinned(tmp_path, hashseed):
    # the sha256 of each report as per-call zig-zag keys and fresh object
    # handles gave it: pinj compares by matching keys, the S3 groupoid by
    # its element-index keys
    table = tmp_path / "s3.json"
    table.write_text(json.dumps({"name": "s3", "table": symmetric_group_table(3)}))
    pinned = {
        "pinj": "f4f5821ba3e4eba55e55807ed518d89601cd591b94c4597977b1a794fc09d05e",
        f"groupoid:{table}": "71c2c6b2cfb7c8efc4f295d0565279ad55cf5c583ba40549af904830f8c47bf1",
    }
    for instance, expected in pinned.items():
        out = tmp_path / "associativity.json"
        proc = run_cli("suite", "--suite", "associativity", "--instance", instance,
                       "--max-size", "3", "--samples", "50", "--seed", "0",
                       "--out", str(out), hashseed=hashseed)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


@pytest.mark.parametrize("max_size,expected", [
    ("1", "b2c9441a05b49a06ec0832bcadc469f0348ae254201821ff334d9cc2e44c43e7"),
    ("5", "0b2219f5c3565843e02984418eef2a9acbb0e233cfb6d7cd62a9d9e5d7021235"),
], ids=["size-1", "size-5"])
def test_pinj_check_axioms_reports_pinned(tmp_path, max_size, expected):
    # the sha256 of each report as decisions over the whole catalog, the
    # square's apex and the canonical cone wrote it; deciding at the sets 1
    # and 2 and scanning at 1 must not move a verdict or a dump
    out = tmp_path / "axioms.json"
    proc = run_cli("check-axioms", "--instance", "pinj", "--max-size", max_size,
                   "--samples", "100", "--seed", "0", "--out", str(out))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def test_pinj_identity_span_fake_pullback_at_size_12_is_quick(tmp_path):
    # certify_grid decides the grid's squares at the sets 1 and 2; a
    # decision at the apex would walk hom(12, 12), 5.3e10 partial injections
    twelve = id_span(PI, PI.fset(12))
    path = tmp_path / "cospan.json"
    path.write_text(dumps({"f": span_dict(PI, twelve), "g": span_dict(PI, twelve)}))
    proc = run_cli("fake-pullback", "--instance", "pinj", "--max-size", "12", str(path),
                   timeout=5)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["certification"] == []


def test_run_all_suites_reports_pinned(tmp_path):
    # one sha256 over the sorted (file name, bytes) pairs of the 32 files
    # that scripts/run_all_suites.py writes at seed 0, as pinj decisions over
    # the whole catalog wrote them: a change that moves no verdict, dump or
    # draw keeps every byte
    script = SRC.parent / "scripts" / "run_all_suites.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--seed", "0", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=300,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    files = sorted(tmp_path.iterdir())
    assert len(files) == 32
    digest = hashlib.sha256()
    for path in files:
        data = path.read_bytes()
        digest.update(f"{path.name}\n{len(data)}\n".encode())
        digest.update(data)
    assert digest.hexdigest() == "da3355a6d1d8aa5d737c760aba9e1d8d090f786d8ccf6f39764e6f668f56ec81"


def run_fake_pullback_file(tmp_path, instance: str, cospan: dict):
    path = tmp_path / "cospan.json"
    path.write_text(dumps(cospan))
    return run_cli("fake-pullback", "--instance", instance, str(path))


def test_fake_pullback_bad_number_exits_two(tmp_path):
    # a non-number where a group order belongs is bad input (exit 2), not a
    # failed law (exit 1), and is reported in one line without a traceback
    z2 = FA.group(2)
    cospan = {"f": span_dict(FA, id_span(FA, z2)), "g": span_dict(FA, id_span(FA, z2))}
    cospan["f"]["d"]["dom"] = ["a"]
    proc = run_fake_pullback_file(tmp_path, "finab", cospan)
    assert proc.returncode == EXIT_ERROR
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("instance,leg,field,value", [
    ("finab", "d", "dom", [2.9]),
    ("finab", "d", "matrix", [[True]]),
    ("pinj", "m", "map", [0, 1.0]),
    ("pinj", "m", "dom", True),
])
def test_fake_pullback_non_integer_exits_two(tmp_path, instance, leg, field, value):
    # a float or a bool where an integer belongs used to be truncated by
    # int() (2.9 read as 2, true as 1), and the cospan was certified
    inst = FA if instance == "finab" else PI
    ob = FA.group(2) if instance == "finab" else PI.fset(2)
    cospan = {"f": span_dict(inst, id_span(inst, ob)), "g": span_dict(inst, id_span(inst, ob))}
    cospan["f"][leg][field] = value
    proc = run_fake_pullback_file(tmp_path, instance, cospan)
    assert proc.returncode == EXIT_ERROR
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "must be a JSON integer" in proc.stderr


def _class_violation_input(case: str) -> tuple[str, str, object]:
    """(command, instance, file content) of a well-formed input whose
    morphisms parse but lie outside the class their place needs."""
    if case == "finab-d-not-in-E":
        z2 = FA.group(2)
        d = {"dom": [2], "cod": [4], "matrix": [[2]]}
        f = {"d": d, "m": FA.mor_json(FA.identity(z2))}
        return "fake-pullback", "finab", {"f": f, "g": span_dict(FA, id_span(FA, z2))}
    if case == "pinj-d-not-surjective":
        two = PI.fset(2)
        d = {"dom": 2, "cod": 2, "map": [0, None]}
        f = {"d": d, "m": PI.mor_json(PI.identity(two))}
        return "fake-pullback", "pinj", {"f": f, "g": span_dict(PI, id_span(PI, two))}
    z4 = FA.group(4)
    rel = relation_dict(FA, rel_identity(FA, z4))
    m = {"dom": [4], "cod": [2], "matrix": [[1]]}
    rel["left"] = {"d": FA.mor_json(FA.identity(z4)), "m": m}
    return "compose-relations", "finab", [rel]


@pytest.mark.parametrize(
    "case", ["finab-d-not-in-E", "pinj-d-not-surjective", "relation-m-not-in-M"])
def test_class_violations_exit_two(tmp_path, case):
    # the parsers are the boundary where span classes are checked: a leg in
    # the wrong class is bad input (exit 2) in one line, not a traceback
    command, instance, content = _class_violation_input(case)
    path = tmp_path / "input.json"
    path.write_text(dumps(content))
    proc = run_cli(command, "--instance", instance, str(path))
    assert proc.returncode == EXIT_ERROR
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "EM-span must be in" in proc.stderr


@pytest.mark.parametrize("data", [{"star": 1}, {"star": "*"}, {"star": True, "x": 0}, {}])
def test_groupoid_object_must_be_star_true(data):
    s3 = GroupoidInstance(symmetric_group_table(3), name="groupoid:s3")
    assert parse_obj(s3, {"star": True}) == s3.star
    with pytest.raises(ValidationFailure):
        parse_obj(s3, data)


@pytest.mark.parametrize("data", [
    {"dom": [2], "cod": [2], "matrix": [[1], [1]]},
    {"dom": [2], "cod": [2], "matrix": [1]},
    {"dom": 2, "cod": [2], "matrix": [[1]]},
    {"dom": [2], "cod": [2], "matrix": None},
])
def test_finab_morphism_shapes_are_bad_input(data):
    with pytest.raises(ValidationFailure):
        parse_mor(FA, data)


@pytest.mark.parametrize("seed", [7, 9])
def test_finab_associativity_suite_samples_every_span(seed, tmp_path):
    # these seeds used to give up drawing an EM-span with one end fixed
    rc = main([
        "suite", "--suite", "associativity", "--instance", "finab",
        "--max-order", "16", "--samples", "50", "--seed", str(seed),
        "--out", str(tmp_path / "assoc.json"),
    ])
    assert rc == EXIT_OK


def test_fake_pullback_needs_a_cospan(tmp_path, capsys):
    z2, z4 = FA.group(2), FA.group(4)
    path = tmp_path / "notacospan.json"
    path.write_text(dumps({
        "f": span_dict(FA, id_span(FA, z2)),
        "g": span_dict(FA, id_span(FA, z4)),
    }))
    assert main(["fake-pullback", str(path)]) == EXIT_ERROR
    assert "targets differ" in capsys.readouterr().err


def test_compose_identity_relations(tmp_path, capsys):
    z4 = FA.group(4)
    r = rel_identity(FA, z4)
    path = tmp_path / "rels.json"
    path.write_text(dumps([relation_dict(FA, r), relation_dict(FA, r)]))
    rc = main(["compose-relations", str(path)])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["composite"]["X"] == {"orders": [4]}
    assert payload["composite"]["Z"] == {"orders": [4]}
    sub = payload["goursat_subgroup"]
    assert sub["ambient"] == [4, 4]
    assert sub["order"] == 4
    assert sub["generators"] == [[1, 1]]


def test_finab_matrices_are_read_reduced(tmp_path, capsys):
    # [[5]], [[-3]] and [[1]] are one hom Z/4 -> Z/4; the parser reduces
    # each mod 4, so the three inputs compose to one output, byte for byte
    outputs = set()
    for entry in (5, -3, 1):
        rel = relation_dict(FA, rel_identity(FA, FA.group(4)))
        rel["left"]["m"]["matrix"] = [[entry]]
        path = tmp_path / f"rels{entry}.json"
        path.write_text(dumps([rel]))
        assert main(["compose-relations", "--format", "json", str(path)]) == EXIT_OK
        outputs.add(capsys.readouterr().out)
    (out,) = outputs
    assert json.loads(out)["composite"]["left"]["m"]["matrix"] == [[1]]


def test_finab_payloads_must_be_reduced():
    z4 = FA.group(4)
    FA.validate_mor(FA.hom(z4, z4, [[5]]))
    with pytest.raises(ValidationFailure, match="not reduced"):
        FA.validate_mor(Mor(z4, z4, ((5,),)))


def test_compose_relations_middle_mismatch(tmp_path, capsys):
    path = tmp_path / "rels.json"
    path.write_text(dumps([
        relation_dict(FA, rel_identity(FA, FA.group(2))),
        relation_dict(FA, rel_identity(FA, FA.group(4))),
    ]))
    assert main(["compose-relations", str(path)]) == EXIT_ERROR
    assert "r1.Z = r2.X" in capsys.readouterr().err


def test_compose_relations_dot(tmp_path, capsys):
    path = tmp_path / "rels.json"
    path.write_text(dumps([relation_dict(FA, rel_identity(FA, FA.group(2)))]))
    assert main(["compose-relations", str(path), "--format", "dot"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("digraph relation {")


def test_compose_relations_rejects_non_list(tmp_path, capsys):
    path = tmp_path / "rels.json"
    path.write_text(dumps(relation_dict(FA, rel_identity(FA, FA.group(2)))))
    assert main(["compose-relations", str(path)]) == EXIT_ERROR


@pytest.mark.parametrize(
    "suite,instance,extra",
    [
        ("associativity", "pinj", ["--samples", "15"]),
        ("stacking", "pinj", ["--samples", "15"]),
        ("symmetry", "pinj", ["--samples", "15"]),
        ("goursat", "finab", ["--samples", "5", "--max-order", "4"]),
        ("rrr", "pinj", ["--samples", "15"]),
        ("v-conditions", "pinj", ["--samples", "8"]),
        ("bipullback", "pinj", ["--samples", "10"]),
        ("identity", "pinj", ["--samples", "15"]),
        ("fake-mono", "pinj", ["--samples", "15"]),
        ("grid", "pinj", ["--samples", "15"]),
    ],
)
def test_suites_pass(suite, instance, extra, capsys):
    rc = main([
        "suite", "--suite", suite, "--instance", instance,
        "--max-size", "3", "--format", "text", *extra,
    ])
    assert rc == EXIT_OK, capsys.readouterr().out


def test_goursat_suite_needs_finab(capsys):
    rc = main(["suite", "--suite", "goursat", "--instance", "pinj"])
    assert rc == EXIT_ERROR
    assert "finab" in capsys.readouterr().err


def test_suite_rejects_dot_format(monkeypatch, capsys):
    # a suite report has no diagram to draw; the run is refused before any
    # check starts
    started = []
    monkeypatch.setattr(cli, "run_axiom_suite", lambda *args, **kw: started.append(args))
    monkeypatch.setitem(cli.SUITES, "rrr", (lambda *args: started.append(args), 200))
    rc = main(["suite", "--suite", "rrr", "--instance", "pinj", "--format", "dot",
               "--samples", "2"])
    assert rc == EXIT_ERROR
    assert main(["check-axioms", "--format", "dot"]) == EXIT_ERROR
    assert started == []
    assert capsys.readouterr().err.count("error: dot output needs a diagram command") == 2


def test_unwritable_out_exits_two(tmp_path):
    # the suite passes but its report cannot be written: bad configuration
    # (exit 2) in one line, not a failed law (exit 1) with a traceback
    out = tmp_path / "missing" / "report.json"
    proc = run_cli("check-axioms", "--instance", "pinj", "--max-size", "1",
                   "--samples", "1", "--out", str(out))
    assert proc.returncode == EXIT_ERROR
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: cannot write") and proc.stderr.count("\n") == 1


def test_bad_config_exits_two(capsys):
    assert main(["check-axioms", "--max-order", "0"]) == EXIT_ERROR
    assert main(["check-axioms", "--instance", "rings"]) == EXIT_ERROR


def test_out_of_memory_exits_two(monkeypatch, capsys):
    # exit 1 is kept for failed laws: a run out of memory is an exceeded
    # budget, one error line and exit 2, not a traceback
    def exhaust(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "run_axiom_suite", exhaust)
    assert main(["check-axioms", "--samples", "1"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def test_reports_are_byte_identical(tmp_path):
    args = [
        "suite", "--suite", "rrr", "--instance", "pinj", "--max-size", "3",
        "--samples", "10", "--seed", "5",
    ]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main([*args, "--out", str(out1)]) == EXIT_OK
    assert main([*args, "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_fallback_order(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SPANCAT_SEED", "9")
    rc = main(["suite", "--suite", "rrr", "--instance", "pinj", "--samples", "4"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["reports"][0]["seed"] == 9
    rc = main(["suite", "--suite", "rrr", "--instance", "pinj", "--samples", "4",
               "--seed", "3"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["reports"][0]["seed"] == 3
    monkeypatch.delenv("SPANCAT_SEED")
    rc = main(["suite", "--suite", "rrr", "--instance", "pinj", "--samples", "4"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["reports"][0]["seed"] == 0


def test_counterexample_dumps_parse_back(tmp_path, capsys):
    # a suite failure dump must itself be a valid relation input file; fake
    # one through the reporting path with a real relation dict
    from spancat.jsonio import parse_relation
    from spancat.relations import check_rrr

    rep = check_rrr(FA, rel_identity(FA, FA.group(2)), bound=4)
    assert rep.ok
    # failure dicts carry the relation under "r"; simulate and parse
    from spancat.axioms import one_sample_report

    failing = one_sample_report(FA, "demo", [{
        "r": relation_dict(FA, rel_identity(FA, FA.group(2))), "detail": "synthetic",
    }], 4)
    dumped = failing.failures[0]["r"]
    again = parse_relation(FA, json.loads(json.dumps(dumped)))
    assert again == rel_identity(FA, FA.group(2))
