"""Command line front end: run axiom and property suites with seeds and
bounds, take fake pullbacks of cospans from files, and compose relations.

Exit codes: 0 all checks passed, 1 a property failed (the report carries
counterexample dumps that parse back as input files), 2 bad configuration,
unparseable input or a run out of memory.  JSON reports are byte-identical
for identical configuration including the seed; wall time appears in text
output only.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .axioms import CheckReport, run_axiom_suite
from .config import (
    FORMATS,
    ConfigError,
    RunConfig,
    env_seed,
    instance_bound,
    instance_choices,
    load_instance,
    read_json_file,
)
from .core import Instance, SpanCatError
from .dot import grid_dot, relation_dot
from .fakepb import (
    certify_grid,
    check_v1,
    fake_pullback,
    run_fake_mono_suite,
    run_grid_suite,
    run_identity_suite,
    run_stacking_suite,
    run_symmetry_suite,
    run_v_conditions_suite,
)
from .finab import FinAbInstance
from .jsonio import (
    dumps,
    parse_relation,
    parse_span,
    relation_dict,
    span_dict,
)
from .relations import (
    goursat_generators,
    goursat_to_subgroup,
    rel_compose,
    run_associativity_suite,
    run_goursat_suite,
    run_rrr_suite,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


@dataclass
class SuiteReport:
    """One suite run: per-check reports sorted by check name, plus totals.

    Wall time is carried for text output and kept out of the JSON dict so
    reports stay byte-identical across runs."""

    suite: str
    reports: list[CheckReport]
    wall_time: float

    def __post_init__(self) -> None:
        self.reports = sorted(self.reports, key=lambda r: r.check_name)

    @property
    def samples(self) -> int:
        return sum(r.samples for r in self.reports)

    @property
    def passes(self) -> int:
        return sum(r.passes for r in self.reports)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "reports": [r.as_dict() for r in self.reports],
            "totals": {
                "samples": self.samples,
                "passes": self.passes,
                "failed_checks": [r.check_name for r in self.reports if not r.ok],
            },
        }

    def as_text(self) -> str:
        lines = []
        for r in self.reports:
            status = "PASS" if r.ok else "FAIL"
            lines.append(
                f"{status} {r.check_name} on {r.instance}: {r.passes}/{r.samples}"
                f" (seed {r.seed}, bound {r.bound})"
            )
            for failure in r.failures[:3]:
                lines.append(f"  counterexample: {json.dumps(failure, sort_keys=True)}")
        lines.append(
            f"{'PASS' if self.ok else 'FAIL'} suite {self.suite}:"
            f" {self.passes}/{self.samples} in {self.wall_time:.2f}s"
        )
        return "\n".join(lines) + "\n"


def _write_output(cfg: RunConfig, text: str) -> None:
    if cfg.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {cfg.out!r}: {exc}") from exc


def _emit_suite(cfg: RunConfig, sr: SuiteReport) -> int:
    _write_output(cfg, dumps(sr.as_dict()) if cfg.format == "json" else sr.as_text())
    return EXIT_OK if sr.ok else EXIT_FAIL


def cmd_check_axioms(cfg: RunConfig) -> int:
    inst = load_instance(cfg)
    bound = instance_bound(cfg)
    samples = 500 if cfg.samples is None else cfg.samples
    start = time.perf_counter()
    reports = run_axiom_suite(inst, seed=cfg.seed, samples=samples, bound=bound)
    return _emit_suite(
        cfg, SuiteReport("check-axioms", reports, time.perf_counter() - start)
    )


def cmd_fake_pullback(cfg: RunConfig, path: str) -> int:
    inst = load_instance(cfg)
    data = read_json_file(path)
    if not isinstance(data, dict) or "f" not in data or "g" not in data:
        raise ConfigError(f"{path}: cospan file needs 'f' and 'g' span fields")
    f = parse_span(inst, data["f"])
    g = parse_span(inst, data["g"])
    result = fake_pullback(inst, f, g)
    problems = certify_grid(inst, result.grid, instance_bound(cfg))
    grid = result.grid
    if cfg.format == "dot":
        _write_output(cfg, grid_dot(inst, grid))
    elif cfg.format == "json":
        payload = {
            "left_leg": span_dict(inst, result.left_leg),
            "right_leg": span_dict(inst, result.right_leg),
            "grid": {
                "objects": {
                    name: inst.obj_json(getattr(grid, name))
                    for name in ("Q", "X", "Y", "Z", "U", "R", "S", "V", "W")
                },
                "morphisms": {
                    name: inst.mor_json(getattr(grid, name))
                    for name in sorted(grid.edge_classes())
                },
                "edge_classes": grid.edge_classes(),
            },
            "certification": problems,
        }
        _write_output(cfg, dumps(payload))
    else:
        lines = [
            f"fake pullback over {grid.W.descriptor or grid.W.obj_key}:",
            f"  apex Q = {grid.Q.descriptor or grid.Q.obj_key}",
            f"  left leg through {grid.X.descriptor or grid.X.obj_key},"
            f" right leg through {grid.Y.descriptor or grid.Y.obj_key}",
            f"  certification: {'clean' if not problems else problems}",
        ]
        _write_output(cfg, "\n".join(lines) + "\n")
    return EXIT_OK if not problems else EXIT_FAIL


def cmd_compose_relations(cfg: RunConfig, path: str) -> int:
    inst = load_instance(cfg)
    data = read_json_file(path)
    if not isinstance(data, list) or not data:
        raise ConfigError(f"{path}: relations file must be a non-empty JSON list")
    rels = [parse_relation(inst, item) for item in data]
    composite = rels[0]
    for nxt in rels[1:]:
        composite = rel_compose(inst, nxt, composite)
    if cfg.format == "dot":
        _write_output(cfg, relation_dot(inst, composite))
        return EXIT_OK
    if cfg.format == "json":
        payload = {"composite": relation_dict(inst, composite)}
        if isinstance(inst, FinAbInstance):
            ambient = composite.X.obj_key + composite.Z.obj_key
            subgroup = goursat_to_subgroup(inst, composite)
            payload["goursat_subgroup"] = {
                "ambient": list(ambient),
                "generators": goursat_generators(ambient, subgroup),
                "order": len(subgroup),
            }
        _write_output(cfg, dumps(payload))
        return EXIT_OK
    lines = [
        f"composite relation from {composite.X.descriptor or composite.X.obj_key}"
        f" to {composite.Z.descriptor or composite.Z.obj_key}"
        f" through {composite.Y.descriptor or composite.Y.obj_key}",
    ]
    if isinstance(inst, FinAbInstance):
        subgroup = goursat_to_subgroup(inst, composite)
        lines.append(f"  subgroup of order {len(subgroup)}: {sorted(subgroup)}")
    _write_output(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


# suite name -> (runner(inst, seed, samples, bound), default samples)
SUITES: dict[str, tuple[Callable[[Instance, int, int, int], CheckReport], int]] = {
    "associativity": (run_associativity_suite, 500),
    "stacking": (run_stacking_suite, 200),
    "symmetry": (run_symmetry_suite, 200),
    "identity": (run_identity_suite, 200),
    "fake-mono": (run_fake_mono_suite, 200),
    "grid": (run_grid_suite, 200),
    "goursat": (run_goursat_suite, 60),
    "rrr": (run_rrr_suite, 200),
    "v-conditions": (run_v_conditions_suite, 60),
    "bipullback": (check_v1, 200),
}


def cmd_suite(cfg: RunConfig, suite: str) -> int:
    runner, default_samples = SUITES[suite]
    inst = load_instance(cfg)
    bound = instance_bound(cfg)
    samples = default_samples if cfg.samples is None else cfg.samples
    start = time.perf_counter()
    report = runner(inst, cfg.seed, samples, bound)
    return _emit_suite(cfg, SuiteReport(suite, [report], time.perf_counter() - start))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--instance", default="finab",
        help=f"{instance_choices()} (default finab)",
    )
    common.add_argument(
        "--max-order", type=int, default=8,
        help="largest group order in the finab catalog (default 8)",
    )
    common.add_argument(
        "--max-size", type=int, default=4,
        help="largest set size in the pinj catalog (default 4)",
    )
    common.add_argument(
        "--samples", type=int, default=None,
        help="sample count; each command has its own default",
    )
    common.add_argument(
        "--seed", type=int, default=None,
        help="RNG seed (default: SPANCAT_SEED, then 0)",
    )
    common.add_argument("--out", default=None, help="write output to this file")
    common.add_argument(
        "--format", choices=FORMATS, default="json",
        help="output format (default json)",
    )
    parser = argparse.ArgumentParser(
        prog="spancat",
        description="Span composition by fake pullback: axiom checks,"
        " grid construction, and the zig-zag relation calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "check-axioms", parents=[common],
        help="run the factorization and suitability axiom suite",
    )
    fp = sub.add_parser(
        "fake-pullback", parents=[common],
        help="take the fake pullback of a cospan file",
    )
    fp.add_argument("cospan", help="JSON file with EM-spans 'f' and 'g' onto one target")
    cr = sub.add_parser(
        "compose-relations", parents=[common],
        help="compose a chain of relations from a file",
    )
    cr.add_argument(
        "relations",
        help="JSON list of relations in diagrammatic order (first applied first)",
    )
    su = sub.add_parser("suite", parents=[common], help="run one property suite")
    su.add_argument("--suite", required=True, choices=sorted(SUITES))
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        seed = args.seed
        if seed is None:
            seed = env_seed()
        if seed is None:
            seed = 0
        cfg = RunConfig(
            instance=args.instance,
            max_order=args.max_order,
            max_size=args.max_size,
            samples=args.samples,
            seed=seed,
            out=args.out,
            format=args.format,
        )
        if cfg.format == "dot" and args.command in ("check-axioms", "suite"):
            raise ConfigError(
                "dot output needs a diagram command: fake-pullback or compose-relations"
            )
        if args.command == "check-axioms":
            return cmd_check_axioms(cfg)
        if args.command == "fake-pullback":
            return cmd_fake_pullback(cfg, args.cospan)
        if args.command == "compose-relations":
            return cmd_compose_relations(cfg, args.relations)
        return cmd_suite(cfg, args.suite)
    except (ConfigError, SpanCatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
