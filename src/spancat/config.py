"""Run configuration and instance loading for the command line front end."""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from .core import Instance, SpanCatError, groupoid_instance
from .finab import FinAbInstance
from .pinj import PInjInstance

FORMATS = ("json", "dot", "text")
# CLI name -> (instance class, the RunConfig field that bounds its catalog);
# groupoid:<table file> instances come from a file and have bound 1
INSTANCES = {"finab": (FinAbInstance, "max_order"), "pinj": (PInjInstance, "max_size")}


class ConfigError(Exception):
    """Bad run configuration or instance specification."""


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Everything one command run depends on.

    instance is finab, pinj, or groupoid:<table file>.  The two bounds cap
    the sampling catalogs: group order for finab, set size for pinj.  A
    samples value of None means the command picks its own default.
    """

    instance: str = "finab"
    max_order: int = 8
    max_size: int = 4
    samples: Optional[int] = None
    seed: int = 0
    out: Optional[str] = None
    format: str = "json"

    def __post_init__(self) -> None:
        if self.max_order < 1 or self.max_size < 1:
            raise ConfigError("catalog bounds must be positive")
        if self.samples is not None and self.samples < 1:
            raise ConfigError("samples must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.format not in FORMATS:
            raise ConfigError(
                f"unknown format {self.format!r}; known: {', '.join(FORMATS)}"
            )
        if self.instance not in INSTANCES and not self.instance.startswith("groupoid:"):
            raise ConfigError(
                "instance must be finab, pinj, or groupoid:<table file>"
            )


def env_seed(environ: Mapping[str, str] = os.environ) -> Optional[int]:
    """Fallback seed from SPANCAT_SEED, when set and well formed."""
    raw = environ.get("SPANCAT_SEED")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"SPANCAT_SEED must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ConfigError("SPANCAT_SEED must be non-negative")
    return value


def read_json_file(path: str) -> Any:
    """The JSON value in the file at path; ConfigError when it cannot be read
    or is not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc


def load_instance(cfg: RunConfig) -> Instance:
    if cfg.instance in INSTANCES:
        return INSTANCES[cfg.instance][0]()
    path = cfg.instance[len("groupoid:"):]
    data = read_json_file(path)
    if not isinstance(data, dict) or "table" not in data:
        raise ConfigError(f"groupoid table {path!r} needs a 'table' field")
    label = data.get("name", os.path.splitext(os.path.basename(path))[0])
    try:
        return groupoid_instance(data["table"], name=f"groupoid:{label}")
    except (SpanCatError, TypeError, ValueError) as exc:
        raise ConfigError(f"groupoid table {path!r} is not a group table: {exc}") from exc


def instance_bound(cfg: RunConfig, inst: Instance) -> int:
    """The catalog bound the sampler should run with for this instance."""
    for cls, bound in INSTANCES.values():
        if isinstance(inst, cls):
            return getattr(cfg, bound)
    return 1
