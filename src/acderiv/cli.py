"""Command-line front door: configure a suite run, execute it, write a JSON report.

Exit codes: 0 when every selected check passes (skips are fine), 1 when any
identity fails, 2 on usage or configuration errors, 3 when any check errored
(its builder raised an unexpected exception; the other checks still report).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence

from .verifier import (
    REGISTRY_IDS,
    IdentityReport,
    parse_chart_name,
    registry_descriptions,
    run_suite,
)

USAGE_ERROR = 2
CHECK_ERROR = 3


@dataclass
class RunConfig:
    chart: str = "twisted:2"
    rank: int = 2
    degree: int = 2
    seed: int | str = 7
    ids: Optional[List[str]] = None
    out: Optional[str] = None
    parallel: bool = False

    def to_json_dict(self) -> dict:
        return {
            "chart": self.chart,
            "rank": self.rank,
            "degree": self.degree,
            "seed": self.seed,
            "ids": list(self.ids) if self.ids else sorted(REGISTRY_IDS),
            "parallel": self.parallel,
        }


class ConfigError(ValueError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acderiv",
        description="Verify the graded-derivation conjugation identities as exact "
        "zero-residual checks on almost complex charts.",
    )
    parser.add_argument("--chart", help='chart name: "standard:n" or "twisted:n" (default twisted:2)')
    parser.add_argument("--rank", type=int, help="trivial bundle rank r >= 1 (default 2)")
    parser.add_argument("--degree", type=int, help="random coefficient degree bound (default 2)")
    parser.add_argument("--seed", help="master seed for all randomized inputs (default 7)")
    parser.add_argument("--ids", help="comma-separated identity ids (default: all)")
    parser.add_argument("--config", help="JSON config file; explicit flags win on conflict")
    parser.add_argument("--out", help="path for the JSON report")
    parser.add_argument("--parallel", action="store_true", default=None,
                        help="fan checks out over a process pool")
    parser.add_argument("--list-ids", action="store_true", help="print the identity registry and exit")
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path} (line {exc.lineno}, column {exc.colno})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(raw) - {field.name for field in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config fields in {path}: {sorted(unknown)}")
    return raw


def _parse_ids(value) -> Optional[List[str]]:
    if value is None:
        return None
    if isinstance(value, str):
        ids = [item.strip() for item in value.split(",") if item.strip()]
    elif isinstance(value, list) and all(isinstance(item, str) for item in value):
        ids = value
    else:
        raise ConfigError(f"ids must be a comma-separated string or a list of strings, got {value!r}")
    for cid in ids:
        if cid not in REGISTRY_IDS:
            raise ConfigError(f"unknown identity id {cid!r}; see --list-ids")
    return ids or None


def _integer(values: dict, key: str) -> int:
    """values[key] as given, if it is an integer (a config file may hold any JSON value)."""
    value = values[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _string(values: dict, key: str) -> str:
    """values[key] as given, if it is a string."""
    value = values[key]
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def build_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        values.update(_load_config_file(args.config))
    for field in fields(RunConfig):
        flag = getattr(args, field.name)
        if flag is not None:
            values[field.name] = flag
    config = RunConfig()
    if "chart" in values:
        config.chart = _string(values, "chart")
    if "rank" in values:
        config.rank = _integer(values, "rank")
    if "degree" in values:
        config.degree = _integer(values, "degree")
    if "seed" in values:
        seed = values["seed"]
        if isinstance(seed, bool) or not isinstance(seed, (int, str)):
            raise ConfigError(f"seed must be an integer or a string, got {seed!r}")
        digits = isinstance(seed, str) and seed.isascii() and seed.removeprefix("-").isdigit()
        config.seed = int(seed) if digits else seed
    if "ids" in values:
        config.ids = _parse_ids(values["ids"])
    if "out" in values and values["out"] is not None:
        config.out = _string(values, "out")
    if "parallel" in values:
        if not isinstance(values["parallel"], bool):
            raise ConfigError(f"parallel must be true or false, got {values['parallel']!r}")
        config.parallel = values["parallel"]
    try:
        parse_chart_name(config.chart)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _validate(config)
    return config


def _validate(config: RunConfig):
    if config.rank < 1:
        raise ConfigError(f"rank must be >= 1, got {config.rank}")
    if config.degree < 0:
        raise ConfigError(f"degree bound must be >= 0, got {config.degree}")


def report_to_dict(report: IdentityReport) -> dict:
    out: dict = {"id": report.id, "chart": report.chart}
    if report.status != "skip":
        out["pass"] = report.status == "pass"
    if report.status in ("skip", "error"):
        out[report.status] = True
        out["reason"] = report.reason
    out["seeds"] = dict(sorted(report.seeds.items()))
    if report.worst_residual is not None:
        out["worst_residual"] = f"on {report.worst_generator}: {report.worst_residual}"
    out["millis"] = round(report.millis, 3)
    return out


def render_report(config: RunConfig, reports: Sequence[IdentityReport], summary: dict) -> str:
    doc = {
        "config": config.to_json_dict(),
        "reports": [report_to_dict(r) for r in reports],
        "summary": summary,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    if args.list_ids:
        for cid, desc in registry_descriptions():
            print(f"{cid:12s} {desc}")
        return 0
    try:
        config = build_config(args)
        handle = open(config.out, "w", encoding="utf-8") if config.out else None
    except (ConfigError, OSError) as exc:  # an --out that cannot be written, before any check runs
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    reports, summary = run_suite(config)
    text = render_report(config, reports, summary)
    if handle is None:
        print(text)
    else:
        with handle:
            handle.write(text + "\n")
    for report in reports:
        extra = f" ({report.reason})" if report.status in ("skip", "error") else ""
        print(f"[{report.status.upper()}] {report.id} on {report.chart}{extra}", file=sys.stderr)
    statuses = {report.status for report in reports}
    return CHECK_ERROR if "error" in statuses else 1 if "fail" in statuses else 0


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
