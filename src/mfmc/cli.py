"""Command-line runner for pilot/allocation/estimation studies.

Subcommands: ``pilot``, ``allocate``, ``estimate``, ``sweep``,
``make-reference``. Configuration comes from a JSON file (``--config``)
with per-key overrides via ``--set key=value``; values parse as JSON with
a plain-string fallback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import MFMCError
from .study import (
    StudyConfig,
    make_reference,
    replicate_sweep,
    run_allocate,
    run_pilot,
    run_study,
)


def _parse_set(entry: str):
    if "=" not in entry:
        raise ValueError(f"--set expects key=value, got {entry!r}")
    key, raw = entry.split("=", 1)
    key = key.strip()
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    except ValueError as exc:  # such as an integer beyond Python's digit limit
        raise ValueError(f"--set {key}: {exc}") from None
    return key, value


def load_config(args) -> StudyConfig:
    data = {}
    if args.config:
        data = json.loads(Path(args.config).read_text())
        if not isinstance(data, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
    for entry in args.set or []:
        key, value = _parse_set(entry)
        data[key] = value
    if args.out_dir is not None:
        data["out_dir"] = args.out_dir
    if args.seed is not None:
        data["seed"] = args.seed
    if args.jobs is not None:
        data["jobs"] = args.jobs
    return StudyConfig.from_dict(data).validate()


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    parser.add_argument("--out-dir", help="output directory")
    parser.add_argument("--seed", type=int, help="base seed")
    parser.add_argument("--jobs", type=int,
                        help="processes that run replicates, this one included")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfmc",
        description="Multifidelity Monte Carlo studies: pilot, allocate, estimate, sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("pilot", "estimate and save pilot statistics"),
        ("allocate", "solve the allocation from saved pilot statistics"),
        ("estimate", "full replicated study at one budget or tolerance"),
        ("sweep", "replicated studies across a list of budgets"),
        ("make-reference", "large plain-sampling reference values"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        if args.command == "pilot":
            stats = run_pilot(config)
            for label, s in stats.items():
                print(f"pilot[{label}]: N={s.n_samples} cost={s.cost:.6g}")
        elif args.command == "allocate":
            plans = run_allocate(config)
            for label, plan in plans.items():
                print(f"allocation[{label}]: m={plan.m.tolist()} "
                      f"predicted_mse={plan.predicted_mse:.6g} cost={plan.budget_used:.6g}")
        elif args.command == "estimate":
            summary = run_study(config)
            for label, entry in summary["statistics"].items():
                print(f"{label}: value_mean={entry['value_mean']} "
                      f"predicted_mse={entry['predicted_mse_mean']:.6g}")
        elif args.command == "sweep":
            rows = replicate_sweep(config)
            for row in rows:
                print(f"p={row['budget']:g} {row['statistic']} ({row['mode']}): "
                      f"empirical_mse={row['empirical_mse']:.6g}")
        elif args.command == "make-reference":
            table = make_reference(config)
            for key, value in table.items():
                if not key.startswith("_"):
                    print(f"reference[{key}] = {value}")
    except (MFMCError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
