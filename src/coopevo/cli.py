"""Command-line experiment runner.

Subcommands:
    run           execute one algorithm on one or more suite functions
    compare       run both algorithms and report effect sizes
    fes-to-match  evaluations a baseline curve needs to reach a target value
    plot          render convergence curves (requires matplotlib)

Flags and config-file keys come from the ``ExperimentConfig`` fields, one
``--name-with-dashes`` flag per field with its help and default; a JSON file
passed via --config supplies values that explicit flags override.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .harness import (
    ALGORITHMS,
    COHENS_D_FORMULA,
    ExperimentConfig,
    compare_algorithms,
    fes_to_match,
    read_convergence,
    run_experiment,
)

_CONFIG_FIELDS = dataclasses.fields(ExperimentConfig)
_REQUIRED = [f.name for f in _CONFIG_FIELDS if f.default is dataclasses.MISSING]


def _add_config_flags(parser: argparse.ArgumentParser, with_algorithm: bool):
    parser.add_argument("--config", type=Path, help="JSON file with config defaults")
    for f in _CONFIG_FIELDS:
        if f.name == "algorithm" and not with_algorithm:
            continue
        default = "" if f.default is dataclasses.MISSING else f" (default {f.default})"
        parser.add_argument(
            "--function" if f.name == "functions" else "--" + f.name.replace("_", "-"),
            dest=f.name, help=f.metadata["help"] + default, type=int if f.type == "int" else None,
            action="append" if f.name == "functions" else "store",
            choices=ALGORITHMS if f.name == "algorithm" else None,
        )


def _build_config(args: argparse.Namespace, default_algorithm: str | None = None) -> ExperimentConfig:
    values: dict = {}
    if args.config is not None:
        with open(args.config) as handle:
            loaded = json.load(handle)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(loaded) - {f.name for f in _CONFIG_FIELDS}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    for f in _CONFIG_FIELDS:
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    if default_algorithm is not None:
        values.setdefault("algorithm", default_algorithm)
    missing = [name for name in _REQUIRED if name not in values]
    if missing:
        raise ValueError(f"missing required settings: {missing}")
    return ExperimentConfig(**values)


def _cmd_run(args) -> int:
    config = _build_config(args)
    result = run_experiment(config)
    for row in map(result.summary_for, result.records):
        print(
            f"{row.function_id} {row.algorithm} budget={row.budget} runs={row.runs} "
            f"best={row.best:.6e} median={row.median:.6e} worst={row.worst:.6e} "
            f"mean={row.mean:.6e} std={row.std:.6e}"
        )
    for fid in result.records:
        print(f"{fid}: wrote {result.out_dir(fid)}")
    return 0


def _cmd_compare(args) -> int:
    config = _build_config(args, default_algorithm="sacc")
    out = compare_algorithms(config)
    print(f"effect size: d = {COHENS_D_FORMULA}")
    for row in out["comparison"]:
        print(
            f"{row['function']}: sacc mean={row['sacc_mean']:.6e} "
            f"shade-cc mean={row['shade_cc_mean']:.6e} "
            f"d={row['cohens_d']:+.3f} ({row['label']})"
        )
    return 0


def _cmd_fes_to_match(args) -> int:
    curve = read_convergence(args.trace)
    hit = fes_to_match(args.target, curve)
    if hit is None:
        print("not reached")
    else:
        print(hit)
    return 0


def _cmd_plot(args) -> int:
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("plotting requires matplotlib (pip install coopevo[plot])", file=sys.stderr)
        return 2
    fig, ax = plt.subplots(figsize=(7, 4.5))
    labels = args.labels or [Path(t).parent.name or Path(t).stem for t in args.traces]
    if len(labels) != len(args.traces):
        print("need one label per trace", file=sys.stderr)
        return 2
    for trace, label in zip(args.traces, labels):
        curve = read_convergence(trace)
        ax.plot(curve[:, 0], curve[:, 1], label=label)
    ax.set_xlabel("real evaluations")
    ax.set_ylabel("mean fitness")
    ax.set_yscale("log")
    ax.legend()
    fig.tight_layout()
    fig.savefig(args.out, dpi=150)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coopevo", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one algorithm")
    _add_config_flags(p_run, with_algorithm=True)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run both algorithms and compare")
    _add_config_flags(p_cmp, with_algorithm=False)
    p_cmp.set_defaults(func=_cmd_compare)

    p_match = sub.add_parser("fes-to-match",
                             help="evaluations a curve needs to reach a target mean value")
    p_match.add_argument("--target", type=float, required=True)
    p_match.add_argument("--trace", type=Path, required=True,
                         help="convergence.csv produced by `run`")
    p_match.set_defaults(func=_cmd_fes_to_match)

    p_plot = sub.add_parser("plot", help="plot convergence curves")
    p_plot.add_argument("--traces", nargs="+", required=True)
    p_plot.add_argument("--labels", nargs="*", default=None)
    p_plot.add_argument("--out", default="convergence.png")
    p_plot.set_defaults(func=_cmd_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
