"""Command-line entry point for regenerating the paper's tables and figures.

Usage::

    python -m repro.experiments.cli table1 [--settings 30 50] [--methods fedavg fedkemf]
    python -m repro.experiments.cli figure4
    python -m repro.experiments.cli all --out results/
    REPRO_SCALE=small python -m repro.experiments.cli table3

The active scale comes from ``REPRO_SCALE`` (smoke/small/paper) or
``--scale``.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

from repro.experiments import figures, tables
from repro.experiments.configs import get_scale
from repro.experiments.runner import ExperimentRunner
from repro.fl.robust import parse_defense
from repro.runtime import EXECUTOR_KINDS, parse_fault_spec

__all__ = ["main", "build_parser"]

EXPERIMENTS = ("table1", "table2", "table3", "figure4", "figure5", "figure6", "figure7")


def _validated_by(parse):
    """argparse ``type=`` that checks a spec with ``parse`` up front (a bad
    value becomes a one-line usage error naming the flag, exit 2) and keeps
    passing the raw string on."""

    def check(text: str) -> str:
        try:
            parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
        return text

    return check


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate FedKEMF paper tables/figures at a chosen scale.",
    )
    p.add_argument(
        "experiment",
        choices=EXPERIMENTS + ("all", "list"),
        help="which artifact to regenerate ('list' prints the index)",
    )
    p.add_argument("--scale", default=None, help="smoke | small | paper (default: $REPRO_SCALE or smoke)")
    p.add_argument("--settings", nargs="+", default=["30"], choices=["30", "50", "100"],
                   help="paper federation settings to include (tables)")
    p.add_argument(
        "--methods",
        nargs="+",
        default=["fedavg", "fednova", "fedprox", "fedkemf"],
        help="algorithms to compare",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=pathlib.Path, default=None, help="also write artifacts here")
    rt = p.add_argument_group("execution runtime")
    rt.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-parallel client execution (0/1 = serial; default: $REPRO_WORKERS)",
    )
    rt.add_argument(
        "--executor",
        default=None,
        choices=EXECUTOR_KINDS,
        help="executor backend: serial, parallel (fork per round) or persistent "
        "(long-lived worker pool; default: $REPRO_EXECUTOR or by --workers)",
    )
    rt.add_argument(
        "--faults",
        default=None,
        type=_validated_by(parse_fault_spec),
        help="fault injection spec; mixes infrastructure and Byzantine attack "
        "keys, e.g. 'dropout=0.3,loss=0.1' or 'signflip=0.2,scale=10@0.1' "
        "(default: $REPRO_FAULTS)",
    )
    rt.add_argument(
        "--defense",
        default=None,
        type=_validated_by(parse_defense),
        help="robust server aggregation: mean | clip[=tau] | autoclip | "
        "trimmed[=beta] | median | krum[=f] (default: $REPRO_DEFENSE; "
        "unset = plain averaging)",
    )
    rt.add_argument(
        "--norm-ceiling",
        type=float,
        default=None,
        help="server-boundary gate: reject client updates whose L2 delta from "
        "the global model exceeds this norm (default: $REPRO_NORM_CEILING)",
    )
    rt.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="virtual-clock round deadline in seconds (default: $REPRO_DEADLINE)",
    )
    rt.add_argument(
        "--aggregation",
        default=None,
        choices=["sync", "buffered"],
        help="server aggregation regime: sync (classic rounds) or buffered "
        "(FedBuff-style staleness-weighted merges; default: $REPRO_AGGREGATION)",
    )
    rt.add_argument(
        "--buffer-size",
        type=int,
        default=None,
        help="buffered: merge after this many arrivals (default: "
        "$REPRO_BUFFER_SIZE or the per-round cohort size)",
    )
    rt.add_argument(
        "--staleness-alpha",
        type=float,
        default=None,
        help="buffered: staleness discount exponent in w(s)=1/(1+s)^alpha "
        "(0 = uniform; default: $REPRO_STALENESS_ALPHA or 0.5)",
    )
    rt.add_argument(
        "--max-staleness",
        type=int,
        default=None,
        help="buffered: evict updates staler than this many server versions "
        "(default: $REPRO_MAX_STALENESS or never)",
    )
    sc = p.add_argument_group("population scale")
    sc.add_argument(
        "--lazy-data",
        action="store_true",
        help="build federations lazily: client shards materialize on demand, "
        "one round's cohort at a time, bit-identical to the eager builder "
        "(default: $REPRO_LAZY_DATA)",
    )
    sc.add_argument(
        "--max-cohort",
        type=int,
        default=None,
        help="hard cap on the per-round cohort regardless of population size "
        "(trajectory-shaping; default: $REPRO_MAX_COHORT or uncapped)",
    )
    ck = p.add_argument_group("durability (checkpoint / resume)")
    ck.add_argument(
        "--checkpoint-dir",
        type=pathlib.Path,
        default=None,
        help="snapshot complete run state here every --checkpoint-every rounds "
        "(default: $REPRO_CHECKPOINT_DIR; unset = no checkpointing)",
    )
    ck.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help="checkpoint cadence in rounds (default: $REPRO_CHECKPOINT_EVERY or 1)",
    )
    ck.add_argument(
        "--resume",
        action="store_true",
        help="continue each run from its checkpoint in --checkpoint-dir when one "
        "exists (bit-identical replay); runs without one start fresh "
        "(default: $REPRO_RESUME)",
    )
    return p


def _emit(name: str, text: str, out_dir: pathlib.Path | None) -> None:
    print(text)
    print()
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}.txt").write_text(text + "\n")


def _run_one(name: str, runner: ExperimentRunner, args) -> str:
    methods = tuple(args.methods)
    settings = tuple(args.settings)
    if name == "table1":
        return tables.render_table1(
            tables.compute_table1(runner, methods=methods, settings=settings, seed=args.seed)
        )
    if name == "table2":
        return tables.render_table2(
            tables.compute_table2(runner, methods=methods, settings=settings, seed=args.seed)
        )
    if name == "table3":
        return tables.render_table3(
            tables.compute_table3(runner, methods=methods, seed=args.seed)
        )
    if name == "figure4":
        out = figures.figure4(runner, methods=methods, seed=args.seed)
        return "Figure 4 — accuracy vs rounds\n" + "\n\n".join(
            figures.render_series_panel(t, s) for t, s in out.items()
        )
    if name == "figure5":
        out = figures.figure5(runner, methods=methods, seed=args.seed)
        return "Figure 5 — convergence accuracy\n" + "\n\n".join(
            figures.render_bars(t, b) for t, b in out.items()
        )
    if name == "figure6":
        out = figures.figure6(runner, methods=methods, seed=args.seed)
        return "Figure 6 — rounds to target\n" + "\n\n".join(
            figures.render_bars(t, b, unit=" rounds") for t, b in out.items()
        )
    if name == "figure7":
        entries = figures.figure7(runner, seed=args.seed)
        lines = ["Figure 7 — FedKEMF stability across settings"]
        for e in entries:
            lines.append(
                f"  {e.label:38s} {figures.sparkline(e.accuracies)} "
                f"final={e.final:.2%} tail_std={e.tail_std:.3f}"
            )
        return "\n".join(lines)
    raise KeyError(name)


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        print("available experiments: " + ", ".join(EXPERIMENTS))
        print("scales: smoke (default), small, paper — set with --scale or $REPRO_SCALE")
        return 0
    scale = get_scale(args.scale)
    # Runtime flags travel via the environment so every run the tables/
    # figures spawn (repro.experiments.configs.runtime_defaults) sees them.
    if args.workers is not None:
        os.environ["REPRO_WORKERS"] = str(args.workers)
    if args.executor is not None:
        os.environ["REPRO_EXECUTOR"] = args.executor
    if args.faults is not None:
        os.environ["REPRO_FAULTS"] = args.faults
    if args.defense is not None:
        os.environ["REPRO_DEFENSE"] = args.defense
    if args.norm_ceiling is not None:
        os.environ["REPRO_NORM_CEILING"] = str(args.norm_ceiling)
    if args.deadline is not None:
        os.environ["REPRO_DEADLINE"] = str(args.deadline)
    if args.aggregation is not None:
        os.environ["REPRO_AGGREGATION"] = args.aggregation
    if args.buffer_size is not None:
        os.environ["REPRO_BUFFER_SIZE"] = str(args.buffer_size)
    if args.staleness_alpha is not None:
        os.environ["REPRO_STALENESS_ALPHA"] = str(args.staleness_alpha)
    if args.max_staleness is not None:
        os.environ["REPRO_MAX_STALENESS"] = str(args.max_staleness)
    if args.lazy_data:
        os.environ["REPRO_LAZY_DATA"] = "1"
    if args.max_cohort is not None:
        os.environ["REPRO_MAX_COHORT"] = str(args.max_cohort)
    if args.checkpoint_dir is not None:
        os.environ["REPRO_CHECKPOINT_DIR"] = str(args.checkpoint_dir)
    if args.checkpoint_every is not None:
        os.environ["REPRO_CHECKPOINT_EVERY"] = str(args.checkpoint_every)
    if args.resume:
        os.environ["REPRO_RESUME"] = "1"
    print(f"[scale={scale.name}: image {scale.image_size}px, rounds {scale.rounds}, "
          f"clients {scale.clients}]\n")
    runner = ExperimentRunner(scale)
    names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    for name in names:
        _emit(name, _run_one(name, runner, args), args.out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
