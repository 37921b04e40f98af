"""Command-line experiment runner: ``python -m repro.bench <arm>``.

A thin alternative to the pytest benchmarks for interactive use::

    python -m repro.bench insert --dataset orkut --scale 0.5
    python -m repro.bench analysis --dataset livejournal --kernel pr
    python -m repro.bench ablation --scale 0.25
    python -m repro.bench recovery --dataset orkut

Each subcommand is one *arm* (DESIGN.md §17): a module of this package
with ``run(**params)``, ``report(result)`` and, where it has pass/fail
criteria, ``gates(result)``.  The subparser of an arm is derived from
``run``'s signature — parameter ``batch_size=512`` is flag
``--batch-size`` defaulting to 512 — so a default has one home; what a
flag *means* (type, choices, help) is declared once in ``FLAGS``.  The
same ``run`` backs the arm's ``benchmarks/test_*`` file, and gates are
always enforced: a failed gate exits nonzero.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from ..algorithms import KERNELS
from ..datasets import DATASETS
from . import (
    ablation,
    crash_sweep,
    insert,
    kernels,
    profile,
    race_check,
    recovery,
    soak,
)
from .harness import DEFAULT_BATCH_SIZE, finish_arm

ARMS = {
    "insert": insert,
    "analysis": kernels,
    "ablation": ablation,
    "recovery": recovery,
    "profile": profile,
    "crash-sweep": crash_sweep,
    "soak": soak,
    "race-check": race_check,
}


def _comma_list(text: str) -> tuple:
    return tuple(x for x in text.split(",") if x)


#: one declaration per flag; defaults come from each arm's ``run``.  A
#: parameter without a default is positional, a ``False`` default a switch.
FLAGS = {
    "experiment": dict(choices=profile.PROFILE_EXPERIMENTS),
    "--dataset": dict(choices=sorted(DATASETS), help="proxy dataset"),
    "--scale": dict(type=float, help="fraction of the proxy dataset"),
    "--batch-size": dict(type=int, help="ingest sub-batch size (1 = per-edge "
                                        "path, <=0 = one unbounded batch)"),
    "--seed": dict(type=int),
    "--shards": dict(type=int, help="shard count (1 = unsharded DGAP)"),
    "--kernel": dict(choices=tuple(KERNELS)),
    "--rounds": dict(type=int, help="ingest->scrub rounds"),
    "--trace-out": dict(help="write Chrome trace-event JSON here (open in Perfetto)"),
    "--device-ops": dict(help="also record every device primitive as a trace event"),
    "--edges": dict(type=int, help="cap the workload to this many edges"),
    "--expire-window": dict(type=int, help="sweep a windowed stream instead: "
                            "expire edges this many steps after insertion and "
                            "compact periodically (>=0 enables; overrides "
                            "--batch-size)"),
    "--window-step": dict(type=int, help="edges per temporal step for --expire-window"),
    "--compact-every": dict(type=int, help="compaction cadence in steps for "
                                           "--expire-window"),
    "--policy": dict(choices=tuple(crash_sweep.SWEEP_POLICIES)),
    "--poison": dict(type=float, help="probability a lost line is poisoned at "
                                      "crash (media faults)"),
    "--transient-rate": dict(type=float, help="per-line transient read-fault "
                                              "rate (retried with modeled backoff)"),
    "--points": dict(type=int, help="sampled crash points when above the "
                                    "exhaustive threshold"),
    "--exhaustive-threshold": dict(type=int),
    "--scrub-every": dict(type=int, help="patrol-scrub step every this-many inserts"),
    "--patrol-kib": dict(type=int, help="patrol-scrub window size (KiB)"),
    "--poison-rate": dict(type=float, help="per-line spontaneous-decay rate on "
                                           "reads/scrub"),
    "--min-fault-points": dict(type=int, help="fail unless at least this many "
                                              "fault points fired"),
    "--scenarios": dict(type=_comma_list, help="comma list of scenario names "
                                               "(default: all)"),
    "--schedules": dict(type=int, help="schedule budget per scenario "
                                       "(exhaustive when it fits)"),
    "--dry-run": dict(help="one default schedule per scenario: event counts only"),
}


def _batch_size(args) -> int | None:
    """CLI batch size; 0 or negative means 'one batch for everything'."""
    bs = getattr(args, "batch_size", DEFAULT_BATCH_SIZE)
    return None if bs is not None and bs <= 0 else bs


def _add_arm(sub, name: str, arm) -> None:
    p = sub.add_parser(name, help=arm.__doc__.splitlines()[0])
    for prm in inspect.signature(arm.run).parameters.values():
        if prm.default is inspect.Parameter.empty:
            p.add_argument(prm.name, **FLAGS[prm.name])
            continue
        flag = "--" + prm.name.replace("_", "-")
        spec = dict(FLAGS[flag], default=prm.default)
        if prm.default is False:
            spec["action"] = "store_true"
        p.add_argument(flag, **spec)
    p.set_defaults(arm=arm)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, arm in ARMS.items():
        _add_arm(sub, name, arm)
    args = parser.parse_args(argv)
    params = {k: v for k, v in vars(args).items() if k not in ("cmd", "arm")}
    if "batch_size" in params:
        params["batch_size"] = _batch_size(args)
    finish_arm(args.arm, args.arm.run(**params))
    return 0


if __name__ == "__main__":
    sys.exit(main())
