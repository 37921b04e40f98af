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
from ..core.batch import batch_limit
from ..datasets import DATASETS
from . import ablation, insert, kernels, profile, recovery
from .harness import finish_arm

ARMS = {
    "insert": insert,
    "analysis": kernels,
    "ablation": ablation,
    "recovery": recovery,
    "profile": profile,
}


#: one declaration per flag; defaults come from each arm's ``run``.  A
#: parameter without a default is positional, a ``False`` default a switch.
FLAGS = {
    "experiment": dict(choices=profile.PROFILE_EXPERIMENTS),
    "--dataset": dict(choices=sorted(DATASETS), help="proxy dataset"),
    "--scale": dict(type=float, help="fraction of the proxy dataset"),
    "--batch-size": dict(type=int, help="ingest sub-batch size (1 = per-edge "
                                        "path, <=0 = one unbounded batch)"),
    "--kernel": dict(choices=tuple(KERNELS)),
    "--trace-out": dict(help="write Chrome trace-event JSON here (open in Perfetto)"),
    "--device-ops": dict(help="also record every device primitive as a trace event"),
}


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
        params["batch_size"] = batch_limit(args.batch_size)
    finish_arm(args.arm, args.arm.run(**params))
    return 0


if __name__ == "__main__":
    sys.exit(main())
