"""Command-line entry point: run scenario files, list and describe tasks.

Exit codes: 0 success, 2 validation/usage error or a report that cannot be
written, 3 task runtime error (the report, with error records, is still
written).

``main`` serves in-process callers and leaves the garbage collector alone;
``process_main`` is the entry of the ``ncprob`` process itself.
"""

from __future__ import annotations

import argparse
import gc
import sys

from . import __version__
from .scenario import describe_task, list_tasks, resolve_scenario_path, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncprob",
        description="Scenario-driven harness for finite-dimensional algebraic probability.",
    )
    parser.add_argument("--version", action="version", version=f"ncprob {__version__}")
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run a scenario file (or shipped scenario name)")
    run_p.add_argument("scenario", help="path to a .scenario file, or a shipped name (see README)")
    run_p.add_argument("--out", default=None, help="write the report here instead of stdout")
    run_p.add_argument("--seed", type=int, default=None, help="override the optimizer seed")

    sub.add_parser("tasks", help="list available task names")

    desc_p = sub.add_parser("describe", help="show one task's argument schema")
    desc_p.add_argument("task", help="task name")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "run":
        path = resolve_scenario_path(args.scenario)
        if path is None:
            print(f"scenario error: path: no such file or shipped scenario: {args.scenario!r}", file=sys.stderr)
            return 2
        return run_scenario(path, out=args.out, seed=args.seed)

    if args.command == "tasks":
        print(list_tasks())
        return 0

    if args.command == "describe":
        try:
            print(describe_task(args.task))
        except KeyError:
            print(f"unknown task {args.task!r}; run `ncprob tasks` for the list", file=sys.stderr)
            return 2
        return 0

    parser.print_help()
    return 2


def process_main(argv=None) -> int:
    """Run :func:`main` as a whole process: the ``ncprob`` script and
    ``python -m ncprob.cli``.

    The cyclic collector is switched off for the run and the heap is frozen
    before returning, so neither the collector's passes while scipy's
    modules import nor the collection at interpreter exit scan the objects
    those modules leave behind.  A run leaves only a few hundred small
    cyclic objects and no arrays, and the process ends right after.  Call it
    only where the process ends when it returns; in-process callers use
    :func:`main`.
    """
    gc.disable()
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(process_main())
