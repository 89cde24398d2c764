"""Command-line surface: recognize, orient, assign, petals, generators,
oracles, and the compatibility checker.

Exit codes: 0 = success/YES, 1 = NO/absent, 2 = input error, 3 = size-guard
refusal.  Results go to stdout (text lines or, with --json, one JSON
object); diagnostics and timings go to stderr.  All commands are
deterministic given identical input files.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys
import time
from functools import cache
from pathlib import Path
from typing import Optional, Sequence

from . import fileio
from .core import Tree, check_compatible, count_xi, failing_pair
from .errors import InputError, SizeGuardError
from .oracle import (
    brute_c1p,
    brute_optimal_orientation,
    brute_robinson_subset,
    brute_two_way,
)
from .paths import path_orientation
from .recognition import recognize_two_way
from .reductions import build_assignment_instance, build_orientation_instance, build_subset_instance
from .stars import assign_star, best_star_center, orient_star, petals
from .uniform_orient import orient_all_robinson


def _ints(values) -> str:
    return " ".join(map(str, values))


# report keys in output order, with the text form of each value; --json
# prints the same keys through json.dumps
_TEXT_FORMS = {
    "answer": str,
    "xi": str,
    "order": _ints,
    "orientation": lambda arcs: " ".join(f"{u}>{v}" for u, v in arcs),
    "center": str,
    "in": _ints,
    "out": _ints,
    "petals": lambda ps: " | ".join(map(_ints, ps)),
    "subset": _ints,
    "kappa": str,
    "pair": _ints,
}


def _parse_order(text: str) -> list[int]:
    """The vertex sequence of --order; path_orientation checks that it is a
    permutation."""
    try:
        return [int(x) for x in text.replace(",", " ").split()]
    except ValueError as exc:
        raise InputError(f"bad order {text!r}") from exc


def _write_instance(prefix: str, inst) -> dict:
    """Write the generated space, its kappa and its vertex roles."""
    fileio.write_matrix(inst.space, f"{prefix}.matrix")
    Path(f"{prefix}.kappa").write_text(f"{inst.kappa}\n")
    roles = "\n".join(f"{i} {inst.vertex_roles[i]}" for i in range(inst.space.n))
    Path(f"{prefix}.roles").write_text(roles + "\n")
    return {"kappa": inst.kappa}


# Each handler returns its report fields, or None for a bare NO.  Library
# entry points are looked up as module globals at call time, so a tracer can
# wrap them.


def _cmd_recognize(args):
    res = recognize_two_way(fileio.read_matrix(args.matrix))
    return None if res is None else {"order": res[0]}


def _cmd_orient_tree(args):
    space = fileio.read_matrix(args.matrix)
    tree = fileio.read_tree(args.tree)
    ot, xi = orient_all_robinson(space, tree, verify_premise=args.verify_premise)
    return {"xi": xi, "orientation": ot.arcs}


def _cmd_orient_star(args):
    space = fileio.read_matrix(args.matrix)
    c = best_star_center(space) if args.center is None else args.center
    ot, xi = orient_star(space, c)
    return {"xi": xi, "orientation": ot.arcs, "center": c}


def _cmd_orient_path(args):
    space = fileio.read_matrix(args.matrix)
    _, ot, xi = path_orientation(space, _parse_order(args.order))
    return {"xi": xi, "orientation": ot.arcs}


def _cmd_assign_star(args):
    res = assign_star(fileio.read_matrix(args.matrix), args.in_count, args.out_count)
    if res is None:
        return None
    c = res.center
    arcs = tuple((v, c) for v in res.in_set) + tuple((c, v) for v in res.out_set)
    return {"orientation": arcs, "center": c, "in": res.in_set, "out": res.out_set}


def _cmd_petals(args):
    space = fileio.read_matrix(args.matrix)
    part = petals(space, Tree.star(space.n, args.center), args.center)
    return {"center": args.center, "petals": part.petals}


def _cmd_gen_sat(args):
    inst = build_orientation_instance(fileio.read_cnf(args.dimacs))
    fields = _write_instance(args.out_prefix, inst)
    fileio.write_tree(inst.tree, f"{args.out_prefix}.tree")
    return fields


def _cmd_gen_subset(args):
    return _write_instance(args.out_prefix, build_subset_instance(fileio.read_graph(args.graph)))


def _cmd_gen_assign(args):
    ot = build_assignment_instance(fileio.read_matrix(args.matrix).n, args.kappa)
    fileio.write_oriented_tree(ot, f"{args.out_prefix}.orient")
    return {"orientation": ot.arcs, "kappa": args.kappa}


def _cmd_oracle_orient(args):
    space = fileio.read_matrix(args.matrix)
    xi, ot = brute_optimal_orientation(space, fileio.read_tree(args.tree))
    return {"xi": xi, "orientation": ot.arcs}


def _cmd_oracle_recognize(args):
    order = brute_two_way(fileio.read_matrix(args.matrix))
    return None if order is None else {"order": order}


def _cmd_oracle_c1p(args):
    order = brute_c1p(fileio.read_binary_matrix(args.binmatrix))
    return None if order is None else {"order": order}


def _cmd_oracle_subset(args):
    space = fileio.read_matrix(args.matrix)
    subset = brute_robinson_subset(space, args.kappa, max_subsets=args.budget)
    return None if subset is None else {"subset": subset}


def _cmd_check(args):
    """YES, or NO with the first failing pair (a, b) of core.failing_pair:
    the smallest root a, then b first in a's walk.  The a-to-b path is a
    directed path that is not one-way-Robinson."""
    space = fileio.read_matrix(args.matrix)
    ot = fileio.read_oriented_tree(args.oriented_tree)
    if check_compatible(space, ot):
        return {"answer": "YES", "xi": count_xi(ot)}
    # check_compatible stays the one call a YES makes (a tracer wraps it);
    # a NO walks again to name its pair
    return {"answer": "NO", "xi": count_xi(ot), "pair": list(failing_pair(space, ot))}


# The one parser of the process, built on the first call rather than at
# import: building it (18 sub-parsers, about 57 gettext lookups) takes
# 2-4 ms on a 2-core Xeon.  Sharing it is thread-safe because parse_args
# does not mutate the parser: each call fills a namespace of its own.
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robinson",
        description="Asymmetric Robinson seriation: recognition, tree orientation, "
        "hardness-reduction instances, brute-force oracles.",
    )
    parser.add_argument("--json", action="store_true", help="emit one JSON object instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", help="two-way-Robinson recognition")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_recognize)

    orient = sub.add_parser("orient", help="optimal compatible orientation")
    osub = orient.add_subparsers(dest="what", required=True)
    p = osub.add_parser("tree", help="arbitrary tree, all paths Robinson for d")
    p.add_argument("matrix")
    p.add_argument("tree")
    p.add_argument("--verify-premise", action="store_true")
    p.set_defaults(func=_cmd_orient_tree)
    p = osub.add_parser("star", help="star K_{1,n-1}, symmetric d")
    p.add_argument("matrix")
    p.add_argument("--center", type=int, default=None, help="omit to try all centers")
    p.set_defaults(func=_cmd_orient_star)
    p = osub.add_parser("path", help="labeled path, symmetric d")
    p.add_argument("matrix")
    p.add_argument("--order", required=True, help="comma-separated vertex sequence")
    p.set_defaults(func=_cmd_orient_path)

    assign = sub.add_parser("assign", help="assignment variants")
    asub = assign.add_subparsers(dest="what", required=True)
    p = asub.add_parser("star", help="star with prescribed in/out sizes")
    p.add_argument("matrix")
    p.add_argument("--in", dest="in_count", type=int, required=True)
    p.add_argument("--out", dest="out_count", type=int, required=True)
    p.set_defaults(func=_cmd_assign_star)

    p = sub.add_parser("petals", help="petal partition around a center")
    p.add_argument("matrix")
    p.add_argument("--center", type=int, required=True)
    p.set_defaults(func=_cmd_petals)

    gen = sub.add_parser("gen", help="hardness-reduction instance generators")
    gsub = gen.add_subparsers(dest="what", required=True)
    p = gsub.add_parser("sat", help="3-CNF to tree-orientation instance")
    p.add_argument("dimacs")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_gen_sat)
    p = gsub.add_parser("subset", help="graph to Robinson-subset instance")
    p.add_argument("graph")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_gen_subset)
    p = gsub.add_parser("assign", help="space+kappa to oriented-path instance")
    p.add_argument("matrix")
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_gen_assign)

    oracle = sub.add_parser("oracle", help="brute-force references")
    orsub = oracle.add_subparsers(dest="what", required=True)
    p = orsub.add_parser("orient")
    p.add_argument("matrix")
    p.add_argument("tree")
    p.set_defaults(func=_cmd_oracle_orient)
    p = orsub.add_parser("recognize")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_oracle_recognize)
    p = orsub.add_parser("c1p")
    p.add_argument("binmatrix")
    p.set_defaults(func=_cmd_oracle_c1p)
    p = orsub.add_parser("subset")
    p.add_argument("matrix")
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--budget", type=int, default=10**6)
    p.set_defaults(func=_cmd_oracle_subset)

    p = sub.add_parser("check", help="compatibility check plus path count; a NO names a failing pair")
    p.add_argument("matrix")
    p.add_argument("oriented_tree")
    p.set_defaults(func=_cmd_check)

    return parser


def _emit(stream, line: str) -> Optional[OSError]:
    """Print one line to ``stream`` and flush it; the one writer of main.

    A closed stream drops the line: Python's None for a descriptor closed
    at start, a closed file, or a descriptor that is closed or not open for
    writing (EBADF).  So does a stream whose reader has left (EPIPE).  Any
    other failed write returns its error, for the caller to report or
    ignore.  The stream and its descriptor are left as they are.
    """
    if stream is None or stream.closed:
        return None
    try:
        print(line, file=stream, flush=True)
    except OSError as exc:
        return None if exc.errno in (errno.EPIPE, errno.EBADF) else exc
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command.  The report goes to stdout and sets the exit code;
    a report that cannot be written exits 2.  Lines on stderr never change
    the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        fields = args.func(args)
    except (InputError, OSError) as exc:
        _emit(sys.stderr, f"error: {exc}")
        return 2
    except SizeGuardError as exc:
        _emit(sys.stderr, f"refused: {exc}")
        return 3
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    report = {"answer": "YES"} | fields if fields is not None else {"answer": "NO"}
    report = {k: report[k] for k in _TEXT_FORMS if k in report}
    if args.json:
        text = json.dumps(report)
    else:
        text = "\n".join(f"{k}: {_TEXT_FORMS[k](v)}" for k, v in report.items())
    exc = _emit(sys.stdout, text)
    if exc is not None:
        _emit(sys.stderr, f"error: cannot write report: {exc}")
        return 2
    _emit(sys.stderr, f"elapsed_ms: {elapsed_ms:.3f}")
    return 0 if report["answer"] == "YES" else 1


def entrypoint() -> None:
    """Run main as the process, then flush stdout and stderr.  A stream
    whose flush fails still holds what main could not write, so its
    descriptor is pointed at os.devnull: the interpreter's final flush at
    exit then cannot fail, and prints no traceback."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is None or stream.closed:
            continue
        try:
            stream.flush()
        except OSError:
            with contextlib.suppress(OSError):
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, stream.fileno())
                os.close(devnull)
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
