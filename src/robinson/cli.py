"""Command-line surface: recognize, orient, assign, petals, generators,
oracles, and the compatibility checker.

Exit codes: 0 = success/YES, 1 = NO/absent, 2 = input error, 3 = size-guard
refusal.  Results go to stdout (text lines or, with --json, one JSON
object); diagnostics and timings go to stderr.  All commands are
deterministic given identical input files.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from . import fileio
from .core import Tree, check_compatible, count_xi
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


@dataclass
class RunReport:
    """One result record per command; unused payload fields stay None."""

    command: str
    answer: str
    xi: Optional[int] = None
    order: Optional[tuple[int, ...]] = None
    orientation: Optional[tuple[tuple[int, int], ...]] = None
    center: Optional[int] = None
    in_set: Optional[tuple[int, ...]] = None
    out_set: Optional[tuple[int, ...]] = None
    petals: Optional[tuple[tuple[int, ...], ...]] = None
    subset: Optional[tuple[int, ...]] = None
    kappa: Optional[int] = None
    elapsed_ms: float = field(default=0.0)

    def _fields(self):
        """(key, text form, JSON form) of every payload field that is set."""
        for attr, key, text, as_json in _FIELDS:
            value = getattr(self, attr)
            if value is not None:
                yield key, text(value), as_json(value)

    def render_text(self) -> str:
        lines = [f"answer: {self.answer}"] + [f"{k}: {t}" for k, t, _ in self._fields()]
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps({"answer": self.answer} | {k: j for k, _, j in self._fields()})


def _ints(values) -> str:
    return " ".join(map(str, values))


# RunReport payload fields in output order: (attribute, key of both the text
# line and the JSON member, text form, JSON form)
_FIELDS = (
    ("xi", "xi", str, int),
    ("order", "order", _ints, list),
    ("orientation", "orientation", lambda arcs: " ".join(f"{u}>{v}" for u, v in arcs),
     lambda arcs: [list(a) for a in arcs]),
    ("center", "center", str, int),
    ("in_set", "in", _ints, list),
    ("out_set", "out", _ints, list),
    ("petals", "petals", lambda ps: " | ".join(map(_ints, ps)), lambda ps: [list(p) for p in ps]),
    ("subset", "subset", _ints, list),
    ("kappa", "kappa", str, int),
)


def _out(prefix: str, ext: str) -> Path:
    return Path(f"{prefix}{ext}")


def _parse_order(text: str, n: int) -> list[int]:
    try:
        order = [int(x) for x in text.replace(",", " ").split()]
    except ValueError as exc:
        raise InputError(f"bad order {text!r}") from exc
    if sorted(order) != list(range(n)):
        raise InputError("order must be a permutation of 0..n-1")
    return order


def _cmd_recognize(args) -> RunReport:
    space = fileio.read_matrix(args.matrix)
    res = recognize_two_way(space)
    if res is None:
        return RunReport("recognize", "NO")
    return RunReport("recognize", "YES", order=res[0])


def _cmd_orient_tree(args) -> RunReport:
    space = fileio.read_matrix(args.matrix)
    tree = fileio.read_tree(args.tree)
    ot, xi = orient_all_robinson(space, tree, verify_premise=args.verify_premise)
    return RunReport("orient tree", "YES", xi=xi, orientation=ot.arcs)


def _cmd_orient_star(args) -> RunReport:
    space = fileio.read_matrix(args.matrix)
    n = space.n
    c = args.center
    if c is None:
        c = best_star_center(space)
    elif not 0 <= c < n:
        raise InputError(f"center {c} out of range")
    star = Tree(n, [(c, v) for v in range(n) if v != c])
    ot, xi = orient_star(space, star, c)
    return RunReport("orient star", "YES", xi=xi, orientation=ot.arcs, center=c)


def _cmd_orient_path(args) -> RunReport:
    space = fileio.read_matrix(args.matrix)
    order = _parse_order(args.order, space.n)
    _, ot, xi = path_orientation(space, order)
    return RunReport("orient path", "YES", xi=xi, orientation=ot.arcs)


def _cmd_assign_star(args) -> RunReport:
    space = fileio.read_matrix(args.matrix)
    res = assign_star(space, args.in_count, args.out_count)
    if res is None:
        return RunReport("assign star", "NO")
    arcs = tuple((v, res.center) for v in res.in_set) + tuple(
        (res.center, v) for v in res.out_set
    )
    return RunReport(
        "assign star",
        "YES",
        center=res.center,
        in_set=res.in_set,
        out_set=res.out_set,
        orientation=arcs,
    )


def _cmd_petals(args) -> RunReport:
    space = fileio.read_matrix(args.matrix)
    n = space.n
    if not 0 <= args.center < n:
        raise InputError(f"center {args.center} out of range")
    star = Tree(n, [(args.center, v) for v in range(n) if v != args.center])
    part = petals(space, star, args.center)
    return RunReport("petals", "YES", center=args.center, petals=part.petals)


def _cmd_gen_sat(args) -> RunReport:
    cnf = fileio.read_cnf(args.dimacs)
    inst = build_orientation_instance(cnf)
    fileio.write_matrix(inst.space, _out(args.out_prefix, ".matrix"))
    fileio.write_tree(inst.tree, _out(args.out_prefix, ".tree"))
    _out(args.out_prefix, ".kappa").write_text(f"{inst.kappa}\n")
    roles = "\n".join(f"{i} {inst.vertex_roles[i]}" for i in range(inst.tree.n))
    _out(args.out_prefix, ".roles").write_text(roles + "\n")
    return RunReport("gen sat", "YES", kappa=inst.kappa)


def _cmd_gen_subset(args) -> RunReport:
    g = fileio.read_graph(args.graph)
    inst = build_subset_instance(g)
    fileio.write_matrix(inst.space, _out(args.out_prefix, ".matrix"))
    _out(args.out_prefix, ".kappa").write_text(f"{inst.kappa}\n")
    roles = "\n".join(f"{i} {inst.vertex_roles[i]}" for i in range(inst.space.n))
    _out(args.out_prefix, ".roles").write_text(roles + "\n")
    return RunReport("gen subset", "YES", kappa=inst.kappa)


def _cmd_gen_assign(args) -> RunReport:
    space = fileio.read_matrix(args.matrix)
    ot = build_assignment_instance(space, args.kappa)
    fileio.write_oriented_tree(ot, _out(args.out_prefix, ".orient"))
    return RunReport("gen assign", "YES", kappa=args.kappa, orientation=ot.arcs)


def _cmd_oracle_orient(args) -> RunReport:
    space = fileio.read_matrix(args.matrix)
    tree = fileio.read_tree(args.tree)
    xi, ot = brute_optimal_orientation(space, tree)
    return RunReport("oracle orient", "YES", xi=xi, orientation=ot.arcs)


def _cmd_oracle_recognize(args) -> RunReport:
    space = fileio.read_matrix(args.matrix)
    order = brute_two_way(space)
    if order is None:
        return RunReport("oracle recognize", "NO")
    return RunReport("oracle recognize", "YES", order=order)


def _cmd_oracle_c1p(args) -> RunReport:
    m = fileio.read_binary_matrix(args.binmatrix)
    order = brute_c1p(m)
    if order is None:
        return RunReport("oracle c1p", "NO")
    return RunReport("oracle c1p", "YES", order=order)


def _cmd_oracle_subset(args) -> RunReport:
    space = fileio.read_matrix(args.matrix)
    subset = brute_robinson_subset(space, args.kappa, max_subsets=args.budget)
    if subset is None:
        return RunReport("oracle subset", "NO")
    return RunReport("oracle subset", "YES", subset=subset)


def _cmd_check(args) -> RunReport:
    space = fileio.read_matrix(args.matrix)
    ot = fileio.read_oriented_tree(args.oriented_tree)
    ok = check_compatible(space, ot)
    return RunReport("check", "YES" if ok else "NO", xi=count_xi(ot))


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

    p = sub.add_parser("check", help="compatibility check plus path count")
    p.add_argument("matrix")
    p.add_argument("oriented_tree")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report: RunReport = args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeGuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    print(report.render_json() if args.json else report.render_text())
    print(f"elapsed_ms: {report.elapsed_ms:.3f}", file=sys.stderr)
    return 0 if report.answer == "YES" else 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
