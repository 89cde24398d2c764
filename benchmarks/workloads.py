"""The benchmark's four workloads.

Each workload builds a fixed instance list from the seed (set-up), makes one
timed call per instance (a pass), and checks every answer against an
expectation that holds by construction or comes from `generators`.  The
library only ever receives the generated inputs.

Every call goes through `API`, so a traced run can wrap the entry points
without touching the library (see `tracer.py`).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from robinson import DissimilaritySpace, OrientedTree, Tree, cli, orient_all_robinson, recognize_two_way
from robinson.core import check_compatible, count_xi, is_two_way_order

import generators as gen

API = SimpleNamespace(
    recognize_two_way=recognize_two_way,
    Tree=Tree,
    orient_all_robinson=orient_all_robinson,
    cli_main=cli.main,
)


@dataclass
class Instance:
    label: str
    args: tuple
    expect: Any = None
    # lazily computed expectation, for the ones that cost more than set-up
    expect_fn: Callable[[], Any] | None = field(default=None, repr=False)
    # the matrix behind a CLI instance's input file, for checking its answer
    matrix: np.ndarray | None = field(default=None, repr=False)

    def expected(self) -> Any:
        if self.expect_fn is not None:
            self.expect = self.expect_fn()
            self.expect_fn = None
        return self.expect


@dataclass
class Workload:
    name: str
    setup: Callable[[int, Path], list[Instance]]
    call: Callable[[Instance], Any]
    check: Callable[[Instance, Any], bool]
    # a cheap value equal for equal answers, so a repeat of a checked
    # answer is recognised without re-running the full check
    key: Callable[[Any], Any]
    # counters derived from the inputs alone, per pass
    input_counters: Callable[[list[Instance]], dict[str, int]] = lambda instances: {}


# ---------------------------------------------------------------- recognition


def _recognition_instances(rng: np.random.Generator, shapes) -> list[Instance]:
    """`shapes` is a list of (n, yes?) pairs."""
    gadgets = [gen.obstruction(rng) for _ in range(8)]
    out = []
    for n, yes in shapes:
        if yes:
            d, _ = gen.planted_two_way(rng, n)
        else:
            d = gen.planted_no(rng, n, gadgets[rng.integers(len(gadgets))])
        out.append(Instance(f"{'yes' if yes else 'no'}-n{n}", (DissimilaritySpace(d),), expect=yes))
    return out


def _recognize(inst: Instance):
    return API.recognize_two_way(*inst.args)


def _check_recognition(inst: Instance, res) -> bool:
    if res is None:
        return not inst.expect
    order = tuple(res[0])
    space = inst.args[0]
    return inst.expect and sorted(order) == list(range(space.n)) and is_two_way_order(space, order)


def _recognition_key(res):
    return None if res is None else tuple(res[0])


def distinct_segment_columns(d: np.ndarray) -> int:
    """Distinct non-trivial segments S(x, y), x < y, of the space."""
    one_sided = (d[:, :, None] >= d[:, None, :]) & (d[:, :, None] >= d.T[None, :, :])
    member = one_sided & one_sided.transpose(1, 0, 2)
    n = d.shape[0]
    iu = np.triu_indices(n, 1)
    cols = member[iu]
    cols = cols[cols.sum(axis=1) < n]
    return len(np.unique(np.packbits(cols, axis=1), axis=0))


def _recognition_counters(instances: list[Instance]) -> dict[str, int]:
    return {
        "recognition.columns_distinct": sum(
            distinct_segment_columns(inst.args[0].d) for inst in instances
        )
    }


def _setup_recognize_large(seed: int, workdir: Path) -> list[Instance]:
    rng = np.random.default_rng([seed, 1])
    return _recognition_instances(rng, LARGE_SHAPES)


def _setup_recognize_small(seed: int, workdir: Path) -> list[Instance]:
    rng = np.random.default_rng([seed, 2])
    # equal numbers of each (n, answer) in a seeded order, so the mix, and
    # with it the percentiles, is the same on every seed
    shapes = [(n, yes) for n in range(4, 9) for yes in (True, False)] * (SMALL_COUNT // 10)
    return _recognition_instances(rng, [shapes[k] for k in rng.permutation(len(shapes))])


# YES runs every column; NO stops at the planted obstruction.  With three
# NO and two YES the median call is a NO call and p90 lies among the YES.
# Sizes keep every call near 0.3 s so a run times each one many times.
LARGE_SHAPES = [(90, True), (100, True), (160, False), (180, False), (200, False)]
SMALL_COUNT = 4000


# ------------------------------------------------------------ tree orientation


def _setup_orient_tree(seed: int, workdir: Path) -> list[Instance]:
    rng = np.random.default_rng([seed, 3])
    random_edges = gen.pruefer_edges(rng, TREE_N)
    spider = gen.spider_edges(SPIDER_LEGS, SPIDER_LEG)
    n_spider = 1 + SPIDER_LEGS * SPIDER_LEG
    return [
        Instance(f"pruefer-n{TREE_N}", (TREE_N, random_edges),
                 expect_fn=partial(gen.uniform_tree_optimum, TREE_N, random_edges)),
        Instance(f"spider-{SPIDER_LEGS}x{SPIDER_LEG}", (n_spider, spider),
                 expect_fn=partial(gen.uniform_tree_optimum, n_spider, spider)),
    ]


def _orient_tree(inst: Instance):
    t = API.Tree(*inst.args)
    return API.orient_all_robinson(None, t)


def _check_orient_tree(inst: Instance, res) -> bool:
    ot, xi = res
    n, edges = inst.args
    return (
        ot.tree.n == n
        and set(map(frozenset, ot.tree.edges)) == set(map(frozenset, edges))
        and xi == count_xi(ot)
        and xi == inst.expected()
    )


def _tree_key(res):
    return res[0].arcs, res[1]


TREE_N = 50_000
# the partition table is (n/2 + 1) x (legs + 1); keep the degree near 1,000
SPIDER_LEGS, SPIDER_LEG = 1000, 2


# ------------------------------------------------------------------------ CLI


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text)
    return str(path)


def _setup_orient_cli(seed: int, workdir: Path) -> list[Instance]:
    rng = np.random.default_rng([seed, 4])
    out = []

    d, order = gen.zigzag_path(rng, PATH_N, PATH_TURN)
    path_file = _write(workdir, "path.matrix", gen.int_matrix_text(d))
    argv = ["--json", "orient", "path", path_file, "--order", ",".join(map(str, order))]
    out.append(Instance("orient-path", (argv,), expect_fn=partial(_path_expect, d, order), matrix=d))

    spoke = gen.spoke_matrix(rng, SPOKE_RAYS, SPOKE_LEN)
    n = spoke.shape[0]
    spoke_file = _write(workdir, "spoke.matrix", gen.int_matrix_text(spoke))
    half = (n - 1) // 2
    out.append(
        Instance("orient-star", (["--json", "orient", "star", spoke_file],),
                 expect=(0, (n - 1) + half * (n - 1 - half)), matrix=spoke)
    )
    k = int(rng.integers(1, SPOKE_RAYS)) * SPOKE_LEN
    argv = ["--json", "assign", "star", spoke_file, "--in", str(k), "--out", str(n - 1 - k)]
    out.append(Instance("assign-star-yes", (argv,), expect=(0, k), matrix=spoke))

    petal = gen.one_petal_matrix(rng, PETAL_N)
    petal_file = _write(workdir, "one_petal.matrix", gen.int_matrix_text(petal))
    k = int(rng.integers(1, PETAL_N - 1))
    argv = ["--json", "assign", "star", petal_file, "--in", str(k), "--out", str(PETAL_N - 1 - k)]
    out.append(Instance("assign-star-no", (argv,), expect=(1, None), matrix=petal))

    line, order = gen.line_matrix(rng, CHECK_N)
    line_file = _write(workdir, "line.matrix", gen.int_matrix_text(line))
    arcs = "".join(f"{u} {v}\n" for u, v in zip(order, order[1:]))
    orient_file = _write(workdir, "line.orient", f"{CHECK_N}\n{arcs}")
    out.append(
        Instance("check", (["--json", "check", line_file, orient_file],),
                 expect=(0, CHECK_N * (CHECK_N - 1) // 2), matrix=line)
    )
    return out


def _path_expect(d: np.ndarray, order: list[int]) -> tuple[int, int]:
    return 0, gen.path_optimum(d, order)


def _cli(inst: Instance):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = API.cli_main(inst.args[0])
    return code, out.getvalue()


def _check_cli(inst: Instance, res) -> bool:
    code, stdout = res
    want_code, want = inst.expected()
    if code != want_code:
        return False
    report = json.loads(stdout)
    if report["answer"] != ("YES" if want_code == 0 else "NO"):
        return False
    if inst.label == "assign-star-no":
        return True
    space = DissimilaritySpace(inst.matrix)
    if inst.label == "check":
        return report["xi"] == want
    arcs = [tuple(a) for a in report["orientation"]]
    ot = OrientedTree(Tree(space.n, arcs), arcs)
    if not check_compatible(space, ot):
        return False
    if inst.label == "assign-star-yes":
        return (
            len(report["in"]) == want
            and len(report["out"]) == space.n - 1 - want
            and sorted(report["in"] + report["out"] + [report["center"]]) == list(range(space.n))
        )
    return report["xi"] == want and count_xi(ot) == want


PATH_N, PATH_TURN = 150, 0.1
# an even number of equal rays lets the hub split its petals exactly in half
SPOKE_RAYS, SPOKE_LEN = 30, 6
PETAL_N = 200
CHECK_N = 600


WORKLOADS = {
    w.name: w
    for w in [
        Workload("recognize-large", _setup_recognize_large, _recognize, _check_recognition,
                 _recognition_key, _recognition_counters),
        Workload("recognize-small", _setup_recognize_small, _recognize, _check_recognition,
                 _recognition_key, _recognition_counters),
        Workload("orient-tree", _setup_orient_tree, _orient_tree, _check_orient_tree, _tree_key),
        Workload("orient-cli", _setup_orient_cli, _cli, _check_cli, lambda res: res),
    ]
}
