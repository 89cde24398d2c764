"""Span recorder for the traced run.

The traced run wraps public entry points of the library's modules where
their callers look them up (module attributes and the workloads' `API`
namespace), so no library file changes and the untraced run calls the bare
functions.  Spans are (name, start, end, parent, pass, instance) tuples kept
in memory and written out when the run ends.

Layer times are summed over the instances, each taken from its fastest
traced call; counters are per pass and come from the inputs or from public
return values, never from timings.  Layers a workload does not run read 0.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from time import perf_counter

import robinson.cli
import robinson.fileio
import robinson.paths
import robinson.recognition
import robinson.stars
import robinson.uniform_orient

# metric name -> (span name, "incl" for busy time or "self" for the part no
# child span covers)
LAYER_TIMES = {
    "recognition.recognize_s": ("recognition.recognize", "incl"),
    "c1p.reduce_s": ("c1p.reduce", "incl"),
    "recognition.other_s": ("recognition.recognize", "self"),
    "core.tree_build_s": ("core.tree_build", "incl"),
    "core.count_xi_s": ("core.count_xi", "incl"),
    "core.check_s": ("core.check", "incl"),
    "uniform_orient.orient_s": ("uniform_orient.orient", "incl"),
    "uniform_orient.centroid_s": ("uniform_orient.centroid", "incl"),
    "uniform_orient.partition_s": ("uniform_orient.partition", "incl"),
    "paths.orient_s": ("paths.orient", "incl"),
    "paths.eta_s": ("paths.eta", "incl"),
    "stars.orient_s": ("stars.orient", "incl"),
    "stars.petals_s": ("stars.petals", "incl"),
    "stars.assign_s": ("stars.assign", "incl"),
    "fileio.read_s": ("fileio.read", "incl"),
    "cli.main_s": ("cli.main", "incl"),
    "cli.other_s": ("cli.main", "self"),
}

SELF = "self time in "

COUNTERS = (
    "recognition.columns_distinct",
    "uniform_orient.centroid_degree",
    "uniform_orient.partition_cells",
    "paths.eta_runs",
    "paths.dp_splits",
    "stars.petal_count",
    "fileio.bytes_read",
)


def _centroid_degree(counts, args, result):
    counts["uniform_orient.centroid_degree"] += len(args[0].adjacency[result])


def _partition_cells(counts, args, result):
    weights, n = args
    counts["uniform_orient.partition_cells"] += (n // 2 + 1) * (len(weights) + 1)


def _eta_runs(counts, args, result):
    counts["paths.eta_runs"] += len(result.compressed)


def _dp_splits(counts, args, result):
    # direction changes along the returned path orientation
    order = args[1]
    arcs = set(result[1].arcs)
    forward = [(a, b) in arcs for a, b in zip(order, order[1:])]
    counts["paths.dp_splits"] += sum(x != y for x, y in zip(forward, forward[1:]))


def _petal_count(counts, args, result):
    counts["stars.petal_count"] += len(result.petals)


def _bytes_read(counts, args, result):
    counts["fileio.bytes_read"] += os.path.getsize(args[0])


def patch_points(api):
    """(owner, attribute, span name, counter) for every wrapped entry point."""
    cli, stars, uo = robinson.cli, robinson.stars, robinson.uniform_orient
    return [
        (api, "recognize_two_way", "recognition.recognize", None),
        (robinson.recognition, "reduce_columns", "c1p.reduce", None),
        (api, "Tree", "core.tree_build", None),
        (api, "orient_all_robinson", "uniform_orient.orient", None),
        (uo, "find_centroid", "uniform_orient.centroid", _centroid_degree),
        (uo, "optimal_partition_of_neighbors", "uniform_orient.partition", _partition_cells),
        (uo, "count_xi", "core.count_xi", None),
        (stars, "count_xi", "core.count_xi", None),
        (cli, "count_xi", "core.count_xi", None),
        (cli, "check_compatible", "core.check", None),
        (cli, "path_orientation", "paths.orient", _dp_splits),
        (robinson.paths, "eta_table", "paths.eta", _eta_runs),
        (cli, "orient_star", "stars.orient", None),
        (stars, "petals", "stars.petals", _petal_count),
        (cli, "assign_star", "stars.assign", None),
        (robinson.fileio, "read_matrix", "fileio.read", _bytes_read),
        (robinson.fileio, "read_oriented_tree", "fileio.read", _bytes_read),
        (api, "cli_main", "cli.main", None),
    ]


class Recorder:
    """Collects spans and counters while installed; costs nothing otherwise."""

    def __init__(self, api):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.pass_no = -1
        self.instance = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._points = []
        for owner, attr, name, count in patch_points(api):
            if hasattr(owner, attr):
                self._points.append((owner, attr, name, count))
            else:
                print(f"trace: {getattr(owner, '__name__', 'api')}.{attr} not found", file=sys.stderr)

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.pass_no, self.instance)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, count in self._points:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, count))

    def remove(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def instance_layers(self, first: int) -> dict[int, Counter]:
        """Per instance, the LAYER_TIMES metrics over spans[first:], plus the
        self time of every span name under SELF + name."""
        child: Counter = Counter()
        for name, start, end, parent, _, _ in self.spans[first:]:
            if parent >= 0:
                child[parent] += end - start
        incl: dict[int, Counter] = {}
        self_time: dict[int, Counter] = {}
        for idx in range(first, len(self.spans)):
            name, start, end, _, _, inst = self.spans[idx]
            incl.setdefault(inst, Counter())[name] += end - start
            self_time.setdefault(inst, Counter())[name] += end - start - child[idx]
        out = {}
        for inst in incl:
            row = Counter({SELF + name: t for name, t in self_time[inst].items()})
            for m, (span, kind) in LAYER_TIMES.items():
                row[m] = (incl[inst] if kind == "incl" else self_time[inst])[span]
            out[inst] = row
        return out

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "pass", "instance")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


def with_share(layers: Counter) -> dict[str, float]:
    """Layer times plus c1p.reduce_share, the C1P part of recognition time."""
    out = {m: layers[m] for m in LAYER_TIMES}
    base = out["recognition.recognize_s"]
    out["c1p.reduce_share"] = out["c1p.reduce_s"] / base if base else 0.0
    return out
