"""Command-line surface: exit codes, file formats, text/JSON parity,
orient-then-check round trips."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robinson
from robinson import DissimilaritySpace, OrientedTree, Tree
from robinson.cli import main
from robinson.fileio import (
    read_matrix,
    read_oriented_tree,
    read_tree,
    write_matrix,
    write_oriented_tree,
    write_tree,
)
from support import random_space, random_tree

CHAIN3 = DissimilaritySpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
ASYM3 = DissimilaritySpace([[0, 1, 2], [1, 0, 1], [0.5, 1, 0]])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_constant_matrix(path, n, value=1.0):
    d = np.full((n, n), value)
    np.fill_diagonal(d, 0.0)
    write_matrix(DissimilaritySpace(d), path)


def parse_text(out):
    fields = {}
    for line in out.strip().splitlines():
        key, _, val = line.partition(": ")
        fields[key] = val
    return fields


class TestFileFormats:
    def test_matrix_round_trip(self, tmp_path):
        rng = random.Random(1)
        space = random_space(rng, 5)
        path = tmp_path / "m.matrix"
        write_matrix(space, path)
        again = read_matrix(path)
        assert np.array_equal(space.d, again.d)

    def test_matrix_comments_ignored(self, tmp_path):
        path = tmp_path / "m.matrix"
        path.write_text("# a comment\n2\n0 1\n1 0\n")
        assert read_matrix(path).n == 2

    def test_bad_diagonal_rejected(self, tmp_path):
        path = tmp_path / "m.matrix"
        path.write_text("2\n1 1\n1 0\n")
        from robinson import InputError

        with pytest.raises(InputError):
            read_matrix(path)

    def test_tree_round_trip(self, tmp_path):
        t = random_tree(random.Random(2), 7)
        path = tmp_path / "t.tree"
        write_tree(t, path)
        assert read_tree(path).edges == t.edges

    def test_oriented_tree_round_trip(self, tmp_path):
        t = Tree(3, [(0, 1), (1, 2)])
        ot = OrientedTree(t, [(1, 0), (1, 2)])
        path = tmp_path / "t.orient"
        write_oriented_tree(ot, path)
        assert read_oriented_tree(path).arcs == ot.arcs


class TestExitCodes:
    def test_recognize_yes(self, tmp_path, capsys):
        path = tmp_path / "m.matrix"
        write_matrix(CHAIN3, path)
        code, out, _ = run(capsys, "recognize", str(path))
        assert code == 0
        assert parse_text(out)["answer"] == "YES"
        assert parse_text(out)["order"] in ("0 1 2", "2 1 0")

    def test_recognize_no(self, tmp_path, capsys):
        path = tmp_path / "m.matrix"
        write_matrix(ASYM3, path)
        code, out, _ = run(capsys, "recognize", str(path))
        assert code == 1
        assert parse_text(out)["answer"] == "NO"

    def test_input_error(self, tmp_path, capsys):
        path = tmp_path / "m.matrix"
        path.write_text("2\n0 1\n")
        code, _, err = run(capsys, "recognize", str(path))
        assert code == 2
        assert "error" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, message", [
        ("0\n", "dissimilarity space needs at least one point"),
        ("2\n0 1\n1 0 5\n", "matrix file: row of length 3, expected 2"),
        ("2\n0\n1 0\n", "matrix file: row of length 1, expected 2"),
        ("2\n0 1\n1 x\n", "matrix file: bad row '1 x'"),
        ("2\n0 1\n", "matrix file: expected 2 rows, found 1"),
        ("2\n0 1\n1 0\n0 0\n", "matrix file: expected 2 rows, found 3"),
        ("2\n0 1_0\n1 0\n", "matrix file: bad row '0 1_0'"),  # float() would read 10
        ("\u0661\n0\n", "matrix file: bad header line '\u0661'"),  # int() would read 1
        ("1_0\n" + ("0 " * 9 + "0\n") * 10, "matrix file: bad header line '1_0'"),
    ], ids=["header-0", "ragged", "short-first-row", "bad-token", "too-few-rows",
            "too-many-rows", "underscore", "header-arabic-digit", "header-underscore"])
    def test_malformed_matrix_message(self, tmp_path, capsys, text, message):
        path = tmp_path / "m.matrix"
        path.write_text(text)
        assert run(capsys, "recognize", str(path)) == (2, "", f"error: {message}\n")

    def test_one_point_matrix(self, tmp_path, capsys):
        path = tmp_path / "m.matrix"
        path.write_text("1\n0\n")
        code, out, _ = run(capsys, "recognize", str(path))
        assert code == 0
        assert parse_text(out) == {"answer": "YES", "order": "0"}

    def test_size_guard_refusal(self, tmp_path, capsys):
        path = tmp_path / "m.matrix"
        write_constant_matrix(path, 9)
        code, _, err = run(capsys, "oracle", "recognize", str(path))
        assert code == 3
        assert "refused" in err

    def test_negative_subset_budget(self, tmp_path, capsys):
        # malformed input, not a refusal: exit 2, not 3
        path = tmp_path / "m.matrix"
        write_matrix(CHAIN3, path)
        argv = ["oracle", "subset", str(path), "--kappa", "2", "--budget", "-1"]
        assert run(capsys, *argv) == (2, "", "error: budget -1 must be nonnegative\n")

    def test_recognition_size_guard(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("segment columns built")

        monkeypatch.setattr(robinson.recognition, "_segment_columns", refuse)
        n = robinson.recognition.MAX_POINTS + 1
        path = tmp_path / "m.matrix"
        write_constant_matrix(path, n)
        code, out, err = run(capsys, "recognize", str(path))
        assert code == 3
        assert out == ""
        assert f"refused: instance of {n} points exceeds the limit of {n - 1}" in err

    def test_path_orientation_size_guard(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("breaking pairs computed")

        monkeypatch.setattr(robinson.paths, "_breaks", refuse)
        n = robinson.paths.MAX_POINTS + 1
        path = tmp_path / "m.matrix"
        write_constant_matrix(path, n)
        code, out, err = run(capsys, "orient", "path", str(path), "--order", ",".join(map(str, range(n))))
        assert code == 3
        assert out == ""
        assert f"refused: path orientation of {n} points exceeds the limit of {n - 1}" in err

    def test_verify_premise_size_guard(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("tree paths walked")

        n = robinson.uniform_orient.PREMISE_MAX_POINTS + 1
        mpath, tpath = tmp_path / "m.matrix", tmp_path / "t.tree"
        write_constant_matrix(mpath, n)
        write_tree(Tree(n, [(i, i + 1) for i in range(n - 1)]), tpath)
        # the guard inside verify_all_paths_robinson fires before any walk
        monkeypatch.setattr(Tree, "adjacency", property(refuse))
        code, out, err = run(capsys, "orient", "tree", str(mpath), str(tpath), "--verify-premise")
        assert code == 3
        assert out == ""
        assert f"refused: premise verification of {n} points exceeds the limit of {n - 1}" in err

    def test_star_search_size_guard(self, tmp_path, capsys):
        # only the searches over every center are guarded; a given center
        # reads its own neighbours
        n = robinson.stars.MAX_POINTS + 1
        path = tmp_path / "m.matrix"
        write_constant_matrix(path, n)
        m, a = str(path), (n - 1) // 2
        counts = ["--in", str(a), "--out", str(n - 1 - a)]
        for argv in (["orient", "star", m], ["assign", "star", m, *counts]):
            code, out, err = run(capsys, *argv)
            assert code == 3
            assert out == ""
            assert f"refused: star search over {n} points exceeds the limit of {n - 1}" in err
        assert run(capsys, "orient", "star", m, "--center", "0")[0] == 0
        assert run(capsys, "petals", m, "--center", "0")[0] == 0

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "recognize", "/nonexistent/m.matrix")
        assert code == 2

    # int() would read the Arabic-Indic header as 2 rows
    @pytest.mark.parametrize("text", ["3 x\n1 1 0\n", "2 2\n1 x\n0 1\n", "\u0662 2\n1 1\n0 1\n"])
    def test_malformed_binary_matrix(self, tmp_path, capsys, text):
        path = tmp_path / "b.matrix"
        path.write_text(text)
        code, _, err = run(capsys, "oracle", "c1p", str(path))
        assert code == 2
        assert "error" in err

    def test_malformed_dimacs_header(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf x 1\n1 2 3 0\n")
        code, _, err = run(capsys, "gen", "sat", str(path), "--out-prefix", str(tmp_path / "inst"))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "name, text, command",
        [("f.cnf", "p cnf 1000 0\n", "sat"), ("g.graph", "2500\n0 1\n", "subset")],
    )
    def test_generator_size_guard(self, tmp_path, capsys, name, text, command):
        # 5,001 points each, one over reductions.MAX_POINTS: without the guard
        # each run would build a 200 MB matrix instead of refusing
        path = tmp_path / name
        path.write_text(text)
        prefix = tmp_path / "inst"
        code, out, err = run(capsys, "gen", command, str(path), "--out-prefix", str(prefix))
        assert code == 3
        assert out == ""
        assert "refused" in err and "5001 points" in err
        assert not list(tmp_path.glob("inst*"))

    def test_removed_restricted_splits_flag(self, tmp_path, capsys):
        path = tmp_path / "m.matrix"
        write_matrix(CHAIN3, path)
        with pytest.raises(SystemExit) as exc:
            main(["orient", "path", str(path), "--order", "0,1,2", "--restricted-splits"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [["recognize", "{m}"], ["orient", "star", "{m}"], ["check", "{m}", "{t}"],
         ["petals", "{m}", "--center", "0"]],
    )
    def test_non_utf8_matrix_file(self, tmp_path, capsys, argv):
        matrix = tmp_path / "m.matrix"
        matrix.write_bytes(b"3\n0 1 \xff\n1 0 1\n1 1 0\n")
        tree = tmp_path / "t.orient"
        tree.write_text("3\n0 1\n1 2\n")
        code, out, err = run(capsys, *(a.format(m=matrix, t=tree) for a in argv))
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_negative_dimacs_count(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf -3 0\n")
        code, out, err = run(capsys, "gen", "sat", str(path), "--out-prefix", str(tmp_path / "inst"))
        assert code == 2
        assert out == ""
        assert "bad DIMACS header: 'p cnf -3 0'" in err

    def test_second_dimacs_header(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 3 1\n1 2 3 0\np cnf 5 1\n")
        code, out, err = run(capsys, "gen", "sat", str(path), "--out-prefix", str(tmp_path / "inst"))
        assert code == 2
        assert out == ""
        assert "error: second DIMACS header: 'p cnf 5 1'" in err
        assert not list(tmp_path.glob("inst*"))

    def test_non_utf8_cnf_file(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_bytes(b"p cnf 3 1\n1 2 \xff 0\n")
        code, out, err = run(capsys, "gen", "sat", str(path), "--out-prefix", str(tmp_path / "inst"))
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_module_entry_point_exit_code(self, tmp_path):
        assert self._run_module(tmp_path, "robinson.cli") == 1

    def test_package_entry_point_exit_code(self, tmp_path):
        assert self._run_module(tmp_path, "robinson") == 1

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("space, code", [(CHAIN3, 0), (ASYM3, 1)], ids=["YES", "NO"])
    def test_closed_stdout_keeps_answer_code(self, tmp_path, space, code, unbuffered):
        # a reader that closes the pipe before the report is written, as
        # `robinson recognize M | head -c 0` would
        path = tmp_path / "m.matrix"
        write_matrix(space, path)
        env = self._module_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "robinson", "recognize", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == code
        assert "Traceback" not in err and "Exception ignored" not in err
        assert "elapsed_ms" in err

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv, fault, code", [
        (["recognize", "{chain}"], "closed-stderr", 0),
        (["recognize", "{chain}"], "readonly-stderr", 0),
        (["recognize", "{chain}"], "full-stderr", 0),
        (["recognize", "{missing}"], "closed-stderr", 2),
        (["oracle", "recognize", "{nine}"], "closed-stderr", 3),
        (["recognize", "{chain}"], "closed-stdout", 0),
        (["recognize", "{chain}"], "full-stdout", 2),
    ], ids=["YES-closed-stderr", "YES-readonly-stderr", "YES-full-stderr", "error-closed-stderr",
            "refused-closed-stderr", "YES-closed-stdout", "YES-full-stdout"])
    def test_stream_fault_keeps_exit_code(self, tmp_path, argv, fault, code, unbuffered):
        # a stream closed as `2>&-` or `>&-` leaves it (Python sets it to
        # None), open read-only (where a shell script that execs python,
        # such as a version-manager shim, held its own text on the closed
        # fd), or on a full device, as `> /dev/full`: a diagnostic never
        # changes the code, a closed stream drops its lines, and a report
        # that cannot be written exits 2
        how, _, which = fault.partition("-")
        if how == "full" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        chain, nine = tmp_path / "chain.matrix", tmp_path / "nine.matrix"
        write_matrix(CHAIN3, chain)
        write_constant_matrix(nine, robinson.oracle.TWO_WAY_MAX_N + 1)
        paths = {"chain": chain, "nine": nine, "missing": tmp_path / "missing.matrix"}
        env = self._module_env()
        env["PYTHONUNBUFFERED"] = "1" if unbuffered else ""
        fd = 1 if which == "stdout" else 2
        sinks = {"closed": (os.devnull, "wb"), "readonly": (chain, "rb"), "full": ("/dev/full", "wb")}
        with open(*sinks[how]) as sink:
            streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, which: sink}
            proc = subprocess.run(
                [sys.executable, "-m", "robinson", *(a.format(**paths) for a in argv)],
                env=env, timeout=60, preexec_fn=(lambda: os.close(fd)) if how == "closed" else None,
                **streams,
            )
        assert proc.returncode == code
        if which == "stderr":
            assert proc.stdout.decode() == ("answer: YES\norder: 0 1 2\n" if code == 0 else "")
            return
        err = proc.stderr.decode()
        if how == "closed":
            assert err.startswith("elapsed_ms: ") and err.count("\n") == 1
        else:
            assert err == "error: cannot write report: [Errno 28] No space left on device\n"

    @staticmethod
    def _module_env():
        src = str(Path(robinson.__file__).resolve().parent.parent)
        return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    @classmethod
    def _run_module(cls, tmp_path, module):
        """Exit code of `python -m module recognize` on a NO matrix."""
        path = tmp_path / "m.matrix"
        write_matrix(ASYM3, path)
        proc = subprocess.run(
            [sys.executable, "-m", module, "recognize", str(path)],
            capture_output=True, text=True, env=cls._module_env(), timeout=60,
        )
        assert parse_text(proc.stdout)["answer"] == "NO"
        return proc.returncode


class TestCommands:
    def test_orient_star_constant(self, tmp_path, capsys):
        path = tmp_path / "m.matrix"
        write_constant_matrix(path, 5)
        code, out, _ = run(capsys, "orient", "star", str(path), "--center", "0")
        assert code == 0
        assert parse_text(out)["xi"] == "8"

    def test_orient_star_tries_all_centers(self, tmp_path, capsys):
        path = tmp_path / "m.matrix"
        write_constant_matrix(path, 5)
        code, out, _ = run(capsys, "orient", "star", str(path))
        assert code == 0
        fields = parse_text(out)
        assert fields["xi"] == "8"
        assert fields["center"] == "0"

    def test_orient_tree_and_check_round_trip(self, tmp_path, capsys):
        mpath, tpath, opath = (tmp_path / x for x in ("m.matrix", "t.tree", "t.orient"))
        write_constant_matrix(mpath, 6)
        write_tree(random_tree(random.Random(3), 6), tpath)
        code, out, _ = run(capsys, "--json", "orient", "tree", str(mpath), str(tpath))
        assert code == 0
        payload = json.loads(out)
        t = read_tree(tpath)
        ot = OrientedTree(t, [tuple(a) for a in payload["orientation"]])
        write_oriented_tree(ot, opath)
        code, out, _ = run(capsys, "check", str(mpath), str(opath))
        assert code == 0
        assert parse_text(out)["xi"] == str(payload["xi"])

    def test_orient_path(self, tmp_path, capsys):
        path = tmp_path / "m.matrix"
        write_matrix(CHAIN3, path)
        code, out, _ = run(capsys, "orient", "path", str(path), "--order", "0,1,2")
        assert code == 0
        assert parse_text(out)["xi"] == "3"

    @pytest.mark.parametrize("order, message", [
        ("0,x,2", "bad order '0,x,2'"),
        ("0,0,1", "order must be a permutation of all vertices"),
        ("0,1", "order must be a permutation of all vertices"),
        ("0,1,3", "order must be a permutation of all vertices"),
    ], ids=["non-integer", "repeat", "short", "out-of-range"])
    def test_orient_path_bad_order(self, tmp_path, capsys, order, message):
        path = tmp_path / "m.matrix"
        write_matrix(CHAIN3, path)
        assert run(capsys, "orient", "path", str(path), "--order", order) == (2, "", f"error: {message}\n")

    def test_check_says_no_on_incompatible(self, tmp_path, capsys):
        mpath, opath = tmp_path / "m.matrix", tmp_path / "t.orient"
        write_matrix(DissimilaritySpace([[0, 2, 1], [2, 0, 1], [1, 1, 0]]), mpath)
        write_oriented_tree(
            OrientedTree(Tree(3, [(0, 1), (1, 2)]), [(0, 1), (1, 2)]), opath
        )
        code, out, _ = run(capsys, "check", str(mpath), str(opath))
        assert code == 1
        assert parse_text(out)["answer"] == "NO"

    def test_assign_star(self, tmp_path, capsys):
        path = tmp_path / "m.matrix"
        write_constant_matrix(path, 5)
        code, out, _ = run(capsys, "assign", "star", str(path), "--in", "2", "--out", "2")
        assert code == 0
        fields = parse_text(out)
        assert len(fields["in"].split()) == 2

    def test_petals(self, tmp_path, capsys):
        path = tmp_path / "m.matrix"
        d = np.full((4, 4), 2.0)
        np.fill_diagonal(d, 0.0)
        d[1, 2] = d[2, 1] = 1.0
        write_matrix(DissimilaritySpace(d), path)
        code, out, _ = run(capsys, "petals", str(path), "--center", "0")
        assert code == 0
        assert parse_text(out)["petals"] == "1 2 | 3"

    def test_gen_sat_files(self, tmp_path, capsys):
        dimacs = tmp_path / "f.cnf"
        dimacs.write_text("p cnf 3 1\n1 2 3 0\n")
        prefix = tmp_path / "inst"
        code, out, _ = run(capsys, "gen", "sat", str(dimacs), "--out-prefix", str(prefix))
        assert code == 0
        assert parse_text(out)["kappa"] == "370"
        assert read_matrix(f"{prefix}.matrix").n == 65
        assert read_tree(f"{prefix}.tree").n == 65
        assert (tmp_path / "inst.kappa").read_text().strip() == "370"
        roles = (tmp_path / "inst.roles").read_text().splitlines()
        assert roles[0] == "0 y"
        assert len(roles) == 65

    def test_gen_sat_satlib_trailer(self, tmp_path, capsys):
        # the `%` and `0` that end a SATLIB file add no clause: the same
        # report and the same four files as the formula without them
        formula = "p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n"
        reports, files = [], []
        for name, text in (("plain", formula), ("satlib", formula + "%\n0\n")):
            dimacs = tmp_path / f"{name}.cnf"
            dimacs.write_text(text)
            prefix = tmp_path / name
            code, out, _ = run(capsys, "gen", "sat", str(dimacs), "--out-prefix", str(prefix))
            assert code == 0
            reports.append(out)
            files.append([Path(f"{prefix}.{ext}").read_bytes()
                          for ext in ("matrix", "tree", "kappa", "roles")])
        assert reports[0] == reports[1]
        assert files[0] == files[1]

    def test_gen_subset_files(self, tmp_path, capsys):
        graph = tmp_path / "g.graph"
        graph.write_text("2\n0 1\n")
        prefix = tmp_path / "sub"
        code, out, _ = run(capsys, "gen", "subset", str(graph), "--out-prefix", str(prefix))
        assert code == 0
        assert parse_text(out)["kappa"] == "5"
        assert read_matrix(f"{prefix}.matrix").n == 5

    def test_gen_assign_files(self, tmp_path, capsys):
        mpath = tmp_path / "m.matrix"
        write_constant_matrix(mpath, 5)
        prefix = tmp_path / "asn"
        code, out, _ = run(
            capsys, "gen", "assign", str(mpath), "--kappa", "3", "--out-prefix", str(prefix)
        )
        assert code == 0
        ot = read_oriented_tree(f"{prefix}.orient")
        assert ot.arcs == ((0, 1), (1, 2), (3, 2), (3, 4))

    def test_oracle_c1p(self, tmp_path, capsys):
        path = tmp_path / "b.matrix"
        path.write_text("3 3\n1 1 0\n0 1 1\n1 0 1\n")
        code, out, _ = run(capsys, "oracle", "c1p", str(path))
        assert code == 1

    def test_oracle_subset(self, tmp_path, capsys):
        path = tmp_path / "m.matrix"
        write_matrix(CHAIN3, path)
        code, out, _ = run(capsys, "oracle", "subset", str(path), "--kappa", "3")
        assert code == 0
        assert parse_text(out)["subset"] == "0 1 2"


class TestJsonTextParity:
    def test_same_values_both_renderings(self, tmp_path, capsys):
        path = tmp_path / "m.matrix"
        write_constant_matrix(path, 5)
        code, text_out, _ = run(capsys, "orient", "star", str(path), "--center", "0")
        code, json_out, _ = run(capsys, "--json", "orient", "star", str(path), "--center", "0")
        fields = parse_text(text_out)
        payload = json.loads(json_out)
        assert fields["answer"] == payload["answer"]
        assert int(fields["xi"]) == payload["xi"]
        assert fields["center"] == str(payload["center"])
        arcs = [f"{u}>{v}" for u, v in payload["orientation"]]
        assert fields["orientation"].split() == arcs

    def test_elapsed_goes_to_stderr(self, tmp_path, capsys):
        path = tmp_path / "m.matrix"
        write_matrix(CHAIN3, path)
        _, out, err = run(capsys, "recognize", str(path))
        assert "elapsed_ms" not in out
        assert "elapsed_ms" in err


class TestTracedEntryPoints:
    """The benchmark's traced run wraps these module attributes; each command
    must still reach them there, or its per-layer times silently read 0."""

    def test_commands_call_wrapped_entry_points(self, tmp_path, capsys, monkeypatch):
        calls = {}

        def count(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for name in ("orient_star", "assign_star", "path_orientation", "check_compatible", "count_xi"):
            count(robinson.cli, name)
        for name in ("read_matrix", "read_oriented_tree"):
            count(robinson.fileio, name)
        # reached by orient star alone, once for the star it builds
        count(robinson.uniform_orient, "optimal_partition_of_neighbors")
        mpath, opath = tmp_path / "m.matrix", tmp_path / "t.orient"
        write_matrix(CHAIN3, mpath)
        opath.write_text("3\n0 1\n1 2\n")
        m = str(mpath)
        for argv in (["orient", "star", m], ["assign", "star", m, "--in", "1", "--out", "1"],
                     ["orient", "path", m, "--order", "0,1,2"], ["check", m, str(opath)]):
            assert run(capsys, "--json", *argv)[0] == 0
        assert calls == {
            "read_matrix": 4, "orient_star": 1, "assign_star": 1, "path_orientation": 1,
            "read_oriented_tree": 1, "check_compatible": 1, "count_xi": 1,
            "optimal_partition_of_neighbors": 1,
        }
