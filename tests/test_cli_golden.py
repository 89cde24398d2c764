"""Golden CLI output: the exact stdout and exit code of every subcommand on
small fixed inputs, in text and --json.  Pins field order and formatting,
which the other CLI tests only read back through a parser."""

from __future__ import annotations

import random
import sys
import threading

import pytest

from robinson.cli import build_parser, main

FILES = {
    "chain.matrix": "3\n0 1 2\n1 0 1\n2 1 0\n",
    "asym.matrix": "3\n0 1 2\n1 0 1\n0.5 1 0\n",
    "const5.matrix": "5\n" + "".join(
        " ".join("0" if i == j else "1" for j in range(5)) + "\n" for i in range(5)
    ),
    "const9.matrix": "9\n" + "".join(
        " ".join("0" if i == j else "1" for j in range(9)) + "\n" for i in range(9)
    ),
    # symmetric, and no center splits its petals 2/2
    "sym5.matrix": "5\n0 1 3 1 1\n1 0 1 2 2\n3 1 0 1 2\n1 2 1 0 3\n1 2 2 3 0\n",
    # a 4-cycle of 1s with 3s across: not Robinson as a whole
    "square.matrix": "4\n0 1 3 1\n1 0 1 3\n3 1 0 1\n1 3 1 0\n",
    "petal.matrix": "4\n0 2 2 2\n2 0 1 2\n2 1 0 2\n2 2 2 0\n",
    "bad_check.matrix": "3\n0 2 1\n2 0 1\n1 1 0\n",
    "tree5.tree": "5\n0 1\n1 2\n1 3\n3 4\n",
    "line3.orient": "3\n0 1\n1 2\n",
    "yes.bin": "3 2\n1 0\n1 1\n0 1\n",
    "no.bin": "3 3\n1 1 0\n0 1 1\n1 0 1\n",
    "f.cnf": "p cnf 3 1\n1 2 3 0\n",
    "g.graph": "3\n0 1\n1 2\n",
}

CASES = {
    "recognize-yes": "recognize chain.matrix",
    "recognize-no": "recognize asym.matrix",
    "orient-tree": "orient tree const5.matrix tree5.tree",
    "orient-star-best": "orient star sym5.matrix",
    "orient-star-center": "orient star const5.matrix --center 2",
    "orient-star-bad-center": "orient star const5.matrix --center 9",
    "orient-path": "orient path sym5.matrix --order 0,1,2,3,4",
    "assign-star-yes": "assign star const5.matrix --in 2 --out 2",
    "assign-star-no": "assign star sym5.matrix --in 2 --out 2",
    "petals": "petals petal.matrix --center 0",
    "gen-sat": "gen sat f.cnf --out-prefix sat",
    "gen-subset": "gen subset g.graph --out-prefix sub",
    "gen-assign": "gen assign const5.matrix --kappa 3 --out-prefix asn",
    "oracle-orient": "oracle orient const5.matrix tree5.tree",
    "oracle-recognize-yes": "oracle recognize chain.matrix",
    "oracle-recognize-no": "oracle recognize asym.matrix",
    "oracle-recognize-refused": "oracle recognize const9.matrix",
    "oracle-c1p-yes": "oracle c1p yes.bin",
    "oracle-c1p-no": "oracle c1p no.bin",
    "oracle-subset-yes": "oracle subset chain.matrix --kappa 3",
    "oracle-subset-no": "oracle subset square.matrix --kappa 4",
    "oracle-subset-refused": "oracle subset square.matrix --kappa 2 --budget 1",
    "check-yes": "check chain.matrix line3.orient",
    "check-no": "check bad_check.matrix line3.orient",
}

# case -> (exit code, text stdout, --json stdout)
GOLDEN = {
    'assign-star-no': (
        1,
        'answer: NO\n',
        '{"answer": "NO"}\n',
    ),
    'assign-star-yes': (
        0,
        'answer: YES\norientation: 1>0 2>0 0>3 0>4\ncenter: 0\nin: 1 2\nout: 3 4\n',
        '{"answer": "YES", "orientation": [[1, 0], [2, 0], [0, 3], [0, 4]], "center": 0, "in": [1, 2], "out": [3, 4]}\n',
    ),
    'check-no': (
        1,
        'answer: NO\nxi: 3\npair: 0 2\n',
        '{"answer": "NO", "xi": 3, "pair": [0, 2]}\n',
    ),
    'check-yes': (
        0,
        'answer: YES\nxi: 3\n',
        '{"answer": "YES", "xi": 3}\n',
    ),
    'gen-assign': (
        0,
        'answer: YES\norientation: 0>1 1>2 3>2 3>4\nkappa: 3\n',
        '{"answer": "YES", "orientation": [[0, 1], [1, 2], [3, 2], [3, 4]], "kappa": 3}\n',
    ),
    'gen-sat': (
        0,
        'answer: YES\nkappa: 370\n',
        '{"answer": "YES", "kappa": 370}\n',
    ),
    'gen-subset': (
        0,
        'answer: YES\nkappa: 11\n',
        '{"answer": "YES", "kappa": 11}\n',
    ),
    'oracle-c1p-no': (
        1,
        'answer: NO\n',
        '{"answer": "NO"}\n',
    ),
    'oracle-c1p-yes': (
        0,
        'answer: YES\norder: 0 1 2\n',
        '{"answer": "YES", "order": [0, 1, 2]}\n',
    ),
    'oracle-orient': (
        0,
        'answer: YES\nxi: 9\norientation: 0>1 2>1 1>3 3>4\n',
        '{"answer": "YES", "xi": 9, "orientation": [[0, 1], [2, 1], [1, 3], [3, 4]]}\n',
    ),
    'oracle-recognize-no': (
        1,
        'answer: NO\n',
        '{"answer": "NO"}\n',
    ),
    'oracle-recognize-refused': (
        3,
        '',
        '',
    ),
    'oracle-recognize-yes': (
        0,
        'answer: YES\norder: 0 1 2\n',
        '{"answer": "YES", "order": [0, 1, 2]}\n',
    ),
    'oracle-subset-no': (
        1,
        'answer: NO\n',
        '{"answer": "NO"}\n',
    ),
    'oracle-subset-refused': (
        3,
        '',
        '',
    ),
    'oracle-subset-yes': (
        0,
        'answer: YES\nsubset: 0 1 2\n',
        '{"answer": "YES", "subset": [0, 1, 2]}\n',
    ),
    'orient-path': (
        0,
        'answer: YES\nxi: 5\norientation: 0>1 2>1 3>2 3>4\n',
        '{"answer": "YES", "xi": 5, "orientation": [[0, 1], [2, 1], [3, 2], [3, 4]]}\n',
    ),
    'orient-star-bad-center': (
        2,
        '',
        '',
    ),
    'orient-star-best': (
        0,
        'answer: YES\nxi: 4\norientation: 0>1 0>2 0>3 0>4\ncenter: 0\n',
        '{"answer": "YES", "xi": 4, "orientation": [[0, 1], [0, 2], [0, 3], [0, 4]], "center": 0}\n',
    ),
    'orient-star-center': (
        0,
        'answer: YES\nxi: 8\norientation: 0>2 1>2 2>3 2>4\ncenter: 2\n',
        '{"answer": "YES", "xi": 8, "orientation": [[0, 2], [1, 2], [2, 3], [2, 4]], "center": 2}\n',
    ),
    'orient-tree': (
        0,
        'answer: YES\nxi: 9\norientation: 0>1 2>1 1>3 3>4\n',
        '{"answer": "YES", "xi": 9, "orientation": [[0, 1], [2, 1], [1, 3], [3, 4]]}\n',
    ),
    'petals': (
        0,
        'answer: YES\ncenter: 0\npetals: 1 2 | 3\n',
        '{"answer": "YES", "center": 0, "petals": [[1, 2], [3]]}\n',
    ),
    'recognize-no': (
        1,
        'answer: NO\n',
        '{"answer": "NO"}\n',
    ),
    'recognize-yes': (
        0,
        'answer: YES\norder: 0 1 2\n',
        '{"answer": "YES", "order": [0, 1, 2]}\n',
    ),
}


def run_case(tmp_path, capsys, monkeypatch, case, *flags):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code = main([*flags, *CASES[case].split()])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(tmp_path, capsys, monkeypatch, case):
    code, text, json_text = GOLDEN[case]
    assert run_case(tmp_path, capsys, monkeypatch, case) == (code, text)
    assert run_case(tmp_path, capsys, monkeypatch, case, "--json") == (code, json_text)


def test_one_process_runs_a_mixed_sequence(tmp_path, capsys, monkeypatch):
    # main() shares one parser across calls: every case, in text and --json
    # in a seeded mixed order, with a usage error and a help request after
    # each, gives its golden output, and the error and help text equal
    # those of a parser built fresh
    def exits(parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        return exc.value.code, capsys.readouterr()

    fresh = build_parser.__wrapped__().parse_args
    usage_argv, help_argv = ["orient", "star"], ["assign", "star", "--help"]
    usage, help_ = exits(fresh, usage_argv), exits(fresh, help_argv)
    assert usage[0] == 2 and usage[1].err.startswith("usage: robinson orient star")
    assert help_[0] == 0 and help_[1].out.startswith("usage: robinson assign star")
    runs = [(case, flags) for case in CASES for flags in ((), ("--json",))] * 2
    random.Random(19).shuffle(runs)
    for case, flags in runs:
        code, text, json_text = GOLDEN[case]
        got = run_case(tmp_path, capsys, monkeypatch, case, *flags)
        assert got == (code, json_text if flags else text), (case, flags)
        assert exits(main, usage_argv) == usage
        assert exits(main, help_argv) == help_


def test_shared_parser_parses_alike_across_threads():
    argvs = [[*flags, *CASES[case].split()] for case in sorted(CASES) for flags in ((), ("--json",))]
    want = [vars(build_parser.__wrapped__().parse_args(argv)) for argv in argvs]
    parser = build_parser()
    mismatches = []

    def work():
        for _ in range(10):
            for argv, ns in zip(argvs, want):
                if vars(parser.parse_args(argv)) != ns:
                    mismatches.append(argv)

    threads = [threading.Thread(target=work) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []
