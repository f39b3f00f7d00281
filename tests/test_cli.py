import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schreier as s
import schreier.cli as cli
from helpers import count_built_elements, count_built_words, dihedral
from schreier import CheckResult
from schreier.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
ACT = str(FIXTURES / "act3cycle.txt")
HACT = str(FIXTURES / "hact_swap.txt")


def golden(name):
    return (FIXTURES / "golden" / name).read_bytes().decode()


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# One row per golden file: its name, the exit code (a non-member exits 1) and the arguments.
GOLDEN_CASES = [
    ("check.txt", 0, ["check", ACT]),
    ("transversal.txt", 0, ["transversal", ACT]),
    ("basis.txt", 0, ["basis", ACT]),
    ("transversal_structured.txt", 0, ["transversal", ACT, "--format", "structured"]),
    ("basis_structured.txt", 0, ["basis", ACT, "--format", "structured"]),
    ("rewrite_xyx2.txt", 0, ["rewrite", ACT, "x y x^2"]),
    ("induce.txt", 0, ["induce", ACT, HACT]),
    ("member_identity.txt", 0, ["member", ACT, "1"]),
    ("member_x.txt", 1, ["member", ACT, "x"]),
]


@pytest.mark.parametrize("name,code,argv", GOLDEN_CASES, ids=[case[0] for case in GOLDEN_CASES])
def test_golden_file(capsys, name, code, argv):
    assert run(capsys, argv)[:2] == (code, golden(name))


# Prints one JSON line [exit code, stdout] per row's arguments; no assert, since -O strips them.
_GOLDEN_UNDER_O = """
import contextlib, io, json, sys
from schreier.cli import main

for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(json.dumps([code, out.getvalue()]))
"""


def test_golden_files_under_python_O():
    src = str(Path(s.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, SCHREIER_COLOR="0")
    table = json.dumps([argv for _, _, argv in GOLDEN_CASES])
    proc = subprocess.run([sys.executable, "-O", "-c", _GOLDEN_UNDER_O, table],
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(rows) == len(GOLDEN_CASES), proc.stdout
    for (name, code, _), row in zip(GOLDEN_CASES, rows):
        assert row == [code, golden(name)], name


@pytest.mark.parametrize("args,expected", [
    (["reduce", "-g", "x,y", "x x^-1 y"], "y\n"),
    (["reduce", "-g", "x", "x^3 x^-1"], "x^2\n"),
    (["reduce", "-g", "x", "1"], "1\n"),
    (["reduce", "-g", "x y", "y^-1 x x^-1 y"], "1\n"),
])
def test_reduce(capsys, args, expected):
    assert run(capsys, args) == (0, expected, "")


def test_reduce_requires_generators(capsys):
    code, _, err = run(capsys, ["reduce", "x"])
    assert code == 2 and "-g" in err
    code, _, err = run(capsys, ["reduce", "-g", ",", "x"])
    assert code == 2 and "no generator names given" in err


def test_reduce_structured(capsys):
    code, out, _ = run(capsys, ["reduce", "-g", "x,y", "--format", "structured", "x y"])
    assert code == 0 and json.loads(out) == {"word": "x y"}


def test_act_whole_permutation(capsys):
    code, out, _ = run(capsys, ["act", ACT, "x^2"])
    assert code == 0 and out == "2 0 1\n"


def test_act_single_point(capsys):
    code, out, _ = run(capsys, ["act", ACT, "x", "--point", "2"])
    assert code == 0 and out == "0\n"


def test_act_point_out_of_range(capsys):
    code, _, err = run(capsys, ["act", ACT, "x", "--point", "9"])
    assert code == 2 and "out of range" in err


@pytest.mark.parametrize("command,lines", [("transversal", 40), ("basis", 42)])
def test_listings_build_no_word(capsys, monkeypatch, tmp_path, command, lines):
    # The reps of this dihedral action reach m/2 letters; the listings spell them from the tree.
    m = 40
    path = tmp_path / "dihedral.txt"
    path.write_text(s.format_action_text(dihedral(m)), encoding="utf-8")
    trees = []

    def recording(act, base):
        table, tr = s.build_table(act, base)
        trees.append(tr)
        return table, tr

    monkeypatch.setattr(cli, "build_table", recording)
    built = count_built_words(monkeypatch)
    code, out, _ = run(capsys, [command, str(path)])
    (tr,) = trees
    assert code == 0 and len(out.splitlines()) == lines
    assert "reps" not in tr.__dict__ and built == []


@pytest.mark.parametrize("argv", [["rewrite", ACT, "x y x^2"], ["induce", ACT, HACT], ["basis", ACT],
                                  ["member", ACT, "x y x^2"]], ids=lambda argv: argv[0])
def test_commands_build_no_basis_element(capsys, monkeypatch, argv):
    bases = []

    def recording(table, transversal):
        bases.append(s.compute_basis(table, transversal))
        return bases[-1]

    monkeypatch.setattr(cli, "compute_basis", recording)
    built = count_built_elements(monkeypatch)
    code, out, _ = run(capsys, argv)
    assert code == 0 and out
    assert len(bases) == (argv[0] != "member") and built == []
    assert all("elements" not in basis.__dict__ for basis in bases)


def test_member_yes(capsys):
    code, out, _ = run(capsys, ["member", ACT, "x y x^2"])
    assert (code, out) == (0, "yes\n")


def test_member_no(capsys):
    code, out, _ = run(capsys, ["member", ACT, "x^-1"])
    assert (code, out) == (1, "no 2\n")


def test_member_structured(capsys):
    # ``is``, since 1 == True would let {"member": 1} through.
    code, out, _ = run(capsys, ["member", ACT, "--format", "structured", "x"])
    assert code == 1 and json.loads(out) == {"member": False, "final_coset": 1}
    assert json.loads(out)["member"] is False
    code, out, _ = run(capsys, ["member", ACT, "--format", "structured", "1"])
    assert code == 0 and json.loads(out) == {"member": True}
    assert json.loads(out)["member"] is True


def test_rewrite_identity(capsys):
    code, out, _ = run(capsys, ["rewrite", ACT, "1"])
    assert code == 0 and out == "1\nexpanded: 1\n"


def test_rewrite_nonmember(capsys):
    code, out, err = run(capsys, ["rewrite", ACT, "x"])
    assert code == 1 and out == ""
    assert "not in the subgroup" in err and "final coset 1" in err


def test_rewrite_structured(capsys):
    code, out, _ = run(capsys, ["rewrite", ACT, "--format", "structured", "x y^-1 x^2"])
    assert code == 0
    assert json.loads(out) == {
        "factors": [[2, -1], [1, 1]],
        "tokens": "b2^-1 b1",
        "expanded": "x y^-1 x^2",
    }


def test_induce_output_feeds_other_commands(capsys, tmp_path):
    code, out, _ = run(capsys, ["induce", ACT, HACT])
    assert code == 0
    path = tmp_path / "induced.txt"
    path.write_text(out)
    code, out, _ = run(capsys, ["transversal", str(path)])
    assert code == 0 and out.splitlines()[0] == "0 1"
    code, out, _ = run(capsys, ["basis", str(path)])
    assert code == 0 and out.splitlines()[-1] == "count 7 expected 7 degenerate 5"


def test_induce_structured(capsys):
    code, out, _ = run(capsys, ["induce", ACT, HACT, "--format", "structured"])
    assert code == 0
    record = json.loads(out)
    assert record["degree"] == 6 and record["perms"]["y"] == [1, 0, 2, 3, 4, 5]


def test_base_flag(capsys):
    code, out, _ = run(capsys, ["transversal", ACT, "--base", "1"])
    assert code == 0 and out.splitlines()[0] == "0 1"
    code, _, err = run(capsys, ["transversal", ACT, "--base", "7"])
    assert code == 2 and "out of range" in err


def test_generators_flag_warns_when_file_wins(capsys):
    code, out, err = run(capsys, ["transversal", ACT, "-g", "a,b"])
    assert code == 0 and out == golden("transversal.txt")
    assert "ignoring -g" in err


def test_bad_action_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("degree 3\ngenerators x\nperm x 1 1 0\n")
    code, _, err = run(capsys, ["basis", str(path)])
    assert code == 2 and "invalid permutation" in err


def test_an_action_file_with_a_byte_order_mark_reads_as_without(capsys, tmp_path):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "act3cycle.txt").read_bytes())
    assert run(capsys, ["transversal", str(path)]) == (0, golden("transversal.txt"), "")


def test_a_stdout_pipe_closed_after_one_line_exits_141_with_nothing_on_stderr(tmp_path):
    # About 180 kB of listing, so the child is still writing when the pipe closes.
    m = 6000
    path = tmp_path / "dihedral6000.txt"
    path.write_text(s.format_action_text(dihedral(m)))
    env = dict(os.environ, PYTHONPATH=str(Path(s.__file__).resolve().parents[1]))
    with open(tmp_path / "stderr.txt", "w+b") as err:
        # Unbuffered, so readline takes the first line off the pipe and nothing more.
        proc = subprocess.Popen([sys.executable, "-m", "schreier", "basis", str(path)], bufsize=0,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err.seek(0)
        assert (first, code, err.read()) == (b"0 1 y y\n", 141, b"")


def test_missing_file(capsys):
    code, _, err = run(capsys, ["basis", "no-such-file.txt"])
    assert code == 2 and "error:" in err


def test_bad_word(capsys):
    code, _, err = run(capsys, ["member", ACT, "x^"])
    assert code == 2 and "malformed exponent" in err
    code, _, err = run(capsys, ["member", ACT, "z"])
    assert code == 2 and "unknown generator" in err


def test_no_arguments(capsys):
    assert run(capsys, [])[0] == 2


def test_unknown_subcommand(capsys):
    assert run(capsys, ["frobnicate"])[0] == 2


def test_check_passes(capsys):
    code, out, _ = run(capsys, ["check", ACT, "--trials", "20", "--len", "4"])
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("pass ") for line in lines[:-1])
    assert lines[-1] == "checked 25 invariants: 25 passed, 0 failed"
    assert any("|B| = 4" in line for line in lines)


def test_check_structured(capsys):
    code, out, _ = run(capsys, ["check", ACT, "--trials", "10", "--format", "structured"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records[-1] == {"checked": 25, "passed": 25, "failed": 0}
    assert all(r["passed"] is True for r in records[:-1])


@pytest.mark.parametrize("flag,value", [("--trials", "-3"), ("--len", "-1")])
def test_check_rejects_negative_counts(capsys, flag, value):
    code, out, err = run(capsys, ["check", ACT, flag, value])
    assert code == 2 and out == "" and "must be non-negative" in err


def test_check_caps_the_word_length(capsys, monkeypatch):
    monkeypatch.setattr("schreier.words.MAX_WORD_LENGTH", 5)
    code, out, err = run(capsys, ["check", ACT, "--len", "6"])
    assert code == 2 and out == "" and "max_len must be at most 5, got 6" in err
    assert run(capsys, ["check", ACT, "--len", "5"])[0] == 0


def test_check_seed_determinism(capsys):
    _, out1, _ = run(capsys, ["check", ACT, "--trials", "15", "--seed", "3"])
    _, out2, _ = run(capsys, ["check", ACT, "--trials", "15", "--seed", "3"])
    assert out1 == out2


def test_check_reports_failures(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_checks", lambda *a, **k: [
        CheckResult("good", True, ""),
        CheckResult("broken", False, "something fell over"),
    ])
    code, out, _ = run(capsys, ["check", ACT])
    assert code == 1
    assert "fail broken (something fell over)" in out
    assert out.splitlines()[-1] == "checked 2 invariants: 1 passed, 1 failed"


def test_color_disabled_by_env(monkeypatch):
    monkeypatch.setenv("SCHREIER_COLOR", "0")
    monkeypatch.setattr(sys, "stdout", _FakeTty())
    assert not cli._color_enabled()


def test_color_follows_tty(monkeypatch):
    monkeypatch.delenv("SCHREIER_COLOR", raising=False)
    monkeypatch.setattr(sys, "stdout", _FakeTty())
    assert cli._color_enabled()
    monkeypatch.setattr(sys, "stdout", _FakePipe())
    assert not cli._color_enabled()


def test_paint_wraps_in_ansi(monkeypatch):
    monkeypatch.setattr(cli, "_color_enabled", lambda: True)
    assert cli._paint("yes", cli._GREEN) == "\x1b[32myes\x1b[0m"
    monkeypatch.setattr(cli, "_color_enabled", lambda: False)
    assert cli._paint("yes", cli._GREEN) == "yes"


class _FakeTty:
    def isatty(self):
        return True


class _FakePipe:
    def isatty(self):
        return False


def test_input_caps_exit_2(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr("schreier.words.MAX_WORD_LENGTH", 5)
    monkeypatch.setattr("schreier.actions.MAX_DEGREE", 6)
    code, _, err = run(capsys, ["reduce", "-g", "x", "x^6"])
    assert code == 2 and "longer than the limit of 5 letters" in err
    path = tmp_path / "empty.txt"
    path.write_text("degree 7\ngenerators\n")
    code, out, err = run(capsys, ["act", str(path), "1"])
    assert code == 2 and out == "" and "more than the limit of 6" in err
    # act3cycle has 3 cosets and hact_swap degree 2: 6 induced points.
    monkeypatch.setattr("schreier.actions.MAX_DEGREE", 5)
    code, out, err = run(capsys, ["induce", ACT, HACT])
    assert code == 2 and out == "" and "induced degree 2 x 3 is more than the limit of 5" in err
