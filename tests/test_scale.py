"""The CLI at scale: one fresh ``python -m schreier`` per row, under a time limit, two rows under a max-RSS ceiling.

The benchmark's workloads run once each at seed 0, and must match their recorded outputs.

Each row's input is written once per module.  A fresh wrapper interpreter
runs ``timeout`` on the command and prints the max RSS of its children as
the last line of stderr: a child started straight from pytest would count
pytest's own memory in it.
"""

import fnmatch
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import schreier as s
from helpers import dihedral, make_action, random_perm_images

_PEAK = ("import resource, subprocess, sys; code = subprocess.run(sys.argv[1:]).returncode; "
         "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr); sys.exit(code)")
WORD = "x^7001 y x^3000 y x^-5000 y x^-999"  # a member, along tree paths of thousands of letters
ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


def _random(rng, names, m):
    return make_action(names, [random_perm_images(rng, m) for _ in names])


def _canonical(rng, letters):
    """A canonical text over x, y and z of at least ``letters`` letters, no name twice in a row."""
    factors, total, last = [], 0, None
    while total < letters:
        name, k = rng.choice([n for n in "xyz" if n != last]), rng.choice((1, rng.randint(2, 100)))
        factors.append(name if k == 1 else f"{name}^{rng.choice((k, -k))}")
        total, last = total + k, name
    return " ".join(factors)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """What the rows' commands name: the path of each action file, the canonical text, ``a^L`` and ``b7 b9``'s images.

    ``a^L`` is a member of the stabilizer of 0 in ``random2x100000``, for L
    the length of 0's cycle under a.  ``b7_b9`` is the image row of ``b7 b9``
    in ``h4x100001``, composed from its two perm rows.
    """
    rng = random.Random(1)
    wide = _random(random.Random(0), "ab", 100_000)
    h_wide = _random(rng, [f"b{k}" for k in range(100_001)], 4)
    texts = {name: s.format_action_text(act) for name, act in [
        ("random5x2000", _random(random.Random(0), "abcde", 2000)),
        ("dihedral4000", dihedral(4000)),
        ("induce5x2000", _random(rng, "abcde", 2000)),
        ("h4x8001", _random(rng, [f"b{k}" for k in range(8001)], 4)),
        ("dihedral20000", dihedral(20_000)),
        ("random2x100000", wide),
        ("h4x100001", h_wide)]}
    texts["h4x8001bad"] = texts["h4x8001"][:-1].rpartition("\n")[0] + "\nperm b8000 0 0 1 2\n"
    folder = tmp_path_factory.mktemp("scale")
    values = {}
    for name, text in texts.items():
        values[name] = str(folder / f"{name}.txt")
        Path(values[name]).write_text(text, encoding="utf-8")
    a = wide.gen_perms[0].images
    p, length = a[0], 1
    while p:
        p, length = a[p], length + 1
    b7, b9 = h_wide.gen_perms[7].images, h_wide.gen_perms[9].images
    return dict(values, canonical=_canonical(random.Random(0), 20_000), a_cycle=f"a^{length}",
                cancelling=" ".join(["x^1000000 x^-1000000"] * 1000 + ["y"]), b7_b9=" ".join(str(b9[p]) for p in b7))


ROWS = [
    # timeout in s, command, exit status, stdout and stderr as fnmatch patterns, max RSS ceiling in MB
    pytest.param(120, ["check", "{random5x2000}"], 0, "*", "*", None, id="check random 5x2000"),
    # 37.8 MB read under Python 3.11 on x86-64 Linux, plus 10 MB for other interpreters' start-up.
    pytest.param(120, ["check", "{dihedral4000}"], 0, "*", "*", 48, id="check dihedral 4000"),
    pytest.param(60, ["induce", "{induce5x2000}", "{h4x8001}"], 0, "*", "*", None, id="induce wide H-action"),
    # The last perm row is not a bijection: one linear read, then exit 2 naming its line.
    pytest.param(60, ["induce", "{induce5x2000}", "{h4x8001bad}"], 2, "*", "*line 8003*", None,
                 id="induce bad last row"),
    pytest.param(30, ["rewrite", "{dihedral20000}", WORD], 0, f"*\nexpanded: {WORD}\n", "*", None,
                 id="rewrite dihedral 20000"),
    pytest.param(60, ["basis", "{random2x100000}"], 0, "*\ncount 100001 expected 100001 degenerate 99999\n", "*",
                 None, id="basis random 2x100000"),
    # 72.9 MB read under Python 3.11 on x86-64 Linux, plus 10 MB for other interpreters' start-up.
    pytest.param(60, ["rewrite", "{random2x100000}", "{a_cycle}"], 0, "*\nexpanded: {a_cycle}\n", "*", 83,
                 id="rewrite random 2x100000"),
    # 100,001 generators of degree 4: the word inverts neither of its generators, nor any other.
    # 72.3 MB read under Python 3.11 on x86-64 Linux, plus 10 MB for other interpreters' start-up.
    pytest.param(30, ["act", "{h4x100001}", "b7 b9"], 0, "{b7_b9}\n", "*", 83, id="act wide H-action"),
    pytest.param(30, ["reduce", "-g", "x,y,z", "{canonical}"], 0, "{canonical}\n", "*", None,
                 id="reduce canonical 20000"),
    # 2,001 tokens, runs of a million letters that cancel in pairs: folded as they are read, no letter built.
    # 16.6 MB read under Python 3.11 on x86-64 Linux, plus 10 MB for other interpreters' start-up.
    pytest.param(30, ["reduce", "-g", "x,y", "{cancelling}"], 0, "y\n", "*", 27, id="reduce cancelling runs"),
    pytest.param(30, ["reduce", "-g", "x,y", "x^600000 x^400001"], 2, "", "*longer than the limit*", None,
                 id="reduce over the limit"),
]


@pytest.mark.parametrize("timeout,command,code,out,err,ceiling", ROWS)
def test_scale(inputs, timeout, command, code, out, err, ceiling):
    args = [arg.format(**inputs) for arg in command]
    assert all(len(arg.encode()) < 100_000 for arg in args)  # Linux takes at most 128 kB an argument
    env = dict(os.environ, PYTHONPATH=str(Path(s.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _PEAK, "timeout", str(timeout), sys.executable, "-m", "schreier",
                           *args], capture_output=True, text=True, env=env)
    stderr, _, peak = proc.stderr[:-1].rpartition("\n")
    mb = int(peak) / 1024
    print(f"max RSS {mb:.1f} MB")
    assert proc.returncode == code, stderr[-2000:]
    assert fnmatch.fnmatchcase(proc.stdout, out.format(**inputs)), proc.stdout[-200:]
    assert fnmatch.fnmatchcase(stderr, err), stderr[-2000:]
    assert ceiling is None or mb <= ceiling, f"max RSS {mb:.1f} MB is over the {ceiling} MB ceiling"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_workloads_match_their_recorded_outputs_at_seed_0(workload):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
