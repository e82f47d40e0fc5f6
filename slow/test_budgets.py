"""The largest admitted inputs of each command, each in a memory-limited child.

Every case runs ``rigidcomm`` in a fresh child whose address space is
limited to 1 GiB (``RLIMIT_AS``, set on that child only), then checks its
exit code and its peak RSS, read as ``RUSAGE_CHILDREN`` by a small
measuring process that runs nothing else; a ``chain`` case writes
``--out FILE``, whose sha256 is checked too, and a ``closure``,
``factorize``, ``euler`` or ``eval`` case its stdout's sha256.  A file
past the read cap, ``/dev/zero`` among them, must exit 3 with an empty
stdout.  Wall times are printed, not asserted: on a shared 2-vCPU host
they spread by about 2x, and the five ``chain`` cases take about 110 s
together, the others under 1 s each.

Run with ``python -m pytest -q slow`` (``-s`` shows the measurements).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rigidcomm
from rigidcomm import RigidCommutator, compose, expand, full_rigid_set, perm_to_json
from rigidcomm.cli import _READ_CAP

SRC = Path(rigidcomm.__file__).resolve().parents[1]
ADDRESS_LIMIT = 1 << 30

# runs argv[2:] with an RLIMIT_AS of argv[1] bytes, then prints its exit code,
# stdout length and sha256, stderr, wall seconds and peak RSS as one JSON line
MEASURE = """
import hashlib, json, resource, subprocess, sys, time
limit = int(sys.argv[1])
t0 = time.perf_counter()
done = subprocess.run(sys.argv[2:], capture_output=True, text=True,
                      preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
print(json.dumps({"code": done.returncode, "stdout": len(done.stdout),
                  "sha256": hashlib.sha256(done.stdout.encode()).hexdigest(), "stderr": done.stderr,
                  "wall_s": time.perf_counter() - t0,
                  "peak_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}))
"""

# chain arguments: (sha256 of the --out file, peak RSS budget in MiB); rank 20 is
# CHAIN_MAX_RANK and 2^20 the largest step count index_sequence admits, so each
# --n-range row is padded to 1048576 indices
BUDGETS = {
    ("--n", "20", "--format", "md"): (
        "bbb6ff230293277fd2c4b180259b50b07fba2aa8ffc168187d493ee910ebd132", 150),
    ("--n", "20", "--format", "csv"): (
        "82a5d544966ad0dc90c513d66fda2bbcac5bf98d5447af0298fb42de3562de1f", 150),
    ("--n", "20", "--format", "json"): (
        "bc5b40631d22bb0cb5ffa7e6af38ade0dcc84c02cc5f5912f0ead2e7d73de0bc", 150),
    ("--n-range", "3..20", "--steps", "1048576", "--format", "md"): (
        "23045937169e5cff899f378c2bcdd80760e21e08cc3ce14f9de4ed822dd9ca33", 512),
    ("--n-range", "3..20", "--steps", "1048576", "--format", "json"): (
        "3050d44895a4cd106bcc2544b4ac4198eddd27a9bb9a8a5838a88a38cb86237e", 512),
}


# verify arguments: peak RSS budget in MiB.  Rank 20 is CHAIN_MAX_RANK and rank 3
# BRUTE_MAX_RANK; verify --n 12 peaked at 159 MiB while translation-checks stored
# the 4096 elements of the rank-12 translation group, and at about 30 MiB since
VERIFY_BUDGETS = {
    ("--n", "12"): 96,
    ("--n", "20"): 512,
    ("--n", "3", "--sym-brute"): 512,
}

# the other commands at their caps: arguments, with input files named as the
# inputs fixture writes them, then (sha256 of stdout, peak RSS budget in MiB).
# Rank 14 is CLOSURE_MAX_RANK, where t_1's normal closure is the whole group less
# its 13 single-bit masks above level 1, rank 12 FACTORIZE_MAX_RANK and 64 PARTITION_MAX_TOTAL
OTHER_BUDGETS = {
    ("closure", "seed14.json"): (
        "2859966daed65e092ade6ad3bd0bcbeb50b0fe60afb205b2bd7b4c1e3deb7bd1", 512),
    ("closure", "seed14.json", "--within", "full14.json"): (
        "2859966daed65e092ade6ad3bd0bcbeb50b0fe60afb205b2bd7b4c1e3deb7bd1", 512),
    ("factorize", "perm12.json", "--set", "full12.json"): (
        "d18735756bc8d33311c85f449dda152a20fb578048290e1578b80f6be2a1608f", 512),
    ("euler", "--max-j", "64"): (
        "b96996f2efdbb46a378c57e5daa591ab90c28f73aaaded2638aea966a90ac901", 512),
}


# files past _READ_CAP, each refused with exit 3 before it is parsed, in a
# peak RSS of at most this many MiB; the input files are named as the inputs
# fixture writes them, and past.json holds one byte past the cap
PAST_CAP_MIB = 64
PAST_CAP = {
    ("closure", "/dev/zero"): "closure-zero",
    ("closure", "seed14.json", "--within", "/dev/zero"): "within-zero",
    ("factorize", "/dev/zero"): "factorize-zero",
    ("factorize", "perm12.json", "--set", "/dev/zero"): "set-zero",
    ("closure", "past.json"): "closure-past",
}

# eval's expression is one argument, and Linux refuses an argument of 128 KiB or
# more (MAX_ARG_STRLEN, its NUL included); its length, its stdout's sha256 and
# its peak RSS budget in MiB
EVAL_LENGTH = 131069
EVAL_BUDGET = ("38dc9265ec366cf6ad95874d7596002a94c0c97f0309e83cf84dbbe4a03b0216", 64)


def _measure(command: str, args: tuple, *extra: str) -> dict:
    """``python -m rigidcomm.cli command *args *extra`` under the address limit, as MEASURE reports it."""
    cli = [sys.executable, "-m", "rigidcomm.cli", command, *args, *extra]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", MEASURE, str(ADDRESS_LIMIT), *cli],
                          env=env, capture_output=True, text=True, check=True)
    run = json.loads(done.stdout)
    # input files by name, and a long argument by its length
    shown = " ".join(Path(a).name if os.sep in a else a if len(a) <= 40 else f"<{len(a)} characters>"
                     for a in args)
    print(f"{command} {shown}: {run['wall_s']:.1f} s, peak RSS {run['peak_mib']:.1f} MiB")
    return run


def _ids(args) -> str:
    return "-".join(a.lstrip("-") for a in args)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@pytest.mark.parametrize("args", BUDGETS, ids=_ids)
def test_chain_output_within_budget(tmp_path, args):
    sha, budget_mib = BUDGETS[args]
    target = tmp_path / "chain.out"
    run = _measure("chain", args, "--out", str(target))
    assert run["code"] == 0, run["stderr"]
    assert run["stdout"] == 0
    assert _sha256(target) == sha
    assert run["peak_mib"] < budget_mib, run


@pytest.mark.parametrize("args", VERIFY_BUDGETS, ids=_ids)
def test_verify_within_budget(args):
    run = _measure("verify", args)
    assert run["code"] == 0, run["stderr"]
    assert run["peak_mib"] < VERIFY_BUDGETS[args], run


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    """The input files of OTHER_BUDGETS and PAST_CAP: t_1 and the whole group at
    rank 14, at rank 12 the whole group and the product of the t_k and of the
    {k, 1}, k >= 3, and an empty rank-3 set padded with spaces past the read cap."""
    root = tmp_path_factory.mktemp("inputs")
    text = '{"n": 3, "members": []}'
    (root / "past.json").write_text(text + " " * (_READ_CAP + 1 - len(text)))
    (root / "seed14.json").write_text(json.dumps({"n": 14, "members": [[1]]}))
    for n in (14, 12):
        (root / f"full{n}.json").write_text(full_rigid_set(n).to_json())
    g = expand(RigidCommutator(1, 12))
    for m in [(1 << k) - 1 for k in range(2, 13)] + [(1 << (k - 1)) | 1 for k in range(3, 13)]:
        g = compose(g, expand(RigidCommutator(m, 12)))
    (root / "perm12.json").write_text(perm_to_json(g))
    return root


def _inputs(inputs: Path, args: tuple) -> tuple:
    """``args`` with each input file named as the inputs fixture wrote it."""
    return tuple(str(inputs / a) if a.endswith(".json") else a for a in args)


@pytest.mark.parametrize("argv", OTHER_BUDGETS, ids=_ids)
def test_other_commands_within_budget(inputs, argv):
    sha, budget_mib = OTHER_BUDGETS[argv]
    run = _measure(argv[0], _inputs(inputs, argv[1:]))
    assert run["code"] == 0, run["stderr"]
    assert run["sha256"] == sha
    assert run["peak_mib"] < budget_mib, run


def test_euler_past_its_cap_exits_3():
    run = _measure("euler", ("--max-j", "65"))
    assert (run["code"], run["stdout"]) == (3, 0), run


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
@pytest.mark.parametrize("argv", PAST_CAP, ids=PAST_CAP.values())
def test_a_file_past_the_read_cap_exits_3_within_budget(inputs, argv):
    run = _measure(argv[0], _inputs(inputs, argv[1:]))
    assert (run["code"], run["stdout"]) == (3, 0), run
    assert run["peak_mib"] < PAST_CAP_MIB, run


def _ruler_expression(length: int) -> str:
    """A bracket list of ``length`` characters: 63, then 1, 2, 1, 3, 1, 2, 1, 4, ...

    The list folds left-normed.  With [63] and S below it, the next
    generator k is the lowest index outside S, and the product keeps the
    indices of S above k and adds k: read as a binary number, S counts
    the generators after 63, so no product vanishes.  Spaces before the
    closing bracket pad the list to ``length``.
    """
    items, count = ["63"], 1
    size = len("[63]")
    while True:
        k = str((count & -count).bit_length())  # count's trailing zeros, plus one
        if size + 1 + len(k) > length:
            break
        items.append(k)
        size += 1 + len(k)
        count += 1
    return "[" + ",".join(items) + " " * (length - size) + "]"


def test_eval_of_the_longest_argument_within_budget():
    text = _ruler_expression(EVAL_LENGTH)
    assert len(text) == EVAL_LENGTH
    sha, budget_mib = EVAL_BUDGET
    run = _measure("eval", (text,))
    assert run["code"] == 0, run["stderr"]
    assert run["sha256"] == sha
    assert run["peak_mib"] < budget_mib, run
