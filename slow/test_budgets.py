"""The largest admitted inputs of each command, each in a memory-limited child.

Every case runs ``rigidcomm`` in a fresh child whose address space is
limited to 1 GiB (``RLIMIT_AS``, set on that child only), then checks its
exit code and its peak RSS, read as ``RUSAGE_CHILDREN`` by a small
measuring process that runs nothing else; a ``chain`` case writes
``--out FILE``, whose sha256 is checked too, and a ``closure``,
``factorize`` or ``euler`` case its stdout's sha256.  Wall times are
printed, not asserted: on a shared 2-vCPU host they spread by about 2x,
and the five ``chain`` cases take about 110 s together, the others
under 1 s each.

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


def _measure(command: str, args: tuple, *extra: str) -> dict:
    """``python -m rigidcomm.cli command *args *extra`` under the address limit, as MEASURE reports it."""
    cli = [sys.executable, "-m", "rigidcomm.cli", command, *args, *extra]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", MEASURE, str(ADDRESS_LIMIT), *cli],
                          env=env, capture_output=True, text=True, check=True)
    run = json.loads(done.stdout)
    shown = " ".join(Path(a).name if os.sep in a else a for a in args)  # input files by name
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
    """The input files of OTHER_BUDGETS: t_1 and the whole group at rank 14, and
    at rank 12 the whole group and the product of the t_k and of the {k, 1}, k >= 3."""
    root = tmp_path_factory.mktemp("inputs")
    (root / "seed14.json").write_text(json.dumps({"n": 14, "members": [[1]]}))
    for n in (14, 12):
        (root / f"full{n}.json").write_text(full_rigid_set(n).to_json())
    g = expand(RigidCommutator(1, 12))
    for m in [(1 << k) - 1 for k in range(2, 13)] + [(1 << (k - 1)) | 1 for k in range(3, 13)]:
        g = compose(g, expand(RigidCommutator(m, 12)))
    (root / "perm12.json").write_text(perm_to_json(g))
    return root


@pytest.mark.parametrize("argv", OTHER_BUDGETS, ids=_ids)
def test_other_commands_within_budget(inputs, argv):
    sha, budget_mib = OTHER_BUDGETS[argv]
    run = _measure(argv[0], tuple(str(inputs / a) if a.endswith(".json") else a for a in argv[1:]))
    assert run["code"] == 0, run["stderr"]
    assert run["sha256"] == sha
    assert run["peak_mib"] < budget_mib, run


def test_euler_past_its_cap_exits_3():
    run = _measure("euler", ("--max-j", "65"))
    assert (run["code"], run["stdout"]) == (3, 0), run
