"""End-to-end runs of the command line front end.

Everything goes through main(argv) in-process; stdout is captured and
compared against frozen renderings, including the exit-code contract
(0 ok, 1 mismatch, 2 bad input, 3 scale guard, 141 stdout closed).  Two
kinds of case run in a child process: a step count past every chain,
under a memory limit, so a regression that pads the rows fails the
child, not pytest; and broken pipes, which need the child's own streams.
"""

import functools
import hashlib
import json
import os
import re
import resource
import select
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import rigidcomm
from rigidcomm import (
    RigidCommutator,
    compose,
    expand,
    full_rigid_set,
    perm_to_json,
    translation_normalizer_set,
)
from rigidcomm import chain as chainmod
from rigidcomm import _kernel, cli, saturated
from rigidcomm.cli import main

C = RigidCommutator.from_elements

# rank-by-step log2 index matrix, ranks 3..6, steps 1..14
MATRIX_ROWS = {
    3: [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    4: [1, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    5: [1, 2, 4, 1, 2, 2, 1, 1, 1, 1, 0, 0, 0, 0],
    6: [1, 2, 4, 7, 2, 4, 4, 1, 1, 2, 2, 2, 2, 1],
}


# ── chain ────────────────────────────────────────────────────────────────────

def test_chain_md_single_rank(capsys):
    assert main(["chain", "--n", "3"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "| i | dims (levels 3..1) | log2 order | log2 index |"
    assert lines[2] == "| 0 | 3, 2, 1 | 6 | 3 |"
    assert lines[3] == "| 1 | 4, 2, 1 | 7 | 1 |"
    assert len(lines) == 4


def test_chain_csv_single_rank(capsys):
    assert main(["chain", "--n", "3", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "i,dim_3,dim_2,dim_1,log2_order,index_log2\n"
        "0,3,2,1,6,3\n"
        "1,4,2,1,7,1\n"
    )


def test_chain_json_single_rank(capsys):
    assert main(["chain", "--n", "4", "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["n"] == 4
    assert d["reached_full"] is True
    assert [s["index_log2"] for s in d["steps"]] == [6, 1, 2, 1, 1]


def test_chain_output_is_byte_stable(capsys):
    main(["chain", "--n", "5"])
    first = capsys.readouterr().out
    main(["chain", "--n", "5"])
    assert capsys.readouterr().out == first


def test_chain_rank6_table_shape(capsys):
    assert main(["chain", "--n", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + 22
    assert lines[2] == "| 0 | 6, 5, 4, 3, 2, 1 | 21 | 15 |"
    assert lines[-1] == "| 21 | 32, 16, 8, 4, 2, 1 | 63 | 1 |"


def test_chain_matrix_md(capsys):
    assert main(["chain", "--n-range", "3..6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("| n | i=1 | i=2 |")
    assert len(lines) == 2 + 4
    for offset, n in enumerate((3, 4, 5, 6)):
        cells = [c.strip() for c in lines[2 + offset].strip("|").split("|")]
        assert cells == [str(n)] + [str(v) for v in MATRIX_ROWS[n]]


def test_chain_matrix_csv_and_steps(capsys):
    assert main(["chain", "--n-range", "4..5", "--steps", "6", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "n,i1,i2,i3,i4,i5,i6\n"
        "4,1,2,1,1,0,0\n"
        "5,1,2,4,1,2,2\n"
    )


def test_chain_matrix_json(capsys):
    assert main(["chain", "--n-range", "3..4", "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["steps"] == 14
    assert d["rows"]["3"] == MATRIX_ROWS[3]
    assert d["rows"]["4"] == MATRIX_ROWS[4]


# separator rows, the cell layout of every row and the JSON indentation, byte
# for byte
@pytest.mark.parametrize("argv, want", [
    (["chain", "--n", "4"], """\
| i | dims (levels 4..1) | log2 order | log2 index |
|---|---|---|---|
| 0 | 4, 3, 2, 1 | 10 | 6 |
| 1 | 5, 3, 2, 1 | 11 | 1 |
| 2 | 6, 4, 2, 1 | 13 | 2 |
| 3 | 7, 4, 2, 1 | 14 | 1 |
| 4 | 8, 4, 2, 1 | 15 | 1 |
"""),
    (["chain", "--n-range", "3..5", "--steps", "4"], """\
| n | i=1 | i=2 | i=3 | i=4 |
|---|---|---|---|---|
| 3 | 1 | 0 | 0 | 0 |
| 4 | 1 | 2 | 1 | 1 |
| 5 | 1 | 2 | 4 | 1 |
"""),
    (["chain", "--n-range", "3..4", "--format", "json"], """\
{
  "steps": 14,
  "rows": {
    "3": [
      1,
      0,
      0,
      0,
      0,
      0,
      0,
      0,
      0,
      0,
      0,
      0,
      0,
      0
    ],
    "4": [
      1,
      2,
      1,
      1,
      0,
      0,
      0,
      0,
      0,
      0,
      0,
      0,
      0,
      0
    ]
  }
}
"""),
    (["euler", "--max-j", "4", "--format", "json"], """\
{
  "b": [
    0,
    0,
    0,
    1,
    1
  ],
  "a": [
    0,
    0,
    0,
    1,
    2
  ]
}
"""),
    # a zero-step matrix is a table of one column
    (["chain", "--n-range", "3..4", "--steps", "0"], "| n |\n|---|\n| 3 |\n| 4 |\n"),
])
def test_table_and_json_bytes_frozen(capsys, argv, want):
    assert main(argv) == 0
    assert capsys.readouterr().out == want


def test_chain_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    assert main(["chain", "--n", "3", "--format", "csv", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().startswith("i,dim_3,")


@pytest.mark.parametrize("argv", [
    ["chain", "--n", "3"],
    ["chain", "--n-range", "3..4"],
    ["euler", "--max-j", "3"],
])
def test_out_to_unwritable_path_exits_2(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x.md"
    assert main([*argv, "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"{argv[0]}: ")
    assert not target.exists()


def test_chain_timings_go_to_stderr(capsys):
    assert main(["chain", "--n", "3", "--timings"]) == 0
    captured = capsys.readouterr()
    assert "step 0:" in captured.err
    assert "step" not in captured.out


# integer arguments out of their range, which exit 2 with "<command>: ... must be an integer"
BAD_INTEGERS = (
    ["chain", "--n", "5", "--steps", "-1"],
    ["eval", "[2,1]", "--n", "0"],
    ["euler", "--max-j", "-1"],
    ["verify", "--n", "0"],
    ["verify", "--n", "-1"],
)

# chain arguments that exit 2
BAD_CHAIN_ARGS = (
    [],
    ["--n", "3", "--n-range", "3..4"],
    ["--n-range", "nonsense"],
    ["--n", "0"],
    ["--n", "-2"],
    ["--n-range", "0..3"],
    ["--n-range", "5..3"],
    ["--n", "5", "--steps", "-1"],
    ["--n-range", "3..5", "--steps", "-1"],
)


def test_chain_argument_errors(capsys):
    # bad input exits 2 with one line on stderr and nothing on stdout
    for argv in (*(["chain", *args] for args in BAD_CHAIN_ARGS), *BAD_INTEGERS):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.count("\n") == 1, argv
        if argv in BAD_INTEGERS:
            assert re.match(rf"{argv[0]}: .*must be an integer", captured.err), captured.err


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_a_refused_chain_writes_nothing(tmp_path, capsys, fmt, to_file):
    # the output is opened, and its first line made, only after the first chain ran:
    # a bad argument or a bad lowest rank writes nothing (a step count past every
    # chain is refused in a child, below)
    target = tmp_path / "chain.out"
    out = ["--out", str(target)] if to_file else []
    for args in BAD_CHAIN_ARGS:
        assert main(["chain", *args, "--format", fmt, *out]) == 2, args
        captured = capsys.readouterr()
        assert captured.out == "", args
        assert captured.err.count("\n") == 1, args
        assert not target.exists(), args


def _tables_from_steps(report):
    """The md and csv tables of ``chain --n``, built from the report's step records."""
    n = report.n
    md = [["i", f"dims (levels {n}..1)", "log2 order", "log2 index"]]
    md += [[s.i, ", ".join(str(d) for d in reversed(s.level_dims)), s.log2_order, s.index_log2]
           for s in report.steps]
    csv = [["i", *(f"dim_{j}" for j in range(n, 0, -1)), "log2_order", "index_log2"]]
    csv += [[s.i, *reversed(s.level_dims), s.log2_order, s.index_log2] for s in report.steps]
    md_lines = ["| " + " | ".join(map(str, row)) + " |" for row in md]
    md_lines.insert(1, "|---" * 4 + "|")
    return "".join(line + "\n" for line in md_lines), "".join(",".join(map(str, row)) + "\n" for row in csv)


@pytest.mark.parametrize("n", range(1, 11))
def test_chain_tables_match_the_step_records(n, capsys):
    outputs = []
    for fmt in ("md", "csv"):
        assert main(["chain", "--n", str(n), "--format", fmt]) == 0
        outputs.append(capsys.readouterr().out)
    assert tuple(outputs) == _tables_from_steps(chainmod.run_chain(n))


@pytest.mark.parametrize("argv", [
    ["--n", "7", "--format", "md"],
    ["--n", "7", "--format", "csv"],
    ["--n", "7", "--format", "json"],
    ["--n", "7", "--timings"],
    ["--n-range", "3..6", "--format", "md"],
    ["--n-range", "3..6", "--format", "json", "--timings"],
])
def test_chain_outputs_build_no_step_records(monkeypatch, capsys, argv):
    reports = []
    run_chain = chainmod.run_chain

    def recording_run_chain(*args, **kwargs):
        reports.append(run_chain(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(chainmod, "run_chain", recording_run_chain)
    assert main(["chain", *argv]) == 0
    assert capsys.readouterr().out
    assert reports
    assert all("steps" not in report.__dict__ for report in reports)


def test_chain_timings_leave_stdout_unchanged(capsys):
    for fmt in ("md", "json"):
        assert main(["chain", "--n", "5", "--format", fmt]) == 0
        plain = capsys.readouterr()
        assert main(["chain", "--n", "5", "--format", fmt, "--timings"]) == 0
        timed = capsys.readouterr()
        assert timed.out == plain.out
        assert plain.err == ""
        assert "step 1: " in timed.err and " rescanned" in timed.err
    steps = json.loads(timed.out)["steps"]
    assert all(not {"rescanned", "cover", "products"} & set(step) for step in steps)
    step1 = next(line for line in timed.err.splitlines() if line.startswith("step 1: "))
    assert step1.endswith(" products")
    cover, products = (int(field.split()[0]) for field in step1.split(", ")[-2:])
    # the cover of rank 5's baseline: t_1, {2}, {3,1}, {4,2,1} and {5,3,2,1}
    assert cover == chainmod.run_chain(5, 1).steps[1].cover == 5
    assert products > 0


def test_chain_range_timings_print_every_step_of_every_rank(capsys):
    # the lines of --n, each prefixed with its rank, in rank order, and each
    # rank's summary line, its step "total", after its steps
    line = re.compile(r"n=(\d+) (?:step (\d+): \d+\.\d{4}s, \d+ rescanned, \d+ cover, \d+ products"
                      r"|(total): \d+\.\d{4}s \(start \d+\.\d{4}s, lone \d+\.\d{4}s, scalar \d+\.\d{4}s, "
                      r"block \d+\.\d{4}s\), \d+ steps \(lone \d+, scalar \d+, block \d+\), \d+ rescanned, "
                      r"\d+ products, \d+ minor faults, peak RSS \d+\.\d MiB)")
    want = [(n, str(i)) for n in (3, 4, 5) for i in [*range(chainmod.run_chain(n, 4).terminated_at + 1), "total"]]
    assert len(want) == 3 + 6 + 6  # rank 3 is full after one step, rank 4 after four
    for fmt in ("md", "json"):
        argv = ["chain", "--n-range", "3..5", "--steps", "4", "--format", fmt]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main([*argv, "--timings"]) == 0
        timed = capsys.readouterr()
        assert timed.out == plain.out
        assert plain.err == ""
        matches = [line.fullmatch(text) for text in timed.err.splitlines()]
        assert all(matches), timed.err
        assert [(int(m[1]), m[2] or m[3]) for m in matches] == want


# the totals line of --timings, its seconds and steps split by kernel
SUMMARY = re.compile(
    r"total: (?P<seconds>\d+\.\d{4})s \(start (?P<start_s>\d+\.\d{4})s, lone (?P<lone_s>\d+\.\d{4})s, "
    r"scalar (?P<scalar_s>\d+\.\d{4})s, block (?P<block_s>\d+\.\d{4})s\), (?P<steps>\d+) steps "
    r"\(lone (?P<lone>\d+), scalar (?P<scalar>\d+), block (?P<block>\d+)\), (?P<rescanned>\d+) rescanned, "
    r"(?P<products>\d+) products, (?P<faults>\d+) minor faults, peak RSS (?P<peak_mib>\d+\.\d) MiB"
)


@pytest.mark.parametrize("fmt", ["csv", "md", "json"])
def test_chain_timings_end_with_a_summary_line(fmt, capsys):
    # stdout is byte for byte the same; stderr ends with the run's totals
    assert main(["chain", "--n", "7", "--format", fmt]) == 0
    plain = capsys.readouterr()
    assert main(["chain", "--n", "7", "--format", fmt, "--timings"]) == 0
    timed = capsys.readouterr()
    assert timed.out == plain.out and plain.err == ""
    *step_lines, last = timed.err.splitlines()
    report = chainmod.run_chain(7)
    assert len(step_lines) == report.terminated_at + 1 == 44
    summary = SUMMARY.fullmatch(last)
    assert summary, last
    seconds = sum(float(text.split(": ")[1].split("s,")[0]) for text in step_lines)
    assert abs(float(summary["seconds"]) - seconds) <= 1e-4 * len(step_lines)
    assert [int(summary[k]) for k in ("steps", "rescanned", "products")] == [
        43, sum(s.rescanned for s in report.steps), sum(s.products for s in report.steps)
    ]
    assert float(summary["peak_mib"]) > 1  # the interpreter and numpy alone take more


def test_chain_timings_split_the_totals_by_kernel(capsys):
    # each step is counted once, by the kernel its counts name, and the seconds
    # of the start and the three kernels sum to the total
    assert main(["chain", "--n", "7", "--format", "csv", "--timings"]) == 0
    summary = SUMMARY.fullmatch(capsys.readouterr().err.splitlines()[-1])
    assert summary
    steps = chainmod.run_chain(7).steps[1:]
    kernels = [_kernel._step_kernel(s.rescanned, s.cover) for s in steps]
    lone, scalar = kernels.count("lone"), kernels.count("scalar")
    assert [int(summary[k]) for k in ("lone", "scalar", "block")] == [lone, scalar, len(steps) - lone - scalar]
    assert int(summary["lone"]) + int(summary["scalar"]) + int(summary["block"]) == int(summary["steps"])
    split = sum(float(summary[k]) for k in ("start_s", "lone_s", "scalar_s", "block_s"))
    assert abs(split - float(summary["seconds"])) <= 2e-4  # each figure is rounded to 0.1 ms
    assert min(lone, scalar, len(steps) - lone - scalar) > 0


def test_chain_timings_count_each_ranks_faults(monkeypatch, capsys):
    # ru_minflt is read just before and after each rank's run_chain, so each totals
    # line reads the faults of its own run, whatever the ranks before it took
    taken, run_chain, getrusage = [0], chainmod.run_chain, resource.getrusage

    def faulting_run_chain(n, *args, **kwargs):
        taken[0] += 1000 * n
        return run_chain(n, *args, **kwargs)

    def usage(who):
        return types.SimpleNamespace(ru_minflt=taken[0], ru_maxrss=getrusage(who).ru_maxrss)

    monkeypatch.setattr(chainmod, "run_chain", faulting_run_chain)
    monkeypatch.setattr(resource, "getrusage", usage)
    assert main(["chain", "--n-range", "3..5", "--format", "csv", "--timings"]) == 0
    totals = [line.split(" ", 1) for line in capsys.readouterr().err.splitlines() if " total: " in line]
    assert [(prefix, int(SUMMARY.fullmatch(line)["faults"])) for prefix, line in totals] == [
        ("n=3", 3000), ("n=4", 4000), ("n=5", 5000)]
    assert main(["chain", "--n", "6", "--timings"]) == 0
    assert SUMMARY.fullmatch(capsys.readouterr().err.splitlines()[-1])["faults"] == "6000"


def test_chain_and_verify_scale_guard(capsys):
    # the guard trips before any chain work, so these return at once
    assert main(["chain", "--n", "40"]) == 3
    assert main(["chain", "--n-range", "3..40"]) == 3
    assert main(["verify", "--n", "40"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("scale guard") == 3


SRC = Path(rigidcomm.__file__).resolve().parents[1]
ADDRESS_LIMIT = 1 << 30


def _run_limited(argv):
    """``python -m rigidcomm.cli`` with ``argv`` in a child whose address space is limited
    to 1 GiB (``RLIMIT_AS``, set on the child only), as ``slow/test_budgets.py`` runs it."""
    return subprocess.run(
        [sys.executable, "-m", "rigidcomm.cli", *argv], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_LIMIT, ADDRESS_LIMIT)),
    )


def test_chain_matrix_refuses_a_step_count_past_every_chain(tmp_path):
    # the rows would be padded with 10^12 zeros; the guard trips before anything is
    # written, and a regression that pads them fails the child instead of exhausting pytest
    target = tmp_path / "chain.out"
    for fmt in ("md", "csv", "json"):
        for out in ([], ["--out", str(target)]):
            done = _run_limited(["chain", "--n-range", "3..4", "--steps", str(10**12), "--format", fmt, *out])
            assert done.returncode == 3, (fmt, out, done.stderr)
            assert done.stdout == "", (fmt, out)
            assert done.stderr.count("\n") == 1, (fmt, out, done.stderr)
            assert done.stderr.startswith("scale guard: step count"), (fmt, out, done.stderr)
            assert not target.exists(), (fmt, out)


def _child(argv, **streams):
    """``python -m rigidcomm.cli`` with ``argv`` in a child process, its streams as given."""
    return subprocess.Popen([sys.executable, "-m", "rigidcomm.cli", *argv],
                            env=dict(os.environ, PYTHONPATH=str(SRC)), **streams)


def _closed_pipe() -> int:
    """The write end of a pipe whose reader is already gone."""
    read, write = os.pipe()
    os.close(read)
    return write


def test_a_closed_stdout_ends_the_command_quietly():
    # the reader takes one byte of a multi-megabyte chain and closes its end, as
    # `| head -c 1` does: exit 141, as a shell reports for SIGPIPE, and nothing on
    # stderr, no "Exception ignored" line from the shutdown flush either
    child = _child(["chain", "--n", "12", "--format", "json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.read(1) == b"{"
    child.stdout.close()
    assert (child.communicate(timeout=60)[1], child.returncode) == (b"", 141)
    # a reader gone before a one-line output is flushed
    write = _closed_pipe()
    child = _child(["eval", "[[6,5,4,3],[2,1]]"], stdout=write, stderr=subprocess.PIPE)
    os.close(write)
    assert (child.communicate(timeout=60)[1], child.returncode) == (b"", 141)


def test_a_broken_pipe_on_out_or_stderr_exits_2(tmp_path):
    # --out to a fifo whose reader takes one byte and goes: bad output, exit 2
    fifo = tmp_path / "chain.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so the child's open for writing does not wait
    child = _child(["chain", "--n", "12", "--format", "json", "--out", str(fifo)],
                   stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert select.select([reader], [], [], 60)[0], "the child wrote nothing to the fifo"
        assert os.read(reader, 1) == b"{"
    finally:
        os.close(reader)
    out, err = child.communicate(timeout=60)
    assert (out, err, child.returncode) == (b"", b"chain: [Errno 32] Broken pipe\n", 2)
    # stderr's reader gone before the first timings line: exit 2, with stdout still open
    write = _closed_pipe()
    child = _child(["chain", "--n", "5", "--timings"], stdout=subprocess.PIPE, stderr=write)
    os.close(write)
    assert (child.communicate(timeout=60)[0], child.returncode) == (b"", 2)


@pytest.mark.parametrize("argv", [["chain", "--n", "21"], ["closure", "/dev/zero"], ["verify", "--n", "25"]],
                         ids=["chain", "closure", "verify"])
def test_a_scale_guard_exits_3_whatever_stderr_is(argv):
    # the guard's line goes to a stderr whose reader is gone: still exit 3, nothing on stdout
    write = _closed_pipe()
    child = _child(argv, stdout=subprocess.PIPE, stderr=write)
    os.close(write)
    assert (child.communicate(timeout=60)[0], child.returncode) == (b"", 3)


# ── eval ─────────────────────────────────────────────────────────────────────

def test_eval_nested_expression(capsys):
    assert main(["eval", "[[6,5,4,3],[2,1]]"]) == 0
    assert capsys.readouterr().out == "[6,5,4,3,2]\n"


def test_eval_punctured_form(capsys):
    assert main(["eval", "6^{2,1}"]) == 0
    assert capsys.readouterr().out == "[6,5,4,3]\n"


def test_eval_with_cycles(capsys):
    # [2,1] pairs consecutive points; the bare generator [1] pairs halves
    assert main(["eval", "[2,1]", "--n", "2", "--perm"]) == 0
    assert capsys.readouterr().out == "[2,1]\n(1, 2)(3, 4)\n"
    assert main(["eval", "[1]", "--n", "2", "--perm"]) == 0
    assert capsys.readouterr().out == "[1]\n(1, 3)(2, 4)\n"


def test_eval_identity_result(capsys):
    assert main(["eval", "[[2,1],[2,1]]"]) == 0
    assert capsys.readouterr().out == "[]\n"


def test_eval_bad_expression(capsys):
    # nesting past the recursion limit is bad input too, not a crash
    for expr in ("[oops]", "[" * 1200 + "1" + "]" * 1200):
        assert main(["eval", expr]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "eval:" in captured.err


def test_eval_scale_guard(capsys):
    # the permutation is built before anything is printed
    for argv in (["[20,19]"], ["[2,1]", "--n", "13"]):
        assert main(["eval", *argv, "--perm"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "scale guard" in captured.err


# ── euler ────────────────────────────────────────────────────────────────────

def test_euler_md(capsys):
    assert main(["euler", "--max-j", "5"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "| j | 0 | 1 | 2 | 3 | 4 | 5 |\n"
        "|---|---|---|---|---|---|---|\n"
        "| b_j | 0 | 0 | 0 | 1 | 1 | 2 |\n"
        "| a_j | 0 | 0 | 0 | 1 | 2 | 4 |\n"
    )


def test_euler_csv_default_width(capsys):
    assert main(["euler", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "b,0,0,0,1,1,2,3,4,5,7,9,11,14,17,21"
    assert lines[2] == "a,0,0,0,1,2,4,7,11,16,23,32,43,57,74,95"


def test_euler_json(capsys):
    assert main(["euler", "--max-j", "3", "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d == {"b": [0, 0, 0, 1], "a": [0, 0, 0, 1]}


def test_euler_rejects_negative(capsys):
    assert main(["euler", "--max-j", "-2"]) == 2
    capsys.readouterr()


def test_euler_scale_guard(capsys):
    # the cap on the total is checked before any partition is enumerated
    assert main(["euler", "--max-j", "1000000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("scale guard: ")


# ── closure ──────────────────────────────────────────────────────────────────

def test_closure_default_ambient(tmp_path, capsys):
    seed = tmp_path / "seed.json"
    for n, members, want in (
        (3, [[3]], [[3], [3, 1], [3, 2], [3, 2, 1]]),
        (4, [[3, 1]], [[3, 1], [3, 2], [3, 2, 1], [4, 3], [4, 3, 1], [4, 3, 2], [4, 3, 2, 1]]),
    ):
        seed.write_text(json.dumps({"n": n, "members": members}))
        assert main(["closure", str(seed)]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["n"] == n
        assert d["members"] == want


def test_closure_within_smaller_ambient(tmp_path, capsys):
    seed = tmp_path / "seed.json"
    ambient = tmp_path / "ambient.json"
    # the rank-4 translation normalizer: a proper ambient is checked for closure, and
    # the closure of [3, 1] inside it takes rounds of products
    normalizer = [[1], [2], [2, 1], [3, 2], [3, 1], [3, 2, 1], [4, 3, 2], [4, 3, 1], [4, 2, 1], [4, 3, 2, 1]]
    for members, within, want in (
        ([[4, 3, 2, 1]], translation_normalizer_set(4).to_json(), [[4, 3, 2, 1]]),
        ([[3, 1]], json.dumps({"n": 4, "members": normalizer}),
         [[3, 1], [3, 2], [3, 2, 1], [4, 3, 1], [4, 3, 2], [4, 3, 2, 1]]),
    ):
        seed.write_text(json.dumps({"n": 4, "members": members}))
        ambient.write_text(within)
        assert main(["closure", str(seed), "--within", str(ambient)]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["members"] == want


def test_closure_seed_outside_ambient(tmp_path, capsys):
    seed = tmp_path / "seed.json"
    seed.write_text('{"n": 3, "members": [[3]]}')
    ambient = tmp_path / "ambient.json"
    ambient.write_text(translation_normalizer_set(3).to_json())
    assert main(["closure", str(seed), "--within", str(ambient)]) == 2
    assert "closure:" in capsys.readouterr().err


def test_closure_out_to_unwritable_path_exits_2(tmp_path, capsys):
    seed = tmp_path / "seed.json"
    seed.write_text('{"n": 3, "members": [[3]]}')
    target = tmp_path / "missing" / "closure.json"
    assert main(["closure", str(seed), "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("closure: ")
    assert not target.exists()


def test_closure_missing_file(capsys):
    assert main(["closure", "/nonexistent/seed.json"]) == 2
    capsys.readouterr()


def test_closure_scale_guard(tmp_path, capsys, monkeypatch):
    # the guard trips before the seed is saturated or the ambient is built
    seed = tmp_path / "seed.json"
    seed.write_text('{"n": 40, "members": []}')
    assert main(["closure", str(seed)]) == 3
    # an ambient past the cap is refused before its closure is checked,
    # which for these 2^14 - 1 members would take seconds
    monkeypatch.setattr(_kernel, "_close", lambda *args: pytest.fail("closure checked"))
    seed.write_text('{"n": 3, "members": [[3]]}')
    ambient = tmp_path / "ambient.json"
    ambient.write_text(json.dumps({"n": 20, "members": [hex(m) for m in range(1, 1 << 14)]}))
    assert main(["closure", str(seed), "--within", str(ambient)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("scale guard") == 2


@pytest.mark.parametrize("text", [
    '{"n": true, "members": []}',
    '{"n": 2.7, "members": []}',
    '{"n": null, "members": []}',
    '{"n": 3, "members": "0x3"}',
    '{"n": 3, "members": 7}',
    pytest.param("[" * 100000 + "]" * 100000, id="nested-100000"),
])
def test_closure_rejects_malformed_json(tmp_path, capsys, text):
    seed = tmp_path / "seed.json"
    seed.write_text(text)
    assert main(["closure", str(seed)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("closure: ")


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
@pytest.mark.parametrize("argv", [
    ["closure", "/dev/zero"],
    ["closure", "seed.json", "--within", "/dev/zero"],
    ["factorize", "/dev/zero"],
    ["factorize", "id.json", "--set", "/dev/zero"],
    ["closure", "past.json"],
    ["closure", "seed.json", "--within", "past.json"],
    ["factorize", "id.json", "--set", "past.json"],
], ids=["closure-zero", "within-zero", "factorize-zero", "set-zero", "closure-past", "within-past", "set-past"])
def test_a_file_past_the_read_cap_exits_3(tmp_path, monkeypatch, capsys, argv):
    # read to one byte past the cap and refused before parsing, with nothing on stdout
    monkeypatch.chdir(tmp_path)
    (tmp_path / "seed.json").write_text('{"n": 3, "members": [[3]]}')
    (tmp_path / "id.json").write_text('{"n": 2, "images": [1, 2, 3, 4]}')
    text = '{"n": 3, "members": []}'
    (tmp_path / "past.json").write_text(text + " " * (cli._READ_CAP + 1 - len(text)))
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"scale guard: file {argv[-1]} at byte {cli._READ_CAP + 1} exceeds the cap {cli._READ_CAP}\n"


def test_the_largest_admitted_set_file_is_read(tmp_path, monkeypatch, capsys):
    # the whole rank-14 group as closure writes it is the largest set file a guard
    # admits, and a file of exactly the cap's bytes is read too
    monkeypatch.chdir(tmp_path)
    largest = full_rigid_set(saturated.CLOSURE_MAX_RANK).to_json(indent=2) + "\n"
    assert len(largest) <= cli._READ_CAP < 2 * len(largest)
    (tmp_path / "full.json").write_text(largest)
    assert main(["closure", "full.json"]) == 0
    assert capsys.readouterr().out == largest  # the whole group is its own closure
    text = '{"n": 3, "members": []}'
    (tmp_path / "at.json").write_text(text + " " * (cli._READ_CAP - len(text)))
    assert main(["closure", "at.json"]) == 0
    assert capsys.readouterr().out == saturated.SaturatedSet(3).to_json(indent=2) + "\n"


# a hex member with a sign, "_", spaces or a non-ASCII digit, which int(entry, 16) would read
@pytest.mark.parametrize("entry", ["\u0663", "0x1_0", " 0x3 ", "+0x3"],
                         ids=["arabic-indic-digit", "underscore", "spaces", "sign"])
def test_set_files_refuse_loose_hex_members(tmp_path, capsys, entry):
    sett = tmp_path / "set.json"
    sett.write_text(json.dumps({"n": 5, "members": [entry]}))
    path = tmp_path / "id.json"
    path.write_text(json.dumps({"n": 5, "images": list(range(1, 33))}))
    for argv in (["closure", str(sett)], ["factorize", str(path), "--set", str(sett)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{argv[0]}: bad hex member {entry!r}\n"


# ── factorize ────────────────────────────────────────────────────────────────

@pytest.mark.parametrize("text", [
    '{"n": true, "images": [2, 1]}',
    '{"n": 1.0, "images": [2, 1]}',
    '{"n": null, "images": [2, 1]}',
    '{"n": 1, "images": "21"}',
    '{"n": 1, "images": [null, 1]}',
    '{"n": 1, "images": [1, 99999999999999999999999]}',
    pytest.param("[" * 100000 + "]" * 100000, id="nested-100000"),
])
def test_factorize_rejects_malformed_json(tmp_path, capsys, text):
    path = tmp_path / "g.json"
    path.write_text(text)
    assert main(["factorize", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("factorize: ")


def test_factorize_product(tmp_path, capsys):
    g = compose(expand(C([3, 2, 1], 3)), expand(C([3, 2], 3)))
    path = tmp_path / "g.json"
    path.write_text(perm_to_json(g))
    assert main(["factorize", str(path)]) == 0
    assert capsys.readouterr().out == "factors: [3,2] [3,2,1]\n"


def test_factorize_with_membership(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(perm_to_json(expand(C([3], 3))))
    sett = tmp_path / "set.json"
    sett.write_text(translation_normalizer_set(3).to_json())
    assert main(["factorize", str(path), "--set", str(sett)]) == 0
    assert capsys.readouterr().out == "factors: [3]\nmember: false\n"


def test_factorize_set_rank_checked_before_closure(tmp_path, capsys, monkeypatch):
    # a set of another rank is refused before its closure is checked,
    # which for these 2^14 - 1 members would take seconds
    monkeypatch.setattr(_kernel, "_close", lambda *args: pytest.fail("closure checked"))
    path = tmp_path / "id.json"
    path.write_text('{"n": 3, "images": [1, 2, 3, 4, 5, 6, 7, 8]}')
    sett = tmp_path / "set.json"
    sett.write_text(json.dumps({"n": 20, "members": [hex(m) for m in range(1, 1 << 14)]}))
    assert main(["factorize", str(path), "--set", str(sett)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "factorize: rank mismatch: permutation has rank 3, set has 20\n"


def test_factorize_identity(tmp_path, capsys):
    path = tmp_path / "id.json"
    path.write_text('{"n": 2, "images": [1, 2, 3, 4]}')
    assert main(["factorize", str(path)]) == 0
    assert capsys.readouterr().out == "factors: []\n"


def test_factorize_foreign_permutation(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text('{"n": 2, "images": [2, 3, 1, 4]}')  # a 3-cycle of four points
    assert main(["factorize", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("factorize: ") and "not an element" in captured.err


# ── verify ───────────────────────────────────────────────────────────────────

def test_verify_small_rank(capsys):
    assert main(["verify", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "ok: oracle-equivalence (exhaustive pairs, rank 2)" in out
    assert "ok: chain-vs-closed-form" in out
    assert "ok: translation-checks (rank 2)" in out
    assert out.rstrip().endswith("all checks passed")


def test_verify_fails_on_a_factorization_that_drops_a_pass(monkeypatch, capsys):
    assert main(["verify", "--n", "4"]) == 0
    assert "ok: factorize-round-trip (rank 4)" in capsys.readouterr().out
    pass_masks = saturated._pass_masks
    monkeypatch.setattr(saturated, "_pass_masks", lambda width: pass_masks(width)[:-1])
    assert main(["verify", "--n", "4"]) == 1
    out = capsys.readouterr().out
    assert "ok: oracle-equivalence (exhaustive pairs, rank 4)" in out
    assert re.search(r"^fail: factorize-round-trip: mask \d+ factors as .* at rank 4$", out, re.M)
    assert "all checks passed" not in out


def test_verify_sym_brute_rank3(capsys):
    assert main(["verify", "--n", "3", "--sym-brute"]) == 0
    out = capsys.readouterr().out
    assert "ok: sym-brute (all 2 terms, rank 3)" in out
    assert out.rstrip().endswith("all checks passed")


def test_verify_sym_brute_compares_with_the_next_term(monkeypatch, capsys):
    # a chain that lost a step-1 member fails the exhaustive check on its own,
    # with the closed-form check passed over
    run_chain = chainmod.run_chain

    def dropping(n, max_steps=None):
        report = run_chain(n, max_steps)
        joined = report.joined.copy()
        joined[np.flatnonzero(joined == 1)[0]] = _kernel._NEVER
        return chainmod.ChainReport(n, joined, report.terminated_at, report.reached_full,
                                    report.diagnostics)

    monkeypatch.setattr(chainmod, "run_chain", dropping)
    monkeypatch.setattr(chainmod, "verify_theoretical",
                        lambda report: [(i, True) for i in range(report.terminated_at + 1)])
    assert main(["verify", "--n", "3", "--sym-brute"]) == 1
    assert "fail: sym-brute: term 0 normalizer differs at rank 3" in capsys.readouterr().out


def test_verify_sym_brute_guard(capsys):
    # refused before any check runs or prints
    for n in ("4", "20"):
        assert main(["verify", "--n", n, "--sym-brute"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "scale guard" in captured.err


@pytest.mark.parametrize("argv, calls", [
    pytest.param(["verify", "--n", "9"], [(9, 7)], id="closed-form"),
    pytest.param(["verify", "--n", "3", "--sym-brute"], [(3, None)], id="sym-brute"),
])
def test_verify_runs_only_the_steps_it_checks(monkeypatch, capsys, argv, calls):
    # the closed form covers steps 0..n-2; --sym-brute checks every term
    seen = []
    run_chain = chainmod.run_chain

    def recording(n, max_steps=None):
        seen.append((n, max_steps))
        return run_chain(n, max_steps)

    monkeypatch.setattr(chainmod, "run_chain", recording)
    assert main(argv) == 0
    assert seen == calls
    assert capsys.readouterr().out.rstrip().endswith("all checks passed")


@pytest.mark.parametrize("argv, want", [
    # the closed form covers steps 0..n-2, so none at rank 1
    pytest.param(["verify", "--n", "1"], """\
ok: oracle-equivalence (exhaustive pairs, rank 1)
ok: factorize-round-trip (rank 1)
ok: chain-vs-closed-form (no steps, rank 1)
ok: translation-checks (rank 1)
all checks passed
""", id="n1"),
    pytest.param(["verify", "--n", "1", "--sym-brute"], """\
ok: oracle-equivalence (exhaustive pairs, rank 1)
ok: factorize-round-trip (rank 1)
ok: chain-vs-closed-form (no steps, rank 1)
ok: translation-checks (rank 1)
ok: sym-brute (all 1 terms, rank 1)
all checks passed
""", id="n1-sym-brute"),
    pytest.param(["verify", "--n", "2"], """\
ok: oracle-equivalence (exhaustive pairs, rank 2)
ok: factorize-round-trip (rank 2)
ok: chain-vs-closed-form (steps 0..0, rank 2)
ok: translation-checks (rank 2)
all checks passed
""", id="n2"),
    pytest.param(["verify", "--n", "6"], """\
ok: oracle-equivalence (exhaustive pairs, rank 6)
ok: factorize-round-trip (rank 6)
ok: chain-vs-closed-form (steps 0..4, rank 6)
ok: translation-checks (rank 6)
all checks passed
""", id="n6"),
    pytest.param(["verify", "--n", "3", "--sym-brute"], """\
ok: oracle-equivalence (exhaustive pairs, rank 3)
ok: factorize-round-trip (rank 3)
ok: chain-vs-closed-form (steps 0..1, rank 3)
ok: translation-checks (rank 3)
ok: sym-brute (all 2 terms, rank 3)
all checks passed
""", id="n3-sym-brute"),
])
def test_verify_times_each_check_on_stderr(capsys, argv, want):
    # stdout is byte for byte the same; stderr has one line of seconds per check
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == want
    checks = [line.split()[1] for line in out.splitlines()[:-1]]
    timed = [re.fullmatch(r"([a-z-]+): \d+\.\d{4}s", line) for line in err.splitlines()]
    assert all(timed), err
    assert [m[1] for m in timed] == checks


# ── the console outputs, frozen here byte for byte by their sha256 ───────────
# CI's console step runs only the installed entry points; these are the digests.

def _perm_file(n: int, top: int, stride: int) -> str:
    """The product of the rank-n commutators top, top - stride, ... above 4, as a permutation file."""
    product = functools.reduce(compose, (expand(RigidCommutator(m, n)) for m in range(top, 4, -stride)))
    return perm_to_json(product) + "\n"


# a file that an earlier command's stdout makes: the command, the file and the
# member count checked of it, if any
SET10 = (["closure", "seed10.json"], "set10.json", None)
AMB12 = (["closure", "seed12.json"], "amb12.json", 4055)
# the --timings totals of chain --n 12, as SUMMARY reads them
TIMINGS12 = {"steps": "1395", "lone": "479", "scalar": "633", "block": "283", "rescanned": "6894",
             "products": "189190"}
CHAIN12_SHA = "8b7f11759e8bf022291f72b60ea7c83743e97c77ca12504c4746e613e2181fd5"


@pytest.mark.parametrize("made, argv, sha", [
    pytest.param((), ["chain", "--n", "9", "--format", "json"],
                 "0bf16a365c2e0a0d2ccf3694608f57ce94051ac133a86b996212e171206e55c5", id="chain_sha"),
    pytest.param((), ["chain", "--n", "12", "--format", "json"], CHAIN12_SHA, id="chain12_sha"),
    pytest.param((), ["chain", "--n", "12", "--format", "json", "--timings"], CHAIN12_SHA,
                 id="chain12_sha-timings"),
    pytest.param((), ["chain", "--n-range", "3..12", "--format", "csv"],
                 "1fe2ba784b57adcb2eb83c5860f09d769e37bb86d7a3e06c6773bb217e397211", id="matrix_sha"),
    pytest.param((), ["chain", "--n", "16", "--steps", "14", "--format", "json"],
                 "94fbea8455ff265e253dd86f35f1c26145c5db7383e0ac1c5e64897699aa33e9", id="prefix_sha"),
    pytest.param((), ["chain", "--n-range", "3..16", "--steps", "14", "--format", "csv"],
                 "68062eddfc5557626d9890e48d5bdf5c49d441b8b89d9185a65c33782dee51bd", id="sweep_sha"),
    pytest.param((), ["verify", "--n", "20"],
                 "99b56d120ff505d2d1d7eacbe465d5b1c862bdc8849311cacd0a4cfffad3a7b8", id="verify20_sha"),
    pytest.param((SET10,), ["factorize", "perm10.json", "--set", "set10.json"],
                 "f1d5358505933f762caf448d628df90641ad48ebc08b2a0602a1b0ba511de57e", id="factorize_sha"),
    pytest.param((), ["factorize", "perm12.json"],
                 "23bca334ba4b1fe0ff626a3c42641a286ddb75cd98baa9e30c9bf6b70f420f9a", id="factorize12_sha"),
    pytest.param((AMB12,), ["closure", "top12.json", "--within", "amb12.json"],
                 "33d31f14e22442d0f18f8e7852176ba6356f671c6f8b78132c645b62f866c5c4", id="within_sha"),
    pytest.param((), ["closure", "seed14.json"],
                 "ea9e7dba54c9695ba17e9ca1b2804b277db7f05e0d65a194d39f2a5c8ad42050", id="closure14_sha"),
    pytest.param((), ["chain", "--n", "12", "--format", "md"],
                 "c2dc26216b03709c9b3bad349bc46bf78193ac15cf1fa27a3a96a95dca423d8a", id="chain12_md_sha"),
    pytest.param((), ["chain", "--n", "12", "--format", "csv"],
                 "20e08b48f025d37509cd22ef30b7eedab8ca53188ec40aff7c6a6a9b23405cba", id="chain12_csv_sha"),
    pytest.param((), ["chain", "--n-range", "3..12", "--format", "json"],
                 "4a05e0a9af38f55a164af29b88fef3e1982ee6ef2713e76d38133a0b17c5fd6e", id="matrix_json_sha"),
    pytest.param((), ["chain", "--n-range", "3..12", "--format", "md"],
                 "ea2c2d25bac8ab9e8a24ec1af7cfc50c076dbae41dfbabc6737c9d82117997b0", id="matrix_md_sha"),
    pytest.param((), ["chain", "--n", "12", "--format", "json", "--out", "chain12.json"], CHAIN12_SHA,
                 id="chain12_sha-out"),
])
def test_console_outputs_match_the_ci_digests(tmp_path, monkeypatch, capsys, made, argv, sha):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "seed10.json").write_text('{"n": 10, "members": [[3, 1]]}\n')
    (tmp_path / "seed12.json").write_text('{"n": 12, "members": [[3, 1]]}\n')
    (tmp_path / "top12.json").write_text('{"n": 12, "members": [[12, 5, 1]]}\n')
    (tmp_path / "seed14.json").write_text('{"n": 14, "members": [[3, 1]]}\n')
    (tmp_path / "perm10.json").write_text(_perm_file(10, 1021, 37))
    (tmp_path / "perm12.json").write_text(_perm_file(12, 4093, 41))
    for command, name, members in made:
        assert main(command) == 0
        text = capsys.readouterr().out
        (tmp_path / name).write_text(text)
        if members is not None:
            assert len(json.loads(text)["members"]) == members
    assert main(argv) == 0
    out, err = capsys.readouterr()
    if "--out" in argv:  # the file holds what stdout would
        assert out == ""
        out = (tmp_path / argv[argv.index("--out") + 1]).read_text()
    assert hashlib.sha256(out.encode()).hexdigest() == sha
    if "--timings" in argv:
        summary = SUMMARY.fullmatch(err.splitlines()[-1])
        assert summary and {k: summary[k] for k in TIMINGS12} == TIMINGS12, err
    elif argv[0] == "verify":  # one stderr line of seconds per check, the checks and a verdict on stdout
        assert len(err.splitlines()) == len(out.splitlines()) - 1, err
    else:
        assert err == ""


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()
