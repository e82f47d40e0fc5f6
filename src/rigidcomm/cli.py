"""Command line front end.

Subcommands: chain, verify, eval, euler, closure, factorize.  Output on
stdout is byte-stable for a given invocation; diagnostics (timings,
error messages) go to stderr.  Exit codes: 0 success, 1 verification
mismatch, 2 usage or input error, 3 scale guard trip, 141 stdout closed
by its reader (128 + SIGPIPE, as a shell reports a tool killed by it).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import random
import resource
import select
import sys
import time

from . import _kernel
from . import chain as chainmod
from . import partitions
from . import permutations as perm
from . import saturated
from .permutations import ScaleGuardError
from .rigid import (
    RigidCommutator,
    commutator_mask,
    evaluate_expression,
    format_commutator,
)

__all__ = ["main", "build_parser"]

# a file argument is read to at most this many bytes, and refused past them: the
# largest file a guard admits as the engine writes it, all 16383 members of rank
# 14 (CLOSURE_MAX_RANK) as `closure` prints them, takes 1269781 bytes, and this is
# the next power of two; the rank-12 permutation's 4096 images take 23-40 KB
_READ_CAP = 1 << 21


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rigidcomm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("chain", help="run the normalizer chain and print its table")
    c.add_argument("--n", type=int, help="rank (single run)")
    c.add_argument("--n-range", help="inclusive rank range like 3..15 (matrix of indices)")
    c.add_argument("--steps", type=int, help="step budget (default: run to the full group; 14 for --n-range)")
    c.add_argument("--format", choices=("csv", "json", "md"), default="md")
    c.add_argument("--timings", action="store_true",
                   help="print per-step seconds, rescanned candidates, the cover they met and "
                        "mask products (0 where one candidate joins unscanned) to stderr, "
                        "then a line of the run's totals and peak RSS, "
                        "prefixed with the rank under --n-range")
    c.add_argument("--out", help="write to this file instead of stdout")

    v = sub.add_parser("verify", help="run the self-check suite at a given rank")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--sym-brute", action="store_true",
                   help="also compare chain terms against exhaustive symmetric-group normalizers (rank <= 3)")

    e = sub.add_parser("eval", help="evaluate a commutator expression")
    e.add_argument("expr", help='e.g. "[[6,5,4,3],[2,1]]" or "6^{2,1}"')
    e.add_argument("--n", type=int, help="ambient rank (default: largest index used)")
    e.add_argument("--perm", action="store_true", help="also print the permutation in cycle form")

    u = sub.add_parser("euler", help="print the distinct-part partition count table")
    u.add_argument("--max-j", type=int, default=14)
    u.add_argument("--format", choices=("csv", "json", "md"), default="md")
    u.add_argument("--out", help="write to this file instead of stdout")

    k = sub.add_parser("closure", help="normal closure of a serialized commutator set")
    k.add_argument("set", help="JSON file with the seed set")
    k.add_argument("--within", help="JSON file with the ambient set (default: all rigid commutators)")
    k.add_argument("--out", help="write to this file instead of stdout")

    f = sub.add_parser("factorize", help="factor a serialized permutation over rigid commutators")
    f.add_argument("perm", help='JSON file {"n": ..., "images": [...]} with 1-based images')
    f.add_argument("--set", dest="set_path", help="JSON set file for the membership verdict")
    return p


def _emit(chunks, out_path: str | None) -> int:
    """Write the chunks to ``out_path``, or to stdout when there is none; exit code 0.
    A run refused while making the first chunk writes nothing and leaves no file."""
    chunks = iter(chunks)
    first = next(chunks, "")
    with open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(first)
        fh.writelines(chunks)
    return 0


# ── table layouts ────────────────────────────────────────────────────────────

def _table(fmt: str, header: list, rows):
    """The header and rows as the lines of a markdown table (``md``) or of csv."""
    def line(row):
        return ",".join(map(str, row)) + "\n" if fmt == "csv" else "| " + " | ".join(map(str, row)) + " |\n"
    yield line(header)
    if fmt == "md":
        yield "|---" * len(header) + "|\n"
    yield from map(line, rows)


def _print_timings(report, prefix: str = "") -> None:
    """Each step's diagnostics on stderr, then one line for the run: its seconds and
    steps, each split by kernel, rescanned candidates and mask products, and this
    process's peak RSS.

    Each row is split by the kernel that :func:`~rigidcomm._kernel._step_kernel` names.
    """
    seconds = dict.fromkeys(("start", "lone", "scalar", "block"), 0.0)
    steps = dict.fromkeys(seconds, 0)
    rescanned = products = 0
    for i, row in enumerate(report.diagnostics):
        print(f"{prefix}step {i}: {row[0]:.4f}s, {row[1]} rescanned, {row[2]} cover, {row[3]} products",
              file=sys.stderr)
        kernel = _kernel._step_kernel(i, row[1], row[3])
        seconds[kernel] += row[0]
        steps[kernel] += 1
        rescanned, products = rescanned + row[1], products + row[3]
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    start, lone, scalar, block = seconds.values()
    print(f"{prefix}total: {sum(seconds.values()):.4f}s (start {start:.4f}s, lone {lone:.4f}s, "
          f"scalar {scalar:.4f}s, block {block:.4f}s), {report.terminated_at} steps (lone {steps['lone']}, "
          f"scalar {steps['scalar']}, block {steps['block']}), {rescanned} rescanned, {products} products, "
          f"peak RSS {peak_mib:.1f} MiB", file=sys.stderr)


def _matrix(args, ranks: range, steps: int):
    """The index matrix of ``ranks``, a row a chunk, each rank's chain run as its row is written."""
    def row(n):
        report = chainmod.run_chain(n, max_steps=steps)
        if args.timings:
            _print_timings(report, f"n={n} ")
        return [n, *report.index_sequence(steps)]
    # the first row is made before the header, so a bad rank or step count writes nothing
    rows = itertools.chain((row(ranks[0]),), map(row, ranks[1:]))
    if args.format == "json":  # json.dumps(..., indent=2) of the whole matrix, a row at a time
        yield f'{{\n  "steps": {steps},\n  "rows": {{'
        for k, (n, *seq) in enumerate(rows):
            yield f'{"," if k else ""}\n    "{n}": ' + json.dumps(seq, indent=2).replace("\n", "\n    ")
        yield "\n  }\n}\n"
    else:
        step_label = "i={}" if args.format == "md" else "i{}"
        yield from _table(args.format, ["n", *(step_label.format(i) for i in range(1, steps + 1))], rows)


# ── subcommands ──────────────────────────────────────────────────────────────

def _cmd_chain(args) -> int:
    if (args.n is None) == (args.n_range is None):
        raise ValueError("exactly one of --n / --n-range is required")
    if args.n_range is not None:
        lo_s, dots, hi_s = args.n_range.partition("..")
        if not (dots and lo_s.strip().isdecimal() and hi_s.strip().isdecimal()):
            raise ValueError(f"bad --n-range {args.n_range!r}, expected like 3..15")
        lo, hi = int(lo_s), int(hi_s)
        if lo > hi:
            raise ValueError(f"empty --n-range {args.n_range!r}")
        steps = args.steps if args.steps is not None else 14
        chainmod.check_chain_rank(hi)  # refuse before computing the low rows
        return _emit(_matrix(args, range(lo, hi + 1), steps), args.out)
    report = chainmod.run_chain(args.n, max_steps=args.steps)
    if args.timings:
        _print_timings(report)
    if args.format == "json":
        chunks = itertools.chain(report._json_chunks(2), ("\n",))
    elif args.format == "md":
        header = ["i", f"dims (levels {args.n}..1)", "log2 order", "log2 index"]
        chunks = _table("md", header, ([i, ", ".join(map(str, reversed(dims))), order, index]
                                       for i, order, index, dims, *_ in report._rows()))
    else:
        header = ["i", *(f"dim_{j}" for j in range(args.n, 0, -1)), "log2_order", "index_log2"]
        chunks = _table("csv", header, ([i, *reversed(dims), order, index]
                                        for i, order, index, dims, *_ in report._rows()))
    return _emit(chunks, args.out)


def _fail(name: str, detail: str) -> int:
    print(f"fail: {name}: {detail}")
    return 1


def _ok(name: str, detail: str, since: float) -> float:
    """Print a passed check, then its seconds since ``since`` on stderr; return the time now."""
    print(f"ok: {name} ({detail})")
    print(f"{name}: {time.perf_counter() - since:.4f}s", file=sys.stderr)
    return time.perf_counter()


def _cmd_verify(args) -> int:
    n, t0 = args.n, time.perf_counter()
    chainmod.check_chain_rank(n)  # refuse before the oracle checks run
    if args.sym_brute:
        perm.check_cap("--sym-brute at rank", n, perm.BRUTE_MAX_RANK)

    # expand agrees with the mask product on all pairs (exhaustive, capped at 8)
    m = min(n, 8)
    perms = [perm.expand(RigidCommutator(x, m)) for x in range(1 << m)]
    for x in range(1 << m):
        for y in range(1 << m):
            lhs = perm.perm_commutator(perms[x], perms[y])
            if lhs != perms[commutator_mask(x, y)]:
                return _fail("oracle-equivalence", f"masks {x} and {y} disagree at rank {m}")
    t0 = _ok("oracle-equivalence", f"exhaustive pairs, rank {m}", t0)

    # every commutator factors as itself, and a seeded product re-expands to itself
    for x in range(1, 1 << m):
        fac = saturated.factorize(perms[x])
        if fac.factors != (RigidCommutator(x, m),):
            return _fail("factorize-round-trip", f"mask {x} factors as {fac} at rank {m}")
    rng = random.Random(m)
    g = functools.reduce(perm.compose, (perms[rng.randrange(1 << m)] for _ in range(4 * m)))
    if saturated.factorize(g).to_permutation() != g:
        return _fail("factorize-round-trip", f"a product of {4 * m} commutators differs at rank {m}")
    t0 = _ok("factorize-round-trip", f"rank {m}", t0)

    # chain terms match the closed-form prediction, which covers steps
    # 0..n-2 (none at rank 1); only the symmetric-group check needs the full chain
    report = chainmod.run_chain(n, None if args.sym_brute else max(n - 2, 0))
    verdicts = chainmod.verify_theoretical(report)
    for i, good in verdicts:
        if not good:
            return _fail("chain-vs-closed-form", f"step {i} differs at rank {n}")
    steps = f"steps {verdicts[0][0]}..{verdicts[-1][0]}" if verdicts else "no steps"
    t0 = _ok("chain-vs-closed-form", f"{steps}, rank {n}", t0)

    checks = perm.translation_checks(min(n, perm.EXPAND_MAX_RANK))
    bad = [k for k, v in checks.items() if v is False]
    if bad:
        return _fail("translation-checks", ", ".join(bad))
    t0 = _ok("translation-checks", f"rank {min(n, perm.EXPAND_MAX_RANK)}", t0)

    if args.sym_brute:
        spans = [
            perm.generate_group([perm.expand(RigidCommutator(x, n)) for x in report.member_masks_at(i)])
            for i in range(report.terminated_at + 1)
        ]
        # each term's normalizer is the chain's next term; the full group normalizes itself
        for i, term in enumerate(spans):
            if perm.brute_normalizer_in_sym(term, n) != spans[min(i + 1, len(spans) - 1)]:
                return _fail("sym-brute", f"term {i} normalizer differs at rank {n}")
        _ok("sym-brute", f"all {report.terminated_at + 1} terms, rank {n}", t0)

    print("all checks passed")
    return 0


def _cmd_eval(args) -> int:
    c = evaluate_expression(args.expr, args.n)
    lines = [format_commutator(c)]
    if args.perm:
        lines.append(perm.expand(c).cycle_string())
    print("\n".join(lines))
    return 0


def _cmd_euler(args) -> int:
    table = partitions.euler_table(args.max_j)
    if args.format == "json":
        chunks = (json.dumps({"b": list(table.b), "a": list(table.a)}, indent=2) + "\n",)
    else:
        b, a = ("b_j", "a_j") if args.format == "md" else ("b", "a")
        chunks = _table(args.format, ["j", *range(len(table.b))], [[b, *table.b], [a, *table.a]])
    return _emit(chunks, args.out)


def _read(path: str) -> str:
    """The text of the file at ``path``, refused past ``_READ_CAP`` bytes before it is parsed."""
    with open(path, "rb") as fh:
        data = fh.read(_READ_CAP + 1)
    perm.check_cap(f"file {path} at byte", len(data), _READ_CAP)
    return data.decode()


def _cmd_closure(args) -> int:
    n, seed = saturated.members_from_json(_read(args.set))
    saturated.check_closure_rank(n)  # before the seed grows
    if args.within:
        within_n, within = saturated.members_from_json(_read(args.within))
        saturated.check_closure_rank(within_n)  # before the set's closure is checked
        B = saturated.SaturatedSet(within_n, within)
    else:
        B = saturated.full_rigid_set(n)
    result = saturated.normal_closure(saturated.saturate(seed, n), B)
    return _emit((result.to_json(indent=2) + "\n",), args.out)


def _cmd_factorize(args) -> int:
    g = perm.perm_from_json(_read(args.perm))
    within = None
    if args.set_path:
        set_n, members = saturated.members_from_json(_read(args.set_path))
        if set_n != g.n:  # before the set's closure is checked
            raise ValueError(f"rank mismatch: permutation has rank {g.n}, set has {set_n}")
        within = saturated.SaturatedSet(set_n, members)
    fac = saturated.factorize(g, within)
    print(f"factors: {fac}")
    if within is not None:
        print(f"member: {'true' if fac.member else 'false'}")
    return 0


_HANDLERS = {
    "chain": _cmd_chain,
    "verify": _cmd_verify,
    "eval": _cmd_eval,
    "euler": _cmd_euler,
    "closure": _cmd_closure,
    "factorize": _cmd_factorize,
}


def _stdout_closed() -> bool:
    """Whether stdout is a pipe whose reader has closed it: poll flags its write end."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # replaced by a stream with no descriptor, as under capture
        return False
    poller = select.poll()
    poller.register(fd, select.POLLOUT)
    return any(event & (select.POLLERR | select.POLLHUP) for _, event in poller.poll(0))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a closed reader shows here, not at shutdown
        return code
    except ScaleGuardError as exc:
        print(f"scale guard: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # bad input, or a file that cannot be read or written
        if isinstance(exc, BrokenPipeError) and _stdout_closed():
            # the shutdown flush of what is left writes to nowhere, not to the closed pipe
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 141
        with contextlib.suppress(OSError):  # stderr may be the pipe that broke
            print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
