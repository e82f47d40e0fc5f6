"""The normalizer chain, started from the normalizer of the translations.

The chain begins with the generating set of the normalizer of the
regular elementary abelian subgroup spanned by the full-interval
commutators, and repeatedly takes normalizers, each term being the set
that :func:`rigidcomm.saturated.normalizing_step` would return for the
one before.  In a 2-group every proper subgroup is properly contained in
its normalizer, so the log2 orders climb strictly, as each step checks,
until the full group is reached, after which the chain is a fixpoint.

The driver does not rescan every candidate at every step.  By the
witness, cover and wake rules of :mod:`rigidcomm._kernel`, which holds
each scan and prune kernel too, a candidate outside the term waits on a
witness until that joins, starting at its lowest fill-in, found without
a product.  Each step scans only the candidates that the members which
joined in the step before woke, those parked on them and those whose
witness they are, all in one scan; the first scan is what the first
term's members wake, so no step reads all 2^n masks.  The scan meets
only a cover of the term, as last pruned, plus the members that joined
since, pruned again once it has doubled.  The climb also saves scans: a
proper term's normalizer has more members, and only a woken candidate
can be one of them, so a lone woken candidate joins without a scan.  A
commutator joins the chain once, so the chain and its report keep one
array, each mask's join step, and no other of its size.
"""

from __future__ import annotations

import json
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .permutations import check_cap
from .rigid import RigidCommutator, _check_int, _check_rank
from .saturated import SaturatedSet
from . import _kernel, partitions

# the join steps take 2^n int32 slots, 4 MiB at rank 20, the chain's only table
# of that size; a candidate waits on its lowest fill-in with no state, and only
# those that failed a scan are kept, keyed by their witness
CHAIN_MAX_RANK = 20

__all__ = [
    "CHAIN_MAX_RANK",
    "ChainStep",
    "ChainReport",
    "translation_set",
    "translation_normalizer_set",
    "check_chain_rank",
    "run_chain",
    "verify_theoretical",
]


def translation_set(n: int) -> SaturatedSet:
    """The full-interval commutators t_i = [{1..i}], i = 1..n.

    They span a regular elementary abelian subgroup of order 2^n.  The
    t_i commute, so the set is closed by construction and skips the check.
    """
    _check_rank(n)
    return SaturatedSet._make(n, np.array([(1 << i) - 1 for i in range(1, n + 1)], dtype=np.int64))


def translation_normalizer_set(n: int) -> SaturatedSet:
    """Members of the normalizer of the translation span: the t_i plus
    every full interval with a single puncture, the closed form's term 0.

    Has n(n+1)/2 members, so the subgroup has order 2^(n(n+1)/2).  A
    normalizer's member set, it is closed by construction and skips the check.
    """
    _check_rank(n)
    return SaturatedSet._make(n, np.sort(partitions._predicted_joins(n, 0)[0]))


@dataclass(frozen=True)
class ChainStep:
    """One chain term: step index, size, growth, level profile, new members.

    ``level_dims`` counts members per base, levels 1..n ascending.
    ``index_log2`` is log2 of the index over the previous term; for step
    0 it is reported against the translation span.  The diagnostics,
    which take no part in comparisons or JSON, are ``seconds``,
    ``rescanned`` (candidates re-examined in the step), ``cover`` (the
    size of the generating set of the previous term they met) and
    ``products`` (mask products, rescanned times cover, 0 for a step that
    :func:`~rigidcomm._kernel._step_kernel` names lone).
    """

    i: int
    log2_order: int
    index_log2: int
    level_dims: tuple[int, ...]
    new_members: tuple[RigidCommutator, ...]
    seconds: float = field(default=0.0, compare=False)
    rescanned: int = field(default=0, compare=False)
    cover: int = field(default=0, compare=False)
    products: int = field(default=0, compare=False)


@dataclass(frozen=True, eq=False)
class ChainReport:
    """Full record of a chain run.

    ``joined``, read-only, holds each mask's join step: -1 for the
    identity and the translations, a sentinel above every step outside
    all computed terms, so term i is the masks m >= 1 with
    ``joined[m] <= i``.  ``terminated_at`` is the step where the full
    group was reached, or the step budget if that ran out first;
    ``reached_full`` says which.  ``diagnostics`` holds each step's
    :class:`ChainStep` diagnostics as a (seconds, rescanned, cover,
    products) tuple, read from the flat typed arrays that each step of
    :func:`run_chain` writes, and takes no part in comparisons.
    """

    n: int
    joined: np.ndarray
    terminated_at: int
    reached_full: bool
    diagnostics: Sequence[tuple[float, int, int, int]]

    def __post_init__(self) -> None:
        self.joined.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChainReport):
            return NotImplemented
        return (self.n, self.terminated_at, self.reached_full) == (
            other.n, other.terminated_at, other.reached_full
        ) and np.array_equal(self.joined, other.joined)

    def __hash__(self) -> int:
        return hash((self.n, self.terminated_at, self.reached_full, self.joined.tobytes()))

    def _rows(self):
        """Each step's (i, log2_order, index_log2, level_dims, new member masks, diagnostics row).

        Every output reads this walk; its stable sort of ``joined``, 2^n int64 while it
        runs, keeps each step's new members in mask order, their canonical order, and
        each step's cut into it stays in one int64 array, 8 bytes a step, not a list."""
        order = np.argsort(self.joined, kind="stable")
        steps = np.arange(self.terminated_at + 2, dtype=self.joined.dtype)
        cuts = memoryview(np.searchsorted(self.joined, steps, sorter=order))  # reads each cut as an int
        dims = [1] * self.n  # the translations, one per level
        for i, diagnostics in enumerate(self.diagnostics):
            new = order[cuts[i]:cuts[i + 1]].tolist()
            for m in new:
                dims[m.bit_length() - 1] += 1
            yield i, sum(dims), len(new), tuple(dims), new, diagnostics

    @cached_property
    def steps(self) -> tuple[ChainStep, ...]:
        """The terms 0..terminated_at as records, built from :meth:`_rows` on first read."""
        n = self.n
        return tuple(
            ChainStep(i, order, index, dims, tuple(RigidCommutator._trusted(m, n) for m in new), *diagnostics)
            for i, order, index, dims, new, diagnostics in self._rows()
        )

    def index_sequence(self, count: int) -> tuple[int, ...]:
        """log2 indices for steps 1..count, padding a full-group fixpoint with zeros.

        Refuses to pad a budget-terminated report: those later indices
        were never computed.  A count past 2^``CHAIN_MAX_RANK``, which no
        chain reaches, raises ``ScaleGuardError`` before any padding.
        """
        _check_int("step count", count, 0)
        check_cap("step count", count, 1 << CHAIN_MAX_RANK)
        joined = self.joined
        have = tuple(np.bincount(
            joined[(joined > 0) & (joined != _kernel._NEVER)], minlength=self.terminated_at + 1
        )[1:].tolist())
        if count > len(have) and not self.reached_full:
            raise ValueError(
                f"only {len(have)} steps computed and the chain had not reached "
                "the full group; cannot pad"
            )
        return have[:count] + (0,) * (count - len(have))

    def member_masks_at(self, i: int) -> frozenset[int]:
        """Member set of the i-th term, the translations included."""
        _check_int("step", i, 0, self.terminated_at)
        return frozenset((np.flatnonzero(self.joined[1:] <= i) + 1).tolist())

    def to_json(self, *, indent: int | None = None) -> str:
        """The report as JSON: n, terminated_at, reached_full and each step's record, without diagnostics.

        ``"".join`` holds every chunk beside the text, so the call peaks at about
        285 MiB for the 109 MB of text at rank 20; ``chain --out`` and stdout
        stream the same chunks instead.
        """
        return "".join(self._json_chunks(indent))

    def _json_chunks(self, indent: int | None):
        """:meth:`to_json`'s text, a step a chunk.

        Each step's text is joined as ``json.dumps`` lays the record out,
        whose indented encoder is pure Python and several times slower, and
        each member's elements are read from :func:`_elements_text`'s tables.
        """
        fields = {"n": self.n, "terminated_at": self.terminated_at, "reached_full": self.reached_full}
        head, tail = json.dumps({**fields, "steps": [None]}, indent=indent).split("null")
        if indent is None:
            sep, pad = ", ", ("", "", "", "")
        else:  # a step's place in the list, then each level inside it
            sep, base = ",", head[head.rindex("\n"):]
            pad = tuple(base + " " * (indent * k) for k in range(4))

        def array(items: list[str], level: int) -> str:  # a list whose items sit at pad[level]
            inner = pad[level]
            return "[" + inner + (sep + inner).join(items) + pad[level - 1] + "]" if items else "[]"

        elements = _elements_text(self.n, sep + pad[3])
        for i, order, index, dims, new, _ in self._rows():
            members = ["[" + pad[3] + elements(m) + pad[2] + "]" for m in new]
            yield "".join((
                sep + pad[0] if i else head, "{", pad[1], '"i": ', str(i), sep, pad[1],
                '"log2_order": ', str(order), sep, pad[1], '"index_log2": ', str(index), sep, pad[1],
                '"level_dims": ', array([str(d) for d in dims], 2), sep, pad[1],
                '"new_members": ', array(members, 2), pad[0], "}"))
        yield tail


def _elements_text(n: int, sep: str):
    """The text of a mask's elements, as :attr:`RigidCommutator.elements` lists them, joined by ``sep``.

    Returns a function of a nonzero mask that reads two tables made here,
    2^(n - h) strings for the high bits and 2^h for the low bits, h = n // 2.
    """
    h = n // 2

    def text(bits: int, offset: int) -> str:  # the elements of bits << offset, highest first
        return sep.join(str(k + offset) for k in range(bits.bit_length(), 0, -1) if bits >> (k - 1) & 1)

    high = [text(v, h) for v in range(1 << (n - h))]
    low, mask = [text(v, 0) for v in range(1 << h)], (1 << h) - 1

    def elements(m: int) -> str:
        a, b = high[m >> h], low[m & mask]
        return a + sep + b if a and b else a or b
    return elements


class _Diagnostics(Sequence):
    """Each step's (seconds, rescanned, cover, products), kept in flat typed arrays.

    The chain writes what each step measured into ``seconds`` and ``counts``, two 4-byte
    counts, 16 bytes a step; products are derived through :func:`~rigidcomm._kernel._step_kernel`.
    """

    def __init__(self) -> None:
        self.seconds = array("d")
        self.counts = array("i")

    def __len__(self) -> int:
        return len(self.seconds)

    def __getitem__(self, i: int | slice):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self.seconds))[i]))
        i = range(len(self.seconds))[i]
        rescanned, cover = self.counts[2 * i:2 * i + 2]
        products = 0 if _kernel._step_kernel(rescanned, cover) == "lone" else rescanned * cover
        return self.seconds[i], rescanned, cover, products


def check_chain_rank(n: int) -> None:
    """Refuse a rank that is not an integer >= 1 with ``ValueError``, and a chain
    whose 2^n-slot join steps would pass ``CHAIN_MAX_RANK`` with ``ScaleGuardError``.
    """
    _check_int("rank", n, 1)
    check_cap("chain at rank", n, CHAIN_MAX_RANK)


def run_chain(n: int, max_steps: int | None = None) -> ChainReport:
    """Run the normalizer chain at rank n.

    Step 0 is the translation-normalizer baseline, its index reported
    against the translation span (n(n-1)/2).  Subsequent steps take
    normalizers until the full group, or ``max_steps`` steps, is reached;
    a step that adds nothing to a proper term, which in a 2-group is
    smaller than its normalizer, raises ``RuntimeError``.  Past the full
    group the chain is constant, and :meth:`ChainReport.index_sequence`
    pads it with zero indices.  :func:`_run` takes the steps.  The join
    steps take 2^n slots, so ranks above ``CHAIN_MAX_RANK`` raise
    :class:`~rigidcomm.permutations.ScaleGuardError` before any work.
    """
    if max_steps is not None:
        _check_int("step budget", max_steps, 0)
    check_chain_rank(n)
    return _run(translation_normalizer_set(n), max_steps)


def _run(start: SaturatedSet, max_steps: int | None) -> ChainReport:
    """The chain from ``start``, its term 0, to the full group or ``max_steps`` steps.

    One loop keeps the chain's state in locals, and nothing outlives it
    but the report.  ``joined`` is the term's only copy, as
    :attr:`ChainReport.joined` reads it, with the other members of
    ``start`` at step 0 and ``i`` the last step taken; ``log2_order``
    counts its members.  The loop reads and writes it through ``view``,
    a ``memoryview`` released as the loop's ``with`` block ends, before
    the report makes ``joined`` read-only, and the kernels read the term
    through the same ``view``.  ``cover``, a list of ints,
    generates the term but is not the cover rule's exact output: it
    holds the members kept when the prune last ran, ``pruned`` of them,
    as it runs again once the cover has doubled, and every member joined
    since, appended in place; no other array of the chain grows with 2^n.
    Both prunes go through :func:`~rigidcomm._kernel._chain_cover`.
    Every candidate outside the term waits on a witness, a commutator
    [c, m], m a member, that lay outside the term when it was recorded;
    ``scanned`` holds the candidates to scan at the next step, those
    whose witness has joined since, in no order that a rule reads, and
    one scan, :func:`~rigidcomm._kernel._chain_witnesses`, meets them
    all with the cover.  One Python pass over the scanned masks and
    their witnesses splits the joins from the failures; the joins wake
    the next scan.

    By the wake rule, every candidate starts parked on its lowest
    fill-in, with no stored state: the masks that join a step wake those
    parked on them.  The start wakes those parked on the members of
    ``start`` outside the term, so the first scan meets the candidates
    whose lowest fill-in is a member, as in ``normalizing_step``.  A
    candidate that fails a scan waits in ``waiters`` under the witness
    the scan found, until it joins.

    The cache is sound only while every term is saturated, contains the
    translations t_1..t_n, and contains the term before it.  A start
    with the first two properties keeps all three: the normalizer of a
    saturated set containing the translations is again saturated, and
    contains the set itself.  The translation normalizer of
    :func:`run_chain` is such a start.  A saturated set with the
    translations holds the fill-ins of its members, so a parked
    candidate is never a member, and a candidate that has met a scan is
    never parked.

    So every mask that can join the next term is in ``scanned``, and
    while the term is proper, a proper subgroup of a 2-group, its
    normalizer is larger, so one of them joins: a step runs the kernel
    that :func:`~rigidcomm._kernel._step_kernel` names, a lone candidate
    joins with no scan, and a step that joins nothing raises
    ``RuntimeError``.  No step runs at the full group.

    ``diagnostics`` holds a row per step, its seconds, the candidates it
    rescanned and the cover they met; row 0 times the start.
    """
    t0 = time.perf_counter()
    n, members = start.n, start._sorted
    full_log2, ints = (1 << n) - 1, members.tolist()
    joined = np.full(1 << n, _kernel._NEVER, dtype=np.int32)
    joined[members] = 0
    joined[(1 << np.arange(n + 1)) - 1] = -1  # the identity and the t_i
    log2_order, i = start.log2_order, 0
    waiters: dict[int, list[int]] = {}
    diagnostics = _Diagnostics()
    with memoryview(joined) as view:
        cover = _kernel._chain_cover(ints, n, view)
        pruned = len(cover)
        # each member wakes the masks parked on it, as if it had just joined
        scanned = [c for c in _kernel._parked(ints) if view[c] == _kernel._NEVER]
        row = (0, 0)  # the start rescans nothing and meets no cover
        while True:
            diagnostics.seconds.append(time.perf_counter() - t0)
            diagnostics.counts.extend(row)
            if log2_order == full_log2 or i == max_steps:
                break
            t0 = time.perf_counter()
            row = len(scanned), len(cover)
            kernel = _kernel._step_kernel(*row)
            if kernel == "lone":  # the one mask that can join the larger normalizer, if any
                joins = scanned
            else:
                joins = []
                for c, w in zip(scanned, _kernel._chain_witnesses(kernel, scanned, cover, view)):
                    (waiters.setdefault(w, []) if w else joins).append(c)
            i += 1
            if not joins:  # a proper term's normalizer is larger
                raise RuntimeError(f"step {i} at rank {n} joined nothing to a proper term")
            for a in joins:
                view[a] = i
            log2_order += len(joins)
            # the term only grows, so a covered member stays covered and the old
            # cover plus the joins still generates the term; prune once it doubles
            cover += joins
            if len(cover) >= 2 * pruned:
                cover = _kernel._chain_cover(cover, n, view)
                pruned = len(cover)
            scanned = _kernel._parked(joins)
            for a in joins:
                scanned += waiters.pop(a, ())
    return ChainReport(n, joined, i, log2_order == full_log2, diagnostics)


def verify_theoretical(report: ChainReport) -> list[tuple[int, bool]]:
    """Compare each computed term against the closed-form prediction.

    Valid for steps 0..n-2; returns (step, matches) pairs.  The closed
    form comes as two arrays, its members' masks and their predicted
    join steps in the conventions of :attr:`ChainReport.joined`, read
    from one cached hole array per partition total; ``joined`` is
    indexed with those masks and nothing else, and term i holds exactly
    when both terms have as many members and no predicted member due by
    step i joined later.
    No closure check is needed: a prediction equal to the engine's term,
    a normalizer and so saturated, is itself closed.
    """
    if not isinstance(report, ChainReport):
        raise TypeError(f"expected a ChainReport, got {type(report).__name__}")
    n = report.n
    last = min(n - 2, report.terminated_at)
    masks, want = partitions._predicted_joins(n, last)
    masks, want = np.append(masks, 0), np.append(want, -1)  # the identity
    joined = report.joined
    got = np.minimum(joined[masks], last + 1)  # past `last` all steps look alike
    late = got > want  # missing from the terms want..got-1
    # entry i + 1 counts the steps <= i: of each term's members, and of the late ones due and joined
    size, want_size, due, arrived = (np.bincount(s + 1, minlength=last + 3).cumsum()
                                     for s in (joined[joined <= last], want, want[late], got[late]))
    ok = (size == want_size) & (due == arrived)
    return [(i, bool(ok[i + 1])) for i in range(last + 1)]
