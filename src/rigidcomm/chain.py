"""The normalizer chain, started from the normalizer of the translations.

The chain begins with the generating set of the normalizer of the
regular elementary abelian subgroup spanned by the full-interval
commutators, and repeatedly takes normalizers, each term being the set
that :func:`rigidcomm.saturated.normalizing_step` would return for the
one before.  In a 2-group every proper subgroup is properly contained in
its normalizer, so the log2 orders climb strictly until the full group
is reached, after which the chain is a fixpoint.

The driver does not rescan every candidate at every step.  It remembers,
for each candidate that failed, one witness: a commutator [c, m] with a
member m that lies outside the term.  The terms only grow, so m stays a
member, and c keeps failing until the witness itself joins the chain.
Each step therefore rescans only the candidates whose witness was added
by the step before, all of them in one block scan.  The scan meets only
the term's cover, the members that no product of two smaller members
yields: they generate the term, so a candidate that keeps the cover
inside the term normalizes it.  The term is kept as a dense membership
table, each product is looked up in it, the top bits come from a table
of bases built once, and each candidate leaves the scan with the first
witness it finds.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .permutations import check_cap
from .rigid import RigidCommutator
from .saturated import SaturatedSet, _levels, _member_table, _uncovered, _witnesses
from . import partitions

# the witness array holds 2^n int64 slots, the membership table 2^n bools and
# the level table 2^n int8 bases: 8 MiB, 1 MiB and 1 MiB at rank 20
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

    They span a regular elementary abelian subgroup of order 2^n.
    """
    return SaturatedSet(n, [(1 << i) - 1 for i in range(1, n + 1)])


def translation_normalizer_set(n: int) -> SaturatedSet:
    """Members of the normalizer of the translation span: the t_i plus
    every full interval with a single puncture.

    Has n(n+1)/2 members, so the subgroup has order 2^(n(n+1)/2).
    """
    masks = [(1 << i) - 1 for i in range(1, n + 1)]
    for i in range(2, n + 1):
        ti = (1 << i) - 1
        masks.extend(ti & ~(1 << (j - 1)) for j in range(1, i))
    return SaturatedSet(n, masks)


@dataclass(frozen=True)
class ChainStep:
    """One chain term: step index, size, growth, level profile, new members.

    ``level_dims`` counts members per base, levels 1..n ascending.
    ``index_log2`` is log2 of the index over the previous term; for step
    0 it is reported against the translation span.  ``seconds``,
    ``rescanned`` (candidates re-examined in the step), ``cover`` (the
    size of the previous term's cover, which the step scanned them
    against) and ``products`` (mask products evaluated in the step) are
    diagnostics and take no part in comparisons or JSON.
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


@dataclass(frozen=True)
class ChainReport:
    """Full record of a chain run.

    ``terminated_at`` is the step where the full group was reached, or
    the step budget if that ran out first; ``reached_full`` says which.
    """

    n: int
    steps: tuple[ChainStep, ...]
    terminated_at: int
    reached_full: bool

    def index_sequence(self, count: int) -> tuple[int, ...]:
        """log2 indices for steps 1..count, padding a full-group fixpoint with zeros.

        Refuses to pad a budget-terminated report: those later indices
        were never computed.
        """
        have = [s.index_log2 for s in self.steps[1:]]
        if count <= len(have):
            return tuple(have[:count])
        if not self.reached_full:
            raise ValueError(
                f"only {len(have)} steps computed and the chain had not reached "
                "the full group; cannot pad"
            )
        return tuple(have) + (0,) * (count - len(have))

    def member_masks_at(self, i: int) -> frozenset[int]:
        """Member set of the i-th term, rebuilt from the recorded deltas."""
        if not 0 <= i <= self.terminated_at:
            raise ValueError(f"step {i} outside 0..{self.terminated_at}")
        masks = set()
        for step in self.steps[: i + 1]:
            masks.update(c.mask for c in step.new_members)
        for t in range(1, self.n + 1):
            masks.add((1 << t) - 1)
        return frozenset(masks)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "terminated_at": self.terminated_at,
            "reached_full": self.reached_full,
            "steps": [
                {
                    "i": s.i,
                    "log2_order": s.log2_order,
                    "index_log2": s.index_log2,
                    "level_dims": list(s.level_dims),
                    "new_members": [list(c.elements) for c in s.new_members],
                }
                for s in self.steps
            ],
        }

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def _sorted_members(n: int, masks: Iterable[int]) -> tuple[RigidCommutator, ...]:
    # canonical order is mask order, since a larger base means a larger mask;
    # the masks are in range by construction
    return tuple(RigidCommutator._trusted(m, n) for m in sorted(masks))


class _IncrementalChain:
    """Chain terms from ``start`` on, rescanning only woken candidates.

    ``table`` is the current term's dense membership, its only copy, with
    the identity 0 marked present; ``log2_order`` counts its members, and
    ``cover`` lists those that :func:`~rigidcomm.saturated._uncovered`
    keeps, which generate the term.  ``levels`` gives the base of each
    mask below 2^n.  ``witness[c]`` is 0 for members and otherwise a
    commutator [c, m], m a member, that lay outside the term when it was
    recorded; ``pending`` lists the candidates to scan at the next step,
    those whose witness has joined since, and one call of the block scan
    :func:`~rigidcomm.saturated._witnesses` scans them all against the
    cover.  The cache is sound only while every term is saturated,
    contains the translations t_1..t_n, and contains the term before it.
    A start with the first two properties keeps all three: the
    normalizer of a saturated set containing the translations is again
    saturated, and contains the set itself.
    """

    def __init__(self, start: SaturatedSet) -> None:
        self.n = start.n
        self.levels = _levels(start.n)
        self.witness = np.zeros(1 << start.n, dtype=np.int64)
        members = np.fromiter(start.masks, dtype=np.int64)
        self.table = _member_table(members, start.n)
        self.cover = _uncovered(members, self.table.__getitem__, start.n)
        self.log2_order = start.log2_order
        self.pending = np.flatnonzero(~self.table)
        self.products = 0  # mask products the last step evaluated

    def step(self) -> list[int]:
        """Grow the term to its normalizer; return the masks that joined."""
        scanned = self.pending
        present = self.table.__getitem__
        found, self.products = _witnesses(scanned, self.cover, present, self.levels)
        self.witness[scanned] = found
        added = scanned[found == 0]
        self.table[added] = True
        self.log2_order += added.size
        # the term only grows, so a covered member stays covered
        self.cover = _uncovered(np.concatenate((self.cover, added)), present, self.n)
        # a witness lay outside the term when recorded, and earlier steps
        # rescanned whom they woke, so a witness in the table joined just now
        self.pending = np.flatnonzero(self.table[self.witness] & (self.witness != 0))
        return added.tolist()


def check_chain_rank(n: int) -> None:
    """Refuse a chain whose per-candidate state would pass ``CHAIN_MAX_RANK``."""
    check_cap("chain at rank", n, CHAIN_MAX_RANK)


def run_chain(n: int, max_steps: int | None = None) -> ChainReport:
    """Run the normalizer chain at rank n.

    Step 0 is the translation-normalizer baseline, its index reported
    against the translation span (n(n-1)/2).  Subsequent steps take
    normalizers until the full group or the step budget (default 2^n) is
    reached.  Past the full group the chain is constant, and
    :meth:`ChainReport.index_sequence` pads it with zero indices.

    Each step rescans only the candidates whose cached witness joined the
    chain in the step before, against the term's cover; the baseline is
    saturated and contains the translations, which is what keeps that
    cache sound.  The cache takes 2^n slots, so ranks above
    ``CHAIN_MAX_RANK`` raise
    :class:`~rigidcomm.permutations.ScaleGuardError` before any work.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"rank must be a positive integer, got {n!r}")
    if max_steps is not None and (
        isinstance(max_steps, bool) or not isinstance(max_steps, int) or max_steps < 0
    ):
        raise ValueError(f"step budget must be a non-negative integer, got {max_steps!r}")
    check_chain_rank(n)
    budget = (1 << n) if max_steps is None else max_steps
    full_log2 = (1 << n) - 1
    t0 = time.perf_counter()
    start = translation_normalizer_set(n)
    baseline = ChainStep(
        i=0,
        log2_order=start.log2_order,
        index_log2=n * (n - 1) // 2,
        level_dims=start.level_dims(),
        new_members=_sorted_members(
            n, start.masks - frozenset((1 << i) - 1 for i in range(1, n + 1))
        ),
        seconds=time.perf_counter() - t0,
    )
    steps = [baseline]
    chain = _IncrementalChain(start)
    dims = list(baseline.level_dims)
    i = 0
    reached_full = start.log2_order == full_log2
    while i < budget and not reached_full:
        t0 = time.perf_counter()
        rescanned, cover = len(chain.pending), len(chain.cover)
        added = chain.step()
        for m in added:
            dims[m.bit_length() - 1] += 1
        i += 1
        steps.append(
            ChainStep(
                i=i,
                log2_order=chain.log2_order,
                index_log2=len(added),
                level_dims=tuple(dims),
                new_members=_sorted_members(n, added),
                seconds=time.perf_counter() - t0,
                rescanned=rescanned,
                cover=cover,
                products=chain.products,
            )
        )
        reached_full = chain.log2_order == full_log2
    return ChainReport(n, tuple(steps), i, reached_full)


def verify_theoretical(report: ChainReport) -> list[tuple[int, bool]]:
    """Compare each computed term against the closed-form prediction.

    Valid for steps 0..n-2; returns (step, matches) pairs.  The terms
    are built up in one running set, step by step, and compared with the
    closed-form masks as a plain set.  No closure check is needed: a
    prediction equal to the engine's term, a normalizer and so
    saturated, is itself closed.
    """
    if not isinstance(report, ChainReport):
        raise TypeError(f"expected a ChainReport, got {type(report).__name__}")
    n = report.n
    masks = {(1 << t) - 1 for t in range(1, n + 1)}
    out = []
    for i, step in enumerate(report.steps[: min(n - 1, report.terminated_at + 1)]):
        masks.update(c.mask for c in step.new_members)
        out.append((i, masks == set(partitions._predicted_masks(n, i))))
    return out
