"""Distinct-part partition counts and the closed form of the chain terms.

The growth of the normalizer chain is governed by partitions into at
least two distinct parts: b_j counts them for total j, a_j is the
partial sum b_1 + ... + b_j, and each chain term is, in closed form, the
baseline set plus the punctured commutators whose puncture sets are such
partitions of a bounded total.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .permutations import check_cap
from .rigid import RigidCommutator, _check_int, _check_rank
from .saturated import SaturatedSet

# the cache of partitions up to this total peaks at 56 MB RSS (27 MB above
# the import), built in 0.09 s on a 2-vCPU host, whatever max_part or base is
# asked: both read the listing of their total, and all 65 hole arrays take
# 1.2 MiB (59 MB peak); euler_table(80) reached 185 MB
PARTITION_MAX_TOTAL = 64

__all__ = [
    "PARTITION_MAX_TOTAL",
    "PartitionTable",
    "distinct_partitions",
    "euler_table",
    "punctured_family",
    "predicted_chain_set",
]


@lru_cache(maxsize=None)
def _distinct_desc(total: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    # strictly decreasing partitions of total with parts <= max_part
    if total == 0:
        return ((),)
    out = []
    for first in range(min(total, max_part), 0, -1):
        for rest in _distinct_desc(total - first, first - 1):
            out.append((first,) + rest)
    return tuple(out)


def distinct_partitions(
    total: int, *, min_parts: int = 2, max_part: int | None = None
) -> list[tuple[int, ...]]:
    """Partitions of ``total`` into distinct parts, each a descending tuple.

    Defaults to at least two parts, the case that drives the chain
    indices.  ``max_part`` bounds the largest part.  Every partition is
    cached, so totals above ``PARTITION_MAX_TOTAL`` raise
    :class:`~rigidcomm.permutations.ScaleGuardError`; a bool, a non-int
    or a negative argument raises ``ValueError``, both before any work.
    """
    _check_int("total", total, 0)
    _check_int("min_parts", min_parts, 0)
    if max_part is not None:
        _check_int("max_part", max_part, 0)
    check_cap("partitions of total", total, PARTITION_MAX_TOTAL)
    cap = (total if max_part is None else max_part,)  # () <= cap: the empty partition of 0
    return [p for p in _distinct_desc(total, total) if len(p) >= min_parts and p[:1] <= cap]


@dataclass(frozen=True)
class PartitionTable:
    """Counts b_j of distinct-part (>= 2 parts) partitions and partial sums a_j.

    Both tuples are indexed by j = 0..max_total.
    """

    b: tuple[int, ...]
    a: tuple[int, ...]

    @property
    def max_total(self) -> int:
        return len(self.b) - 1


def euler_table(max_total: int) -> PartitionTable:
    """Tabulate b_j and a_j for j = 0..max_total."""
    _check_int("max_total", max_total, 0)
    # before the smaller totals fill the cache
    check_cap("partitions of total", max_total, PARTITION_MAX_TOTAL)
    b = [len(distinct_partitions(j)) for j in range(max_total + 1)]
    return PartitionTable(tuple(b), tuple(accumulate(b)))


def punctured_family(base: int, total: int, n: int) -> frozenset[RigidCommutator]:
    """Punctured commutators at ``base`` whose punctures are >= 2 distinct
    parts summing to ``total``.

    These are the sets {1..base} minus I with |I| >= 2, sum(I) = total,
    I inside {1..base-1}, the family the chain's closed form reads.  A bool
    or a non-int raises ``ValueError`` and a total past ``PARTITION_MAX_TOTAL``
    :class:`~rigidcomm.permutations.ScaleGuardError`, both before any work.
    """
    _check_rank(n)
    _check_int("total", total, 0)
    _check_int("base", base, 1, n)
    check_cap("partitions of total", total, PARTITION_MAX_TOTAL)
    full, holes = (1 << base) - 1, _hole_masks(total)
    below = holes[:holes.searchsorted(1 << (base - 1))].tolist()
    return frozenset(RigidCommutator._trusted(full ^ h, n) for h in below)


def predicted_chain_set(n: int, i: int) -> SaturatedSet:
    """Closed-form description of the i-th chain term, 0 <= i <= n-2.

    A commutator with base b and puncture set J belongs when |J| <= 1,
    or when J is a partition into at least two distinct parts of a total
    t <= i + 2 - (n - b), that is, from step t - 2 + (n - b) on.  Each
    base therefore contributes its full interval, its b-1 single
    punctures, and the punctured family of every total from 3 up to that
    bound.  Only the members are enumerated, so the rank may pass the
    chain's cap, but not the checked set's cap on members: term n-2 has
    15148 at rank 31 and 17912 at rank 32, which raises ``ScaleGuardError``
    before any product.
    """
    _check_rank(n)
    _check_int("step", i, 0, n - 2)
    return SaturatedSet(n, _predicted_joins(n, i)[0].tolist())


def _predicted_joins(n: int, last: int) -> tuple[np.ndarray, np.ndarray]:
    # each member of closed-form term `last` as a read-only int64 mask, beside
    # the step it joins at: -1 for t_b, 0 for a single puncture, t - 2 + n - b
    # for a partition of total t at base b; each family is 2^b - 1 XOR its holes
    ones = np.left_shift(1, np.arange(n, dtype=np.int64)) >> 1  # no hole, then one hole at each bit
    fulls, holes, steps = [], [], []
    for b in range(1, n + 1):
        holes.append(ones[:b])
        steps.append(0)
        # last <= n - 2 keeps a total at most b <= 63 < PARTITION_MAX_TOTAL: no cap
        # trips, and every part is below b, so the family is all of _hole_masks(total)
        for total in range(3, last + 3 - (n - b)):
            holes.append(_hole_masks(total))
            steps.append(total - 2 + n - b)
        fulls += [(1 << b) - 1] * (len(holes) - len(fulls))
    counts = [h.size for h in holes]
    holes = np.concatenate(holes)
    masks = np.repeat(np.array(fulls, np.int64), counts) ^ holes
    masks.flags.writeable = False
    steps = np.repeat(np.array(steps, np.int64), counts)
    steps[holes == 0] = -1  # t_b, the one member with no hole
    return masks, steps


@lru_cache(maxsize=None)
def _hole_masks(total: int) -> np.ndarray:
    # one mask per partition of total into >= 2 distinct parts, part k at bit
    # k - 1, ascending: the listing's descending parts give descending masks,
    # so the partitions with every part below b are the prefix under 2^(b-1)
    parts = reversed(_distinct_desc(total, total))
    masks = np.array([sum(1 << (k - 1) for k in p) for p in parts if len(p) > 1], dtype=np.int64)
    masks.flags.writeable = False
    return masks
