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
from typing import Iterator

from .permutations import check_cap
from .rigid import RigidCommutator, _check_int, _check_rank
from .saturated import SaturatedSet

# the cache of partitions up to this total peaked at 56 MB RSS (27 MB above
# the import) in 0.09 s on a 2-vCPU host; euler_table(80) reached 185 MB
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
    cap = total if max_part is None else min(max_part, total)
    return [p for p in _distinct_desc(total, cap) if len(p) >= min_parts]


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
    return frozenset(RigidCommutator._trusted(m, n) for m in _family(base, total))


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
    return SaturatedSet(n, _predicted_joins(n, i))


def _predicted_joins(n: int, last: int) -> dict[int, int]:
    # each member of closed-form term `last`, as a mask, mapped to the step it
    # joins at: -1 for t_b, 0 for a single puncture, t - 2 + n - b for a
    # partition of total t at base b; the holes lie below bit b-1
    joins = {}
    for b in range(1, n + 1):
        full = (1 << b) - 1
        joins[full] = -1
        for j in range(1, b):  # plain loops: on Python 3.11 a generator of pairs took 3x as long
            joins[full & ~(1 << (j - 1))] = 0
        # totals are at most n <= 63 < PARTITION_MAX_TOTAL, so no cap can trip
        for total in range(3, last + 3 - (n - b)):
            step = total - 2 + n - b
            for m in _family(b, total):
                joins[m] = step
    return joins


def _family(base: int, total: int) -> Iterator[int]:
    # {1..base} minus each partition of total into >= 2 distinct parts below base
    full = (1 << base) - 1
    for p in _distinct_desc(total, min(base - 1, total)):
        if len(p) > 1:
            holes = 0
            for k in p:
                holes |= 1 << (k - 1)
            yield full & ~holes
