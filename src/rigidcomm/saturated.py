"""Commutation-closed sets of rigid commutators and what they generate.

A set of nonempty rigid commutators is saturated when the commutator of
any two members is again a member or the identity.  Saturated sets are
exact coordinates for the subgroups they generate: the subgroup has
order 2^(member count), each level contributes an elementary abelian
block, and every element factors uniquely over the members taken in the
canonical order.

Internally everything runs on raw bitmasks; the public surface speaks
:class:`~rigidcomm.rigid.RigidCommutator`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator

import numpy as np

from . import permutations as perm
from .rigid import RigidCommutator, _check_rank, commutator_mask

FACTORIZE_MAX_RANK = 12
# the closure check of the full set took 0.13-0.17 s at rank 14 on a 2-vCPU host;
# each rank above the cap costs four times more
CLOSURE_MAX_RANK = 14
_PAIR_BLOCK = 1 << 14  # mask products per kernel call, which bounds its temporaries
# saturate closes a seed on Python ints while it has at most this many members,
# then hands what it found to the numpy rounds; in-process medians over random
# seeds at ranks 10, 12 and 14 (2-vCPU host), ints alone took 0.11-0.14 of the
# numpy rounds' time on closures of up to 8 members, 0.31-0.34 at 25-32,
# 0.72-0.82 at 49-64 and 1.09-1.35 at 65-96; closures past 64 members then ran
# 0.71-0.99 of the numpy rounds' time, the rank-14 group 184-234 ms against 220-259
_SCALAR_MEMBERS = 64
# membership lookups index a 2^n bool table up to this rank, 1 MiB at rank 20;
# above it they binary-search the sorted members
_DENSE_MAX_RANK = 20
_POWERS = np.left_shift(np.int64(1), np.arange(63, dtype=np.int64))  # 2^k, each bit an int64 holds
_TOPS = np.insert(_POWERS, 0, 0)  # the top bit 2^(b-1) of a base-b mask, 0 for the identity
_LOWS = _POWERS - 1  # 2^k - 1, the bits below 2^k

__all__ = [
    "FACTORIZE_MAX_RANK",
    "CLOSURE_MAX_RANK",
    "SaturatedSet",
    "Factorization",
    "full_rigid_set",
    "saturate",
    "normalizing_step",
    "normalizer_in",
    "check_closure_rank",
    "normal_closure",
    "factorize",
    "members_from_json",
]


def _coerce_masks(members: Iterable, n: int) -> np.ndarray:
    """The distinct nonzero masks of ``members``, checked, as a sorted int64 array."""
    _check_rank(n)
    masks = set()
    for m in members:
        if isinstance(m, RigidCommutator):
            if m.n != n:
                raise ValueError(f"rank mismatch: member has rank {m.n}, set has {n}")
            mask = m.mask
        elif isinstance(m, int) and not isinstance(m, bool):
            mask = m
        else:
            raise TypeError(f"members must be RigidCommutator or int masks, got {type(m)!r}")
        if not 0 <= mask < (1 << n):
            raise ValueError(f"mask {mask} out of range for rank {n}")
        if mask:
            masks.add(mask)  # the identity is implicit, never stored
    return np.array(sorted(masks), dtype=np.int64)


def _level_cuts(masks: np.ndarray, levels: int) -> list[int]:
    """Level ``a`` of sorted nonzero int64 ``masks``, top bit 2^(a-1), is masks[cuts[a-1]:cuts[a]]."""
    return [*masks.searchsorted(_POWERS[:levels]).tolist(), masks.size]


def _products(x: np.ndarray, y: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """The bits masks ``x`` and ``y`` share, and their products, elementwise.

    ``t`` is the smaller top bit of the two.  The product, as
    :func:`~rigidcomm.rigid.commutator_mask` makes it, keeps the bits
    the two share below ``t``, ``t`` itself, and the larger factor's bits
    above it: ``(x & y) | ((x ^ y) & -t)``, the same in either order, as
    the smaller factor has no bit above ``t``.  Where ``x & y >= t`` the
    two share ``t``, equal bases included, and the product is 0 but the
    expression is not, so the callers zero those pairs from the shared
    bits, or pass none.
    """
    shared, prod = x & y, x ^ y
    prod &= -t  # in place: a block of products is at most _PAIR_BLOCK int64s, fresh ones cost page faults
    prod |= shared
    return shared, prod


def _pair_products(
    x: np.ndarray, y: np.ndarray, *, both: bool = True
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The nonzero products of members of ``x`` with members of ``y``.

    ``x`` and ``y`` are sorted nonzero int64 masks.  A product is nonzero
    only when the bases differ and the higher-based factor lacks the
    lower base, so for each level ``a`` the members of ``x`` based at
    ``a`` meet the members of ``y`` based above it with bit ``a - 1``
    clear, and with ``both`` also the other way round.  Yields
    ``(lo, hi, block)``, ``block[r, c]`` the product of ``lo[r]`` with
    ``hi[c]``, at most ``_PAIR_BLOCK`` products each.
    """
    top_level = max(int(x[-1]) if x.size else 0, int(y[-1]) if y.size else 0).bit_length()
    x_cuts, y_cuts = _level_cuts(x, top_level), _level_cuts(y, top_level)
    sides = [(x, x_cuts, y, y_cuts)]
    if both:
        sides.append((y, y_cuts, x, x_cuts))
    for a in range(1, top_level + 1):
        top = 1 << (a - 1)
        for lows, low_cuts, highs, high_cuts in sides:
            if low_cuts[a - 1] == low_cuts[a] or high_cuts[a] == highs.size:
                continue
            hi = highs[high_cuts[a]:]
            hi = hi[(hi & top) == 0]
            if not hi.size:
                continue
            lo = lows[low_cuts[a - 1]:low_cuts[a]]
            rows = max(1, _PAIR_BLOCK // hi.size)  # one row is split when hi is longer
            for i in range(0, lo.size, rows):
                part = lo[i:i + rows]
                for j in range(0, hi.size, _PAIR_BLOCK):
                    h = hi[j:j + _PAIR_BLOCK]
                    yield part, h, _products(part[:, None], h[None, :], top)[1]


def _membership(members: np.ndarray, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """A lookup: which entries of an array of masks below 2^n are 0 or members.

    ``members`` is a sorted int64 array, nonempty above rank
    ``_DENSE_MAX_RANK``.  Up to that rank the lookup indexes a table of
    2^n bools, with entry 0 set; above it the table would not fit, so
    the lookup binary-searches ``members``.
    """
    if n <= _DENSE_MAX_RANK:
        table = np.zeros(1 << n, dtype=bool)
        table[0] = True
        table[members] = True
        return table.__getitem__

    def present(masks: np.ndarray) -> np.ndarray:
        pos = np.minimum(np.searchsorted(members, masks), len(members) - 1)
        return (masks == 0) | (members[pos] == masks)
    return present


def _within(masks: np.ndarray, S: "SaturatedSet") -> bool:
    """Whether distinct nonzero int64 ``masks`` are all members of ``S``; the whole group holds every mask."""
    return masks.size <= len(S) and (
        len(S) == (1 << S.n) - 1 or bool(_membership(S._sorted, S.n)(masks).all()))


def _top_bits(masks: np.ndarray) -> np.ndarray:
    """The top bit 2^(b-1) of each nonzero int64 mask, b its base, in any order or shape."""
    return _TOPS.take(_POWERS.searchsorted(masks, "right"))


def _uncovered(
    masks: np.ndarray, present: Callable[[np.ndarray], np.ndarray], n: int
) -> np.ndarray:
    """The entries of ``masks``, members of a saturated set, that no smaller pair yields.

    ``present`` is the set's lookup, as :func:`_membership` makes it.
    A member x based at a is covered when some b < a with bit b - 1 in
    x has both of these as members:

    - z_b = x & (2^b - 1), based at b;
    - y_b = (x & ~(2^b - 1)) | (2^(b-1) - 1), based at a and without bit b - 1.

    Then :func:`~rigidcomm.rigid.commutator_mask` (y_b, z_b) is x: it
    keeps bit b - 1, the bits the two share below it, which are z_b's,
    and y_b's bits above it, which are x's.  Both factors are smaller
    masks than x, so by induction on the mask the uncovered members
    generate the subgroup the set generates, and a normalizer test
    need meet only them.  Each mask takes n - 1 pairs of lookups, all
    in one block.
    """
    x = masks[:, None]
    z = x & _LOWS[1:n]  # b = 1..n-1
    y = x - z + _LOWS[:n - 1]  # x - z keeps x's bits from b up
    # z has bit b - 1 when z >= 2^(b-1), and b is below x's base when z != x
    covered = (z >= _POWERS[:n - 1]) & (z != x) & present(z) & present(y)
    return masks[~covered.any(axis=1)]


def _close_ints(seed: list[int], cap: int) -> list[int]:
    """The closure of distinct nonzero masks ``seed`` under products, on Python ints.

    Works in rounds, as the numpy rounds do: each member, in the order
    found, meets every member found before it through
    :func:`~rigidcomm.rigid.commutator_mask`, so the seed's pairs meet
    first, then each round's finds meet the members and each other, and
    every pair meets once.  A set that passes 2^``CLOSURE_MAX_RANK`` - 1
    members, ``cap``, raises
    :class:`~rigidcomm.permutations.ScaleGuardError`; one that passes
    ``_SCALAR_MEMBERS`` first is returned as found, with more members
    than that, and its closure is the seed's.
    """
    members, order = set(seed), list(seed)
    bound = min(_SCALAR_MEMBERS, cap)
    for i, x in enumerate(order):  # order grows as the rounds find members
        for y in order[:i]:
            z = commutator_mask(x, y)
            if z and z not in members:
                members.add(z)
                order.append(z)
                if len(order) > bound:
                    perm.check_cap("saturated set of size", len(order), cap)
                    return order
    return order


def _close(masks: np.ndarray, n: int, ambient: np.ndarray | None = None) -> np.ndarray:
    """The closure of sorted nonzero int64 ``masks`` under products, as a sorted int64 array.

    With no ``ambient`` the set is closed under products of its members,
    first on Python ints by :func:`_close_ints` while it has at most
    ``_SCALAR_MEMBERS`` members, then, past that, by numpy rounds from
    what the ints found.  With an ``ambient``, a sorted int64 array
    holding ``masks``, it is closed under products with the ambient's
    members in numpy rounds alone, and a product outside the ambient
    raises ``ValueError`` naming its pair, so ``ambient`` = ``masks``
    checks a set for closure.  Each numpy round multiplies the members
    found in the round before by the partners (the members, or the
    ambient) that can give a nonzero product, meeting each pair once
    when the two are the same set.  Each block's new products join the
    round's lookup before the next block, so every find is new, and a
    closure past 2^``CLOSURE_MAX_RANK`` - 1 members raises
    :class:`~rigidcomm.permutations.ScaleGuardError`, the seed's size
    before any product.
    """
    cap = (1 << CLOSURE_MAX_RANK) - 1
    perm.check_cap("saturated set of size", masks.size, cap)
    if ambient is None and masks.size <= _SCALAR_MEMBERS:
        found = _close_ints(masks.tolist(), cap)
        masks = np.array(sorted(found), dtype=np.int64)
        if len(found) <= _SCALAR_MEMBERS:
            return masks
    frontier = masks
    while frontier.size:
        partners = masks if ambient is None else ambient
        # a product lies below the larger factor's top bit, so the top partner bounds the lookups
        bits = int(partners[-1]).bit_length()
        inside = None if ambient is None else _membership(ambient, bits)
        present = before = _membership(masks, bits)
        for lo, hi, prod in _pair_products(frontier, partners, both=frontier.size < partners.size):
            miss = ~present(prod)
            if not miss.any():
                continue
            new = prod[miss]  # in C order, so entry k is the k-th miss of the block
            if inside is not None and not inside(new).all():
                r, c = (ix[(~inside(new)).argmax()] for ix in miss.nonzero())
                x, y, z = (RigidCommutator(int(v), n) for v in (lo[r], hi[c], prod[r, c]))
                raise ValueError(f"set is not closed under commutation: {x} with {y} gives {z}")
            new.sort()  # a repeat follows its first; np.unique imports numpy.ma (1.7 MB, 17 ms)
            masks = np.concatenate((masks, new[:1], new[1:][new[1:] != new[:-1]]))
            masks.sort(kind="stable")  # timsort: one linear merge of the two sorted runs
            perm.check_cap("saturated set of size", masks.size, cap)
            present = _membership(masks, bits)
        frontier = masks[~before(masks)]  # the round's finds, in order
    return masks


class SaturatedSet:
    """A commutation-closed set of nonempty rigid commutators.

    The constructor verifies closure and raises if it fails; operations
    whose result is closed by construction skip the check.  More than
    2^``CLOSURE_MAX_RANK`` - 1 members raise ``ScaleGuardError`` first.
    The set stores one read-only sorted int64 array of its masks;
    :attr:`masks` is a frozenset built from it on first read.
    """

    def __init__(self, n: int, members: Iterable = ()) -> None:
        masks = _coerce_masks(members, n)
        _close(masks, n, masks)
        masks.flags.writeable = False
        self.n, self._sorted = n, masks

    @classmethod
    def _make(cls, n: int, masks: np.ndarray) -> "SaturatedSet":
        # trusted: masks holds a saturated set's distinct nonzero masks, sorted, as int64
        self = object.__new__(cls)
        masks.flags.writeable = False  # the set's only stored form, shared by sets built from it
        self.n, self._sorted = n, masks
        return self

    masks = cached_property(lambda self: frozenset(self._sorted.tolist()))  # the members' masks

    @property
    def contains_translations(self) -> bool:
        """Whether every full-interval commutator t_i = [{1..i}] is a member."""
        return all((1 << i) - 1 in self.masks for i in range(1, self.n + 1))

    @property
    def log2_order(self) -> int:
        """log2 of the order of the generated subgroup (= member count)."""
        return self._sorted.size

    @property
    def members(self) -> tuple[RigidCommutator, ...]:
        """Members in canonical order (base ascending, then mask value)."""
        # a larger base means a larger mask, so canonical order is mask order
        return tuple(RigidCommutator._trusted(m, self.n) for m in self._sorted.tolist())

    def level_dims(self) -> tuple[int, ...]:
        """Member count per base, levels 1..n ascending.

        Level j contributes an elementary abelian block of this rank to
        the generated subgroup.
        """
        return tuple(np.diff(_level_cuts(self._sorted, self.n)).tolist())

    def __contains__(self, item) -> bool:
        if isinstance(item, RigidCommutator) and item.n == self.n:
            item = item.mask
        elif isinstance(item, bool) or not isinstance(item, int):  # True is not mask 1
            return False
        return item == 0 or item in self.masks

    def __iter__(self) -> Iterator[RigidCommutator]:
        return iter(self.members)

    def __len__(self) -> int:
        return self._sorted.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SaturatedSet):
            return NotImplemented
        return self.n == other.n and self._sorted.tobytes() == other._sorted.tobytes()

    def __hash__(self) -> int:
        return hash((self.n, self._sorted.tobytes()))

    def issubset(self, other: "SaturatedSet") -> bool:
        return self.n == other.n and _within(self._sorted, other)

    def __repr__(self) -> str:
        return f"SaturatedSet(n={self.n}, log2_order={self.log2_order})"

    # ── serialization ────────────────────────────────────────────────

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps({"n": self.n, "members": [list(c.elements) for c in self.members]}, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SaturatedSet":
        n, members = members_from_json(text)
        return cls(n, members)


def members_from_json(text: str) -> tuple[int, tuple[RigidCommutator, ...]]:
    """Read {"n": ..., "members": [...]} without requiring closure.

    Member entries may be descending integer lists like [6,5,4,3] or hex
    bitmask strings like "0x3c" (ASCII letters and digits only).
    """
    n, members = perm._json_fields(text, "members")
    _check_rank(n)
    if not isinstance(members, list):
        raise ValueError(f'"members" must be a list, got {type(members).__name__}')
    out = []
    for entry in members:
        if isinstance(entry, str):
            if not (entry.isascii() and entry.isalnum()):  # int() reads signs, "_", spaces, non-ASCII digits
                raise ValueError(f"bad hex member {entry!r}")
            out.append(RigidCommutator(int(entry, 16), n))
        elif isinstance(entry, list):
            out.append(RigidCommutator.from_elements(entry, n))
        else:
            raise ValueError(f"member entries must be lists or hex strings, got {entry!r}")
    return n, tuple(out)


def _check_sets(**sets) -> None:
    """Refuse an argument that is not a :class:`SaturatedSet` with ``TypeError`` naming it."""
    for name, S in sets.items():
        if not isinstance(S, SaturatedSet):
            raise TypeError(f"{name} must be a SaturatedSet, got {type(S)!r}")


def full_rigid_set(n: int) -> SaturatedSet:
    """All 2^n - 1 nonempty rigid commutators; generates the whole group.

    Ranks above ``CLOSURE_MAX_RANK`` raise ``ScaleGuardError`` before any work.
    """
    _check_rank(n)
    check_closure_rank(n)
    # closed by construction: commutators of rigid commutators are rigid
    return SaturatedSet._make(n, np.arange(1, 1 << n, dtype=np.int64))


def saturate(members: Iterable[RigidCommutator], n: int | None = None) -> SaturatedSet:
    """Smallest saturated set containing the given commutators.

    Generates the same subgroup as the seed.  Rank is taken from the
    members when not given; a seed whose first item is not a
    :class:`~rigidcomm.rigid.RigidCommutator` then raises ``ValueError``
    before any work.  The set is closed by :func:`_close`: on Python
    ints while it has at most ``_SCALAR_MEMBERS`` members, as most seeds'
    closures do, and past that in numpy rounds from what the ints found.
    Each kernel meets each pair of its members once; the numpy rounds
    meet the pairs of the members handed to them once more.  A set that
    would pass 2^``CLOSURE_MAX_RANK`` - 1
    members, which no set at that rank or below can, raises
    :class:`~rigidcomm.permutations.ScaleGuardError`.
    """
    seed = list(members)
    if n is None:
        if not seed or not isinstance(seed[0], RigidCommutator):
            raise ValueError("cannot infer the rank from an empty seed or an int mask: pass n")
        n = seed[0].n
    return SaturatedSet._make(n, _close(_coerce_masks(seed, n), n))


# ── normalizer machinery ─────────────────────────────────────────────────────

def _parked(masks: Iterable[int]) -> list[int]:
    """The masks whose lowest fill-in is in ``masks``: a ^ 2^j for each trailing one 2^j of each a."""
    out = []  # a whole step's joins in one call: a call per mask cost more than its wake
    for a in masks:
        bit = 1
        while a & bit:
            out.append(a ^ bit)
            bit <<= 1
    return out


def _witnesses(
    cands: np.ndarray, members: np.ndarray, present: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Why each candidate fails to normalize a set, found in row blocks of products.

    ``cands`` and ``members`` are nonzero int64 arrays, in any order, the
    latter a nonempty generating set of a saturated set, such as its
    :func:`_uncovered` members; ``present`` is the set's lookup, as
    :func:`_membership` makes it.  Entry k of the result is the largest
    nonzero product [cands[k], m], m in ``members``, that lies outside
    the set, or 0 when cands[k] normalizes the span of the set.

    The candidates meet all the members in row blocks of
    ``_PAIR_BLOCK // len(members)`` candidates, at least one, so a block
    holds at most ``max(_PAIR_BLOCK, len(members))`` products.  One
    :func:`_top_bits` call reads the top bits of candidates and members
    together, and each block is one call of :func:`_products` with the
    smaller top bit t of each pair.  One masked assignment zeroes the
    pairs whose shared bits reach t, which make no product, and the
    products inside the set, 0 among them, so a row's witness is its
    largest product outside the set.  A scan of one block returns its
    row maxima as they are.
    """
    k = len(cands)
    tops = _top_bits(np.concatenate((cands, members)))
    x, x_tops, y_tops = cands[:, None], tops[:k, None], tops[k:]
    rows = max(1, _PAIR_BLOCK // len(members))
    found = [cands[:0]]
    for i in range(0, k, rows):
        t = np.minimum(x_tops[i:i + rows], y_tops)
        shared, prod = _products(x[i:i + rows], members, t)
        prod[(shared >= t) | present(prod)] = 0
        found.append(prod.max(axis=1))
    return found[1] if len(found) == 2 else np.concatenate(found)


def normalizing_step(M: SaturatedSet) -> SaturatedSet:
    """All rigid commutators whose commutator with every member stays inside.

    One step of the normalizer chain: the members of the normalizer of
    <M>, which must contain the full-interval commutators.  A commutator
    c outside M with lowest hole k has [c, t_k] = c | (c + 1), so it
    fails unless that fill-in is in M: only the masks that :func:`_parked`
    gives for M's members are scanned, with no ambient set, against M's
    :func:`_uncovered` members, which generate <M>.  A scan of more than
    (2^``CLOSURE_MAX_RANK`` - 1)^2 candidate-member pairs raises
    :class:`~rigidcomm.permutations.ScaleGuardError` before any product,
    and an ``M`` that is not a :class:`SaturatedSet` raises ``TypeError``.
    """
    _check_sets(M=M)
    if not M.contains_translations:
        raise ValueError("the set must contain all full-interval commutators t_1..t_n")
    members = M._sorted
    present = _membership(members, M.n)
    parked = np.array(_parked(members.tolist()), dtype=np.int64)
    pool = parked[~present(parked)]
    cover = _uncovered(members, present, M.n)
    cap = (1 << CLOSURE_MAX_RANK) - 1
    perm.check_cap("normalizer scan of pairs", len(pool) * len(cover), cap * cap)
    found = _witnesses(pool, cover, present)
    return SaturatedSet._make(M.n, np.sort(np.concatenate((members, pool[found == 0]))))


def normalizer_in(B: SaturatedSet, A: SaturatedSet) -> SaturatedSet:
    """Members of B normalizing the subgroup generated by A.

    Requires A to be a subset of B and to contain the full-interval
    commutators.  The normalizer of <A> in <B> is N(<A>) ∩ <B>, and two
    saturated sets meet in a saturated set, so this is the
    :func:`normalizing_step` of A met with B: a member c of B outside A,
    lowest hole k, fails when [c, t_k] = c | (c + 1) lies outside A.
    An argument that is not a :class:`SaturatedSet` raises ``TypeError``.
    """
    _check_sets(B=B, A=A)
    if not A.issubset(B):
        raise ValueError("A must be a subset of B (same rank, members contained)")
    step = normalizing_step(A)._sorted
    return SaturatedSet._make(B.n, step[_membership(B._sorted, B.n)(step)])


def check_closure_rank(n: int) -> None:
    """Refuse a normal closure past ``CLOSURE_MAX_RANK``."""
    perm.check_cap("closure at rank", n, CLOSURE_MAX_RANK)


def normal_closure(A: SaturatedSet, B: SaturatedSet) -> SaturatedSet:
    """Smallest subset of B containing A and closed under commutation with all of B.

    Generates the normal closure of <A> in <B>.  When B is the whole
    group, which holds exactly when it has all 2^n - 1 masks, the result
    has a closed form and no product is evaluated.  Let a0 be the lowest
    base among A's members.  At each base b the result holds every mask
    m based at b with m >= t_b, where t_b is the smaller of the smallest
    member of A based at b and, when b > a0, 2^(b-1) + 2^(a0-1); a base
    with neither value holds nothing.  Why this holds, with
    sigma_b = 2^(b-1) the single-bit masks, which generate the group:

    1. Products with a generator.  Let x have base a.  For b > a,
       [x, sigma_b] = {b, a}.  For b < a with bit b missing from x,
       [x, sigma_b] keeps x above b, sets b and clears everything below
       b.  In every other case the product is 0.
    2. The closure contains the set.  Each mask the rule admits is
       reached from a member of A by such products.  To reach a larger
       mask at the same base, set its highest differing bit, then add
       its lower bits in decreasing order.  To reach base b > a0, start
       from {b, a0}.
    3. The set is saturated.  Multiply members based at b1 < b2.  The
       product has base b2, and its second-highest bit is at least
       b1 >= a0, so the product is >= t_b2.  Products with the sigma_b
       stay in the set by step 1.  So <set> is normal and contains A.
    4. Conclusion.  By steps 2 and 3, <set> is the normal closure, since
       a saturated set is exactly the member set of the subgroup it
       spans.

    Any other B takes :func:`_close` within B.  Ranks above
    ``CLOSURE_MAX_RANK`` raise
    :class:`~rigidcomm.permutations.ScaleGuardError`, an argument that is
    not a :class:`SaturatedSet` raises ``TypeError`` and an A outside B
    raises ``ValueError``, all before any work.
    """
    _check_sets(A=A, B=B)
    check_closure_rank(B.n)
    if not A.issubset(B):
        raise ValueError("A must be a subset of B (same rank, members contained)")
    n, seed = B.n, A._sorted
    if len(B) < (1 << n) - 1:
        return SaturatedSet._make(n, _close(seed, n, B._sorted))
    if not seed.size:
        return A
    cuts, a0, runs = _level_cuts(seed, n), int(seed[0]).bit_length(), []
    for b in range(a0, n + 1):
        # the smallest member of A based at b, else 2^b, past the level
        t = int(seed[cuts[b - 1]]) if cuts[b - 1] < cuts[b] else 1 << b
        if b > a0:
            t = min(t, (1 << (b - 1)) | (1 << (a0 - 1)))
        runs.append(np.arange(t, 1 << b, dtype=np.int64))
    return SaturatedSet._make(n, np.concatenate(runs))


# ── unique factorization over rigid commutators ──────────────────────────────

def _superset_xor_levels(exps: np.ndarray) -> np.ndarray:
    """Each level block exps[2^(l-1):2^l] taken to its superset-sum XOR over the bits below 2^(l-1).

    ``exps`` is a 0/1 vector of length 2^w; the result is a new 0/1 vector
    of the same length.  The vector is packed into one integer, bit k the
    entry at k, and pass j = 0..w-2 folds each entry whose index has
    bit j clear with its partner at bit j set, over the levels that have
    bit j below their top bit: one shift, mask and XOR of the whole
    integer, with the masks built once per width by :func:`_pass_masks`.
    """
    size = len(exps)
    x = int.from_bytes(np.packbits(exps, bitorder="little"), "little")
    for j, mask in enumerate(_pass_masks(size.bit_length() - 1)):
        x ^= (x >> (1 << j)) & mask
    packed = np.frombuffer(x.to_bytes((size + 7) >> 3, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=size, bitorder="little")


@lru_cache(maxsize=None)
def _pass_masks(width: int) -> tuple[int, ...]:
    """Pass j's mask over 2^width bits, j = 0..width-2: the indices k >= 2^(j+1) with bit j clear."""
    size = 1 << width
    masks = []
    for j in range(width - 1):
        period = 2 << j
        every = ((1 << size) - 1) // ((1 << period) - 1)  # bit 0 of each period-long run
        masks.append(every * ((1 << (1 << j)) - 1) & ~((1 << period) - 1))
    return tuple(masks)


def _reverse_bits(v: np.ndarray) -> np.ndarray:
    """``v`` by bit-reversed index: a level's MSB-first prefixes to mask order and back."""
    return v.reshape((2,) * (len(v).bit_length() - 1)).T.ravel()


@lru_cache(maxsize=None)
def _portrait_reads(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank n's reads of a portrait, built once and shared: x ^ (x - 1) for x >= 1,
    and in mask order each level's prefix points p 0...0 with the bit that level flips."""
    pts = np.arange(1 << n, dtype=np.intp)
    low = pts & -pts  # point x at prefix p of level l is p 1 0...0; x ^ low is p 0 0...0
    rev = _reverse_bits(pts)
    reads = (pts[1:] ^ pts[:-1], (pts ^ low)[rev], low[rev])
    for a in reads:
        a.flags.writeable = False
    return reads


@lru_cache(maxsize=None)
def _commutators(n: int) -> np.ndarray:
    """The 2^n rigid commutators of rank ``n`` by mask, a read-only object array built once and shared."""
    table = np.array([RigidCommutator._trusted(m, n) for m in range(1 << n)], dtype=object)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class Factorization:
    """Unique decomposition of a tree permutation over rigid commutators.

    ``factors`` lists the exponent-1 commutators in canonical order; all
    other rigid commutators have exponent 0.  ``member`` reports whether
    every factor lay in the queried set (always True against the full
    set).  A rank that is not an integer in 1..63 raises ``ValueError``.
    """

    n: int
    factors: tuple[RigidCommutator, ...]
    member: bool

    def __post_init__(self) -> None:
        _check_rank(self.n)

    def exponent(self, c: RigidCommutator) -> int:
        """1 if ``c`` is a factor, else 0; a non-commutator or another rank is refused."""
        return 1 if self._checked(c) in self._factor_set else 0

    _factor_set = cached_property(lambda self: frozenset(self.factors))  # once per object

    def _checked(self, c) -> RigidCommutator:
        if not isinstance(c, RigidCommutator):
            raise TypeError(f"factors must be RigidCommutator, got {type(c)!r}")
        if c.n != self.n:
            raise ValueError(f"rank mismatch: factor has rank {c.n}, factorization has {self.n}")
        return c

    def to_permutation(self) -> perm.TreePermutation:
        """Re-expand the product of the factors, taken in canonical order.

        The inverse of :func:`factorize`: the superset-sum XOR transform
        of the factors' exponents, in point order, is the portrait that
        :func:`factorize` reads, each point p 1 0...0 holding the inverse's
        flip of its level's letter at prefix p.  The transform is
        :func:`_superset_xor_levels`, w - 1 shift-and-mask passes over
        the exponents packed into one integer.  One gather over all
        levels builds the inverse from the portrait, and one scatter
        inverts that.
        A factor that is not a :class:`~rigidcomm.rigid.RigidCommutator`
        raises ``TypeError``.  Ranks above ``FACTORIZE_MAX_RANK`` raise
        :class:`~rigidcomm.permutations.ScaleGuardError`.
        """
        n = self.n
        perm.check_cap("to_permutation at rank", n, FACTORIZE_MAX_RANK)
        exps = np.bincount([self._checked(c).mask for c in self.factors], minlength=1 << n) % 2 == 1
        portrait = _reverse_bits(_superset_xor_levels(exps))  # a repeated factor cancels in pairs
        pts, k = np.arange(1 << n), np.arange(n)[:, None]
        # bit k of inv[x] is bit k of x flipped by the portrait at x's bits above k, then a 1, then zeros
        inv = pts ^ (portrait[((pts >> k) | 1) << k] << k).sum(axis=0)
        return perm.TreePermutation._from0(perm._inverted(inv), n)

    def __str__(self) -> str:
        if not self.factors:
            return "[]"
        return " ".join(str(c) for c in self.factors)


def factorize(g: perm.TreePermutation, within: SaturatedSet | None = None) -> Factorization:
    """Factor a tree permutation uniquely over rigid commutators.

    Two vectorized reads over the 2^n points, with no loop over levels.
    A bijection g is in the tree group exactly when the images of x - 1
    and x agree above the lowest set bit of x: the points agree there and
    g keeps shared top bits shared; conversely, a chain of neighbours in
    each aligned block makes g(x)'s bits above bit k depend only on x's.
    Level l's flip at prefix p is g^-1's own label there, bit n - l of
    g^-1(p 0...0).  A rigid commutator based at l flips letter l at the
    prefixes (in mask order) that are submasks of its index set below l,
    so a level's flips are the superset-sum XOR transform of its
    exponents; mod 2 the transform is its own inverse, so one transform
    of all levels' flips gives every exponent.  The reads go through
    gather indices cached per rank (:func:`_portrait_reads`), with the
    bit reversal from point order to mask order folded in.  With
    ``within`` given, ``member`` reports whether every factor lies in
    that set.  A ``g`` or ``within`` of the wrong type raises
    ``TypeError``, and ranks above ``FACTORIZE_MAX_RANK`` raise
    :class:`~rigidcomm.permutations.ScaleGuardError`.
    """
    if not isinstance(g, perm.TreePermutation):
        raise TypeError(f"g must be a TreePermutation, got {type(g)!r}")
    if within is not None:
        _check_sets(within=within)
    n = g.n
    perm.check_cap("factorize at rank", n, FACTORIZE_MAX_RANK)
    if within is not None and within.n != n:
        raise ValueError(f"rank mismatch: permutation has rank {n}, set has {within.n}")
    img = g._img
    steps, prefixes, lows = _portrait_reads(n)
    if ((img[1:] ^ img[:-1]) > steps).any():
        raise ValueError("permutation is not an element of the rank-n tree group "
                         "(the images of x - 1 and x differ above the lowest set bit of x)")
    inv = perm._inverted(img)
    flips = (inv[prefixes] & lows) != 0  # level l's flips in its mask-order block
    masks = _superset_xor_levels(flips).nonzero()[0]  # mask order is canonical order
    member = within is None or _within(masks, within)
    return Factorization(n, tuple(_commutators(n)[masks].tolist()), member)
