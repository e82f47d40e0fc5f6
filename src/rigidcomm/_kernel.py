"""The mask-product kernels, each rule stated here and selected here.

Every kernel applies the closed-form product of
:func:`~rigidcomm.rigid.commutator_mask` to masks x and y with t the
smaller top bit: (x & y) | ((x ^ y) & -t), or 0 where x & y >= t.  Three
rules read products against S, a saturated set with the translations:

- **Witness.**  A candidate c's witness against a generating set of S is
  its largest product [c, m], m a generator, outside S, or 0 when c
  normalizes <S>.  The terms of a chain only grow, so c keeps failing
  until its witness joins.
- **Cover.**  A member x based at a is covered when some b < a with bit
  b - 1 in x has both z_b = x & (2^b - 1) and y_b = (x & ~(2^b - 1)) |
  (2^(b-1) - 1) as members.  [y_b, z_b] = x: it keeps bit b - 1, the
  bits the two share below it, z_b's, and y_b's bits above it, x's.  Both
  factors are smaller masks than x, so by induction the uncovered members
  generate <S>, and a witness need meet only them.
- **Wake.**  A candidate c with a hole k below its base has [c, t_k] =
  c | 2^(k-1), so its lowest fill-in c | (c + 1) is its witness whenever
  that lies outside S.  A member a wakes the masks parked on it, a ^ 2^j
  for each trailing one 2^j of a.

Each rule with two kernels, Python ints for small inputs and numpy
blocks for large ones, is selected by size in one place, and the two
give the same result: a numpy call costs tens of microseconds whatever
its size, and most of a chain's scans and prunes are small.  The chain
picks each step's scan kernel through :func:`_step_kernel`, which its
``--timings`` rows read too, and runs it through :func:`_chain_witnesses`;
it prunes through :func:`_chain_cover`.  Both take the chain loop's own
``memoryview`` of its join steps and make none: the int kernels read it,
and the numpy kernels the array under it.  What is left of a chain
scan's cost is per call, so a block scan converts its candidates and
cover in one call and reads their top bits from tables of their own
width, and the int scan rules out a pair with no product from one bit.  ``normalizing_step``,
the chain's test reference, calls the numpy kernels directly.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

from . import permutations as perm
from .rigid import RigidCommutator, commutator_mask

# mask products per block of _pair_products, 128 KiB an int64 array of them.  glibc's
# malloc serves a request of 128 KiB or more by mmap, and gives a free heap top past
# its trim threshold (128 KiB by default) back to the system, so a block whose
# temporaries pass that faults fresh pages in at every block, about 2.4 µs a page
# (2-vCPU host).  _witnesses holds four words a product at its peak (its top bits t,
# and _products' shared bits, products and -t) where _pair_products yields one, so it
# takes the same 128 KiB in all: a quarter of this many products at int64, half at
# the int32 a chain's masks take; its lookup, made once the shared bits and t are
# freed, holds the products, the keep mask and the looked-up steps, less than that.
# In the benchmark's loop a chain-prefix batch took 521 minor faults (median) with
# whole int64 blocks there and none with quarters.
# _pair_products keeps whole blocks: at 4096 products the closure check of
# predicted_chain_set(31, 29) ran 8-14 % slower in fresh processes
_PAIR_BLOCK = 1 << 14
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
# per width, the powers 2^k it holds and, at b, the top bit 2^(b-1) of a base-b mask, 0 for the
# identity, so that _top_bits searches and reads its masks' own width and casts nothing
_TOPS = {np.dtype(t): (_POWERS[:bits - 1].astype(t), np.insert(_POWERS[:bits - 1], 0, 0).astype(t))
         for t, bits in ((np.int32, 32), (np.int64, 64))}
_LOWS = _POWERS - 1  # 2^k - 1, the bits below 2^k
_NEVER = np.iinfo(np.int32).max  # the join step of a mask outside every computed term
# a step scans a block of at most this many candidate-cover pairs in a Python
# loop, a larger one in _witnesses' numpy blocks; in-process against numpy alone,
# cutoffs 64, 128, 256 and 512 ran full chains in 0.80, 0.76, 0.78 and 0.85 of
# the time at rank 9, 0.87, 0.82, 0.85 and 0.92 at rank 12 (2-vCPU host)
_SCALAR_PAIRS = 128
# a cover prune of at most this many members runs on ints, a larger one in
# _uncovered's numpy block, whatever the rank: the largest cutoff at which no
# rank from 9 to 16 loses.  In-process on every prune of run_chain(n) (2-vCPU
# host, min of 21, three runs), a line fitted to ints' time less numpy's, per
# prune, crossed zero at 40.9-47.0 members at rank 9, 39.1-39.7 at rank 12,
# 41.2-41.4 at rank 14 and 44.5-48.0 at rank 16
_SCALAR_PRUNE = 39


def _level_cuts(masks: np.ndarray, levels: int) -> list[int]:
    """Level ``a`` of sorted nonzero int64 ``masks``, top bit 2^(a-1), is masks[cuts[a-1]:cuts[a]]."""
    return [*masks.searchsorted(_POWERS[:levels]).tolist(), masks.size]


def _products(x: np.ndarray, y: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """The bits masks ``x`` and ``y`` share, and their products, elementwise.

    ``t`` is the smaller top bit of the two, and the product is the
    module's closed form, the same in either order, as the smaller factor
    has no bit above ``t``.  Where ``x & y >= t`` the two share ``t``,
    equal bases included, and the product is 0 but the expression is not,
    so the callers zero those pairs from the shared bits, or pass none.
    """
    shared, prod = x & y, x ^ y
    prod &= -t  # in place: an array t makes -t a fourth word a product, as _PAIR_BLOCK counts
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


def _in_term(joined: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """A chain term's lookup, as :func:`_membership` makes a set's, read from its join steps with ``take``."""
    return lambda masks: joined.take(masks) != _NEVER


def _top_bits(masks: np.ndarray) -> np.ndarray:
    """The top bit 2^(b-1) of each nonzero int32 or int64 mask, b its base, in any order or shape
    and in masks' dtype, read from the tables of that width."""
    powers, tops = _TOPS[masks.dtype]
    return tops[powers.searchsorted(masks, "right")]


def _uncovered(
    masks: np.ndarray, present: Callable[[np.ndarray], np.ndarray], n: int
) -> np.ndarray:
    """The entries of ``masks``, members of a saturated set, that the cover rule keeps.

    ``present`` is the set's lookup, as :func:`_membership` makes it.
    Each mask takes n - 1 pairs of lookups, all in one block.
    """
    x = masks[:, None]
    z = x & _LOWS[1:n]  # b = 1..n-1
    y = x - z + _LOWS[:n - 1]  # x - z keeps x's bits from b up
    # z has bit b - 1 when z >= 2^(b-1), and b is below x's base when z != x
    covered = (z >= _POWERS[:n - 1]) & (z != x) & present(z) & present(y)
    return masks[~covered.any(axis=1)]


def _uncovered_ints(masks: list[int], joined: memoryview) -> list[int]:
    """:func:`_uncovered`'s members, by the cover rule, a member at a time on ints.

    ``joined`` reads each mask's join step, ``_NEVER`` outside the term
    that holds ``masks``.  Each member walks its bits b - 1 below its top
    bit, lowest first, and is dropped at the first pair found in the
    term; y_b, more often outside, is read first.
    """
    kept = []
    for x in masks:
        rest = x ^ (1 << (x.bit_length() - 1))  # the bits b - 1 with b below x's base
        while rest:
            low = rest ^ (rest - 1)  # 2^b - 1, b - 1 the lowest bit left
            rest &= rest - 1
            z = x & low
            if joined[(x - z) | (low >> 1)] != _NEVER and joined[z] != _NEVER:
                break
        else:
            kept.append(x)
    return kept


def _chain_cover(masks: list[int], n: int, view: memoryview) -> list[int]:
    """The entries of ``masks``, members of a chain's term, that the cover rule keeps.

    ``view`` is the chain loop's ``memoryview`` of the term's join steps.
    At most ``_SCALAR_PRUNE`` members go to :func:`_uncovered_ints`,
    which reads ``view``, more to :func:`_uncovered`, which reads the
    array under it, ``view.obj``; both keep the order of ``masks``.
    """
    if len(masks) <= _SCALAR_PRUNE:
        return _uncovered_ints(masks, view)
    return _uncovered(np.array(masks, dtype=np.int64), _in_term(view.obj), n).tolist()


def _parked(masks: Iterable[int]) -> list[int]:
    """The masks whose lowest fill-in is in ``masks``, by the wake rule."""
    out = []  # a whole step's joins in one call: a call per mask cost more than its wake
    for a in masks:
        bit = 1
        while a & bit:
            out.append(a ^ bit)
            bit <<= 1
    return out


def _witnesses(
    masks: np.ndarray, k: int, lookup: Callable[[np.ndarray], np.ndarray], outside
) -> list[int]:
    """The witness of each of the first ``k`` entries of ``masks``, by the witness rule, found
    in row blocks of products.

    ``masks`` is one nonzero int32 or int64 array, in any order: the
    candidates, then the members, a nonempty generating set of a
    saturated set, such as its :func:`_uncovered` members.  A product p
    lies outside the set where ``lookup(p) == outside``: a chain's term
    passes its join steps' ``take`` and ``_NEVER``, a saturated set its
    :func:`_membership` lookup and False.  Entry j of the result, a
    list of ints as :func:`_scan` gives, is masks[j]'s witness against
    the members.  The scan computes in the width it is given, top bits
    too: int64 in ``normalizing_step``, int32 for a chain's masks, below
    2^``CHAIN_MAX_RANK``, which the chain converts from its lists in one
    call.

    The candidates meet all the members in row blocks sized by bytes:
    four words a product in ``_PAIR_BLOCK`` int64 words, 128 KiB, that is
    ``_PAIR_BLOCK // 4`` int64 or ``_PAIR_BLOCK // 2`` int32 products, and
    at least one candidate a block, so a block stays inside the heap, as
    ``_PAIR_BLOCK``'s comment explains.  One :func:`_top_bits` call reads
    every top bit, and each block is one call of :func:`_products` with
    the smaller top bit t of each pair.  The pairs whose shared bits
    reach t make no product; a keep mask drops them, and the shared bits
    and t are freed, before the lookup keeps the products outside the
    set, 0 never among them.  Multiplying by the keep mask zeroes the
    rest, so the maximum of a row is its largest product outside the
    set, and the block's products and mask are freed before the next
    block's words are made.  Each block slices its rows straight from
    ``masks`` and its top bits, so a scan of one block, as most of a
    chain's are, makes no other view.
    """
    tops = _top_bits(masks)
    y, y_tops = masks[k:], tops[k:]
    rows = max(1, _PAIR_BLOCK * 8 // (4 * masks.itemsize) // len(y))
    found = []
    for i in range(0, k, rows):
        j = min(i + rows, k)
        t = np.minimum(tops[i:j, None], y_tops)
        shared, prod = _products(masks[i:j, None], y, t)
        keep = shared < t
        del shared, t
        keep &= lookup(prod) == outside
        prod *= keep
        found += np.maximum.reduce(prod, 1).tolist()
        del prod, keep
    return found


def _scan(cands: list[int], cover: list[int], joined: memoryview) -> list[int]:
    """:func:`_witnesses`' witnesses, by the witness rule, a pair at a time on ints.

    ``joined`` reads each mask's join step, ``_NEVER`` outside the term
    that ``cover`` generates.  A pair has no product where the larger
    factor has the smaller one's top bit t, which the smaller has, so
    one bit decides it before t is needed: m & tx for a member m based
    at or above the candidate x, whose top bit tx is then t, and
    x & t for a member based below it.
    """
    found = []
    for x in cands:
        tx = 1 << (x.bit_length() - 1)
        w = 0
        for m in cover:
            if m >= tx:
                if m & tx:
                    continue
                t = tx
            else:
                t = 1 << (m.bit_length() - 1)
                if x & t:
                    continue
            p = (x & m) | ((x ^ m) & -t)
            if p > w and joined[p] == _NEVER:
                w = p
        found.append(w)
    return found


def _step_kernel(rescanned: int, cover: int) -> str:
    """The kernel of a chain step that scans ``rescanned`` candidates against ``cover`` members:
    "lone" for at most one candidate, which joins unscanned, else "scalar", :func:`_scan`, for at
    most ``_SCALAR_PAIRS`` candidate-cover pairs, and "block", :func:`_witnesses`, for more."""
    if rescanned <= 1:
        return "lone"
    return "scalar" if rescanned * cover <= _SCALAR_PAIRS else "block"


def _chain_witnesses(kernel: str, cands: list[int], cover: list[int], view: memoryview) -> list[int]:
    """Each candidate's witness against ``cover``, which generates a chain's term, by ``kernel``,
    "scalar" or "block" as :func:`_step_kernel` names it.

    ``view`` is the chain loop's ``memoryview`` of the term's join steps:
    :func:`_scan` reads it, and :func:`_witnesses` the array under it,
    ``view.obj``, with ``take``, on the candidates and the cover
    converted to int32 in one call.
    """
    if kernel == "scalar":
        return _scan(cands, cover, view)
    return _witnesses(np.array(cands + cover, dtype=np.int32), len(cands), view.obj.take, _NEVER)


def _close_ints(seed: list[int], cap: int) -> list[int]:
    """The closure of distinct nonzero masks ``seed`` under products, on Python ints.

    Works in rounds, as the numpy rounds do: each member, in the order
    found, meets every member found before it through
    :func:`~rigidcomm.rigid.commutator_mask`, so the seed's pairs meet
    first, then each round's finds meet the members and each other, and
    every pair meets once.  A set that passes ``cap`` members raises
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


def _close(masks: np.ndarray, cap: int, ambient: np.ndarray | None = None) -> np.ndarray:
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
    closure past ``cap`` members raises
    :class:`~rigidcomm.permutations.ScaleGuardError`, the seed's size
    before any product.
    """
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
                x, y, z = (RigidCommutator(int(v), bits) for v in (lo[r], hi[c], prod[r, c]))
                raise ValueError(f"set is not closed under commutation: {x} with {y} gives {z}")
            new.sort()  # a repeat follows its first; np.unique imports numpy.ma (1.7 MB, 17 ms)
            masks = np.concatenate((masks, new[:1], new[1:][new[1:] != new[:-1]]))
            masks.sort(kind="stable")  # timsort: one linear merge of the two sorted runs
            perm.check_cap("saturated set of size", masks.size, cap)
            present = _membership(masks, bits)
        frontier = masks[~before(masks)]  # the round's finds, in order
    return masks
