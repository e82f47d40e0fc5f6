"""Ground-truth permutations for the binary tree group on {1, ..., 2^n}.

Points are binary words w1...wn read most significant bit first, so word
w corresponds to point 1 + sum(2^(n-i) * wi).  Generator i flips letter
wi exactly when the prefix w1...w(i-1) is all zeros.  Products act on the
right: (w)(pq) = ((w)p)q.

This module is the independent oracle for the mask calculus in
:mod:`rigidcomm.rigid`: everything here is computed on explicit image
arrays, never through the closed-form product.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .rigid import MAX_RANK, RigidCommutator, _check_int

EXPAND_MAX_RANK = 12    # 2^12-point arrays
BRUTE_MAX_RANK = 3      # exhaustive Sym(2^n) scans stop at 8 points

__all__ = [
    "EXPAND_MAX_RANK",
    "BRUTE_MAX_RANK",
    "ScaleGuardError",
    "check_cap",
    "TreePermutation",
    "LevelFlipPattern",
    "identity",
    "generator",
    "compose",
    "inverse",
    "perm_commutator",
    "expand",
    "level_flip_pattern",
    "flip_pattern_permutation",
    "generate_group",
    "elementary_abelian_order",
    "translation_checks",
    "brute_normalizer_in_sym",
    "perm_to_json",
    "perm_from_json",
]


class ScaleGuardError(Exception):
    """Raised when an operation would exceed its scale cap."""


def check_cap(what: str, value: int, cap: int) -> None:
    """Raise :class:`ScaleGuardError` when ``value`` is past ``cap``.

    Every scale guard goes through here, before the work it guards.
    Callers pass their module's cap constant at call time.
    """
    if value > cap:
        raise ScaleGuardError(f"{what} {value} exceeds the cap {cap}")


class TreePermutation:
    """A bijection of {1, ..., 2^n}, stored as a read-only image array.

    Public input and output are 1-based; the internal array is 0-based.
    Instances are immutable, hashable, and compare by value.
    """

    __slots__ = ("n", "_img")

    def __init__(self, images: Iterable[int], n: int | None = None) -> None:
        if n is not None:
            _check_int("rank", n, 0)
        images = list(images)
        for v in images:  # before numpy truncates a float or parses a string
            _check_int("image", v, 1, len(images))
        arr = np.asarray(images, dtype=np.intp)
        size = arr.shape[0]
        if n is None:
            n = max(size.bit_length() - 1, 0)
        if size != (1 << n) or arr.ndim != 1:
            raise ValueError(f"image array must have length 2^{n}, got {size}")
        arr = arr - 1
        if not np.array_equal(np.sort(arr), np.arange(size)):
            raise ValueError("images are not a permutation of 1..2^n")
        self.n = n
        self._img = arr
        self._img.flags.writeable = False

    @classmethod
    def _from0(cls, arr: np.ndarray, n: int) -> "TreePermutation":
        # trusted constructor: arr is a 0-based permutation array
        self = object.__new__(cls)
        self.n = n
        img = np.ascontiguousarray(arr, dtype=np.intp)
        img.flags.writeable = False
        self._img = img
        return self

    @property
    def images(self) -> tuple[int, ...]:
        """1-based image tuple: entry x-1 is the image of point x."""
        return tuple(int(v) + 1 for v in self._img)

    @property
    def is_identity(self) -> bool:
        return bool((self._img == np.arange(self._img.size)).all())

    def __call__(self, point: int) -> int:
        _check_int("point", point, 1, 1 << self.n)  # before numpy indexes it
        return int(self._img[point - 1]) + 1

    def __mul__(self, other: "TreePermutation") -> "TreePermutation":
        return compose(self, other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreePermutation):
            return NotImplemented
        return self.n == other.n and self._img.tobytes() == other._img.tobytes()

    def __hash__(self) -> int:
        return hash((self.n, self._img.tobytes()))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles on 1-based points, fixed points omitted.

        Each cycle starts at its smallest point; cycles are sorted by
        first point.
        """
        img = self._img
        seen = np.zeros(img.shape[0], dtype=bool)
        out = []
        for start in range(img.shape[0]):
            if seen[start] or img[start] == start:
                seen[start] = True
                continue
            cyc = []
            x = start
            while not seen[x]:
                seen[x] = True
                cyc.append(x + 1)
                x = int(img[x])
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_string(self) -> str:
        """Cycle notation like "(1, 33)(2, 34)"; "()" for the identity."""
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ", ".join(str(p) for p in c) + ")" for c in cycs)

    def __str__(self) -> str:
        return self.cycle_string()

    def __repr__(self) -> str:
        return f"TreePermutation(n={self.n}, {self.cycle_string()})"


def identity(n: int) -> TreePermutation:
    """The identity at rank n; ranks above ``EXPAND_MAX_RANK`` raise :class:`ScaleGuardError`."""
    _check_int("rank", n, 0)
    check_cap("permutation at rank", n, EXPAND_MAX_RANK)
    return TreePermutation._from0(np.arange(1 << n, dtype=np.intp), n)


def generator(i: int, n: int) -> TreePermutation:
    """The i-th tree generator: flips letter i under an all-zero prefix.

    As a permutation it is the involution (1, 1+2^(n-i))(2, 2+2^(n-i))...
    with support {1, ..., 2^(n-i+1)}.  The rank is checked as by :func:`identity`.
    """
    _check_int("rank", n, 0)
    check_cap("permutation at rank", n, EXPAND_MAX_RANK)
    _check_int("generator index", i, 1, n)
    img = np.arange(1 << n, dtype=np.intp)
    step = 1 << (n - i)
    img[: 2 * step] ^= step
    return TreePermutation._from0(img, n)


def compose(p: TreePermutation, q: TreePermutation) -> TreePermutation:
    """Right-action product: apply p first, then q."""
    if p.n != q.n:
        raise ValueError(f"rank mismatch: {p.n} != {q.n}")
    return TreePermutation._from0(q._img.take(p._img), p.n)


@functools.lru_cache(maxsize=None)
def _points(size: int) -> np.ndarray:
    """The points 0..size-1, a read-only intp array built once per size (2^n, one a rank) and shared."""
    pts = np.arange(size, dtype=np.intp)
    pts.flags.writeable = False
    return pts


def _inverted(img: np.ndarray) -> np.ndarray:
    """The inverse of a 0-based image array, by one scatter of the cached :func:`_points`."""
    inv = np.empty_like(img)
    inv[img] = _points(img.size)
    return inv


def inverse(p: TreePermutation) -> TreePermutation:
    return TreePermutation._from0(_inverted(p._img), p.n)


def perm_commutator(p: TreePermutation, q: TreePermutation) -> TreePermutation:
    """Group commutator p^-1 q^-1 p q on explicit images.

    Computed as (qp)^-1 (pq), which is the same product since
    p^-1 q^-1 = (qp)^-1: three gathers build pq, qp and the result, and
    one scatter inverts qp, with one permutation built for the result.
    """
    if p.n != q.n:
        raise ValueError(f"rank mismatch: {p.n} != {q.n}")
    pq, qp = q._img.take(p._img), p._img.take(q._img)
    return TreePermutation._from0(pq.take(_inverted(qp)), p.n)


def expand(c: RigidCommutator) -> TreePermutation:
    """Evaluate a rigid commutator as an explicit permutation.

    Folds the left-normed word over the generators of its index set in
    descending order, entirely at the permutation level.  Ranks above
    ``EXPAND_MAX_RANK`` raise :class:`ScaleGuardError`.
    """
    check_cap("expand at rank", c.n, EXPAND_MAX_RANK)
    if c.is_identity:
        return identity(c.n)
    idx = c.elements
    p = generator(idx[0], c.n)
    for k in idx[1:]:
        p = perm_commutator(p, generator(k, c.n))
    return p


# ── level flip patterns ──────────────────────────────────────────────────────

@dataclass(frozen=True)
class LevelFlipPattern:
    """Which (level-1)-bit prefixes see their next letter flipped.

    Prefixes are integers with w1 as the most significant bit.  Elements
    that only touch letter ``level``, in 1..``MAX_RANK``, are exactly
    determined by such a pattern.
    """

    level: int
    flips: frozenset[int]

    def __post_init__(self) -> None:
        _check_int("level", self.level, 1, MAX_RANK)  # before 2^(level-1) is built
        flips = tuple(self.flips)
        for f in flips:  # before a frozenset merges True into 1
            _check_int("flip prefixes", f, 0, (1 << (self.level - 1)) - 1)
        object.__setattr__(self, "flips", frozenset(flips))


def level_flip_pattern(p: TreePermutation, level: int) -> LevelFlipPattern:
    """Read the letter-``level`` flip behaviour of p.

    Reads, for every prefix of ``level`` - 1 letters, letter ``level``
    of the image of the word with that prefix and zeros elsewhere, and
    records the prefixes where it is 1.  Faithful for permutations that
    fix all letters below ``level`` and act on letter ``level`` per
    prefix, such as a product of rigid commutators based at ``level``;
    :func:`flip_pattern_permutation` builds the permutation back.
    """
    n = p.n
    _check_int("level", level, 1, n)
    shift = n - level
    prefixes = np.arange(1 << (level - 1))
    points = prefixes << (shift + 1)
    flipped = (p._img[points] >> shift) & 1
    return LevelFlipPattern(level, frozenset(int(q) for q in prefixes[flipped == 1]))


def flip_pattern_permutation(pattern: LevelFlipPattern, n: int) -> TreePermutation:
    """The permutation that flips letter ``pattern.level`` on exactly those prefixes.

    The rank is checked as by :func:`identity`, and must reach the level.
    """
    level = pattern.level
    _check_int("rank", n, level)
    check_cap("permutation at rank", n, EXPAND_MAX_RANK)
    shift = n - level
    flags = np.zeros(1 << (level - 1), dtype=np.intp)
    for q in pattern.flips:
        flags[q] = 1
    pts = np.arange(1 << n)
    img = pts ^ (flags[pts >> (shift + 1)] << shift)
    return TreePermutation._from0(img, n)


# ── brute-force group machinery ──────────────────────────────────────────────

def generate_group(generators: Iterable[TreePermutation]) -> set[TreePermutation]:
    """Closure of the generators under composition (breadth-first, with dedup)."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise ValueError("rank mismatch among generators")
    elems = {identity(n)}
    frontier = [identity(n)]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in elems:
                    elems.add(q)
                    nxt.append(q)
        frontier = nxt
    return elems


def _involutions_commute(gens: list[TreePermutation]) -> tuple[bool, bool]:
    """Whether each generator is an involution, and whether they commute pairwise."""
    involutions = all(compose(g, g).is_identity for g in gens)
    return involutions, all(compose(a, b) == compose(b, a) for a, b in itertools.combinations(gens, 2))


def elementary_abelian_order(generators: Iterable[TreePermutation]) -> int:
    """Order of the group generated by commuting involutions.

    Checks the hypotheses, then counts by incremental closure rather
    than by rank, so it stays an independent witness.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    if any(g.n != gens[0].n for g in gens):
        raise ValueError("rank mismatch among generators")
    involutions, commute = _involutions_commute(gens)
    if not involutions:
        raise ValueError("generators must be involutions")
    if not commute:
        raise ValueError("generators must commute pairwise")
    return len(generate_group(gens))


def translation_checks(n: int) -> dict:
    """Sanity report for the full-interval commutators t_i = [{1..i}].

    Verifies that each is an involution, that they commute pairwise,
    that the orbit of point 1 under the group they generate is all of
    {1..2^n}, and that the stabilizer of point 1 is trivial.  Commuting
    involutions generate just their 2^n subset products, and one doubling
    pass reads point 1's image under each, entry k for the t_i with bit
    i - 1 set in k; the products that fix point 1 must be the identity.
    """
    ts = [expand(RigidCommutator((1 << i) - 1, n)) for i in range(1, n + 1)]
    involutions, commute = _involutions_commute(ts)
    images = np.zeros(1, dtype=np.intp)
    for t in ts:
        images = np.concatenate([images, t._img[images]])
    orbit_size = int(np.count_nonzero(np.bincount(images)))
    stabilizer_trivial = all(
        functools.reduce(compose, (t for i, t in enumerate(ts) if k >> i & 1), identity(n)).is_identity
        for k in np.flatnonzero(images == 0).tolist()
    )
    return {
        "involutions": involutions,
        "pairwise_commute": commute,
        "orbit_size": orbit_size,
        "orbit_full": orbit_size == 1 << n,
        "stabilizer_trivial": stabilizer_trivial,
    }


def brute_normalizer_in_sym(group_elements: Iterable[TreePermutation], n: int) -> set[TreePermutation]:
    """Exact normalizer of a subgroup inside the full symmetric group.

    Scans every permutation of {1..2^n}; n is capped hard at
    ``BRUTE_MAX_RANK`` because the scan is factorial in 2^n.
    """
    _check_int("rank", n, 0)
    check_cap("exhaustive Sym(2^n) scan at rank", n, BRUTE_MAX_RANK)
    elems = [tuple(int(v) for v in p._img) for p in group_elements]
    if not elems:
        raise ValueError("need the subgroup's elements")
    elem_set = frozenset(elems)
    size = 1 << n
    rng = range(size)
    out = set()
    for sigma in itertools.permutations(rng):
        sinv = [0] * size
        for x in rng:
            sinv[sigma[x]] = x
        ok = True
        for g in elems:
            conj = tuple(sigma[g[sinv[x]]] for x in rng)
            if conj not in elem_set:
                ok = False
                break
        if ok:
            out.add(TreePermutation._from0(np.array(sigma), n))
    return out


# ── serialization ────────────────────────────────────────────────────────────

def perm_to_json(p: TreePermutation, *, indent: int | None = None) -> str:
    """JSON dump {"n": ..., "images": [...]} with 1-based images."""
    return json.dumps({"n": p.n, "images": list(p.images)}, indent=indent)


def _json_fields(text: str, field: str) -> tuple[object, object]:
    """The ``"n"`` and ``field`` entries of a JSON object; ``ValueError`` otherwise."""
    try:
        d = json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None
    if not isinstance(d, dict) or "n" not in d or field not in d:
        raise ValueError(f'expected {{"n": ..., "{field}": [...]}}')
    return d["n"], d[field]


def perm_from_json(text: str) -> TreePermutation:
    n, images = _json_fields(text, "images")
    _check_int("rank", n, 0, MAX_RANK)
    # the length first: the constructor then checks each image against it
    if not isinstance(images, list) or len(images) != 1 << n:
        raise ValueError(f'"images" must be a list of {1 << n} integers')
    return TreePermutation(images, n)
