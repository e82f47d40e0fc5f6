"""Subset-coded rigid commutators.

A rigid commutator in the rank-n binary tree group is the left-normed
commutator of the standard generators taken along a strictly decreasing
index sequence, so it is determined by its index set alone.  Index sets
are coded as bitmasks (element k <-> bit k-1); the empty set stands for
the group identity.  The commutator of two rigid commutators is again
rigid or trivial and is given by a closed-form mask expression, so every
product in this module is O(1).

This is the scalar calculus, on plain Python ints with no numpy; the
same product over arrays of masks lives in :mod:`rigidcomm._kernel`.
All values are immutable and every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_RANK = 63  # element k occupies bit k-1 of a machine-word-sized int

__all__ = [
    "MAX_RANK",
    "RigidCommutator",
    "PuncturedForm",
    "commutator",
    "commutator_mask",
    "reduce_left_normed",
    "to_punctured",
    "from_punctured",
    "punctured_commutator",
    "order_key",
    "format_commutator",
    "format_punctured",
    "parse_commutator",
    "evaluate_expression",
]


def _check_int(name: str, value, lo: int, hi: int | None = None) -> None:
    """Refuse a bool, a non-int, or a value outside lo..hi (no upper end when ``hi`` is None).

    Every integer argument of the public entry points is checked here,
    before any work, with a ``ValueError`` that names the argument.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < lo or (hi is not None and value > hi):
        span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{name} must be an integer {span}, got {value!r}")


def _check_rank(n: int) -> None:
    _check_int("rank", n, 1, MAX_RANK)


@dataclass(frozen=True)
class RigidCommutator:
    """A rigid commutator, identified with a subset of {1, ..., n}.

    ``mask`` codes the index set; ``n`` is the ambient rank.  Mask 0 is
    the identity.  Instances are hashable and compare by value.
    """

    mask: int
    n: int

    def __post_init__(self) -> None:
        _check_rank(self.n)
        _check_int("mask", self.mask, 0, (1 << self.n) - 1)

    @classmethod
    def _trusted(cls, mask: int, n: int) -> "RigidCommutator":
        # trusted constructor: n is a valid rank and 0 <= mask < 2^n
        self = object.__new__(cls)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "n", n)
        return self

    @classmethod
    def identity(cls, n: int) -> "RigidCommutator":
        return cls(0, n)

    @classmethod
    def from_elements(cls, elements: Iterable[int], n: int | None = None) -> "RigidCommutator":
        """Build from explicit indices, e.g. ``from_elements([6, 5, 4, 3])``."""
        top = MAX_RANK if n is None else n
        _check_rank(top)
        mask = 0
        for k in elements:
            _check_int("index", k, 1, top)  # before 1 << (k - 1) is built
            mask |= 1 << (k - 1)
        if n is None:
            n = max(1, mask.bit_length())
        return cls(mask, n)

    @property
    def is_identity(self) -> bool:
        return self.mask == 0

    @property
    def base(self) -> int:
        """Largest index in the set.  Undefined for the identity."""
        if self.mask == 0:
            raise ValueError("the identity commutator has no base")
        return self.mask.bit_length()

    @property
    def hang(self) -> int:
        """Smallest index in the set.  Undefined for the identity."""
        if self.mask == 0:
            raise ValueError("the identity commutator has no hang")
        return (self.mask & -self.mask).bit_length()

    @property
    def elements(self) -> tuple[int, ...]:
        """Indices in descending order, matching the bracket notation."""
        return tuple(k for k in range(self.n, 0, -1) if (self.mask >> (k - 1)) & 1)

    def __str__(self) -> str:
        return format_commutator(self)


def commutator_mask(x: int, y: int) -> int:
    """Commutator of two rigid commutators, on raw masks.

    The product vanishes when either factor is the identity, when the
    bases agree, or when the smaller base already occurs in the
    larger-based set.  Otherwise the result keeps the smaller base,
    everything the two sets share, and the part of the larger-based set
    above the smaller base.
    """
    if x == 0 or y == 0:
        return 0
    a = x.bit_length()
    b = y.bit_length()
    if a == b:
        return 0
    if a < b:
        x, y = y, x
        b = a
    if (x >> (b - 1)) & 1:
        return 0
    return (1 << (b - 1)) | (x & y) | (x & ~((1 << b) - 1))


def commutator(x: RigidCommutator, y: RigidCommutator) -> RigidCommutator:
    """Group commutator x^-1 y^-1 x y of two rigid commutators."""
    if x.n != y.n:
        raise ValueError(f"rank mismatch: {x.n} != {y.n}")
    return RigidCommutator(commutator_mask(x.mask, y.mask), x.n)


def reduce_left_normed(word: Sequence[int], n: int | None = None) -> RigidCommutator:
    """Collapse a left-normed generator word [i1, i2, ..., ik] to rigid form.

    Folds the closed-form product left to right, so arbitrary index
    sequences are allowed; strictly decreasing ones reproduce their own
    index set, and any adjacent repeat collapses the whole word.
    """
    if len(word) == 0:
        raise ValueError("word must have length >= 1")
    top = MAX_RANK if n is None else n
    _check_rank(top)
    for k in word:
        _check_int("index", k, 1, top)  # before 1 << (k - 1) is built
    mask = 1 << (word[0] - 1)
    for k in word[1:]:
        mask = commutator_mask(mask, 1 << (k - 1))
    return RigidCommutator(mask, max(word) if n is None else n)


# ── punctured view ───────────────────────────────────────────────────────────

@dataclass(frozen=True)
class PuncturedForm:
    """A nonempty rigid commutator written as a full interval minus holes.

    ``base`` is the top index b, ``punctures`` the set of missing indices
    below it; the pair denotes the index set {1..b} minus punctures.
    ``n`` is the ambient rank, carried so the round-trip needs no extra
    argument.
    """

    base: int
    punctures: frozenset[int]
    n: int

    def __post_init__(self) -> None:
        _check_rank(self.n)
        _check_int("base", self.base, 1, self.n)
        punctures = tuple(self.punctures)
        for p in punctures:  # before from_punctured shifts by them, and a frozenset merges True into 1
            _check_int("puncture", p, 1, self.base - 1)
        object.__setattr__(self, "punctures", frozenset(punctures))

    def __str__(self) -> str:
        inner = ",".join(str(p) for p in sorted(self.punctures, reverse=True))
        return f"{self.base}^{{{inner}}}"


def to_punctured(c: RigidCommutator) -> PuncturedForm:
    """Write a nonempty rigid commutator in base-and-punctures form."""
    if c.is_identity:
        raise ValueError("the identity has no punctured form")
    b = c.base
    missing = frozenset(k for k in range(1, b) if not (c.mask >> (k - 1)) & 1)
    return PuncturedForm(b, missing, c.n)


def from_punctured(p: PuncturedForm) -> RigidCommutator:
    mask = (1 << p.base) - 1
    for hole in p.punctures:
        mask &= ~(1 << (hole - 1))
    return RigidCommutator(mask, p.n)


def punctured_commutator(base: int, punctures: Iterable[int], n: int | None = None) -> RigidCommutator:
    """Convenience builder: the commutator with index set {1..base} minus punctures."""
    if n is None:
        n = base
    return from_punctured(PuncturedForm(base, tuple(punctures), n))


# ── canonical order ──────────────────────────────────────────────────────────

def order_key(c: RigidCommutator) -> tuple[int, int]:
    """Canonical order on rigid commutators; the identity sorts first."""
    return (c.mask.bit_length(), c.mask)


# ── text forms ───────────────────────────────────────────────────────────────

def format_commutator(c: RigidCommutator) -> str:
    """Canonical bracket form, indices descending: "[6,5,4,3]"; identity is "[]"."""
    return "[" + ",".join(str(k) for k in c.elements) + "]"


def format_punctured(c: RigidCommutator) -> str:
    """Base-and-punctures form, punctures descending: "6^{2,1}"."""
    return str(to_punctured(c))


# ── reading text ─────────────────────────────────────────────────────────────
#
# One grammar serves both readers:
#   expr  := '[' (expr (',' expr)*)? ']' | INDEX | INDEX '^' '{' (INDEX (',' INDEX)*)? '}'
#   INDEX := ASCII digits naming an index in 1..MAX_RANK, and at most n
# Whitespace may stand between any two tokens.  A bare index is a
# generator, a bracket list folds left-normed, [a, b, c] = [[a, b], c],
# and b^{h, ...} is the set {1..b} minus the holes h, each below b.

class _Scanner:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        """The next token's first character after whitespace, or "" at the end."""
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos : self.pos + 1]

    def skip(self, ch: str) -> bool:
        """Take ``ch`` if it comes next."""
        if self.peek() != ch:
            return False
        self.pos += 1
        return True

    def take(self, ch: str) -> None:
        if not self.skip(ch):
            raise ValueError(f"expected {ch!r} at position {self.pos} in {self.text!r}")

    def items(self, close: str) -> Iterator[None]:
        """Yield once per item of a comma list, possibly empty, then take ``close``."""
        if not self.skip(close):
            yield
            while not self.skip(close):
                self.take(",")
                yield

    def index(self) -> int:
        """Read an index in ASCII digits, refusing it once it leaves 1..MAX_RANK."""
        self.peek()
        start, value = self.pos, 0
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            value = 10 * value + ord(self.text[self.pos]) - ord("0")
            self.pos += 1
            if value > MAX_RANK:
                break
        if self.pos == start:
            raise ValueError(f"expected an index at position {start} in {self.text!r}")
        if not 1 <= value <= MAX_RANK:
            raise ValueError(f"index at position {start} outside 1..{MAX_RANK} in {self.text!r}")
        return value


def _read(sc: _Scanner) -> tuple[int, int]:
    """Read one expression, folding as it goes: its mask and its largest index."""
    if sc.skip("["):
        mask, top = None, 0
        for _ in sc.items("]"):
            item, k = _read(sc)
            mask = item if mask is None else commutator_mask(mask, item)
            top = max(top, k)
        return mask or 0, top
    base = sc.index()
    if not sc.skip("^"):
        return 1 << (base - 1), base
    sc.take("{")
    mask = (1 << base) - 1
    for _ in sc.items("}"):
        hole = sc.index()
        if hole >= base:
            raise ValueError(f"hole {hole} is not below the base {base} in {sc.text!r}")
        mask &= ~(1 << (hole - 1))
    return mask, base


def evaluate_expression(text: str, n: int | None = None) -> RigidCommutator:
    """Evaluate a nested commutator word such as "[[6,5,4,3],[2,1]]".

    Bare integers are generators, bracket lists fold left-normed, and
    punctured literals like "6^{2,1}" are accepted anywhere.  The rank
    defaults to the largest index in the expression.  An expression
    nested past the interpreter's recursion limit is a ``ValueError``.
    """
    sc = _Scanner(text)
    try:
        mask, top = _read(sc)
    except RecursionError:
        raise ValueError("expression is nested too deeply") from None
    if sc.peek():
        raise ValueError(f"trailing input at position {sc.pos} in {text!r}")
    if n is None:
        n = max(1, top)
    _check_rank(n)
    if top > n:
        raise ValueError(f"index {top} outside 1..{n}")
    return RigidCommutator(mask, n)


def parse_commutator(text: str, n: int | None = None) -> RigidCommutator:
    """Parse a canonical text form: "[6,5,4,3]", "[]", or "6^{2,1}".

    The text is read as by :func:`evaluate_expression`, and then it must
    be a lone punctured literal, holes in any order, or, up to
    whitespace, the bracket list that :func:`format_commutator` writes
    for the result: strictly descending, no leading zeros (use
    :func:`evaluate_expression` for arbitrary nested words).  The rank
    defaults to the largest index seen, or 1 for the identity.
    """
    c = evaluate_expression(text, n)
    s = "".join(text.split())
    lone_punctured = not s.startswith("[") and s.endswith("}")
    if not lone_punctured and s != format_commutator(c):
        raise ValueError(f"not a canonical commutator literal: {text!r}")
    return c
