"""The expression reader as a character scanner, kept as a reference.

``evaluate_expression`` reads a word from a token list; this module
reads the same grammar one character at a time, with its own index
rule, whitespace rule and error positions, so the two readers can be
compared on any text.  Like ``reference_chain``, it shares no reading
code with the engine: it imports only the product rule,
``commutator_mask``, which the readers' fold must share.
"""

from typing import Iterator

from rigidcomm.rigid import commutator_mask

MAX_RANK = 63


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


def evaluate(text: str, n: int | None = None) -> tuple[int, int]:
    """The mask and rank that ``evaluate_expression(text, n)`` gives, for a rank n in 1..MAX_RANK or None."""
    sc = _Scanner(text)
    try:
        mask, top = _read(sc)
    except RecursionError:
        raise ValueError("expression is nested too deeply") from None
    if sc.peek():
        raise ValueError(f"trailing input at position {sc.pos} in {text!r}")
    if n is None:
        n = max(1, top)
    if top > n:
        raise ValueError(f"index {top} outside 1..{n}")
    return mask, n
