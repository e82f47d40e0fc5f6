"""A plain scalar normalizer chain that shares no code with the engine.

It runs the engine's algorithm on Python ints, written out step by step,
with its own copy of the product rule, and imports nothing from
``rigidcomm``, so a fault in the engine's kernels cannot sit on both
sides of a comparison.  Every candidate outside the term waits on a
witness, a product with a member that lies outside the term, and is
scanned again only once that witness joins; its first witness is its
lowest fill-in.  Every woken candidate is scanned, one at a time,
against a cover of the term, a generating set recomputed exactly by the
(y_b, z_b) test whenever it has doubled.  The counters are not kept:
only the join steps and the step count are meant for comparison.
"""


def product(x: int, y: int) -> int:
    """The commutator [x, y] of two rigid commutators given as masks.

    Let the lower factor be based at b and the higher at a.  The product
    is the identity unless 0 < b < a and the higher factor lacks element
    b; otherwise it holds element b, the elements below b the two share,
    and the higher factor's elements above b.
    """
    lo, hi = (x, y) if x.bit_length() <= y.bit_length() else (y, x)
    b = lo.bit_length()
    if b == 0 or b == hi.bit_length() or hi >> (b - 1) & 1:
        return 0
    below = (1 << (b - 1)) - 1
    return (lo & hi & below) | 1 << (b - 1) | (hi >> b) << b


def uncovered(x: int, inside: bytearray) -> bool:
    """Whether no pair of smaller members (y_b, z_b) with [y_b, z_b] = x exists.

    For each element b of x below its top, z_b keeps x's elements up to b
    and y_b keeps x's elements above b and fills every place below b.
    """
    for b in range(1, x.bit_length()):
        if x >> (b - 1) & 1:
            low = (1 << b) - 1
            z, y = x & low, (x & ~low) | (low >> 1)
            if inside[z] and inside[y]:
                return False
    return True


def reference_chain(n: int) -> tuple[list[int], int]:
    """The chain at rank n from the translation normalizer to the full group.

    Returns each mask's join step, -1 for the identity and the
    full-interval commutators t_i = 2^i - 1 and 0 for the other members
    of the translation normalizer, and the number of steps taken.
    """
    size = 1 << n
    joined = [None] * size
    inside = bytearray(size)
    for i in range(n + 1):
        joined[(1 << i) - 1] = -1
        for j in range(1, i):  # the full interval {1..i} with hole j
            joined[((1 << i) - 1) ^ (1 << (j - 1))] = 0
    members = [m for m in range(size) if joined[m] is not None]
    for m in members:
        inside[m] = 1
    count = len(members)
    # every candidate first waits on its lowest fill-in, c with its lowest hole filled
    waiting: dict[int, list[int]] = {}
    pending = []
    for c in range(1, size):
        if not inside[c]:
            w = c | (c + 1)
            (pending if inside[w] else waiting.setdefault(w, [])).append(c)
    cover = [m for m in members if m and uncovered(m, inside)]
    pruned = len(cover)
    step = 0
    while count < size:
        step += 1
        joins = []
        for c in pending:
            witness = 0
            for m in cover:
                p = product(c, m)
                if not inside[p]:
                    witness = p
                    break
            if witness:
                waiting.setdefault(witness, []).append(c)
            else:
                joins.append(c)
        if not joins:
            raise AssertionError(f"step {step} at rank {n} joined nothing")
        for c in joins:
            inside[c] = 1
            joined[c] = step
        count += len(joins)
        cover += joins
        if len(cover) >= 2 * pruned:
            cover = [m for m in cover if uncovered(m, inside)]
            pruned = len(cover)
        pending = [c for a in joins for c in waiting.pop(a, ())]
    return joined, step
