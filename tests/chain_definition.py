"""A normalizer chain checked from the definition of a normalizer, on its join table alone.

It reads nothing but the table and its own copy of the product rule, and
imports nothing from ``rigidcomm``: no cover, wake rule, witness or
saturated-set code stands on both sides of the check.

Let J be the join table: J[m] the step at which mask m joined, -1 for the
identity and the translations, and a value above every computed step for
a mask outside every computed term, so term s is the masks m with
J[m] <= s.  A mask c fails to normalize term s exactly when some member m
of term s has a product c∘m outside it, J[m] <= s < J[c∘m].  So the steps
where c is blocked are the union of the intervals [J[m], J[c∘m]) over the
m with c∘m != 0, and the table is a normalizer chain, each term the
normalizer of the one before, exactly when, for every c, that union
covers the steps below J[c] - 1 and no later step.  The second half says
too that each term is closed: a member is never blocked.  For a mask
outside every computed term the last step is left unchecked, as the
normalizer of the last term was not computed.

That the normalizer in this mask world is the group's normalizer is the
paper's theorem, which the permutation oracle checks, not this module.
"""

import numpy as np

# products per block, a row or a column chunk of one: each takes a few int64 words,
# and glibc's malloc serves 128 KiB or more by mmap and gives a free heap top past
# 128 KiB back to the system, so larger blocks fault their pages in afresh each time
_BLOCK = 1 << 12


def _products(c: np.ndarray, m: np.ndarray, top: np.ndarray) -> np.ndarray:
    """[c, m] for every pair of a column of masks ``c`` and a row of masks ``m``.

    ``top`` holds each mask's top bit, 2^(b-1) for a mask based at b.  With
    t the smaller top bit, the lower factor's, the product is the identity
    when the higher factor holds t, equal bases included; otherwise it holds
    t, the bits below t the two share, and the higher factor's bits above t.
    """
    t = np.minimum(top[c], top[m])
    shared = c & m
    p = (shared & (t - 1)) | t | ((c | m) & -(t << 1))
    p[(shared & t) != 0] = 0
    return p


def blocked_steps_faults(joined, last: int, first: int = -1) -> list[int]:
    """The masks whose blocked steps break the definition of a normalizer chain.

    ``joined`` is a join table of 2^n entries in the convention above, and
    ``last`` the last computed step; every value above ``last`` means
    outside every computed term.  Steps ``first`` to ``last`` are checked,
    ``first`` = 0 for a chain whose term 0 is a start other than the
    normalizer of the translations.  An empty list means the table passes.

    The union of c's intervals is read without listing them: c is blocked
    at s exactly when the largest J[c∘m] over the members m of term s
    passes s, a running maximum over the members taken in join order, read
    where each term ends.  The identity's entry, -1, stands for the zero
    products, which block nothing.  Rows of masks meet the members in
    blocks of at most ``_BLOCK`` products, and a row of more members is
    read in column chunks, each carrying the maximum of the chunks before.
    """
    J = np.minimum(np.asarray(joined, dtype=np.int64), last + 1)  # past `last` all look alike
    size = J.size
    n = size.bit_length() - 1
    top = np.zeros(size, dtype=np.int64)
    for b in range(1, n + 1):
        top[1 << (b - 1):1 << b] = 1 << (b - 1)
    members = np.argsort(J[1:], kind="stable") + 1
    members = members[J[members] <= last]  # in join order; no other mask blocks a computed step
    steps = np.arange(first, last + 1)
    ends = np.searchsorted(J[members], steps, side="right")  # term s is members[:ends[s - first]]
    cols = max(1, min(members.size, _BLOCK))  # a row of more members is read in column chunks
    rows = max(1, _BLOCK // cols)
    chunks = []  # each chunk of members, and the steps whose terms end in it, with their ends in it
    for j0 in range(0, max(members.size, 1), cols):
        # a chunk's reach[:, k] is the running maximum over members[:j0 + k], k = 0..j1 - j0,
        # and the steps whose terms end in [j0, j1) are read there, the last chunk's end too
        j1 = min(j0 + cols, members.size)
        s0, s1 = ends.searchsorted([j0, j1 if j1 < members.size else j1 + 1])
        chunks.append((members[None, j0:j1], ends[s0:s1] - j0, steps[s0:s1]))
    faults = []
    for lo in range(1, size, rows):
        c = np.arange(lo, min(lo + rows, size), dtype=np.int64)
        unknown, below = J[c] > last, J[c, None] - 1
        reach = np.full((c.size, 1), -1, dtype=np.int64)
        bad = np.zeros(c.size, dtype=bool)
        for m, at, s in chunks:
            reach = np.concatenate((reach[:, -1:], J[_products(c[:, None], m, top)]), axis=1)
            np.maximum.accumulate(reach, axis=1, out=reach)
            blocked = reach[:, at] > s
            want = s < below
            if s.size and s[-1] == last:  # the last term's normalizer is unknown
                want[unknown, -1] = blocked[unknown, -1]
            bad |= (blocked != want).any(axis=1)
        faults += c[bad].tolist()
    return faults
