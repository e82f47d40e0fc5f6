"""Frozen outputs the benchmark's gate compares against.

``INDEX_MATRIX`` is a copy of ``INDEX_MATRIX`` in
``tests/test_acceptance.py`` (log2 index per step 1..14, ranks 3..15),
kept here so that the benchmark never imports the test suite.

Rank 16 has no frozen row there.  Its 14 steps all lie within the
closed-form range 1..n-2, where the index of step i is the partial sum
a_{i+2} of distinct-part partition counts (acceptance criterion 4), so
its row is a_3..a_16.
"""

INDEX_MATRIX = {
    3: (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    4: (1, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    5: (1, 2, 4, 1, 2, 2, 1, 1, 1, 1, 0, 0, 0, 0),
    6: (1, 2, 4, 7, 2, 4, 4, 1, 1, 2, 2, 2, 2, 1),
    7: (1, 2, 4, 7, 11, 4, 7, 3, 4, 2, 2, 4, 4, 4),
    8: (1, 2, 4, 7, 11, 16, 7, 5, 6, 2, 6, 6, 3, 3),
    9: (1, 2, 4, 7, 11, 16, 23, 4, 9, 4, 11, 4, 12, 9),
    10: (1, 2, 4, 7, 11, 16, 23, 32, 4, 14, 5, 20, 7, 19),
    11: (1, 2, 4, 7, 11, 16, 23, 32, 43, 5, 22, 7, 32, 4),
    12: (1, 2, 4, 7, 11, 16, 23, 32, 43, 57, 7, 32, 12, 43),
    13: (1, 2, 4, 7, 11, 16, 23, 32, 43, 57, 74, 12, 42, 18),
    14: (1, 2, 4, 7, 11, 16, 23, 32, 43, 57, 74, 95, 8, 24),
    15: (1, 2, 4, 7, 11, 16, 23, 32, 43, 57, 74, 95, 121, 8),
    16: (1, 2, 4, 7, 11, 16, 23, 32, 43, 57, 74, 95, 121, 152),
}

# The rank-9 chain to the full group: step count and final log2 order
# (ROADMAP baseline; 2^9 - 1 = 511 members is the whole group).
FULL_CHAIN_STEPS = {9: 176}
