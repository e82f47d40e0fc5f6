"""Mask calculus: closed-form products, punctured views, text forms.

Expected values were frozen after computing them on the permutation
oracle; the oracle comparison itself lives in test_permutations.py.
"""

import tracemalloc

import pytest
from hypothesis import given, strategies as st

from rigidcomm import (
    RigidCommutator,
    PuncturedForm,
    commutator,
    commutator_mask,
    evaluate_expression,
    format_commutator,
    format_punctured,
    from_punctured,
    order_key,
    parse_commutator,
    punctured_commutator,
    reduce_left_normed,
    to_punctured,
)
from rigidcomm.rigid import MAX_RANK

C = RigidCommutator.from_elements


def masks(n):
    return st.integers(min_value=0, max_value=(1 << n) - 1)


# ── construction and fields ──────────────────────────────────────────────────

def test_identity_has_no_base_or_hang():
    e = RigidCommutator.identity(4)
    assert e.is_identity
    with pytest.raises(ValueError):
        e.base
    with pytest.raises(ValueError):
        e.hang


def test_base_hang_elements():
    c = C([6, 5, 4, 3], 6)
    assert c.base == 6
    assert c.hang == 3
    assert c.elements == (6, 5, 4, 3)


def test_from_elements_checks_indices_before_shifting():
    with pytest.raises(ValueError, match=r"1\.\.3, got 4$"):
        C([4], 3)
    with pytest.raises(ValueError, match=r"1\.\.63, got 10000000000$"):
        C([10**10])
    with pytest.raises(ValueError):
        C([1], 0)
    assert C([63]).n == 63


def test_mask_bounds_checked():
    with pytest.raises(ValueError):
        RigidCommutator(1 << 3, 3)
    with pytest.raises(ValueError):
        RigidCommutator(1, 0)
    with pytest.raises(ValueError):
        RigidCommutator(1, 64)
    # a bool or a non-int mask is refused, not stored as given
    for bad in (True, False, 1.0, "1"):
        with pytest.raises(ValueError, match="mask must be an integer"):
            RigidCommutator(bad, 3)


# ── the closed-form product ──────────────────────────────────────────────────

def test_singleton_pair_merges():
    # [ [j], [i] ] with i > j is the two-element rigid commutator
    assert commutator(C([2], 3), C([1], 3)).elements == (2, 1)
    assert commutator(C([1], 3), C([2], 3)).elements == (2, 1)


def test_equal_base_kills():
    assert commutator(C([3, 1], 3), C([3, 2], 3)).is_identity
    assert commutator(C([3], 3), C([3], 3)).is_identity


def test_identity_absorbs():
    e = RigidCommutator.identity(3)
    c = C([3, 1], 3)
    assert commutator(e, c).is_identity
    assert commutator(c, e).is_identity


def test_smaller_base_present_kills():
    # base of the second operand occurs inside the first: product trivial
    assert commutator(C([5, 3], 5), C([3, 2], 5)).is_identity


def test_general_product():
    assert commutator(C([5, 3], 6), C([4, 2, 1], 6)) == C([5, 4], 6)
    # symmetric arguments give the same set
    assert commutator(C([4, 2, 1], 6), C([5, 3], 6)) == C([5, 4], 6)


def test_product_counterexample_to_folklore_value():
    # [ [2,1], [6,5,4,3] ] keeps the shared tail, giving the singly
    # punctured interval, not the full one (checked on the oracle).
    eta = punctured_commutator(6, [2, 1])
    assert commutator(C([2, 1], 6), eta) == C([6, 5, 4, 3, 2], 6)


def test_single_puncture_heals():
    # [ t_j, {1..i} minus j ] restores the full interval t_i; the full
    # lower interval supplies the indices below j that a bare generator
    # would drop.
    for i in range(2, 7):
        t_i = C(range(i, 0, -1), 6)
        for j in range(1, i):
            u = punctured_commutator(i, [j], 6)
            t_j = C(range(j, 0, -1), 6)
            assert commutator(t_j, u) == t_i
            assert commutator(u, t_j) == t_i
    # with a bare generator instead, only the tail from j upward survives
    assert commutator(C([2], 6), punctured_commutator(3, [2], 6)) == C([3, 2], 6)


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        commutator(C([2], 2), C([2], 3))


@given(st.integers(2, 12), st.data())
def test_antisymmetric_and_involutive(n, data):
    x = data.draw(masks(n))
    y = data.draw(masks(n))
    assert commutator_mask(x, y) == commutator_mask(y, x)
    assert commutator_mask(x, x) == 0


@given(st.integers(2, 12), st.data())
def test_result_base_is_max_and_absorbs_smaller_base(n, data):
    x = data.draw(masks(n))
    y = data.draw(masks(n))
    r = commutator_mask(x, y)
    if r:
        a, b = x.bit_length(), y.bit_length()
        assert r.bit_length() == max(a, b)
        assert (r >> (min(a, b) - 1)) & 1  # smaller base always present
        assert (r & -r).bit_length() <= min(a, b)
        assert r & ~(x | y) == 0  # never invents indices


# ── left-normed reduction ────────────────────────────────────────────────────

def test_reduce_descending_word_is_its_set():
    assert reduce_left_normed([6, 5, 4, 3]) == C([6, 5, 4, 3], 6)


def test_reduce_mixed_word():
    assert reduce_left_normed([3, 1, 2]) == C([3, 2], 3)


def test_reduce_adjacent_repeat_collapses():
    for i in (1, 3, 5):
        assert reduce_left_normed([i, i], 6).is_identity
    assert reduce_left_normed([5, 3, 3, 2], 6).is_identity


def test_reduce_validates():
    with pytest.raises(ValueError):
        reduce_left_normed([])
    with pytest.raises(ValueError):
        reduce_left_normed([3, 7], 5)


@given(st.lists(st.integers(1, 9), min_size=1, max_size=8))
def test_reduce_lands_inside_the_word_support(word):
    r = reduce_left_normed(word, 9)
    support = set(word)
    assert set(r.elements) <= support
    if r.mask:
        assert r.base == max(support)


# ── punctured round trip ─────────────────────────────────────────────────────

def test_punctured_round_trip_examples():
    c = C([6, 5, 4, 3], 6)
    p = to_punctured(c)
    assert (p.base, set(p.punctures)) == (6, {1, 2})
    assert from_punctured(p) == c
    t = C([4, 3, 2, 1], 4)
    assert to_punctured(t).punctures == frozenset()


def test_punctured_identity_rejected():
    with pytest.raises(ValueError):
        to_punctured(RigidCommutator.identity(3))


def test_punctured_validation():
    with pytest.raises(ValueError):
        PuncturedForm(3, frozenset([3]), 5)
    with pytest.raises(ValueError):
        PuncturedForm(6, frozenset([1]), 5)
    # a bool or a float is refused before from_punctured shifts by it, as the text reader does
    for base in (True, 2.0):
        with pytest.raises(ValueError, match="base must be an integer"):
            PuncturedForm(base, frozenset(), 3)
    for hole in (True, 1.0):
        with pytest.raises(ValueError, match="puncture must be an integer"):
            PuncturedForm(3, frozenset([hole]), 3)
        with pytest.raises(ValueError, match="puncture must be an integer"):
            punctured_commutator(3, [hole])
    assert punctured_commutator(3, [1]).elements == (3, 2)


@given(st.integers(1, 12), st.data())
def test_punctured_round_trip_everywhere(n, data):
    mask = data.draw(st.integers(1, (1 << n) - 1))
    c = RigidCommutator(mask, n)
    assert from_punctured(to_punctured(c)) == c


# ── product laws ─────────────────────────────────────────────────────────────

def test_commutator_laws_exhaustive_n5():
    n = 5
    cs = [RigidCommutator(m, n) for m in range(1 << n)]
    for x in cs:
        assert commutator(x, x).is_identity
        for y in cs:
            assert commutator(x, y) == commutator(y, x)


def test_jordan_identity_instances_exhaustive():
    # both bracketings of the degree-4 word collapse to the identity
    for n in (4, 6):
        cs = [RigidCommutator(m, n) for m in range(1 << n)]
        for x in cs:
            xx = commutator(x, x)
            for y in cs:
                lhs = commutator(commutator(xx, y), x)
                rhs = commutator(xx, commutator(y, x))
                assert lhs == rhs
                assert lhs.is_identity


# ── ordering ─────────────────────────────────────────────────────────────────

def test_order_key_sorts_by_base_then_mask():
    cs = [C([3], 3), C([1], 3), C([3, 1], 3), C([2, 1], 3), C([2], 3)]
    ordered = sorted(cs, key=order_key)
    assert [c.elements for c in ordered] == [
        (1,), (2,), (2, 1), (3,), (3, 1),
    ]
    assert order_key(RigidCommutator.identity(3)) < order_key(C([1], 3))


@given(st.lists(masks(MAX_RANK), max_size=40))
def test_mask_order_is_numeric_order(ms):
    # a larger base means a larger mask, so canonical order needs no key
    cs = [RigidCommutator(m, MAX_RANK) for m in ms]
    assert [c.mask for c in sorted(cs, key=order_key)] == sorted(ms)


# ── text forms ───────────────────────────────────────────────────────────────

def test_format_and_parse_bracket():
    c = C([6, 5, 4, 3], 6)
    assert format_commutator(c) == "[6,5,4,3]"
    assert parse_commutator("[6,5,4,3]") == c
    assert parse_commutator("[]").is_identity
    assert format_commutator(RigidCommutator.identity(2)) == "[]"


def test_format_and_parse_punctured():
    c = C([6, 5, 4, 3], 6)
    assert format_punctured(c) == "6^{2,1}"
    assert parse_commutator("6^{2,1}") == c
    assert parse_commutator("4^{}") == C([4, 3, 2, 1], 4)


def test_parse_rejects_non_canonical():
    # each of these is a word that evaluate_expression reads
    for text in ("[3,1,2]", "[3,3]", "[06,5]", "[3,02]", "[[3]]", "[6^{2,1}]", "3", "[2,[1]]"):
        evaluate_expression(text)
        with pytest.raises(ValueError):
            parse_commutator(text)
    with pytest.raises(ValueError):
        parse_commutator("soup")


def test_readers_share_one_token_rule():
    # indices are ASCII digits only, with no sign or separator; whitespace may stand between tokens
    for text in ("[1_0]", "[٣]", "٣^{}", "[３,2]", "3^{٢}", "[+3]"):
        for read in (parse_commutator, evaluate_expression):
            with pytest.raises(ValueError):
                read(text)
    for read in (parse_commutator, evaluate_expression):
        assert read("3 ^ { 1 }") == C([3, 2], 3)


def test_index_refused_as_it_is_read():
    for text in ("[0]", "[64]", "[007,64]", "5^{0}", "5^{5}", "64^{}"):
        with pytest.raises(ValueError):
            evaluate_expression(text)
    # a huge index is refused after its first digits, before an int or a mask is built
    for text in ("[100000000000]", "[" + "9" * 4000 + "]"):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                evaluate_expression(text)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()


@given(st.integers(1, 12), st.data())
def test_text_round_trip(n, data):
    mask = data.draw(st.integers(0, (1 << n) - 1))
    c = RigidCommutator(mask, n)
    texts = [format_commutator(c), format_commutator(c).replace(",", " , ")]
    if mask:
        p = to_punctured(c)
        holes = data.draw(st.permutations(sorted(p.punctures)))  # any order
        texts += [format_punctured(c), f" {p.base} ^ {{ {' , '.join(map(str, holes))} }} "]
    # canonical text reads the same through both readers
    for text in texts:
        assert parse_commutator(text, n) == evaluate_expression(text, n) == c
        assert parse_commutator(text) == evaluate_expression(text)


# ── expression evaluator ─────────────────────────────────────────────────────

def test_evaluate_nested():
    assert evaluate_expression("[[6,5,4,3],[2,1]]") == C([6, 5, 4, 3, 2], 6)
    assert evaluate_expression("[6,5,4,3]") == C([6, 5, 4, 3], 6)
    assert evaluate_expression("[3,1,2]") == C([3, 2], 3)
    assert evaluate_expression("[]", 2).is_identity
    assert evaluate_expression("[6^{2,1}, [2,1]]") == C([6, 5, 4, 3, 2], 6)


def test_evaluate_rank_handling():
    assert evaluate_expression("[3]", 5).n == 5
    with pytest.raises(ValueError):
        evaluate_expression("[7]", 5)
    with pytest.raises(ValueError):
        evaluate_expression("[1,")
    with pytest.raises(ValueError):
        evaluate_expression("[1] junk")


@given(st.integers(1, 10), st.data())
def test_evaluate_matches_reduce_on_flat_words(n, data):
    word = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=7))
    text = "[" + ",".join(str(k) for k in word) + "]"
    assert evaluate_expression(text, n) == reduce_left_normed(word, n)
