"""Permutation oracle: generators, expansion, and agreement with the mask rule.

The oracle is deliberately dumb (image arrays, left-normed folds); these
tests pin its conventions against frozen cycle forms and then use it to
certify the closed-form product.
"""

import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rigidcomm import (
    RigidCommutator,
    ScaleGuardError,
    TreePermutation,
    brute_normalizer_in_sym,
    compose,
    elementary_abelian_order,
    evaluate_expression,
    expand,
    flip_pattern_permutation,
    generate_group,
    generator,
    identity,
    inverse,
    level_flip_pattern,
    perm_commutator,
    perm_from_json,
    perm_to_json,
    punctured_commutator,
    reduce_left_normed,
    translation_checks,
)
from rigidcomm import permutations
from rigidcomm.permutations import LevelFlipPattern
from rigidcomm.rigid import commutator_mask

C = RigidCommutator.from_elements


def interval(i, n):
    return RigidCommutator((1 << i) - 1, n)


# ── generators and conventions ───────────────────────────────────────────────

def test_generator_cycle_forms_n2():
    assert generator(1, 2).cycle_string() == "(1, 3)(2, 4)"
    assert generator(2, 2).cycle_string() == "(1, 2)"


def test_generator_is_involution_with_prefix_support():
    for n in (1, 3, 5):
        for i in range(1, n + 1):
            s = generator(i, n)
            assert compose(s, s).is_identity
            moved = [p for p in range(1, (1 << n) + 1) if s(p) != p]
            assert moved == list(range(1, (1 << (n - i + 1)) + 1))


def test_tree_permutation_checks_its_rank():
    for bad in (True, 1.0, -1, "1"):
        with pytest.raises(ValueError, match="rank must be an integer >= 0"):
            TreePermutation([1, 2], bad)
    assert TreePermutation([2, 1]).n == TreePermutation([2, 1], 1).n == 1
    assert TreePermutation([1], 0).n == TreePermutation([1]).n == 0


def test_tree_permutation_refuses_non_integer_images():
    # numpy would truncate or parse each of these into the identity (1, 2)
    for bad in ([1.9, 2.2], ["1", "2"], [True, 2], [1, 2.0], [np.int64(1), 2]):
        with pytest.raises(ValueError, match="image must be an integer"):
            TreePermutation(bad)
        with pytest.raises(ValueError, match="image must be an integer"):
            TreePermutation(iter(bad), 1)
    assert TreePermutation(range(1, 3)).images == TreePermutation([1, 2], 1).images == (1, 2)


def test_identity_and_generator_check_rank(monkeypatch):
    assert identity(0).images == (1,)
    for bad in (-1, True, 2.0, "3"):
        with pytest.raises(ValueError):
            identity(bad)
        with pytest.raises(ValueError):
            generator(1, bad)
    for bad in (0, 4, True, 1.0):
        with pytest.raises(ValueError):
            generator(bad, 3)
    # the guard comes before the 2^n-point array, and reads the cap when it is called
    with pytest.raises(ScaleGuardError):
        identity(permutations.EXPAND_MAX_RANK + 1)
    monkeypatch.setattr(permutations, "EXPAND_MAX_RANK", 3)
    assert generator(3, 3).n == 3
    for build in (identity, lambda n: generator(1, n)):
        with pytest.raises(ScaleGuardError):
            build(4)


def test_right_action_composition():
    # apply p then q: point 1 under s1*s2 at n=2: s1 sends 1->3, s2 fixes 3
    p = compose(generator(1, 2), generator(2, 2))
    assert p(1) == 3
    # the other order: s2 sends 1->2, s1 sends 2->4
    q = compose(generator(2, 2), generator(1, 2))
    assert q(1) == 4


def test_call_refuses_non_integer_points():
    # True would index point 1 and 1.5 would reach numpy's indexing
    g = generator(1, 2)
    for bad in (True, 1.5, "1", np.int64(1)):
        with pytest.raises(ValueError, match="point must be an integer"):
            g(bad)
    for bad in (0, 5):
        with pytest.raises(ValueError, match=r"point must be an integer in 1\.\.4"):
            g(bad)
    assert [g(p) for p in range(1, 5)] == [3, 4, 1, 2]


def test_interval_commutator_cycle_forms():
    # the full interval t_i flips letter i under every prefix, pairing
    # x with x + 2^(n-i); frozen rank-6 forms (1,33)(2,34)..., (1,17)...,
    # down to t6 = (1,2)(3,4)...(63,64)
    n = 6
    for i in range(1, n + 1):
        stride = 1 << (n - i)
        expected = "".join(
            f"({x + 1}, {x + 1 + stride})"
            for x in range(1 << n)
            if not (x // stride) % 2
        )
        assert expand(interval(i, n)).cycle_string() == expected
    # the doubly punctured interval frees letters 3..5 but pins 1..2 to
    # zero: computed once on the oracle, frozen here
    eta6 = expand(C([6, 5, 4, 3], 6))
    assert eta6.cycle_string() == "(1, 2)(3, 4)(5, 6)(7, 8)(9, 10)(11, 12)(13, 14)(15, 16)"


def test_permutation_value_semantics():
    a = generator(2, 3)
    b = generator(2, 3)
    assert a == b and hash(a) == hash(b)
    assert a != generator(1, 3)
    assert len({a, b}) == 1
    # the hash is read from the images on demand, like ==, with no cached copy
    assert TreePermutation.__slots__ == ("n", "_img")
    assert hash(a) == hash((a.n, a._img.tobytes()))


def test_images_are_one_based():
    s = generator(1, 1)
    assert s.images == (2, 1)
    assert TreePermutation((2, 1)) == s
    with pytest.raises(ValueError):
        TreePermutation((1, 1))
    with pytest.raises(ValueError):
        TreePermutation((1, 2, 3))


def test_inverse_and_commutator():
    # the commutator is its definition on random tree elements, not only on rigid commutators
    rng = random.Random(2024)
    for n in range(1, 11):
        for _ in range(4):
            p, q = (functools.reduce(compose, (generator(rng.randint(1, n), n) for _ in range(4 * n)))
                    for _ in range(2))
            assert compose(p, inverse(p)).is_identity and compose(inverse(q), q).is_identity
            c = perm_commutator(p, q)
            assert c == compose(compose(inverse(p), inverse(q)), compose(p, q))
            for made in (c, inverse(p), compose(p, q)):
                assert made.n == n and not made._img.flags.writeable
    for p, q in ((generator(1, 3), generator(1, 4)), (identity(4), generator(2, 3))):
        with pytest.raises(ValueError, match=f"^rank mismatch: {p.n} != {q.n}$"):
            perm_commutator(p, q)
    # the generators leave the identity's points as they were
    for n in range(0, 7):
        e = identity(n)
        made = [generator(i, n) for i in range(1, n + 1)]
        assert e.images == identity(n).images == tuple(range(1, (1 << n) + 1))
        assert e.is_identity and not any(g.is_identity for g in made)
        assert not any(g._img.flags.writeable for g in (e, *made))


def test_commutator_inverts_once_from_the_cached_points(monkeypatch):
    # one scatter a commutator, from a read-only point array shared by every inverse of its size
    rng = random.Random(7)
    n = 6
    p, q = (functools.reduce(compose, (generator(rng.randint(1, n), n) for _ in range(4 * n)))
            for _ in range(2))
    expected = compose(compose(inverse(p), inverse(q)), compose(p, q))
    assert expected != compose(compose(inverse(q), inverse(p)), compose(q, p))  # the factors' order shows
    calls = []
    real = permutations._inverted
    monkeypatch.setattr(permutations, "_inverted", lambda img: calls.append(img) or real(img))
    assert perm_commutator(p, q) == expected
    assert len(calls) == 1
    points = permutations._points(1 << n)
    assert points is permutations._points(1 << n) and not points.flags.writeable
    assert np.array_equal(points, np.arange(1 << n))


def test_json_round_trip():
    p = expand(C([3, 2], 3))
    assert perm_from_json(perm_to_json(p)) == p
    for text in (
        '{"images": [1]}',
        '{"n": true, "images": [2, 1]}',
        '{"n": 1.0, "images": [2, 1]}',
        '{"n": null, "images": [2, 1]}',
        '{"n": -1, "images": [2, 1]}',
        '{"n": 100000000000, "images": [2, 1]}',
        '{"n": 1, "images": "21"}',
        '{"n": 1, "images": [null, 1]}',
        '{"n": 1, "images": [2.5, 1]}',
        '{"n": 1, "images": [true, 2]}',
        '{"n": 1, "images": [0, 1]}',
        '{"n": 1, "images": [1, 3]}',
        '{"n": 1, "images": [1, 99999999999999999999999]}',
    ):
        with pytest.raises(ValueError):
            perm_from_json(text)


# ── expand as a homomorphic oracle ───────────────────────────────────────────

def test_expand_of_identity_and_singletons():
    assert expand(RigidCommutator.identity(4)).is_identity
    for i in range(1, 5):
        assert expand(C([i], 4)) == generator(i, 4)


def test_expand_scale_guard(monkeypatch):
    assert expand(RigidCommutator(1, 12)).n == 12
    with pytest.raises(ScaleGuardError):
        expand(RigidCommutator(1, 13))
    # the guard reads the cap when it is called
    monkeypatch.setattr(permutations, "EXPAND_MAX_RANK", 3)
    assert expand(RigidCommutator(1, 3)).n == 3
    with pytest.raises(ScaleGuardError):
        expand(RigidCommutator(1, 4))


def _punctured(b):
    # base b with holes below it, in any order
    holes = st.tuples(st.permutations(range(1, b)), st.integers(0, b - 1))
    return holes.map(lambda t: ("punct", b, t[0][: t[1]]))


def _nested_words(n):
    leaves = st.integers(1, n).map(lambda k: ("gen", k)) | st.integers(1, n).flatmap(_punctured)
    return st.recursive(
        leaves, lambda items: st.lists(items, max_size=4).map(lambda xs: ("word", xs)), max_leaves=10
    )


def _word_text(node, sp):
    kind = node[0]
    if kind == "gen":
        return str(node[1])
    if kind == "punct":
        return f"{node[1]}{sp}^{{" + f",{sp}".join(map(str, node[2])) + "}"
    return "[" + f",{sp}".join(_word_text(it, sp) for it in node[1]) + "]"


def _word_permutation(node, n):
    # generators and permutation commutators only: a punctured literal is
    # the left-normed word over its index set, taken in descending order
    kind = node[0]
    if kind == "gen":
        return generator(node[1], n)
    if kind == "punct":
        parts = [("gen", k) for k in range(node[1], 0, -1) if k not in node[2]]
    else:
        parts = node[1]
    if not parts:
        return identity(n)
    p = _word_permutation(parts[0], n)
    for part in parts[1:]:
        p = perm_commutator(p, _word_permutation(part, n))
    return p


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), _nested_words(n))), st.sampled_from(["", " "]))
def test_evaluate_expression_matches_oracle_on_nested_words(n_word, sp):
    n, word = n_word
    text = _word_text(word, sp)
    assert expand(evaluate_expression(text, n)) == _word_permutation(word, n), text


def test_oracle_equivalence_exhaustive_small():
    for n in range(1, 7):
        perms = [expand(RigidCommutator(m, n)) for m in range(1 << n)]
        for x in range(1 << n):
            for y in range(1 << n):
                assert perm_commutator(perms[x], perms[y]) == perms[commutator_mask(x, y)]


def test_oracle_equivalence_exhaustive_n8():
    n = 8
    perms = [expand(RigidCommutator(m, n)) for m in range(1 << n)]
    invs = [inverse(p) for p in perms]
    for x in range(1 << n):
        px, ipx = perms[x], invs[x]
        for y in range(1 << n):
            lhs = compose(compose(ipx, invs[y]), compose(px, perms[y]))
            assert lhs == perms[commutator_mask(x, y)]


def check_oracle_at_base(b, count, rng):
    """Check ``count`` pairs at rank b against the oracle, each with a factor based at b.

    Every other pair has a lower base whose top bit the base-b factor
    lacks, so its product is not 0; the rest are drawn uniformly.
    """
    nonzero = 0
    for k in range(count):
        x = 1 << (b - 1) | rng.getrandbits(b - 1)
        if k % 2:
            y = rng.randrange(1, 1 << b)
        else:
            a = rng.randrange(1, b)
            x &= ~(1 << (a - 1))
            y = 1 << (a - 1) | rng.getrandbits(a - 1)
        if rng.getrandbits(1):
            x, y = y, x
        product = commutator_mask(x, y)
        nonzero += product != 0
        lhs = perm_commutator(expand(RigidCommutator(x, b)), expand(RigidCommutator(y, b)))
        assert lhs == expand(RigidCommutator(product, b)), (b, x, y)
    assert 2 * nonzero >= count, b


def test_oracle_equivalence_sampled_at_bases_11_to_16(monkeypatch):
    # a commutator based at b acts on letter b according to the letters before
    # it, so a pair is checked at the rank of its larger base; the cap is raised
    # for this test only
    monkeypatch.setattr(permutations, "EXPAND_MAX_RANK", 16)
    rng = random.Random(22)
    for b in range(11, 17):
        check_oracle_at_base(b, 20, rng)


# ── the six product clauses, sampled ─────────────────────────────────────────

def _mask_to_desc(mask):
    return tuple(k for k in range(mask.bit_length(), 0, -1) if (mask >> (k - 1)) & 1)


def test_product_clauses_sampled():
    # 10^4 random pairs across ranks 2..10; checks every clause of the
    # closed form directly on permutations
    rng = random.Random(0xC0FFEE)
    cache = {}

    def ex(mask, n):
        key = (mask, n)
        if key not in cache:
            cache[key] = expand(RigidCommutator(mask, n))
        return cache[key]

    for _ in range(10_000):
        n = rng.randint(2, 10)
        x = rng.randrange(1, 1 << n)
        y = rng.randrange(1, 1 << n)
        px, py = ex(x, n), ex(y, n)
        c = perm_commutator(px, py)

        # symmetry and involution
        assert c == perm_commutator(py, px)
        assert compose(c, c).is_identity

        a, b = x.bit_length(), y.bit_length()
        if a == b:
            assert c.is_identity
            continue
        if a < b:
            x, y = y, x
            a, b = b, a
            px, py = py, px
        if (x >> (b - 1)) & 1:
            # smaller base occurs in the larger set: trivial product
            assert c.is_identity
            continue
        # dropping the hang of the smaller word changes nothing while it
        # stays below the larger word's hang
        y_rest = y & (y - 1)
        if y_rest and (y & -y) < (x & -x):
            assert c == perm_commutator(px, ex(y_rest, n))
        # shared-hang peel: strip the common lowest index, commute, re-append
        if y_rest and (y & -y) == (x & -x):
            m = (y & -y).bit_length()
            peeled = perm_commutator(ex(x & (x - 1), n), ex(y_rest, n))
            assert c == perm_commutator(peeled, ex(1 << (m - 1), n))
        # full closed form
        expected = (1 << (b - 1)) | (x & y) | (x & ~((1 << b) - 1))
        assert c == ex(expected, n)


# ── flip patterns ────────────────────────────────────────────────────────────

def test_flip_pattern_round_trip():
    n = 4
    pat = LevelFlipPattern(3, frozenset({0, 3}))
    p = flip_pattern_permutation(pat, n)
    assert level_flip_pattern(p, 3) == pat
    assert compose(p, p).is_identity


def test_flip_pattern_of_generator():
    # generator i flips only under the all-zero prefix
    for n in (2, 4):
        for i in range(1, n + 1):
            pat = level_flip_pattern(generator(i, n), i)
            assert pat.flips == frozenset({0})


def test_flip_pattern_validation():
    with pytest.raises(ValueError):
        LevelFlipPattern(2, frozenset({2}))
    # bools and non-ints are refused here, not by numpy in flip_pattern_permutation
    for level in (True, 0, 2.0, "2"):
        with pytest.raises(ValueError, match="level"):
            LevelFlipPattern(level, frozenset())
    for flips in ({0.5}, {True}, {"1"}, [0, 1.0], {-1}, {1 << 70}):
        with pytest.raises(ValueError, match="flip prefixes"):
            LevelFlipPattern(2, flips)
    # any iterable of prefixes is stored as a frozenset, so patterns compare by value
    pat = LevelFlipPattern(3, [3, 0, 3])
    assert type(pat.flips) is frozenset and pat == LevelFlipPattern(3, frozenset({0, 3}))
    assert hash(pat) == hash(LevelFlipPattern(3, frozenset({0, 3})))
    with pytest.raises(ValueError):
        level_flip_pattern(identity(3), 4)


_LEVEL2 = LevelFlipPattern(2, frozenset({1}))


@pytest.mark.parametrize("call, error", [
    # the rank is capped before the 2^n-point array is built, not by a MemoryError
    pytest.param(lambda: flip_pattern_permutation(_LEVEL2, 40), ScaleGuardError, id="flip-rank-40"),
    pytest.param(lambda: flip_pattern_permutation(LevelFlipPattern(1, frozenset()), True), ValueError,
                 id="flip-rank-bool"),
    pytest.param(lambda: flip_pattern_permutation(_LEVEL2, 2.5), ValueError, id="flip-rank-float"),
    pytest.param(lambda: level_flip_pattern(generator(1, 3), 1.5), ValueError, id="level-float"),
    # a level no tree permutation has, refused before its 2^(level-1) prefix bound is built
    pytest.param(lambda: LevelFlipPattern(10**9, frozenset({0})), ValueError, id="pattern-level-huge"),
    # True is not index 1, and a float or a string never reaches the shift
    pytest.param(lambda: reduce_left_normed([2, True]), ValueError, id="word-bool"),
    pytest.param(lambda: reduce_left_normed([2, 1.0]), ValueError, id="word-float"),
    pytest.param(lambda: reduce_left_normed(["2"], 3), ValueError, id="word-str"),
    pytest.param(lambda: punctured_commutator(3, [1, True]), ValueError, id="puncture-bool-beside-1"),
    pytest.param(lambda: brute_normalizer_in_sym([identity(2)], 2.0), ValueError, id="brute-rank-float"),
])
def test_integer_arguments_are_checked_before_any_work(call, error):
    with pytest.raises(error):
        call()
    # the same calls with good arguments: letter 2 flips under prefix 1
    assert flip_pattern_permutation(_LEVEL2, 2).images == (1, 2, 4, 3)
    assert level_flip_pattern(flip_pattern_permutation(_LEVEL2, 3), 2) == _LEVEL2
    assert reduce_left_normed([2, 1]).mask == 3


# ── brute-force group machinery ──────────────────────────────────────────────

def test_generate_group_dihedral():
    # rank 2 tree group: order 8
    group = generate_group([generator(1, 2), generator(2, 2)])
    assert len(group) == 8


def test_elementary_abelian_order_examples():
    n = 3
    ts = [expand(interval(i, n)) for i in range(1, n + 1)]
    assert elementary_abelian_order(ts) == 2 ** 3
    # all four commutators based at level 3 are independent
    base3 = [expand(RigidCommutator(m, n)) for m in (0b100, 0b101, 0b110, 0b111)]
    assert elementary_abelian_order(base3) == 2 ** 4
    with pytest.raises(ValueError, match="generators must commute pairwise"):
        elementary_abelian_order([generator(1, 2), generator(2, 2)])
    with pytest.raises(ValueError, match="generators must be involutions"):
        elementary_abelian_order([compose(generator(1, 2), generator(2, 2))])  # of order 4


def test_translation_checks_small():
    for n in (1, 2, 3, 6):
        report = translation_checks(n)
        assert report["involutions"]
        assert report["pairwise_commute"]
        assert report["orbit_size"] == 1 << n
        assert report["orbit_full"]
        assert report["stabilizer_trivial"]


@pytest.mark.parametrize("n", [3, 6, 9])
@pytest.mark.parametrize("last", ["identity", "t1*t2"])
def test_translation_checks_on_degenerate_commuting_generators(monkeypatch, n, last):
    # t_n replaced by an element the others already generate: the group has
    # order 2^(n-1), still acts freely, and two subset products fix point 1
    real = permutations.expand
    stand_in = identity(n) if last == "identity" else compose(real(interval(1, n)), real(interval(2, n)))
    monkeypatch.setattr(permutations, "expand",
                        lambda c: stand_in if c == interval(n, n) else real(c))
    assert translation_checks(n) == {
        "involutions": True,
        "pairwise_commute": True,
        "orbit_size": 1 << (n - 1),
        "orbit_full": False,
        "stabilizer_trivial": True,
    }


def test_translation_checks_enumerate_no_group(monkeypatch):
    def refused(generators):
        raise AssertionError("translation_checks enumerated a group")

    monkeypatch.setattr(permutations, "generate_group", refused)
    report = translation_checks(12)
    assert report["orbit_size"] == 1 << 12
    assert all(report[k] for k in ("involutions", "pairwise_commute", "orbit_full", "stabilizer_trivial"))


def test_brute_normalizer_of_baseline_n2():
    # the baseline set already spans the whole rank-2 tree group, which
    # is self-normalizing in Sym(4)... it is dihedral of order 8, and
    # its normalizer in Sym(4) is itself.
    masks = [0b01, 0b11, 0b10]
    elems = generate_group([expand(RigidCommutator(m, 2)) for m in masks])
    nor = brute_normalizer_in_sym(elems, 2)
    assert len(nor) == 8
    assert nor == elems


def test_brute_normalizer_scale_guard():
    with pytest.raises(ScaleGuardError):
        brute_normalizer_in_sym([identity(4)], 4)
