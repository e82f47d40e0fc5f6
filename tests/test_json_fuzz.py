"""Fuzzing the JSON readers: malformed, huge, mistyped and deeply nested input.

``members_from_json``, ``SaturatedSet.from_json`` and ``perm_from_json``
read files given on the command line.  Whatever the text, each returns a
well-formed value or raises ``ValueError`` or ``TypeError`` (and the set
constructor also ``ScaleGuardError``), never anything else.
"""

import json

from hypothesis import example, given, settings, strategies as st

from rigidcomm import (
    RigidCommutator,
    SaturatedSet,
    ScaleGuardError,
    TreePermutation,
    members_from_json,
    perm_from_json,
    perm_to_json,
)

_HUGE = [2**31, 2**63 - 1, 2**63, 2**64, 10**30, -(2**63) - 1]

_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 70),
    st.sampled_from(_HUGE),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.sampled_from(["0x7", "0x", "-0x1", "0x" + "f" * 40, " 0x3 ", "0_3", "1e3"]),
)
_value = st.recursive(
    _leaf,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=12,
)
_rank = st.one_of(st.integers(-2, 66), st.sampled_from(_HUGE), _value)


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


def _documents(field: str, body) -> st.SearchStrategy[str]:
    """Texts that are, or nearly are, ``{"n": ..., field: ...}`` objects."""
    doc = st.fixed_dictionaries({"n": _rank, field: body}).map(json.dumps)
    partial = st.dictionaries(st.sampled_from(["n", field, "x"]), _value, max_size=3).map(json.dumps)
    deep = st.tuples(_rank, st.integers(1, 100_000)).map(
        lambda t: json.dumps({"n": t[0], field: []})[:-3] + _nested(t[1]) + "}"
    )
    return st.one_of(
        doc,
        partial,
        deep,
        _value.map(json.dumps),
        st.integers(1, 100_000).map(_nested),
        st.text(max_size=40),
        doc.map(lambda text: text[: len(text) // 2]),  # truncated
        # past the interpreter's limit on the digits of an int literal
        st.integers(4301, 6000).map(lambda k: f'{{"n": {"9" * k}, "{field}": []}}'),
    )


_member = st.one_of(
    _value,
    st.integers(-1, 66).map(lambda k: [k]),
    st.lists(st.integers(-1, 66), max_size=5),
    st.integers(0, 2**70).map(hex),
)
_members_text = _documents("members", st.one_of(_value, st.lists(_member, max_size=8)))

_image = st.one_of(_leaf, st.integers(0, 9))
_images_text = _documents(
    "images",
    st.one_of(
        _value,
        st.lists(_image, max_size=9),
        # a shuffle of 1..2^k, sometimes with one entry broken
        st.integers(0, 3).flatmap(lambda k: st.permutations(range(1, (1 << k) + 1))).map(list),
        st.tuples(st.integers(0, 3), _image).map(lambda t: [*range(1, (1 << t[0])), t[1]]),
    ),
)


@settings(max_examples=200, deadline=None)
@given(_members_text)
def test_members_from_json_raises_only_value_or_type_errors(text):
    try:
        n, members = members_from_json(text)
    except (ValueError, TypeError):
        return
    assert type(n) is int and 1 <= n <= 63
    assert all(isinstance(c, RigidCommutator) and c.n == n for c in members)


@settings(max_examples=200, deadline=None)
@given(_members_text)
def test_saturated_set_from_json_raises_only_value_type_or_scale_errors(text):
    try:
        s = SaturatedSet.from_json(text)
    except (ValueError, TypeError, ScaleGuardError):
        return
    assert s == SaturatedSet.from_json(s.to_json())


@settings(max_examples=200, deadline=None)
@given(_images_text)
@example('{"n": 63, "images": [9223372036854775808]}')  # 2^63 is past int64
@example('{"n": 2, "images": [2, 1, 4, 3]}')
def test_perm_from_json_raises_only_value_or_type_errors(text):
    try:
        g = perm_from_json(text)
    except (ValueError, TypeError):
        return
    assert isinstance(g, TreePermutation) and 0 <= g.n <= 3
    assert perm_from_json(perm_to_json(g)) == g
