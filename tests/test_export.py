"""The stable JSON emitter against its oracle, the stdlib's indented encoder."""

import enum
import json
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyadic.export import Encoded, to_stable_json


def oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


BIG = 2**80
ints = st.integers(min_value=-BIG, max_value=BIG)
floats = st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e-05, 1e16])
texts = st.text() | st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\x7f\n\t", "é ß", "\U0001f600", ""])
scalars = st.none() | st.booleans() | st.sampled_from([0, 1]) | ints | floats | texts
# one key family per object, so the keys sort as they must for the stdlib too
key_families = [texts, ints | st.booleans() | floats, st.none()]


def containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.one_of([st.dictionaries(keys, children, max_size=4) for keys in key_families])
    )


trees = st.recursive(scalars, containers, max_leaves=25)


@given(trees)
@settings(max_examples=400, deadline=None)
@example([])
@example({})
@example({"a": [[], {}], "b": [{"c": []}], "": ()})
@example([True, 1, False, 0, None])
@example({True: 0, 2: 1, 0.5: 2, False: 3})
@example([2**64, -(2**80), [2**65, 3]])
def test_matches_the_stdlib(obj):
    assert to_stable_json(obj) == oracle(obj)


class Colour(enum.IntEnum):
    RED = 7


class Text(str):
    pass


class Row(list):
    pass


@pytest.mark.parametrize(
    "obj",
    [
        np.float64(1.5),
        [Colour.RED, 1],
        {Colour.RED: Colour.RED},
        Text("é"),
        {Text("k"): Text("v")},
        Row([1, Row([2])]),
        OrderedDict([("b", 1), ("a", 2)]),
    ],
    ids=["float64", "intenum-list", "intenum-key", "str-subclass", "str-subclass-key", "list-subclass", "ordereddict"],
)
def test_subclasses_match_the_stdlib(obj):
    assert to_stable_json(obj) == oracle(obj)


@pytest.mark.parametrize(
    "obj",
    [np.int64(1), {1, 2}, {1: 0, "a": 0}, {"k": [np.int64(1)]}, {(1, 2): 0}],
    ids=["numpy-int64", "set", "mixed-keys", "nested-int64", "tuple-key"],
)
def test_rejects_what_the_stdlib_rejects(obj):
    with pytest.raises(TypeError) as expected:
        oracle(obj)
    with pytest.raises(TypeError) as got:
        to_stable_json(obj)
    assert str(got.value) == str(expected.value)


# a path from the document root down to the embedded value: a key steps
# into an object, an index into a list, each with siblings around it
paths = st.lists(st.text(max_size=3) | st.integers(0, 2), max_size=4)


def nest(leaf, path):
    for step in reversed(path):
        if isinstance(step, str):
            leaf = {step: leaf, step + "~": [0, {}]}
        else:
            leaf = [None] * step + [leaf, "x"]
    return leaf


@given(trees, paths)
@settings(max_examples=300, deadline=None)
def test_encoded_value_embeds_at_any_depth(obj, path):
    # the writer is called once, with the newline and indent its value's
    # last line follows: one step deeper per key or index on the path
    calls = []

    def write(nl):
        calls.append(nl)
        return to_stable_json(obj)[:-1].replace("\n", nl)

    assert to_stable_json(nest(Encoded(write), path)) == to_stable_json(nest(obj, path))
    assert calls == ["\n" + "  " * len(path)]


def test_encoded_is_not_a_string_to_the_stdlib():
    with pytest.raises(TypeError):
        json.dumps(Encoded(lambda nl: '"text"'))
    with pytest.raises(TypeError):
        json.dumps({"k": [Encoded(lambda nl: "1")]})
