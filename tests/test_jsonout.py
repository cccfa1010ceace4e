"""The package's indented-JSON writer against the stdlib encoder."""

import enum
import io
import json
import sys
import threading
from collections import OrderedDict

import pytest

from wcikit.jsonout import _BATCH, _ROW_BATCH, Rows, dump, exact_ints


class Colour(enum.IntEnum):
    RED = 1
    BLUE = -7


class Text(str):
    pass


def dumped(obj) -> str:
    out = io.StringIO()
    dump(obj, out)
    return out.getvalue()


def test_edge_cases_match_the_stdlib_byte_for_byte():
    strings = ['"', "\\", "\x00\x01\x1f\n\r\t\x7f", "é", "\u2028", "\U0001f600", "", "plain"]
    tree = {
        "strings": strings,
        "string keys": {s: s for s in strings},
        "empty": [{}, [], {"a": {}, "b": []}, [[[]], [{}]], {"deep": {"deeper": {"deepest": []}}}],
        "mixed": [1, True, 0, None],
        "ints and bools": [0, True, 1, False],
        "bools": [True, False, None],
        "ints": [0, -1, -(2**70), 2**64, 2**64 + 1, 10**30],
        "enum": Colour.BLUE,
        "enums": [Colour.RED, Colour.BLUE],
        "in an int list": [1, Colour.RED, 2],
        "floats": [0.0, -0.5, 1e300, 1e-300, float("nan"), float("inf"), float("-inf")],
        "float": 2.5,
        "tuple": (1, (2, [3, {"x": ()}]), "t"),
        "ordered": OrderedDict([("z", 1), ("a", [1, 2])]),
        "str subclass": [Text("sub"), {Text("key"): Text("value")}],
        "non-str keys": [{1: "int", True: "bool", None: "none", 1.5: "float"},
                         {False: [], Colour.RED: {}}, {float("nan"): 0, float("inf"): 0}],
        "nested": [[1, [2, [3, [4]]]], {"a": [{"b": [None]}]}],
    }
    for obj in (tree, *tree.values(), [tree, [tree]], "top", 7, None, True, 2.0, [], {}):
        assert dumped(obj) == json.dumps(obj, indent=2), obj


def test_non_str_keys_and_unknown_types_fail_as_in_the_stdlib():
    for obj in ({(1, 2): 0}, [object()], {"a": {1, 2}}):
        with pytest.raises(TypeError) as stdlib:
            json.dumps(obj, indent=2)
        with pytest.raises(TypeError) as ours:
            dumped(obj)
        assert str(ours.value) == str(stdlib.value)


def test_writes_in_batches():
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    for obj in ([{"i": i} for i in range(5 * _BATCH)], ["s"] * (5 * _BATCH),
                {str(i): [i] for i in range(5 * _BATCH)}):
        writes.clear()
        dump(obj, Recorder())
        assert "".join(writes) == json.dumps(obj, indent=2)
        assert len(writes) > 5 and max(map(len, writes)) < len("".join(writes)) / 4


def test_rows_match_the_list_of_their_trees():
    # Rows at the top and inside a document, in several write batches or
    # none: nested layout, a "%" in a key and in a string leaf, empty and
    # non-empty int lists, a leaf whose type changes from row to row, and
    # an int past the digit limit.
    scalars = [None, True, False, 3, "x%s\u2028", 7**8_000]

    def tree(i):
        return {"a%s": {"b": list(range(i % 3)), "c": {"d": scalars[i % 6]}}, "e": -i}

    for n in (0, 1, 7, _ROW_BATCH, 3 * _ROW_BATCH + 1):
        trees = [tree(i) for i in range(n)]
        leaves = [(t["a%s"]["b"], t["a%s"]["c"]["d"], t["e"]) for t in trees]
        sample = tree(0)
        with exact_ints():
            assert dumped(Rows(sample, leaves)) == json.dumps(trees, indent=2), n
            doc = {"head": [1], "rows": Rows(sample, iter(leaves)), "tail": {}}
            assert dumped(doc) == json.dumps({**doc, "rows": trees}, indent=2), n


needs_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-text limit before Python 3.11"
)


@needs_limit
def test_ints_past_the_digit_limit_written_exactly_and_the_limit_restored():
    limit = sys.get_int_max_str_digits()
    big = -(7**20_000)  # 16,902 digits
    text = dumped({"num": big, "list": [big, 1], "mixed": [big, "s"]})
    assert sys.get_int_max_str_digits() == limit
    with pytest.raises(ValueError):
        str(big)
    with exact_ints():
        assert text == json.dumps({"num": big, "list": [big, 1], "mixed": [big, "s"]}, indent=2)
        assert json.loads(text)["num"] == big
    assert sys.get_int_max_str_digits() == limit


@needs_limit
def test_overlapping_writers_keep_the_limit_lifted_until_the_last_leaves():
    limit = sys.get_int_max_str_digits()
    first, second = exact_ints(), exact_ints()
    first.__enter__()
    second.__enter__()
    first.__exit__(None, None, None)  # not nested: the first to enter leaves first
    assert sys.get_int_max_str_digits() == 0
    second.__exit__(None, None, None)
    assert sys.get_int_max_str_digits() == limit
    # Threads writing at once, switching often: no writer sees the limit
    # restored under it, and the limit is restored at the end.
    big = 7**8_000
    errors = []

    def writer():
        try:
            for _ in range(100):
                dumped([big])
        except ValueError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert sys.get_int_max_str_digits() == limit
