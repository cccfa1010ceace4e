"""The one writer of wcikit's indented JSON documents.

Every document the CLI prints or writes (the ``analyze``, ``wellform``,
``strata``, ``witness`` and ``probe`` results, the census summary and its
partial-output marker) goes through ``dump``.  It emits exactly what
``json.dump(obj, fh, indent=2)`` emits: when ``indent`` is set the stdlib
never uses its C encoder, and its pure-Python one walks the document a value
at a time.  ``dump`` walks a document too, but a list of many rows of one
layout, such as the strata of an ``analyze`` report, can be given as
``Rows``: one row's tree is written once as a template, and every row is
that template filled with its leaves, with no tree built or walked per row.

Integers are written exactly, however many digits they have: ``exact_ints``
lifts the interpreter's limit on int-to-decimal conversion while a writer
runs.
"""

from __future__ import annotations

import json
import sys
import threading
from contextlib import contextmanager
from itertools import islice
from json.encoder import encode_basestring_ascii

# Chunks gathered before each write: a document is written in bounded
# batches, never held whole.
_BATCH = 1024
# Rows of a Rows list written at a time: a row is a dozen lines or more, so
# a write holds about as much text as a batch of chunks.
_ROW_BATCH = _BATCH // 16

# The JSON text of each constant, and of a scalar by its exact type.
_CONSTANTS = {True: "true", False: "false", None: "null"}
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: _CONSTANTS.__getitem__,
    type(None): _CONSTANTS.__getitem__,
}


# A leaf's place in a row's template.
_HOLE = "\x00"


class Rows:
    """A list that ``dump`` writes as rows of one layout.  ``sample`` is
    one row as its ``to_json`` builds it; each value in it that is not a
    dict is a leaf, a scalar or a list of exact ints.  ``leaves`` yields
    one tuple per row, holding the row's leaves in the order ``sample``
    holds them; a list leaf may be any sequence of exact ints."""

    __slots__ = ("sample", "leaves")

    def __init__(self, sample, leaves):
        self.sample, self.leaves = sample, leaves


def _holed(tree, lists: list):
    """``tree`` with each leaf replaced by ``_HOLE``; ``lists`` gets, per
    leaf in order, whether it is a list."""
    if type(tree) is dict:
        return {k: _holed(v, lists) for k, v in tree.items()}
    lists.append(type(tree) is list)
    return _HOLE


def _scalar(x) -> str:
    return _SCALARS[type(x)](x)


def _column(text, column):
    """The texts of one column of a batch of rows.  ``text`` is a list
    leaf's function; a scalar column (``text`` None) of one exact type is
    mapped by that type's function (``int.__repr__``, a constant's
    lookup), a mixed one by ``_scalar`` per value."""
    if text is None:
        types = {*map(type, column)}
        text = _SCALARS[types.pop()] if len(types) == 1 else _scalar
    return map(text, column)


def _int_list(v, nl: str) -> str:
    """A non-empty sequence of exact ints as ``dump`` writes it as a list on
    a line whose ``"\\n"`` and indent are ``nl``."""
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(map(int.__repr__, v)) + nl + "]"


def _list_leaf(piece: str):
    """The text function of a list leaf whose hole ends ``piece`` of a
    template: the list starts on the hole's line."""
    line = piece[piece.rfind("\n"):]
    nl = line[: len(line) - len(line.lstrip("\n "))]
    return lambda v: _int_list(v, nl) if v else "[]"


# The writers inside exact_ints and the limit to restore when the last one
# leaves; writers in several threads overlap, so the count is kept under a lock.
_lift_lock = threading.Lock()
_lifts = 0
_saved_limit = 0


@contextmanager
def exact_ints():
    """Lift the interpreter's limit on converting an int to decimal text
    (``sys.set_int_max_str_digits``, 4,300 digits by default) for the body,
    and restore the previous limit when the last body in any thread ends,
    however it ends.  The limit guards parsing untrusted text; a writer
    only formats ints that exact arithmetic produced, such as the
    self-intersection of a quadric in P^2999, whose numerator has 10,424
    digits.  The limit is process-wide, so it is lifted for every thread
    while a body runs.  An interpreter without the limit (Python before
    3.11) needs nothing."""
    global _lifts, _saved_limit
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    with _lift_lock:
        if _lifts == 0:
            _saved_limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
        _lifts += 1
    try:
        yield
    finally:
        with _lift_lock:
            _lifts -= 1
            if _lifts == 0:
                sys.set_int_max_str_digits(_saved_limit)


def dump(obj, fh) -> None:
    """Write ``obj`` to the text file ``fh`` byte for byte as
    ``json.dump(obj, fh, indent=2)`` does.

    Exact ``dict`` (all keys exactly ``str``), ``list``, ``str``, ``int``,
    ``bool`` and ``None`` are written here; a list of exact ints is joined in
    one step.  Any other value (a tuple, a float, a subclass of ``int``,
    ``str``, ``list`` or ``dict``, a dict with a non-str key) falls back to
    the stdlib: ``json.dumps(value, indent=2)``, re-indented to its depth by
    putting the depth's indent after each ``"\\n"``.  JSON text holds no raw
    newline, so the result is byte-identical.  A ``Rows`` is written as the
    list of its rows' trees would be.  There is no cycle check:
    ``to_json`` builds fresh trees.  Ints of any size are written exactly
    (``exact_ints``).
    """
    chunks: list[str] = []
    append = chunks.append
    write = fh.write
    quote = encode_basestring_ascii
    scalar = _SCALARS.get
    only_int, only_str = {int}, {str}

    def flush() -> None:
        write("".join(chunks))
        chunks.clear()

    def value(v, nl: str) -> None:
        # nl is "\n" plus the indent of the line that v starts on.
        t = type(v)
        if t is list:
            if not v:
                append("[]")
                return
            if {*map(type, v)} == only_int:
                append(_int_list(v, nl))
                return
            inner = nl + "  "
            sep, comma = "[" + inner, "," + inner
            for x in v:
                text = scalar(type(x))
                if text is None:
                    append(sep)
                    value(x, inner)
                else:
                    append(sep + text(x))
                if len(chunks) >= _BATCH:
                    flush()
                sep = comma
            append(nl + "]")
        elif t is dict and {*map(type, v)} <= only_str:
            if not v:
                append("{}")
                return
            inner = nl + "  "
            sep, comma = "{" + inner, "," + inner
            for k, x in v.items():
                text = scalar(type(x))
                if text is None:
                    append(sep + quote(k) + ": ")
                    value(x, inner)
                else:
                    append(sep + quote(k) + ": " + text(x))
                if len(chunks) >= _BATCH:
                    flush()
                sep = comma
            append(nl + "}")
        elif t is Rows:
            rows(v, nl)
        else:
            append(json.dumps(v, indent=2).replace("\n", nl))

    def rows(v: Rows, nl: str) -> None:
        # The template is the sample with a hole for each leaf, written by
        # value() at a row's indent and cut at the holes; a row is its pieces
        # joined by the texts of the row's leaves, made a column of a batch
        # at a time (_column).
        inner = nl + "  "
        lists: list[bool] = []
        flush()
        value(_holed(v.sample, lists), inner)
        pieces = "".join(chunks).split(quote(_HOLE))
        chunks.clear()
        texts = [_list_leaf(p) if is_list else None for p, is_list in zip(pieces, lists)]
        fill = "%s".join(p.replace("%", "%%") for p in pieces).__mod__
        sep, comma = "[" + inner, "," + inner
        leaves = iter(v.leaves)
        while batch := list(islice(leaves, _ROW_BATCH)):
            columns = map(_column, texts, zip(*batch))
            write(sep + comma.join(map(fill, zip(*columns))))
            sep = comma
        append(nl + "]" if sep is comma else "[]")

    with exact_ints():
        value(obj, "\n")
        flush()
