"""The one writer of wcikit's indented JSON documents.

Every document the CLI prints or writes (the ``analyze``, ``wellform``,
``strata``, ``witness`` and ``probe`` results, the census summary and its
partial-output marker) is the stdlib's ``json.JSONEncoder(indent=2)`` text,
which ``dump`` writes in bounded batches.  A list of many rows of one
layout, such as the strata of an ``analyze`` report, can be given as
``Rows``: one row's text is cut at its leaves once (``template``, which the
census cuts its lines with too), and each row is the pieces filled with its
leaves, with no tree built or walked per row.  That fill is the only JSON
text written here by hand.  ``exact_ints`` lets a writer write ints of any
size.
"""

from __future__ import annotations

import json
import sys
import threading
from contextlib import contextmanager
from itertools import islice
from json.encoder import encode_basestring_ascii

# Characters gathered before each write, so a document is never held whole;
# the stdlib's chunks are a few characters each, so its text bounds a batch.
_BATCH = 1024
# Rows of a Rows list written at a time: a stratum's row is a dozen lines
# and a few hundred characters.
_ROW_BATCH = 64

# The JSON text of each constant, and of a scalar by its exact type.
_CONSTANTS = {True: "true", False: "false", None: "null"}
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: _CONSTANTS.__getitem__,
    type(None): _CONSTANTS.__getitem__,
}

# Stands for each value to be filled in in a template; its encoding,
# "\u0000", occurs nowhere else in a template's text.
HOLE = "\x00"

_indented = json.JSONEncoder(indent=2).encode
# The stdlib's refusal of a value it cannot encode.
_refuse = json.JSONEncoder().default


def template(encode, tree) -> list[str]:
    """``encode(tree)`` cut at each ``HOLE`` in ``tree``: the pieces that
    the texts of its values go between, in the order ``tree`` holds them."""
    return encode(tree).split(encode(HOLE))


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
    """``tree`` with each leaf replaced by ``HOLE``; ``lists`` gets, per
    leaf in order, whether it is a list."""
    if type(tree) is dict:
        return {k: _holed(v, lists) for k, v in tree.items()}
    lists.append(type(tree) is list)
    return HOLE


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


def _last_indent(text: str, nl: str) -> str:
    """The ``"\\n"`` and indent that start the last line of ``text``, or
    ``nl`` if ``text`` holds no ``"\\n"``."""
    i = text.rfind("\n")
    line = nl if i < 0 else text[i:]
    return line[: len(line) - len(line.lstrip("\n "))]


def _list_leaf(piece: str, nl: str):
    """The text function of a list leaf whose hole ends ``piece`` of a row's
    template: a non-empty sequence of exact ints as a list starting on the
    hole's line, which is the row's (``nl``) if ``piece`` has no line break."""
    nl = _last_indent(piece, nl)
    inner = nl + "  "
    comma, close = "," + inner, nl + "]"
    return lambda v: "[" + inner + comma.join(map(int.__repr__, v)) + close if v else "[]"


def _write_rows(rows: Rows, nl: str, write) -> str:
    """Write the list of ``rows``' trees as the stdlib does on a line whose
    ``"\\n"`` and indent are ``nl``, a batch of rows at a time, but for the
    closing text, which is returned.  The sample's holed text is indented to
    a row's line; each column of a batch is made at once (``_column``)."""
    inner = nl + "  "
    lists: list[bool] = []
    pieces = [p.replace("\n", inner) for p in template(_indented, _holed(rows.sample, lists))]
    texts = [_list_leaf(p, inner) if is_list else None for p, is_list in zip(pieces, lists)]
    fill = "%s".join(p.replace("%", "%%") for p in pieces).__mod__
    sep, comma = "[" + inner, "," + inner
    leaves = iter(rows.leaves)
    while batch := list(islice(leaves, _ROW_BATCH)):
        columns = map(_column, texts, zip(*batch))
        write(sep + comma.join(map(fill, zip(*columns))))
        sep = comma
    return nl + "]" if sep is comma else "[]"


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
    ``json.dump(obj, fh, indent=2)`` does, in batches of about ``_BATCH``
    characters, with ints of any size written exactly (``exact_ints``).

    The encoder's ``default`` hook takes each ``Rows`` and returns ``HOLE``,
    so the chunk the encoder yields next is that hole, whatever other text
    equals it; the rows go there, at the indent of the hole's line.  Any
    other value the stdlib cannot encode raises its own TypeError.  There
    is no cycle check: ``to_json`` builds fresh trees.
    """
    found: list[Rows] = []

    def default(o):
        if type(o) is not Rows:
            return _refuse(o)
        found.append(o)
        return HOLE

    batch: list[str] = []
    size, nl = 0, "\n"  # nl: "\n" and the indent of the last line written

    def flush() -> str:
        text = "".join(batch)
        batch.clear()
        fh.write(text)
        return _last_indent(text, nl)

    encoder = json.JSONEncoder(indent=2, check_circular=False, default=default)
    with exact_ints():
        for chunk in encoder.iterencode(obj):
            if found:
                nl, size = flush(), 0
                chunk = _write_rows(found.pop(), nl, fh.write)
            batch.append(chunk)
            size += len(chunk)
            if size >= _BATCH:
                nl, size = flush(), 0
        flush()
