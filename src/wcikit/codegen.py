"""Generated evaluation code for sums of monomials over a prime field.

A generated function reads its coefficients as the globals K0, K1, ..., so
its text (``source``) depends only on its shape: its kind, the exponent
vectors of its terms, p and the power-table column each exponent is read
from.  Each text is compiled once and its code object kept in one bounded
cache keyed by the text itself (``codes``), and every member binds its own
coefficients to it (``bind``).  ``oracle`` builds its scans from these
pieces, and caches each scan's text, which holds no coefficient, the same
way.
"""

from __future__ import annotations

import threading
from itertools import chain, count
from operator import itemgetter
from types import CodeType, FunctionType

# Texts whose code objects the cache keeps, keyed by the text; past the
# bound it is emptied.
SHAPE_CACHE_SIZE = 256
_shapes: dict = {}
_shapes_lock = threading.Lock()


def reduced(e: int, p: int) -> int:
    """The exponent at most p-1 that acts as e on GF(p): by Fermat,
    x^e = x^((e-1) mod (p-1) + 1) for every x, 0 included, when e >= 1."""
    return (e - 1) % (p - 1) + 1 if e else 0


def trailing(exps, p) -> tuple[int, int]:
    """The ``reduced`` exponents of the last two coordinates of an exponent
    vector, a lone coordinate read as the second with 0 before it."""
    return tuple(reduced(e, p) for e in ((0,) + exps)[-2:])


def source(kind, term_lists, column, p) -> str:
    """The text of a function ``kind`` of a point ``pt`` (a tuple of
    residues mod p), with the coefficients K0, K1, ... in term order and
    x_i^e a local ``Pi_c`` read where first used from ``powt[pt[i]][c]``,
    c the ``column`` of the ``reduced`` e.

    An "ev" function returns the value of its one term list; an "eq" one
    the tuple of the sums of its one list's terms grouped by their
    ``trailing`` exponents, in ascending order of those, each term read
    without its last two coordinates; a "row" generator yields the value of
    each list, e.g. for the row [3*x1^2, x0*x1 + 4*x0^2]
    over GF(5) against a table of every exponent (``column[e] == e``)::

        def row(pt):
            P1_2 = powt[pt[1]][2]
            yield K0*P1_2 % 5
            P0_1 = powt[pt[0]][1]
            P0_2 = powt[pt[0]][2]
            P1_1 = powt[pt[1]][1]
            yield sum((K1*P0_1*P1_1, K2*P0_2,)) % 5

    with K0, K1, K2 = 3, 1, 4.  A sum of several products is a sum over a
    tuple, which unlike a chain of ``+`` compiles at any length, with each
    product on a line of its own, which keeps the code's location table
    small.
    """
    t = count()
    lists = [[(exps, f"K{next(t)}") for exps, _ in terms] for terms in term_lists]
    if kind == "eq":
        groups = {}
        for exps, name in lists[0]:
            groups.setdefault(trailing(exps, p), []).append((exps[:-2], name))
        lists = [groups[e] for e in sorted(groups)]
    lines, read, sums = [f"def {kind}(pt):"], set(), []
    for terms in lists:
        factors = [[(i, column[reduced(e, p)]) for i, e in enumerate(x) if e] for x, _ in terms]
        new = sorted(set(chain(*factors)) - read)
        lines += [f"    P{i}_{c} = powt[pt[{i}]][{c}]" for i, c in new]
        read.update(new)
        products = [
            name + "".join(f"*P{i}_{c}" for i, c in fs) for (_, name), fs in zip(terms, factors)
        ]
        if len(products) == 1:
            sums.append(f"{products[0]} % {p}")
        else:
            sums.append("sum((" + "".join(x + ",\n" for x in products) + f")) % {p}")
        if kind == "row":
            lines.append(f"    yield {sums[-1]}")
    if kind != "row":
        lines.append(f"    return {sums[0] if kind == 'ev' else ', '.join(sums) + ','}")
    return "\n".join(lines)


def codes(units, max_terms) -> list[CodeType]:
    """The code object of the one function each unit ``(text, terms)``
    defines, cached by the text; ``terms`` counts the terms it evaluates.

    The texts the cache lacks are compiled together while their terms total
    at most ``max_terms``, the rest in further calls of at most that many
    terms each.  When the cache would hold more than ``SHAPE_CACHE_SIZE``
    texts it is emptied.
    """
    found, batches, size = {}, [[]], 0
    for text, n in units:
        if text in found:
            continue
        found[text] = _shapes.get(text)
        if found[text]:
            continue
        if size + n > max_terms:
            batches.append([])
            size = 0
        size += n
        batches[-1].append(text)
    new = {}
    for batch in filter(None, batches):
        module = compile("\n".join(batch), "<wcikit.codegen>", "exec")
        new.update(zip(batch, (c for c in module.co_consts if isinstance(c, CodeType))))
    with _shapes_lock:
        if len(_shapes) + len(new) > SHAPE_CACHE_SIZE:
            _shapes.clear()
        for text, code in new.items():
            if len(_shapes) < SHAPE_CACHE_SIZE:
                _shapes[text] = code
    found.update(new)
    return [found[text] for text, _ in units]


def bind(code, terms, namespace):
    """``code`` as a function whose globals are ``namespace`` and the
    coefficients of the terms as K0, K1, ...; they must be ints (TypeError
    otherwise)."""
    coeffs = list(map(itemgetter(1), terms))
    if set(map(type, coeffs)) - {int}:
        raise TypeError(f"compiled evaluation needs int coefficients, got {set(map(type, coeffs))}")
    namespace.update(zip(map("K{}".format, count()), coeffs))
    return FunctionType(code, namespace)
