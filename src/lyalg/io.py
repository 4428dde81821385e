"""Reading and writing the on-disk JSON format.

One shared schema for both algebra kinds:

    {"dim": n, "labels": [...],
     "binary":  [[i, j, [[k, "c"], ...]], ...],
     "ternary": [[i, j, k, [[l, "c"], ...]], ...]}

Indices are 0-based with i < j; coefficients are rational strings ("3",
"-3/4").  A plain Lie algebra is a file with an empty "ternary" list.
Output is canonical: sorted keys and entries, compact separators, one
trailing newline, so printing is byte-deterministic and print-parse-print
is the identity.  Reading refuses (ValueError) a top level that is not an
object with a "dim", a dim or index that is not a non-negative integer
(a bool is not), a row or entry list that is not a list, labels that are
not a list of dim names (strings), a key that is given twice, and a zero
denominator.

Both writers take each table from the form the algebra holds: the int64
table (Algebra.table_int, LYAlgebra.ternary_int) when it holds one, with
one string per distinct value, else the Fraction dict; they never
convert between the forms, and both give the same bytes.

The four conversions between algebras and JSON objects build only
acyclic lists and tuples, which the cyclic garbage collector would scan
again and again on a large table; they run with the collector paused
(the caller's setting comes back on exit).
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from fractions import Fraction

from .algebra import Algebra, LYAlgebra, table_groups


@contextmanager
def _paused_gc():
    """Disable the cyclic collector for a block, then restore the caller's
    setting, also after an exception and when nested."""
    was = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was:
            gc.enable()


def fr_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _coeffs_obj(entries):
    return [[k, fr_str(c)] for k, c in entries]


def _coeff(c) -> Fraction:
    try:
        return Fraction(str(c))
    except ZeroDivisionError:
        raise ValueError("coefficient %r has a zero denominator" % c) from None


def _index(x, what: str) -> int:
    """x if it is a non-negative JSON integer (a bool is not); ValueError
    naming `what` otherwise."""
    if type(x) is not int or x < 0:
        raise ValueError("%s must be a non-negative integer, not %s"
                         % (what, json.dumps(x, default=repr)))
    return x


def _coeffs_parse(obj):
    if not isinstance(obj, list) or any(not isinstance(e, list) or len(e) != 2
                                        for e in obj):
        raise ValueError("entries %s are not a list of [index, coefficient] pairs"
                         % json.dumps(obj, default=repr))
    return [(_index(k, "target index"), _coeff(c)) for k, c in obj]


def _head(obj) -> tuple[int, list | None]:
    """The dimension and labels (None when absent) of an algebra object;
    ValueError for anything else."""
    if not isinstance(obj, dict) or "dim" not in obj:
        raise ValueError("not an algebra: expected a JSON object with a \"dim\" key")
    dim, labels = _index(obj["dim"], "dim"), obj.get("labels")
    if labels is not None and not (isinstance(labels, list) and len(labels) == dim
                                   and all(isinstance(x, str) for x in labels)):
        raise ValueError("labels must be a list of %d names" % dim)
    return dim, labels


def _keyed(rows, arity: int) -> dict:
    """{key: coefficients} of the rows [*key, entries]; refuses
    (ValueError) rows that are not lists, a key of the wrong length or
    with an index that is not a non-negative integer, and a key given
    twice, which a dict would silently overwrite."""
    if not isinstance(rows, list):
        raise ValueError("rows %s are not a list" % json.dumps(rows, default=repr))
    out = {}
    for row in rows:
        if not isinstance(row, list) or not row:
            raise ValueError("row %s is not a list [*key, entries]"
                             % json.dumps(row, default=repr))
        *key, ent = row
        key = tuple(_index(x, "key index") for x in key)
        if len(key) != arity or key in out:
            raise ValueError("%s key (%s)" % ("repeated" if key in out else "bad",
                                              ",".join(map(str, key))))
        out[key] = _coeffs_parse(ent)
    return out


def _rows(thing, name: str, arity: int) -> list:
    """The rows [*key, [[l, "c"], ...]] of the table `name` of thing, from
    its int64 form `name`_int when thing holds it (one string per distinct
    value), else from the Fraction dict; both give the same rows."""
    held = vars(thing).get(name + "_int")
    if held is None:
        return [[*key, _coeffs_obj(ent)] for key, ent in sorted(getattr(thing, name).items())]
    keys, l, v, cut = table_groups(held, thing.dim, arity)
    text = {x: fr_str(Fraction(x, held[3])) for x in set(v)}
    ent = [[t, text[x]] for t, x in zip(l, v)]
    return [[*key, ent[a:z]] for key, a, z in zip(keys, cut, cut[1:])]


@_paused_gc()
def algebra_to_obj(alg: Algebra) -> dict:
    return {"dim": alg.dim, "labels": list(alg.labels),
            "binary": _rows(alg, "table", 2), "ternary": []}


@_paused_gc()
def ly_to_obj(ly: LYAlgebra) -> dict:
    return {"dim": ly.dim, "labels": list(ly.labels), "binary": _rows(ly, "binary", 2),
            "ternary": _rows(ly, "ternary", 3)}


@_paused_gc()
def obj_to_algebra(obj: dict, name: str = "") -> Algebra:
    dim, labels = _head(obj)
    if obj.get("ternary"):
        raise ValueError("file has ternary entries; load it as an LY algebra")
    return Algebra(dim, _keyed(obj.get("binary", []), 2), labels=labels, name=name)


@_paused_gc()
def obj_to_ly(obj: dict, name: str = "") -> LYAlgebra:
    dim, labels = _head(obj)
    binary = _keyed(obj.get("binary", []), 2)
    ternary = _keyed(obj.get("ternary", []), 3)
    return LYAlgebra(dim, binary, ternary, labels=labels, name=name)


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def save(path: str, thing) -> None:
    obj = ly_to_obj(thing) if isinstance(thing, LYAlgebra) else algebra_to_obj(thing)
    with open(path, "w") as f:
        f.write(dumps(obj))


def load(path: str):
    """Load a JSON file: an LY algebra when it has ternary entries, else a
    Lie algebra.  ValueError for a file that is not an algebra object."""
    with open(path) as f:
        obj = json.load(f)
    _head(obj)
    return obj_to_ly(obj) if obj.get("ternary") else obj_to_algebra(obj)
