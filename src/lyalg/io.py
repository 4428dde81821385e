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
object with a "dim", a key that is given twice, and a zero denominator.

ly_to_obj writes the ternary list from the int64 table when the algebra
holds one (one string per distinct value), else from the Fraction dict,
so it never converts between them; both give the same bytes.

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

from .algebra import Algebra, LYAlgebra, ternary_groups


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


def _coeffs_parse(obj):
    return [(int(k), _coeff(c)) for k, c in obj]


def _dim(obj) -> int:
    """The dimension of an algebra object; ValueError for anything else."""
    if not isinstance(obj, dict) or "dim" not in obj:
        raise ValueError("not an algebra: expected a JSON object with a \"dim\" key")
    return int(obj["dim"])


def _keyed(rows, arity: int) -> dict:
    """{key: coefficients} of the rows [*key, entries]; refuses
    (ValueError) a key of the wrong length, and a key given twice, which
    a dict would silently overwrite."""
    out = {}
    for *key, ent in rows:
        key = tuple(map(int, key))
        if len(key) != arity or key in out:
            raise ValueError("%s key (%s)" % ("repeated" if key in out else "bad",
                                              ",".join(map(str, key))))
        out[key] = _coeffs_parse(ent)
    return out


@_paused_gc()
def algebra_to_obj(alg: Algebra) -> dict:
    binary = [[i, j, _coeffs_obj(ent)] for (i, j), ent in sorted(alg.table.items())]
    return {"dim": alg.dim, "labels": list(alg.labels), "binary": binary, "ternary": []}


@_paused_gc()
def ly_to_obj(ly: LYAlgebra) -> dict:
    binary = [[i, j, _coeffs_obj(ent)] for (i, j), ent in sorted(ly.binary.items())]
    if "ternary_int" in vars(ly):           # held, not derived here
        keys, l, v, cut = ternary_groups(ly.ternary_int, ly.dim)
        text = {x: fr_str(Fraction(x, ly.ternary_int[3])) for x in set(v)}
        ent = [[t, text[x]] for t, x in zip(l, v)]
        ternary = [[*key, ent[a:z]] for key, a, z in zip(keys, cut, cut[1:])]
    else:
        ternary = [[*key, _coeffs_obj(ent)] for key, ent in sorted(ly.ternary.items())]
    return {"dim": ly.dim, "labels": list(ly.labels), "binary": binary, "ternary": ternary}


@_paused_gc()
def obj_to_algebra(obj: dict, name: str = "") -> Algebra:
    dim = _dim(obj)
    if obj.get("ternary"):
        raise ValueError("file has ternary entries; load it as an LY algebra")
    table = _keyed(obj.get("binary", []), 2)
    return Algebra(dim, table, labels=obj.get("labels"), name=name)


@_paused_gc()
def obj_to_ly(obj: dict, name: str = "") -> LYAlgebra:
    dim = _dim(obj)
    binary = _keyed(obj.get("binary", []), 2)
    ternary = _keyed(obj.get("ternary", []), 3)
    return LYAlgebra(dim, binary, ternary, labels=obj.get("labels"), name=name)


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
    _dim(obj)
    return obj_to_ly(obj) if obj.get("ternary") else obj_to_algebra(obj)
