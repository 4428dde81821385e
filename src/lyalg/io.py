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

The writers give each table as Rows, a read-only sequence whose `.text`
is rendered on first use (inside dumps) from the form the algebra holds,
the int64 table (Algebra.table_int, LYAlgebra.ternary_int) or the
Fraction dict, never converting between them: each distinct value and
index is rendered once, numpy lays out the token ids, one join gives the
text.  dumps writes a Rows from its text, every other value through
json.dumps; indexing a Rows gives the row lists (json.loads of the text).

The readers build only acyclic lists and tuples, which the cyclic garbage
collector would scan again and again on a large table; they run with the
collector paused (the caller's setting comes back on exit).
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from fractions import Fraction
from functools import cached_property

import numpy as np

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
    if not isinstance(rows, (list, Rows)):
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


class Rows:
    """The rows [*key, [[l, "c"], ...]] of one table of an algebra, sorted
    by key and target, from the form the algebra held when this was made:
    a read-only sequence whose canonical JSON text is rendered on first use."""

    def __init__(self, thing, name: str, arity: int):
        self.dim, self.arity = thing.dim, arity
        self.held = vars(thing).get(name + "_int") or getattr(thing, name)

    def __len__(self) -> int:
        if isinstance(self.held, dict):
            return len(self.held)
        return table_groups(self.held, self.dim, self.arity)[0].shape[1]

    def __getitem__(self, i):
        return self._list[i]

    @cached_property
    def _list(self) -> list:
        return json.loads(self.text)

    @cached_property
    def text(self) -> str:
        held, dim, a = self.held, self.dim, self.arity
        # key t (column t) has lens[t] entries: targets l, coefficients values[vid]
        if isinstance(held, dict):
            keys = sorted(held)
            ents = [e for k in keys for e in held[k]]
            values: dict = {}
            vid = [values.setdefault(c, len(values)) for _, c in ents]
            lens, l = [len(held[k]) for k in keys], [k for k, _ in ents]
            keys = np.array(keys, dtype=np.int64).reshape(-1, a).T
        else:
            keys, l, cut = table_groups(held, dim, a)
            v, vid = np.unique(held[2], return_inverse=True)
            lens, values = np.diff(cut), [Fraction(x, held[3]) for x in v.tolist()]
        lens, l, vid = (np.asarray(x, dtype=np.int64) for x in (lens, l, vid))
        # tokens: an index i as ",[i," opening a row (the first drops its comma), "i,"
        # a later key index, "[[i" / ",[i" a first / later target; "]]"; ',"c"]' per value
        vocab = [f % i for f in (",[%d,", "%d,", "[[%d", ",[%d") for i in range(dim)]
        vocab += ["]]"] + [',"%s"]' % fr_str(c) for c in values]
        size = a + 1 + 2 * lens                 # key indices, [l, value] per entry, close
        start = np.cumsum(size) - size
        ids = np.empty(int(size.sum()), dtype=np.int64)
        ids[start + np.arange(a)[:, None]] = keys + dim * (np.arange(a) > 0)[:, None]
        at = np.repeat(start + a - 2 * (np.cumsum(lens) - lens), lens) + 2 * np.arange(len(l))
        ids[at], ids[at + 1] = l + 3 * dim, vid + 4 * dim + 1
        ids[start + a] -= dim                   # a row's first entry opens its list
        ids[start + size - 1] = 4 * dim
        return "[" + "".join(np.array(vocab, dtype=object)[ids].tolist())[1:] + "]"


def algebra_to_obj(alg: Algebra) -> dict:
    return {"dim": alg.dim, "labels": list(alg.labels),
            "binary": Rows(alg, "table", 2), "ternary": []}


def ly_to_obj(ly: LYAlgebra) -> dict:
    return {"dim": ly.dim, "labels": list(ly.labels), "binary": Rows(ly, "binary", 2),
            "ternary": Rows(ly, "ternary", 3)}


@_paused_gc()
def obj_to_algebra(obj: dict, name: str = "") -> Algebra:
    dim, labels = _head(obj)
    if obj.get("ternary"):
        raise ValueError("file has ternary entries; load it as an LY algebra")
    return Algebra(dim, _keyed(obj.get("binary", []), 2), labels=labels, name=name)


@_paused_gc()
def obj_to_ly(obj: dict, name: str = "") -> LYAlgebra:
    dim, labels = _head(obj)
    return LYAlgebra(dim, _keyed(obj.get("binary", []), 2), _keyed(obj.get("ternary", []), 3),
                     labels=labels, name=name)


def dumps(obj: dict) -> str:
    return "{%s}\n" % ",".join(
        "%s:%s" % (json.dumps(k), v.text if isinstance(v, Rows)
                   else json.dumps(v, sort_keys=True, separators=(",", ":")))
        for k, v in sorted(obj.items()))


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
