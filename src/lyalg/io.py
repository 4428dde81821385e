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

The writers give each table as Rows, a read-only sequence rendered from
the form the algebra holds, the int64 table (Algebra.table_int,
LYAlgebra.ternary_int) or the Fraction dict, never converting between
them.  It renders RENDER_ROWS rows at a time, so no array or list spans
the whole table: per chunk each distinct value and index is rendered
once, numpy lays out the token ids and one join gives the chunk's text.
dumps joins the pieces of the document once (save writes them): a Rows's
chunks, every other value through json.dumps.  `.text` is the rows' text
alone, and indexing a Rows gives the row lists (json.loads of the text).

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

from .algebra import Algebra, LYAlgebra, row_starts, table_groups


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


# Rows renders this many rows at a time, so its token arrays are bounded by
# the chunk, not the table.  On the 158,376 ternary rows of the 182-dim LY
# algebra in O x H3(O), the traced peak of dumps is 9.8 MB at 2^10 to 2^14
# rows (37 MB in one chunk, 18 MB at 2^16), and 2^14 (10 chunks) is the
# fastest: 0.036 s against 0.052 s in one chunk (best of 9, 2-vCPU VM)
RENDER_ROWS = 1 << 14


class Rows:
    """The rows [*key, [[l, "c"], ...]] of one table of an algebra, sorted
    by key and target, from the form the algebra held when this was made:
    a read-only sequence whose canonical JSON text is rendered on first use,
    RENDER_ROWS rows at a time (pieces)."""

    def __init__(self, thing, name: str, arity: int):
        self.dim, self.arity = thing.dim, arity
        self.held = vars(thing).get(name + "_int") or getattr(thing, name)

    def __len__(self) -> int:
        return len(self.held) if isinstance(self.held, dict) else len(self._cut) - 1

    def __getitem__(self, i):
        return self._list[i]

    @cached_property
    def _list(self) -> list:
        return json.loads(self.text)

    @cached_property
    def text(self) -> str:
        return "".join(self.pieces())

    @cached_property
    def _cut(self):
        return row_starts(self.held, self.dim, self.arity)

    def _chunks(self):
        """(keys, lens, l, vid, values) of each RENDER_ROWS rows in turn:
        the keys as the columns of an array, lens[t] entries of key t, their
        targets l and value ids vid, and the values the ids stand for."""
        held, dim, a = self.held, self.dim, self.arity
        if isinstance(held, dict):
            rows = sorted(held)
            for r in range(0, len(rows), RENDER_ROWS):
                keys = rows[r:r + RENDER_ROWS]
                ents = [e for k in keys for e in held[k]]
                values: dict = {}
                vid = [values.setdefault(c, len(values)) for _, c in ents]
                yield (np.array(keys, dtype=np.int64).reshape(-1, a).T,
                       [len(held[k]) for k in keys], [k for k, _ in ents], vid, values)
            return
        pair, col, val, scale = held
        for r in range(0, len(self._cut) - 1, RENDER_ROWS):
            cut = self._cut[r:r + RENDER_ROWS + 1]
            z = slice(cut[0], cut[-1])
            keys, l, cut = table_groups((pair[z], col[z]), dim, a, cut - cut[0])
            v, vid = np.unique(val[z], return_inverse=True)
            yield keys, np.diff(cut), l, vid, [Fraction(x, scale) for x in v.tolist()]

    def pieces(self):
        """The canonical JSON text of the rows, one piece per chunk between
        the brackets: each distinct value and index is rendered once, numpy
        lays out the chunk's token ids, one join gives its text."""
        dim, a = self.dim, self.arity
        # tokens: an index i as ",[i," opening a row (the first drops its comma), "i,"
        # a later key index, "[[i" / ",[i" a first / later target; "]]"; ',"c"]' per value
        vocab = [f % i for f in (",[%d,", "%d,", "[[%d", ",[%d") for i in range(dim)] + ["]]"]
        yield "["
        first = 1
        for keys, lens, l, vid, values in self._chunks():
            lens, l, vid = (np.asarray(x, dtype=np.int64) for x in (lens, l, vid))
            size = a + 1 + 2 * lens             # key indices, [l, value] per entry, close
            start = np.cumsum(size) - size
            ids = np.empty(int(size.sum()), dtype=np.int64)
            ids[start + np.arange(a)[:, None]] = keys + dim * (np.arange(a) > 0)[:, None]
            at = (np.repeat(start + a - 2 * (np.cumsum(lens) - lens), lens)
                  + 2 * np.arange(len(l)))
            ids[at], ids[at + 1] = l + 3 * dim, vid + 4 * dim + 1
            ids[start + a] -= dim               # a row's first entry opens its list
            ids[start + size - 1] = 4 * dim
            words = np.array(vocab + [',"%s"]' % fr_str(c) for c in values], dtype=object)
            yield "".join(words[ids].tolist())[first:]
            first = 0
        yield "]"


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


def _pieces(obj: dict):
    """The canonical JSON text of obj in pieces: a Rows gives its own,
    every other value one piece through json.dumps."""
    yield "{"
    for n, (k, v) in enumerate(sorted(obj.items())):
        yield ("," if n else "") + json.dumps(k) + ":"
        if isinstance(v, Rows):
            yield from v.pieces()
        else:
            yield json.dumps(v, sort_keys=True, separators=(",", ":"))
    yield "}\n"


def dumps(obj: dict) -> str:
    return "".join(_pieces(obj))


def save(path: str, thing) -> None:
    obj = ly_to_obj(thing) if isinstance(thing, LYAlgebra) else algebra_to_obj(thing)
    with open(path, "w") as f:
        f.writelines(_pieces(obj))


def load(path: str):
    """Load a JSON file: an LY algebra when it has ternary entries, else a
    Lie algebra.  ValueError for a file that is not an algebra object."""
    with open(path) as f:
        obj = json.load(f)
    _head(obj)
    return obj_to_ly(obj) if obj.get("ternary") else obj_to_algebra(obj)
