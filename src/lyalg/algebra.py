"""Structure-constant containers for anticommutative and binary-ternary algebras.

An Algebra stores an anticommutative bilinear bracket on a based vector
space over Q; an LYAlgebra additionally stores a ternary bracket that is
anticommutative in its first two arguments.  Both keep sparse tables:
only pairs i < j (and triples with i < j) are stored, everything else
follows by sign.

The bracket of an Algebra and the ternary product of an LYAlgebra are
each held as an int64 table or a Fraction dict, as given; the other form
is a cached property derived once, by one converter for both classes
(dict_to_table, table_to_dict; checked_table validates a given table,
table_groups reads one by key, row_starts finds where each key's
entries begin).  `table` maps (i, j) to the entries (l, Fraction) of
[e_i, e_j], `ternary` maps (i, j, k) to those of [e_i, e_j, e_k].
`table_int` is (pair, target, val, scale), val / scale the coefficient
of e_l at pair i n + j and target l, sorted by (pair, l);
`ternary_int` has col l n + k in place of l, sorted by (pair, k, l).
Deriving a table raises OverflowError, naming the entry and the int64
limit, for constants beyond int64.  The LY binary product is a dict.

Every builder in the package gives the int64 form (buildtools.pair_table,
or its batch, assembles each): the Tits and TKK algebras,
operator_algebra_from_basis, the enveloping algebra, g(T), direct_sum,
subalgebra_on_indices, the saturated torus basis (roots._rebase) and
the solved module bracket (tits.assemble_bracket), and the ternary
products of the Kronecker families, ly_inside_tits and
ly_from_reductive_indices.  The Fraction dict is the given form only
where the input is Fraction by nature: io's reader, LYAlgebra.from_ops
(as in envelope.ly_from_reductive) and algebras written out by hand.  A
dict is derived only where bk, t or a caller of `table` or `ternary`
reads it.

The tables are read-only after construction: an edit in place would not
reach the other form, nor the memoised sweeps and envelope in `_cache`.
To change an algebra, build a new one from a changed copy.

Optional attributes carried by constructions and used by the checkers and
classifiers, never serialized: `weights` (a grading vector per basis index
making structure constants vanish off the grading) and `cartan` (vectors
spanning a split toral subalgebra whose ad-action is diagonal on the basis).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import itemgetter

import numpy as np

from .linalg import F0, Vec, fr

Sparse = list[tuple[int, Fraction]]


def _clean(entries) -> Sparse:
    out = [(int(k), fr(c)) for k, c in entries if c != 0]
    out.sort(key=lambda t: t[0])
    ks = [k for k, _ in out]
    if len(set(ks)) != len(ks):
        raise ValueError("duplicate target index in sparse entry")
    return out


def _all_clean(entries, dim: int) -> bool:
    """True when every entry is already what _clean returns: a list of pairs
    (int target, nonzero Fraction) with strictly increasing targets in
    range(dim).  One pass over the flattened table.  The constructors keep
    clean entry lists as given (not copied) and fall back to _clean entry
    by entry otherwise."""
    ents = [e for e in entries if e]
    if not ents:
        return True
    flat = [x for e in ents for x in e] if set(map(type, ents)) == {list} else []
    if set(map(type, flat)) != {tuple} or set(map(len, flat)) != {2}:
        return False
    ks = list(map(itemgetter(0), flat))
    cs = list(map(itemgetter(1), flat))
    if set(map(type, ks)) != {int} or set(map(type, cs)) != {Fraction}:
        return False
    if not all(cs):
        return False
    try:
        k = np.fromiter(ks, dtype=np.int64, count=len(ks))
    except OverflowError:
        return False
    if k.min() < 0 or k.max() >= dim:
        return False
    step = np.diff(k)
    step[np.cumsum([len(e) for e in ents])[:-1] - 1] = 1   # key boundaries
    return bool((step > 0).all())


def _sparse_table(table: dict, dim: int, kind: str) -> dict:
    """The nonempty entries of a pair or triple table, cleaned.  Refuses
    (ValueError) a key outside i < j < dim (and k < dim) and a target
    outside range(dim)."""
    clean = _all_clean(table.values(), dim)
    out = {}
    for key, ent in table.items():
        if not (0 <= key[0] < key[1] < dim and 0 <= key[-1] < dim):
            raise ValueError("bad %s key (%s)" % (kind, ",".join(map(str, key))))
        ent = ent if clean else _clean(ent)
        if ent:
            if not clean and any(not 0 <= k < dim for k, _ in ent):
                raise ValueError("target index out of range")
            out[key] = ent
    return out


def _codes(pair, col, dim: int, arity: int):
    """(group, code, l) of the entries of an int64 table: the group numbers
    the key (the pair, or pair n + k for a triple key), code = group n + l
    orders the entries, and l is the target."""
    if arity == 2:
        return pair, pair * dim + col, col
    l, k = np.divmod(col, dim)
    group = pair * dim + k
    return group, group * dim + l, l


def checked_table(table, dim: int, arity: int):
    """An int64 table (pair, col, val, scale) of pair (arity 2) or triple
    (arity 3) keys, refused (ValueError) unless i < j, every index is in
    range, every value is nonzero, the entries strictly increase in
    (key, target) and scale > 0."""
    kind = "binary" if arity == 2 else "ternary"
    pair, col, val = (np.asarray(a, dtype=np.int64) for a in table[:3])
    scale = int(table[3])
    if not pair.shape == col.shape == val.shape == (len(pair),):
        raise ValueError("%s table: arrays must be flat and of one length" % kind)
    if scale <= 0:
        raise ValueError("%s table: scale <= 0" % kind)
    i, j = np.divmod(pair, dim)
    for bad, what in [((pair < 0) | (pair >= dim * dim) | (col < 0)
                       | (col >= dim ** (arity - 1)), "index out of range"),
                      (i >= j, "i >= j"), (val == 0, "zero value"),
                      (np.diff(_codes(pair, col, dim, arity)[1]) <= 0,
                       "entries not strictly sorted by (key, target)")]:
        if bad.any():
            raise ValueError("%s table: %s" % (kind, what))
    return pair, col, val, scale


def row_starts(table, dim: int, arity: int):
    """Where each key of an int64 table starts: cut[t] is the index of key
    t's first entry, and cut[-1] the number of entries."""
    pair, col = table[0], table[1]
    new = np.diff(pair, prepend=-1) != 0
    if arity == 3:
        new |= np.diff(col % dim, prepend=-1) != 0
    return np.append(np.flatnonzero(new), len(pair))


def table_groups(table, dim: int, arity: int, cut=None):
    """(keys, l, cut) of an int64 table: the keys (i, j) or (i, j, k) in
    order as the columns of an array, and the targets l of the entries,
    those of key t from cut[t] to cut[t + 1].  cut is row_starts(table),
    found here unless given."""
    pair, col = table[0], table[1]
    cut = row_starts(table, dim, arity) if cut is None else cut
    keys = np.divmod(pair[cut[:-1]], dim)
    if arity == 2:
        return np.array(keys), col, cut
    l, k = np.divmod(col, dim)
    return np.array([*keys, k[cut[:-1]]]), l, cut


def table_to_dict(table, dim: int, arity: int) -> dict:
    """The Fraction dict of an int64 table, keys in order."""
    keys, l, cut, v = (x.tolist() for x in (*table_groups(table, dim, arity), table[2]))
    frac = {x: Fraction(x, table[3]) for x in set(v)}
    ent = list(zip(l, map(frac.__getitem__, v)))
    return {key: ent[a:z] for key, a, z in zip(zip(*keys), cut, cut[1:])}


def dict_to_table(table: dict, dim: int, arity: int):
    """The int64 table of a clean Fraction dict, sorted by (key, target).
    OverflowError, naming the entry and the int64 limit, when a value
    times the common denominator does not fit (buildtools.int_values)."""
    from .buildtools import EntryOverflow, int_values   # buildtools imports this module
    keys = np.fromiter(chain.from_iterable(table), np.int64,
                       arity * len(table)).reshape(-1, arity)
    lens = np.fromiter(map(len, table.values()), np.int64, len(table))
    ents = list(chain.from_iterable(table.values()))
    l = np.fromiter(map(itemgetter(0), ents), np.int64, len(ents))
    try:
        val, scale = int_values(list(map(itemgetter(1), ents)))
    except EntryOverflow as e:
        key = keys[np.searchsorted(np.cumsum(lens), e.index, side="right")]
        raise OverflowError("the constant of e%d in [%s]: %s" % (
            l[e.index], ", ".join("e%d" % x for x in key), e)) from None
    key = np.repeat(keys, lens, axis=0)
    pair = key[:, 0] * dim + key[:, 1]
    col = l if arity == 2 else l * dim + key[:, 2]
    o = np.argsort(_codes(pair, col, dim, arity)[1])
    return pair[o], col[o], val[o], scale


class Algebra:
    """Anticommutative algebra given by structure constants, held as a
    Fraction dict or an int64 table."""

    def __init__(self, dim: int, table: dict[tuple[int, int], Sparse] | tuple,
                 labels: list[str] | None = None, name: str = ""):
        self.dim = dim
        self.labels = list(labels) if labels else [f"e{i}" for i in range(dim)]
        if len(self.labels) != dim or not all(isinstance(x, str) for x in self.labels):
            raise ValueError("labels must be a list of %d names" % dim)
        # cached_property has no setter: these assignments fill its cache
        if isinstance(table, dict):
            self.table = _sparse_table(table, dim, "pair")
        else:
            self.table_int = checked_table(table, dim, 2)
        self.name = name
        self.weights: list[tuple] | None = None
        self.cartan: list[Vec] | None = None
        self._cache: dict = {}

    @cached_property
    def table(self) -> dict[tuple[int, int], Sparse]:
        """The Fraction dict of the int64 table, keys in (i, j) order."""
        return table_to_dict(self.table_int, self.dim, 2)

    @cached_property
    def table_int(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """The int64 table (pair, target, val, scale) of the dict."""
        return dict_to_table(self.table, self.dim, 2)

    def bk(self, i: int, j: int) -> Sparse:
        """[e_i, e_j] as sparse entries."""
        if i == j:
            return []
        if i < j:
            return self.table.get((i, j), [])
        return [(k, -c) for k, c in self.table.get((j, i), [])]

    def bracket(self, x: Vec, y: Vec) -> Vec:
        out = [F0] * self.dim
        nz_x = [(i, c) for i, c in enumerate(x) if c != 0]
        nz_y = [(j, c) for j, c in enumerate(y) if c != 0]
        for i, a in nz_x:
            for j, b in nz_y:
                if i == j:
                    continue
                ab = a * b
                for k, c in self.bk(i, j):
                    out[k] += ab * c
        return out

    def nnz(self) -> int:
        held = vars(self).get("table_int")
        return len(held[2]) if held else sum(map(len, self.table.values()))

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<Algebra{tag} dim={self.dim} nnz={self.nnz()}>"


class LYAlgebra:
    """Binary-ternary algebra; both brackets anticommutative in the leading
    pair.  The ternary product is a Fraction dict or an int64 table."""

    def __init__(self, dim: int,
                 binary: dict[tuple[int, int], Sparse],
                 ternary: dict[tuple[int, int, int], Sparse] | tuple,
                 labels: list[str] | None = None, name: str = ""):
        self.dim = dim
        self.labels = list(labels) if labels else [f"e{i}" for i in range(dim)]
        if len(self.labels) != dim or not all(isinstance(x, str) for x in self.labels):
            raise ValueError("labels must be a list of %d names" % dim)
        self.binary: dict[tuple[int, int], Sparse] = _sparse_table(binary, dim, "pair")
        # cached_property has no setter: these assignments fill its cache
        if isinstance(ternary, dict):
            self.ternary = _sparse_table(ternary, dim, "triple")
        else:
            self.ternary_int = checked_table(ternary, dim, 3)
        self.name = name
        self.weights: list[tuple] | None = None
        self.cartan: list[Vec] | None = None
        self.notes: list[str] = []
        self._cache: dict = {}

    @classmethod
    def from_ops(cls, dim: int, bin_bk, ter_bk, labels=None, name: str = "") -> "LYAlgebra":
        binary = {}
        ternary = {}
        for i in range(dim):
            for j in range(i + 1, dim):
                binary[(i, j)] = _clean(bin_bk(i, j))
                for k in range(dim):
                    ternary[(i, j, k)] = _clean(ter_bk(i, j, k))
        return cls(dim, binary, ternary, labels=labels, name=name)

    @cached_property
    def ternary(self) -> dict[tuple[int, int, int], Sparse]:
        """The Fraction dict of the int64 table, keys in (i, j, k) order."""
        return table_to_dict(self.ternary_int, self.dim, 3)

    @cached_property
    def ternary_int(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """The int64 table (pair, col, val, scale) of the dict."""
        return dict_to_table(self.ternary, self.dim, 3)

    def b(self, i: int, j: int) -> Sparse:
        if i == j:
            return []
        if i < j:
            return self.binary.get((i, j), [])
        return [(k, -c) for k, c in self.binary.get((j, i), [])]

    def t(self, i: int, j: int, k: int) -> Sparse:
        if i == j:
            return []
        if i < j:
            return self.ternary.get((i, j, k), [])
        return [(l, -c) for l, c in self.ternary.get((j, i, k), [])]

    def nnz(self) -> tuple[int, int]:
        held = vars(self).get("ternary_int")
        nt = len(held[2]) if held else sum(map(len, self.ternary.values()))
        return sum(map(len, self.binary.values())), nt

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        nb, nt = self.nnz()
        return f"<LYAlgebra{tag} dim={self.dim} nnz=({nb},{nt})>"
