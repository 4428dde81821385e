"""Structure-constant containers for anticommutative and binary-ternary algebras.

An Algebra stores an anticommutative bilinear bracket on a based vector
space over Q; an LYAlgebra additionally stores a ternary bracket that is
anticommutative in its first two arguments.  Both keep sparse tables:
only pairs i < j (and triples with i < j) are stored, everything else
follows by sign.

The ternary storage of an LYAlgebra is one int64 table or a Fraction
dict; the other form is derived on first read, here and nowhere else.
`ternary` maps (i, j, k) to the entries (l, Fraction) of [e_i, e_j, e_k];
`ternary_int` is (pair, col, val, scale), val / scale the coefficient of
e_l at pair i n + j and col l n + k, sorted by (pair, k, l), and raises
OverflowError for constants beyond int64.  The tables are not meant to
be mutated once check_ly has memoised the envelope in `_cache`.

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


def _checked_table(table, dim: int):
    """A ternary int64 table (pair, col, val, scale), refused (ValueError)
    unless i < j, every index is in range, every value is nonzero, the
    entries strictly increase in (pair, k, l) and scale > 0."""
    pair, col, val = (np.asarray(a, dtype=np.int64) for a in table[:3])
    scale, n2 = int(table[3]), dim * dim
    if not pair.shape == col.shape == val.shape == (len(pair),):
        raise ValueError("ternary table: arrays must be flat and of one length")
    if scale <= 0:
        raise ValueError("ternary table: scale <= 0")
    (i, j), (l, k) = np.divmod(pair, dim), np.divmod(col, dim)
    for bad, what in [((pair < 0) | (pair >= n2) | (col < 0) | (col >= n2),
                       "index out of range"), (i >= j, "i >= j"),
                      (val == 0, "zero value"),
                      (np.diff((pair * dim + k) * dim + l) <= 0,
                       "entries not strictly sorted by (pair, k, l)")]:
        if bad.any():
            raise ValueError("ternary table: " + what)
    return pair, col, val, scale


def ternary_groups(table, dim: int):
    """(keys, l, v, cut) of an int64 ternary table as int lists: the triples
    (i, j, k) in order, and the targets l and values v of the entries,
    those of keys[t] from cut[t] to cut[t + 1]."""
    pair, col, val, _ = table
    l, k = np.divmod(col, dim)
    start = np.flatnonzero(np.diff(pair * dim + k, prepend=-1))
    i, j = np.divmod(pair[start], dim)
    keys = list(zip(i.tolist(), j.tolist(), k[start].tolist()))
    return keys, l.tolist(), val.tolist(), start.tolist() + [len(val)]


class Algebra:
    """Anticommutative algebra given by structure constants."""

    def __init__(self, dim: int, table: dict[tuple[int, int], Sparse],
                 labels: list[str] | None = None, name: str = ""):
        self.dim = dim
        self.labels = list(labels) if labels else [f"e{i}" for i in range(dim)]
        if len(self.labels) != dim:
            raise ValueError("label count != dim")
        self.table: dict[tuple[int, int], Sparse] = _sparse_table(table, dim, "pair")
        self.name = name
        self.weights: list[tuple] | None = None
        self.cartan: list[Vec] | None = None
        self._cache: dict = {}

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
        return sum(len(v) for v in self.table.values())

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
        if len(self.labels) != dim:
            raise ValueError("label count != dim")
        self.binary: dict[tuple[int, int], Sparse] = _sparse_table(binary, dim, "pair")
        # cached_property has no setter: these assignments fill its cache
        if isinstance(ternary, dict):
            self.ternary = _sparse_table(ternary, dim, "triple")
        else:
            self.ternary_int = _checked_table(ternary, dim)
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
        """The Fraction dict of the table, keys in (i, j, k) order."""
        keys, l, v, cut = ternary_groups(self.ternary_int, self.dim)
        frac = {x: Fraction(x, self.ternary_int[3]) for x in set(v)}
        ent = list(zip(l, map(frac.__getitem__, v)))
        return {key: ent[a:z] for key, a, z in zip(keys, cut, cut[1:])}

    @cached_property
    def ternary_int(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """The int64 table of the dict; OverflowError when a value or the
        common denominator does not fit (buildtools.int_values)."""
        from .buildtools import int_values     # buildtools imports this module
        tern, n = self.ternary, self.dim
        ijk = np.fromiter(chain.from_iterable(tern), np.int64, 3 * len(tern))
        lens = np.fromiter(map(len, tern.values()), np.int64, len(tern))
        ents = list(chain.from_iterable(tern.values()))
        l = np.fromiter(map(itemgetter(0), ents), np.int64, len(ents))
        val, scale = int_values(list(map(itemgetter(1), ents)))
        i, j, k = np.repeat(ijk.reshape(-1, 3), lens, axis=0).T
        o = np.argsort((i * n + j) * n + k, kind="stable")
        return (i * n + j)[o], (l * n + k)[o], val[o], scale

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
        nt = (len(self.ternary_int[2]) if "ternary_int" in vars(self)
              else sum(len(v) for v in self.ternary.values()))
        return sum(len(v) for v in self.binary.values()), nt

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        nb, nt = self.nnz()
        return f"<LYAlgebra{tag} dim={self.dim} nnz=({nb},{nt})>"
