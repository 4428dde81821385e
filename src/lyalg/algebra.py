"""Structure-constant containers for anticommutative and binary-ternary algebras.

An Algebra stores an anticommutative bilinear bracket on a based vector
space over Q; an LYAlgebra additionally stores a ternary bracket that is
anticommutative in its first two arguments.  Both keep sparse tables:
only pairs i < j (and triples with i < j) are stored, everything else
follows by sign.

Optional attributes carried by constructions and used by the checkers and
classifiers, never serialized: `weights` (a grading vector per basis index
making structure constants vanish off the grading) and `cartan` (vectors
spanning a split toral subalgebra whose ad-action is diagonal on the basis).
"""

from __future__ import annotations

from fractions import Fraction
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


def _all_clean(entries, dim: int | None = None) -> bool:
    """True when every entry is already what _clean returns: a list of pairs
    (int target, nonzero Fraction) with strictly increasing targets, and
    targets in range(dim) when dim is given.  One pass over the flattened
    table.  The constructors keep clean entry lists as given (not copied)
    and fall back to _clean entry by entry otherwise."""
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
    if dim is not None and (k.min() < 0 or k.max() >= dim):
        return False
    step = np.diff(k)
    step[np.cumsum([len(e) for e in ents])[:-1] - 1] = 1   # key boundaries
    return bool((step > 0).all())


class Algebra:
    """Anticommutative algebra given by structure constants."""

    def __init__(self, dim: int, table: dict[tuple[int, int], Sparse],
                 labels: list[str] | None = None, name: str = ""):
        self.dim = dim
        self.labels = list(labels) if labels else [f"e{i}" for i in range(dim)]
        if len(self.labels) != dim:
            raise ValueError("label count != dim")
        self.table: dict[tuple[int, int], Sparse] = {}
        clean = _all_clean(table.values(), dim)
        for (i, j), ent in table.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bad pair key ({i},{j})")
            ent = ent if clean else _clean(ent)
            if ent:
                if not clean and any(not 0 <= k < dim for k, _ in ent):
                    raise ValueError("target index out of range")
                self.table[(i, j)] = ent
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

    def ad(self, x: Vec) -> list[Vec]:
        """Matrix of ad(x) = [x, .] acting on column coordinates."""
        cols = []
        for j in range(self.dim):
            col = [F0] * self.dim
            for i, a in enumerate(x):
                if a == 0 or i == j:
                    continue
                for k, c in self.bk(i, j):
                    col[k] += a * c
            cols.append(col)
        return [[cols[j][k] for j in range(self.dim)] for k in range(self.dim)]

    def nnz(self) -> int:
        return sum(len(v) for v in self.table.values())

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<Algebra{tag} dim={self.dim} nnz={self.nnz()}>"


class LYAlgebra:
    """Binary-ternary algebra; both brackets anticommutative in the leading pair."""

    def __init__(self, dim: int,
                 binary: dict[tuple[int, int], Sparse],
                 ternary: dict[tuple[int, int, int], Sparse],
                 labels: list[str] | None = None, name: str = ""):
        self.dim = dim
        self.labels = list(labels) if labels else [f"e{i}" for i in range(dim)]
        if len(self.labels) != dim:
            raise ValueError("label count != dim")
        self.binary: dict[tuple[int, int], Sparse] = {}
        clean = _all_clean(binary.values())
        for (i, j), ent in binary.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bad pair key ({i},{j})")
            ent = ent if clean else _clean(ent)
            if ent:
                self.binary[(i, j)] = ent
        self.ternary: dict[tuple[int, int, int], Sparse] = {}
        clean = _all_clean(ternary.values())
        for (i, j, k), ent in ternary.items():
            if not (0 <= i < j < dim and 0 <= k < dim):
                raise ValueError(f"bad triple key ({i},{j},{k})")
            ent = ent if clean else _clean(ent)
            if ent:
                self.ternary[(i, j, k)] = ent
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
        return (sum(len(v) for v in self.binary.values()),
                sum(len(v) for v in self.ternary.values()))

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        nb, nt = self.nnz()
        return f"<LYAlgebra{tag} dim={self.dim} nnz=({nb},{nt})>"
