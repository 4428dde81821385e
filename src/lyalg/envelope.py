"""Standard enveloping algebra of a binary-ternary algebra, and the way back.

The enveloping construction puts the span of the inner maps D(x, y) =
[x, y, .] in front of m and defines

    [D, D']  = matrix commutator, re-expressed in the chosen D-basis,
    [D, x]   = D x,
    [x, y]   = D(x, y) + x.y .

Everything is exact, and the h-block is built from integers: the LY
algebra's int64 ternary table (LYAlgebra.ternary_int) holds D(e_i, e_j)
as the sparse row with the coefficient of e_l in [e_i, e_j, e_k] at
column l n + k, all values over one common denominator, and the [D, x]
block is read off the rows of the chosen maps.  class_bases works one
weight class of maps at a time (np.unique groups them), on the span
engine of buildtools:

* buildtools.select picks the first independent maps of the class, in
  pair order, exactly certified: a mod-p proposal, one exact
  reconstruction check through a buildtools.Span on the chosen maps,
  and an exchange-lemma correction when the prime hid a dependence;
* the commutators of the chosen maps come from one guarded int64 sparse
  product (buildtools.int_commutators), and the class's Span gives
  their coordinates.  A commutator outside its class span is a genuine
  sixth-axiom failure, reported as LYStructureError("LY6", pair), never
  papered over.

An entry, scale or product that does not fit int64 raises OverflowError.
symplectic.build_g_of_T runs the same engine on the inner maps of a
symplectic triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import Algebra, LYAlgebra, Sparse
from .buildtools import (NotClosedError, OutsideSpan, Span, dense_rows,
                         int_commutators, int_values, select)
from .linalg import F0, Vec, inv as mat_inv, mat_vec


class LYStructureError(Exception):
    """Raised when the formal enveloping bracket cannot close (axiom failure)."""
    envelope: EnvelopingPair | None = None      # set by build_enveloping

    def __init__(self, axiom: str, witness: tuple):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom} fails at {witness}")


def pair_classes(weights, i, j):
    """Weight classes of the pairs (i[t], j[t]) by their weight sums.

    Returns (cls, keys): keys lists the distinct sums in sorted order, as
    integer tuples (the weights times one common denominator), and cls[t]
    is the position in keys of pair t.  Without weights all pairs are in
    one class.
    """
    rank = len(weights[0]) if weights else 0
    if not rank:
        return np.zeros(len(i), dtype=np.int64), [()] if len(i) else []
    w = int_values([x for wt in weights for x in wt])[0].reshape(-1, rank)
    keys, cls = np.unique(w[i] + w[j], axis=0, return_inverse=True)
    return cls.reshape(-1), [tuple(k) for k in keys.tolist()]


def _sparse_rows(x: np.ndarray, slots: np.ndarray, mult: int, den: int):
    """Row r of x mult / den as sparse (slots[t], Fraction) entries."""
    r, t = np.nonzero(x)
    v = x[r, t].tolist()
    frac = {u: Fraction(u * mult, den) for u in set(v)}
    ent = list(zip(slots[t].tolist(), map(frac.__getitem__, v)))
    cut = np.searchsorted(r, np.arange(len(x) + 1)).tolist()
    return [ent[a:z] for a, z in zip(cut, cut[1:])]


def _groups(cls, row, nclass: int):
    """Entries sorted by the class of their row, then by row, and the
    slice bounds of every class."""
    o = np.lexsort((row, cls[row]))
    return o, np.searchsorted(cls[row[o]], np.arange(nclass + 1))


@dataclass
class ClassBases:
    """The certified bases of class_bases and the solver on their spans.

    chosen[c] are the first independent maps of class c, in map order;
    basis lists every chosen map in the order of the coordinates, and
    slot[g] is the position of map g in basis (-1 if not chosen);
    spans[c] solves over the sorted column codes cols[c] of class c;
    gen_coords[g] are the coordinates of map g over basis, as sparse
    (position, Fraction) entries.  entries holds the maps as given.
    """
    scale: int
    keys: list[tuple]
    cls: np.ndarray
    spans: list[Span]
    cols: list[np.ndarray]
    chosen: list[list[int]]
    basis: list[int]
    slot: np.ndarray
    gen_coords: list[Sparse]
    entries: tuple

    def coords(self, qcls, row, code, val, qscale: int) -> list[Sparse]:
        """Coordinates over basis of query maps given like the generators
        (query q of class qcls[q], -1 for none; values scaled by qscale).

        Raises OutsideSpan for the first query outside its class span.
        """
        out = [[] for _ in qcls]
        # shifted by one, so the queries of no class come first
        o, bounds = _groups(qcls + 1, row, len(self.keys) + 1)
        bad = []
        for c in range(-1, len(self.keys)):
            a, z = bounds[c + 1], bounds[c + 2]
            if a == z:
                continue
            qs, r = np.unique(row[o[a:z]], return_inverse=True)
            if c < 0:
                bad.extend(qs.tolist())
                continue
            span = self.spans[c]
            q, miss = dense_rows(r, code[o[a:z]], val[o[a:z]], len(qs), self.cols[c])
            x, wrong = span.solve(q)
            bad.extend(qs[miss | wrong].tolist())
            for k, ent in zip(qs.tolist(), _sparse_rows(
                    x, self.slot[self.chosen[c]], self.scale, qscale * span.d)):
                out[k] = ent
        if bad:
            raise OutsideSpan(min(bad))
        return out

    def brackets(self, n: int):
        """The nonzero commutators [basis[s], basis[t]], s < t, of the basis
        maps on an n-dimensional space (column code l n + k), as the pairs
        (s, t) and their coordinates over basis.  Raises NotClosedError
        with the first pair, in (s, t) order, outside its class span."""
        gen, code, val = self.entries
        b = len(self.basis)
        s = self.slot[gen]
        keep = s >= 0
        l, k = np.divmod(code[keep], n)
        pair, lk, v = int_commutators(s[keep], l, k, val[keep], b, n)
        pairs, row = np.unique(pair, return_inverse=True)
        st = [divmod(p, b) for p in pairs.tolist()]
        index = {key: c for c, key in enumerate(self.keys)}
        bcls = self.cls[self.basis]
        qcls = np.array([index.get(tuple(map(sum, zip(self.keys[bcls[a]],
                                                      self.keys[bcls[t]]))), -1)
                         for a, t in st], dtype=np.int64)
        try:
            return st, self.coords(qcls, row, lk, v, self.scale ** 2)
        except OutsideSpan as e:
            raise NotClosedError(st[e.index]) from None


def class_bases(gen, code, val, scale: int, cls, keys,
                by_class: bool = True) -> ClassBases:
    """The first independent maps of every weight class, exactly certified.

    Map g is the sparse integer row with value val[e] at column code[e]
    for every entry e with gen[e] == g (a column at most once), all values
    scaled by `scale`; it is nonzero, and cls[g] is its class among keys
    (pair_classes).  The basis lists the chosen maps class by class, or
    in map order when by_class is False.
    """
    o, bounds = _groups(cls, gen, len(keys))
    gen, code, val = gen[o], code[o], val[o]
    spans, cols, chosen, xs = [], [], [], []
    for c in range(len(keys)):
        a, z = bounds[c], bounds[c + 1]
        maps, row = np.unique(gen[a:z], return_inverse=True)
        cols.append(np.unique(code[a:z]))
        span, sel, x = select(dense_rows(row, code[a:z], val[a:z], len(maps), cols[-1])[0])
        spans.append(span)
        chosen.append(maps[sel].tolist())
        xs.append((maps, x))
    basis = [g for ch in chosen for g in ch]
    if not by_class:
        basis.sort()
    slot = np.full(len(cls), -1)
    slot[basis] = np.arange(len(basis))
    gen_coords = [None] * len(cls)
    for (maps, x), span, ch in zip(xs, spans, chosen):
        for g, ent in zip(maps.tolist(), _sparse_rows(x, slot[ch], 1, span.d)):
            gen_coords[g] = ent
    return ClassBases(scale, keys, cls, spans, cols, chosen, basis, slot,
                      gen_coords, (gen, code, val))


@dataclass
class EnvelopingPair:
    """A Lie algebra with a marked reductive split g = h (+) m."""
    g: Algebra
    h_index: list[int]
    m_index: list[int]
    d_pairs: list[tuple[int, int]]
    ly: LYAlgebra


def build_enveloping(ly: LYAlgebra) -> EnvelopingPair:
    """The enveloping algebra, memoised in ly._cache["envelope"].

    The basis is the chosen inner maps, class by class in weight order,
    then m.  Raises LYStructureError("LY6", (p, q)) for the first pair of
    chosen maps, in basis order, whose commutator leaves the span, with
    the pair built without its h-h block (not memoised) as its `envelope`.
    """
    if "envelope" in ly._cache:
        return ly._cache["envelope"]
    n = ly.dim
    pair, code, val, scale = ly.ternary_int
    gens, gen = np.unique(pair, return_inverse=True)
    gi, gj = np.divmod(gens, n)
    cb = class_bases(gen, code, val, scale,
                     *pair_classes(ly.weights, gi, gj))
    gpairs = list(zip(gi.tolist(), gj.tolist()))
    basis_pairs = [gpairs[g] for g in cb.basis]

    b = len(basis_pairs)
    dim_g = b + n
    # h-h: the commutators of the basis maps, or none if one leaves the span
    try:
        table, err = dict(zip(*cb.brackets(n))), None
    except NotClosedError as e:
        err = LYStructureError("LY6", tuple(basis_pairs[x] for x in e.args[0]))
        table = {}
    # h-m: the maps acting, the table rows of the basis maps in basis order
    slot = cb.slot[gen]
    o = np.argsort(slot, kind="stable")[np.count_nonzero(slot < 0):]
    l, k = np.divmod(code[o], n)
    row, v = slot[o] * n + k, val[o].tolist()
    frac = {u: Fraction(u, scale) for u in set(v)}
    ent = list(zip((b + l).tolist(), map(frac.__getitem__, v)))
    cut = np.flatnonzero(np.diff(row, prepend=-1)).tolist() + [len(ent)]
    for r, a, z in zip(row[cut[:-1]].tolist(), cut, cut[1:]):
        table[(r // n, b + r % n)] = ent[a:z]
    # m-m: D(x, y) + x.y
    gen_coords = dict(zip(gpairs, cb.gen_coords))
    for i in range(n):
        for j in range(i + 1, n):
            ent = gen_coords.get((i, j), [])
            ent = ent + [(b + k, c) for k, c in ly.binary.get((i, j), [])]
            if ent:
                table[(b + i, b + j)] = ent

    labels = [f"D({ly.labels[i]},{ly.labels[j]})" for (i, j) in basis_pairs]
    labels += list(ly.labels)
    g = Algebra(dim_g, table, labels=labels,
                name=f"env({ly.name})" if ly.name else "env")
    if ly.weights is not None:
        g.weights = [tuple(a + c for a, c in zip(ly.weights[i], ly.weights[j]))
                     for (i, j) in basis_pairs] + list(ly.weights)
    pair = EnvelopingPair(g, list(range(b)), list(range(b, dim_g)),
                          basis_pairs, ly)
    if err:
        err.envelope = pair
        raise err
    ly._cache["envelope"] = pair
    return pair


def ly_from_reductive_indices(g: Algebra, h_index: list[int],
                              m_index: list[int], name: str = "") -> LYAlgebra:
    """Binary-ternary algebra on the m-part of a split given by basis indices."""
    hset = set(h_index)
    mpos = {gi: a for a, gi in enumerate(m_index)}
    if hset & set(mpos) or len(h_index) + len(m_index) != g.dim:
        raise ValueError("h and m indices must partition the basis")
    nm = len(m_index)

    def proj_m(ent: Sparse) -> Sparse:
        return [(mpos[k], c) for k, c in ent if k in mpos]

    def proj_h(ent: Sparse) -> Sparse:
        return [(k, c) for k, c in ent if k in hset]

    binary = {}
    ternary = {}
    for a in range(nm):
        for bb in range(a + 1, nm):
            ent = g.bk(m_index[a], m_index[bb])
            binary[(a, bb)] = proj_m(ent)
            hpart = proj_h(ent)
            for k in range(nm):
                acc: dict[int, Fraction] = {}
                for hidx, c in hpart:
                    for l, d in g.bk(hidx, m_index[k]):
                        if l in mpos:
                            t = mpos[l]
                            acc[t] = acc.get(t, F0) + c * d
                ternary[(a, bb, k)] = [(t, v) for t, v in sorted(acc.items()) if v != 0]
    ly = LYAlgebra(nm, binary, ternary,
                   labels=[g.labels[i] for i in m_index], name=name)
    if g.weights is not None:
        ly.weights = [g.weights[i] for i in m_index]
    return ly


def ly_from_reductive(g: Algebra, h_basis: list[Vec], m_basis: list[Vec],
                      name: str = "") -> LYAlgebra:
    """General-position version: h and m given by spanning vectors."""
    basis = list(h_basis) + list(m_basis)
    if len(basis) != g.dim:
        raise ValueError("h and m must together have full dimension")
    binv = mat_inv([[basis[j][i] for j in range(g.dim)] for i in range(g.dim)])
    nh, nm = len(h_basis), len(m_basis)

    def split(v: Vec) -> tuple[Vec, Vec]:
        c = mat_vec(binv, v)
        return c[:nh], c[nh:]

    def bin_bk(a, bb):
        _, mm = split(g.bracket(m_basis[a], m_basis[bb]))
        return list(enumerate(mm))

    cache: dict[tuple[int, int], Vec] = {}

    def ter_bk(a, bb, k):
        key = (a, bb)
        if key not in cache:
            hh, _ = split(g.bracket(m_basis[a], m_basis[bb]))
            cache[key] = [sum((hh[t] * h_basis[t][i] for t in range(nh)), F0)
                          for i in range(g.dim)]
        _, mm = split(g.bracket(cache[key], m_basis[k]))
        return list(enumerate(mm))

    return LYAlgebra.from_ops(nm, bin_bk, ter_bk, name=name)
