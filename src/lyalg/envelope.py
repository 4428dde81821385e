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

Coordinates come as int64 parts (row, slot, val, den), so the three
blocks of the bracket (h-h, h-m and m-m, where x.y joins D(x, y)) go to
buildtools.pair_table, and the Algebra holds that int64 table; no
Fraction dict is built.  ly_from_reductive_indices goes back the same
way, from g's int64 table to an int64 ternary table.  An entry, scale or
product that does not fit int64 raises OverflowError.
symplectic.build_g_of_T runs the same engine on the inner maps of a
symplectic triple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fastnum
from .algebra import Algebra, LYAlgebra, dict_to_table, table_to_dict
from .buildtools import (NotClosedError, OutsideSpan, Span, dense_rows,
                         guard_bound, int_commutators, int_values, pair_table,
                         select)
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


def _parts(rows, x: np.ndarray, slots: np.ndarray, mult: int, den: int):
    """Row r of x mult / den as the coordinates of rows[r] at the basis
    positions slots: the int64 part (row, slot, val, den) of its nonzero
    entries, in lowest terms.  OverflowError if x mult does not fit."""
    r, t = np.nonzero(x)
    guard_bound(mult, x)
    return (rows[r], slots[t], *fastnum.lowest_terms(x[r, t] * mult, den))


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
    spans[c] solves over the sorted column codes cols[c] of class c.
    Coordinates over basis come as int64 parts (row, slot, val, den), one
    per class, in lowest terms: val[e] / den at basis position slot[e] of
    row[e]; gen_coords holds those of the maps (row = map).  entries
    holds the maps as given.
    """
    scale: int
    keys: list[tuple]
    cls: np.ndarray
    spans: list[Span]
    cols: list[np.ndarray]
    chosen: list[list[int]]
    basis: list[int]
    slot: np.ndarray
    gen_coords: list[tuple]
    entries: tuple

    def coords(self, qcls, row, code, val, qscale: int) -> list[tuple]:
        """Coordinate parts (query, slot, val, den) of query maps given like
        the generators (query q of class qcls[q], -1 for none; values
        scaled by qscale).

        Raises OutsideSpan for the first query outside its class span.
        """
        out = []
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
            out.append(_parts(qs, x, self.slot[self.chosen[c]], self.scale,
                              qscale * span.d))
        if bad:
            raise OutsideSpan(min(bad))
        return out

    def basis_rows(self, n: int):
        """(s, l, k, v): entry v at (l, k) of basis map s, for every entry
        of the basis maps on an n-dimensional space (column code l n + k)."""
        gen, code, val = self.entries
        s = self.slot[gen]
        keep = s >= 0
        return (s[keep], *np.divmod(code[keep], n), val[keep])

    def brackets(self, n: int) -> list[tuple]:
        """The nonzero commutators [basis[s], basis[t]], s < t, of the basis
        maps on an n-dimensional space, as pair_table parts (s, t, slot,
        val, den) of their coordinates over basis.  Raises NotClosedError
        with the first pair, in (s, t) order, outside its class span."""
        b = len(self.basis)
        pair, lk, v = int_commutators(*self.basis_rows(n), b, n)
        pairs, row = np.unique(pair, return_inverse=True)
        s, t = np.divmod(pairs, b)
        index = {key: c for c, key in enumerate(self.keys)}
        bcls = self.cls[self.basis]
        qcls = np.array([index.get(tuple(map(sum, zip(self.keys[bcls[x]],
                                                      self.keys[bcls[y]]))), -1)
                         for x, y in zip(s.tolist(), t.tolist())], dtype=np.int64)
        try:
            parts = self.coords(qcls, row, lk, v, self.scale ** 2)
        except OutsideSpan as e:
            raise NotClosedError((int(s[e.index]), int(t[e.index]))) from None
        return [(s[q], t[q], *rest) for q, *rest in parts]


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
        cols.append(fastnum.distinct(code[a:z]))
        span, sel, x = select(dense_rows(row, code[a:z], val[a:z], len(maps), cols[-1])[0])
        spans.append(span)
        chosen.append(maps[sel].tolist())
        xs.append((maps, x))
    basis = [g for ch in chosen for g in ch]
    if not by_class:
        basis.sort()
    slot = np.full(len(cls), -1)
    slot[basis] = np.arange(len(basis))
    gen_coords = [_parts(maps, x, slot[ch], 1, span.d)
                  for (maps, x), span, ch in zip(xs, spans, chosen)]
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
    basis_pairs = list(zip(gi[cb.basis].tolist(), gj[cb.basis].tolist()))
    b = len(basis_pairs)
    # h-h: the commutators of the basis maps, or none if one leaves the span
    try:
        parts, err = cb.brackets(n), None
    except NotClosedError as e:
        err = LYStructureError("LY6", tuple(basis_pairs[x] for x in e.args[0]))
        parts = []
    # h-m: [D, x] = D x, the entries of the basis maps
    s, l, k, v = cb.basis_rows(n)
    parts.append((s, b + k, b + l, v, scale))
    # m-m: [x, y] = D(x, y) + x.y
    parts += [(b + gi[g], b + gj[g], t, v, d) for g, t, v, d in cb.gen_coords]
    bp, bt, bv, bs = dict_to_table(ly.binary, n, 2)
    parts.append((b + bp // n, b + bp % n, b + bt, bv, bs))

    labels = [f"D({ly.labels[i]},{ly.labels[j]})" for (i, j) in basis_pairs]
    labels += list(ly.labels)
    g = Algebra(b + n, pair_table(b + n, parts), labels=labels,
                name=f"env({ly.name})" if ly.name else "env")
    if ly.weights is not None:
        g.weights = [tuple(a + c for a, c in zip(ly.weights[i], ly.weights[j]))
                     for (i, j) in basis_pairs] + list(ly.weights)
    pair = EnvelopingPair(g, list(range(b)), list(range(b, b + n)),
                          basis_pairs, ly)
    if err:
        err.envelope = pair
        raise err
    ly._cache["envelope"] = pair
    return pair


def ly_from_reductive_indices(g: Algebra, h_index: list[int],
                              m_index: list[int], name: str = "") -> LYAlgebra:
    """Binary-ternary algebra on the m-part of a split given by basis indices.

    x.y is the m-part of [x, y], and [x, y, z] the m-part of [[x, y]_h, z],
    where [x, y]_h is the h-part: one fastnum.join of the h-part of every
    [m_a, m_b] with the m-part of every [h, m_k], all read off g's int64
    table.  ValueError unless h_index and m_index together list every
    basis index exactly once; OverflowError if a product does not fit.
    """
    n = g.dim
    if sorted([*h_index, *m_index]) != list(range(n)):
        raise ValueError("h and m indices must partition the basis")
    nm = len(m_index)
    pos = np.full(n, -1)
    pos[m_index] = np.arange(nm)
    pair, tgt, val, scale = g.table_int
    i, j = np.divmod(pair, n)
    # [e_x, e_y] = v e_t in both orders, and the m positions a, b, c of x, y, t
    x, y, t, v = (np.concatenate(z) for z in ((i, j), (j, i), (tgt, tgt), (val, -val)))
    a, b, c = pos[x], pos[y], pos[t]
    mm = (a >= 0) & (a < b)
    on = mm & (c >= 0)
    binary = table_to_dict(pair_table(nm, [(a[on], b[on], c[on], v[on], scale)]), nm, 2)
    hm = (a < 0) & (b >= 0) & (c >= 0)
    ab = mm & (c < 0)
    guard_bound(len(h_index), v, v)
    # the terms at (a nm + b, k, l) of the coefficient of m_l in [m_a, m_b, m_k]
    r, kl, w = fastnum.join((a[ab] * nm + b[ab], t[ab], v[ab]),
                            (x[hm], b[hm] * nm + c[hm], v[hm]))
    code, w = fastnum.summed(r * nm * nm + kl, w)
    pab, kl = np.divmod(code, nm * nm)
    k, l = np.divmod(kl, nm)
    ly = LYAlgebra(nm, binary, (pab, l * nm + k, *fastnum.lowest_terms(w, scale * scale)),
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
