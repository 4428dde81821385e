"""Standard enveloping algebra of a binary-ternary algebra, and the way back.

The enveloping construction puts the span of the inner maps D(x, y) =
[x, y, .] in front of m and defines

    [D, D']  = matrix commutator, re-expressed in the chosen D-basis,
    [D, x]   = D x,
    [x, y]   = D(x, y) + x.y .

The inner maps are read off the ternary table in one pass (inner_maps).
Everything is exact, and all span work goes through the certified engine
of buildtools, one weight class of maps at a time.  independent_rows
picks the first independent generators of each class; its mod-p proposal
corrects itself (a generator the prime wrongly dropped joins the set and
the exact check repeats), so there is no retry at the next prime.  Every
generator and every commutator is then re-expressed in the chosen maps
with exact coordinates that are verified entry by entry.  The h-h block
is one integer batch: the chosen maps are cleared of denominators once,
every pairwise product comes from one guarded int64 sparse product, and
only the nonzero commutators go on to the coordinate batches (an entry
or product too large for int64 raises OverflowError).  A commutator
that fails to lie in the span is a genuine sixth-axiom failure and is
reported as such, never papered over.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Algebra, LYAlgebra, Sparse
from .buildtools import (BatchCoords, OutsideSpan, SpMat, independent_rows,
                         sp_commutators)
from .linalg import F0, Vec, inv as mat_inv, mat_vec


class LYStructureError(Exception):
    """Raised when the formal enveloping bracket cannot close (axiom failure)."""

    def __init__(self, axiom: str, witness: tuple):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom} fails at {witness}")


def inner_maps(ly: LYAlgebra) -> dict[tuple[int, int], SpMat]:
    """Every inner map D(i, j) = [e_i, e_j, .], i < j, from one pass over
    the ternary table; entry (l, k) is the coefficient of e_l in D(i, j) e_k."""
    n = ly.dim
    ops: dict[tuple[int, int], SpMat] = {(i, j): {} for i in range(n)
                                         for j in range(i + 1, n)}
    for (i, j, k), ent in ly.ternary.items():
        op = ops[(i, j)]
        for l, c in ent:
            op[(l, k)] = c
    return ops


def class_bases(mats: list[SpMat], keys: list[tuple]):
    """Per weight class, the first independent maps in the given order.

    Returns (engines, chosen, coords): engines[key] is a BatchCoords on
    the chosen maps of class key, chosen[key] their positions in mats,
    and coords[i] the coordinates of mats[i] over chosen[keys[i]].
    """
    classes: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        classes.setdefault(key, []).append(i)
    engines, chosen, coords = {}, {}, [None] * len(mats)
    for key, idx in classes.items():
        sel, engines[key], co = independent_rows([mats[i] for i in idx])
        chosen[key] = [idx[s] for s in sel]
        for i, c in zip(idx, co):
            coords[i] = c
    return engines, chosen, coords


def class_coords(engines: dict, queries: list[tuple[tuple, SpMat]]):
    """Coordinates of (key, map) queries in the span of their class.

    One coords_rows batch per class.  Raises OutsideSpan with the position
    of the first query that is outside its class span.
    """
    byclass: dict[tuple, list[int]] = {}
    for q, (key, _) in enumerate(queries):
        byclass.setdefault(key, []).append(q)
    out, bad = [None] * len(queries), []
    for key, qs in byclass.items():
        try:
            co = (engines.get(key) or BatchCoords([])).coords_rows(
                [queries[q][1] for q in qs])
        except OutsideSpan as e:
            bad.append(qs[e.index])
            continue
        for q, c in zip(qs, co):
            out[q] = c
    if bad:
        raise OutsideSpan(min(bad))
    return out


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
    chosen maps, in basis order, whose commutator leaves the span.
    """
    if "envelope" in ly._cache:
        return ly._cache["envelope"]
    n = ly.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    ops = inner_maps(ly)

    if ly.weights is not None:
        def wkey(i, j):
            return tuple(a + b for a, b in zip(ly.weights[i], ly.weights[j]))
    else:
        def wkey(i, j):
            return ()

    gens = [pq for pq in pairs if ops[pq]]
    keys = [wkey(*pq) for pq in gens]
    engines, chosen, coords = class_bases([ops[pq] for pq in gens], keys)
    basis_pairs: list[tuple[int, int]] = []
    offset: dict[tuple, int] = {}
    for key in sorted(chosen):
        offset[key] = len(basis_pairs)
        basis_pairs.extend(gens[i] for i in chosen[key])
    gen_coords = {pq: [(offset[key] + t, x) for t, x in enumerate(c) if x]
                  for pq, key, c in zip(gens, keys, coords)}

    b = len(basis_pairs)
    dim_g = b + n
    table: dict[tuple[int, int], Sparse] = {}
    # h-h: commutators of the basis maps, one batch per weight class
    hh, comms = sp_commutators([ops[pq] for pq in basis_pairs], n)
    queries = [(tuple(a + c for a, c in zip(wkey(*basis_pairs[s]),
                                             wkey(*basis_pairs[t]))), comm)
               for (s, t), comm in zip(hh, comms)]
    try:
        hco = class_coords(engines, queries)
    except OutsideSpan as e:
        s, t = hh[e.index]
        raise LYStructureError("LY6", (basis_pairs[s], basis_pairs[t])) from None
    for st, (key, _), c in zip(hh, queries, hco):
        ent = [(offset[key] + u, x) for u, x in enumerate(c) if x]
        if ent:
            table[st] = ent
    # h-m: the maps acting
    for t, pt in enumerate(basis_pairs):
        cols: dict[int, Sparse] = {}
        for (l, k), c in ops[pt].items():
            cols.setdefault(k, []).append((b + l, c))
        for k in sorted(cols):
            table[(t, b + k)] = cols[k]
    # m-m: D(x, y) + x.y
    for (i, j) in pairs:
        ent = list(gen_coords.get((i, j), []))
        ent += [(b + k, c) for k, c in ly.b(i, j)]
        if ent:
            table[(b + i, b + j)] = sorted(ent)

    labels = [f"D({ly.labels[i]},{ly.labels[j]})" for (i, j) in basis_pairs]
    labels += list(ly.labels)
    g = Algebra(dim_g, table, labels=labels,
                name=f"env({ly.name})" if ly.name else "env")
    if ly.weights is not None:
        g.weights = [wkey(*pq) for pq in basis_pairs] + list(ly.weights)
    pair = ly._cache["envelope"] = EnvelopingPair(
        g, list(range(b)), list(range(b, dim_g)), basis_pairs, ly)
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


def is_reductive_split(g: Algebra, h_index: list[int], m_index: list[int]) -> bool:
    """[h, h] in h and [h, m] in m on the given index split."""
    hset, mset = set(h_index), set(m_index)
    for i in h_index:
        for j in h_index:
            if i < j and any(k not in hset for k, _ in g.bk(i, j)):
                return False
        for j in m_index:
            if any(k not in mset for k, _ in g.bk(i, j)):
                return False
    return True
