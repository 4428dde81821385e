"""Symplectic triple systems over Q and their Z2-graded Lie envelopes.

A triple datum is a space T with a nonzero skew form (.,.) and a product
{x y z} symmetric in x, y.  Validity is operational: the algebra

    g(T) = sp2 (+) V (x) T (+) inder(T)

on the fixed hyperbolic plane V = <v+, v->, phi(v+, v-) = 1, with odd part
V (x) T and

    [u (x) x, v (x) y] = (x, y) phi_{u,v} + phi(u, v) d_{x,y},

has to pass check_lie; nothing else is taken as the definition.  The
first Jacobi consequence, used all over this module, is the rotation rule

    {x y z} - {y z x} = (x, y) z + (y, z) x - 2 (z, x) y.

construct_TJ builds the classical triple on k^2 (+) J (+) J attached to
a degree-3 Jordan algebra J from one recorded coefficient vector,
H3K_VECTOR, over a finite equivariant candidate basis (trace pairings,
crosses and scalar slots).  The vector was solved once on H3(k), from the
rotation rule, skewness of the inner maps and their derivation rule, and
the same vector serves H3(K), H3(Q) and H3(O) (E6, E7, E8 after F4).  It
is not trusted: every T(J) is certified by the exact rotation and skew
checks on every basis triple and by a full Jacobi sweep of g(T).  The
vector does not carry over to a 1-dim J, so the base-field triple (G2)
is not built here.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import linalg as la
from .algebra import Algebra
from .buildtools import NotClosedError, OutsideSpan, SpMat, int_values, pair_table
from .checks import check_lie
from .compjordan import JordanAlg, trace_admissible_view
from .envelope import (EnvelopingPair, class_bases, ly_from_reductive_indices,
                       pair_classes)
from .linalg import F0, F1
from .matrixalg import form_pairs, phi_map, skew_map_family, split_skew_form


class CubicJordanData:
    """A degree-3 Jordan algebra reduced to the four maps the triple
    construction consumes: unital product, norm trace, trace bilinear form
    and the full linearization of the adjoint (the cross).  The basis starts
    with the unit; wts, when present, grades all four maps."""

    def __init__(self, tab, tvals, wts=None, name=""):
        self.dim = len(tab)
        self.tab = tab
        self.tvals = list(tvals)
        self.sgram = [[la.dot(self.tvals, tab[i][jj]) for jj in range(self.dim)]
                      for i in range(self.dim)]
        self.crosstab = []
        for i in range(self.dim):
            row = []
            for jj in range(self.dim):
                v = [2 * c for c in tab[i][jj]]
                v[jj] -= self.tvals[i]
                v[i] -= self.tvals[jj]
                # degree-3 adjoint identity: x# = x.x - t(x) x + sigma(x) 1
                v[0] += self.tvals[i] * self.tvals[jj] - self.sgram[i][jj]
                row.append([(k, c) for k, c in enumerate(v) if c])
            self.crosstab.append(row)
        self.wts = [tuple(w) for w in wts] if wts is not None else None
        self.name = name


def cubic_jordan_data(j: JordanAlg) -> CubicJordanData:
    """Cubic datum of a degree-3 Jordan algebra on the graded basis
    unit + trace-zero torus eigenvectors."""
    if j.degree != 3:
        raise ValueError(f"degree {j.degree} algebra has no cubic datum")
    view = trace_admissible_view(j)
    basis = [list(j.unit)] + [list(v) for v in view.vecs]
    binv = la.inv(la.transpose(basis))
    tab = [[la.mat_vec(binv, j.mul(basis[a], basis[b]))
            for b in range(j.dim)] for a in range(j.dim)]
    tvals = [j.gentrace(v) for v in basis]
    zero = tuple([F0] * view.rank)
    wts = [zero] + [tuple(w) for w in view.weights]
    return CubicJordanData(tab, tvals, wts=wts, name=j.kind)


class SymplecticTripleData:
    """A skew form together with a triple product symmetric in the first
    two slots.  trip[(i, j)] with i <= j is the sparse matrix of the
    inner map d(e_i, e_j): an entry (l, k) -> c says {e_i e_j e_k}
    contains c e_l.  wts optionally grades the basis."""

    def __init__(self, dim, gram, trip, wts=None, name=""):
        self.dim = dim
        if len(gram) != dim or any(len(r) != dim for r in gram):
            raise ValueError("gram size does not match dim")
        for i in range(dim):
            for jj in range(i, dim):
                if gram[i][jj] != -gram[jj][i]:
                    raise ValueError("form is not skew-symmetric")
        if not any(any(r) for r in gram):
            raise ValueError("form is zero")
        self.gram = gram
        self.trip: dict[tuple[int, int], SpMat] = {}
        for (i, jj), m in trip.items():
            if i > jj:
                raise ValueError("pair keys must be sorted")
            ent = {k: v for k, v in m.items() if v != 0}
            if ent:
                self.trip[(i, jj)] = ent
        self.wts = [tuple(w) for w in wts] if wts is not None else None
        self.name = name

    def dmat(self, i, j) -> SpMat:
        if i > j:
            i, j = j, i
        return self.trip.get((i, j), {})


def _wadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def build_g_of_T(t: SymplecticTripleData):
    """The Z2-graded algebra on sp2 (+) V (x) T (+) inder(T) and its
    marked reductive split.

    Basis order: three sp2 pair maps, v+ (x) T, v- (x) T, then the inner
    maps d(i, j) in pair order.  The blocks (sp2, phi acting on V, the
    form and the inner-map coordinates on V (x) T, the d-action and
    [d, d]) go to pair_table as int64 parts, and the Algebra holds that
    table.  Raises NotClosedError when the inner maps fail to close under
    commutators; Jacobi itself is not checked here (check_lie is the
    certificate).  When the datum carries weights, the torus realizing
    them must be inner and the returned algebra gets weights and cartan
    data for classification."""
    n = t.dim
    wts = t.wts
    rt = len(wts[0]) if wts else 0
    zt = tuple([F0] * rt)

    order = sorted(t.trip)
    entries = [(g, l * n + k, c) for g, pq in enumerate(order)
               for (l, k), c in t.trip[pq].items()]
    gen, code = np.array([e[:2] for e in entries],
                         dtype=np.int64).reshape(-1, 2).T
    oi, oj = np.array(order, dtype=np.int64).reshape(-1, 2).T
    cls, keys = pair_classes(wts, oi, oj)
    val, scale = int_values([e[2] for e in entries])
    cb = class_bases(gen, code, val, scale, cls, keys, by_class=False)
    sel_pairs = [order[g] for g in cb.basis]
    nd = len(sel_pairs)
    d0 = 3 + 2 * n
    big = d0 + nd

    def vt(u, i):
        return 3 + u * n + i

    form2 = split_skew_form(2)
    sp2 = skew_map_family(form2, name="sp2")
    vpairs = form_pairs(form2)          # sp2's basis phi_{u,v}
    pair, tgt, v, s = sp2.table_int
    parts = [(pair // 3, pair % 3, tgt, v, s)]
    # [phi_p, u (x) x_i] = phi_p(u) (x) x_i
    phi = [(p, r, u, c) for p, uv in enumerate(vpairs)
           for (r, u), c in phi_map(form2, *uv).items()]
    pv, ps = int_values([e[3] for e in phi])
    p, r, u, v, i = (x.ravel() for x in np.broadcast_arrays(
        *np.array([e[:3] for e in phi]).T, pv, np.arange(n)[:, None]))
    parts.append((p, vt(u, i), vt(r, i), v, ps))
    # [u (x) x_i, v (x) x_j] = (x_i, x_j) phi_{u,v} + phi(u, v) d(x_i, x_j)
    i, j, c = zip(*[(i, j, c) for i, row in enumerate(t.gram)
                    for j, c in enumerate(row) if c])
    i, j = np.array(i), np.array(j)
    gv, gs = int_values(c)
    for sp, (a, b) in enumerate(vpairs):
        on = (i < j) | (a != b)
        parts.append((vt(a, i[on]), vt(b, j[on]), sp, gv[on], gs))
    for g, slot, v, d in cb.gen_coords:
        parts.append((vt(0, oi[g]), vt(1, oj[g]), d0 + slot, v, d))
        on = oi[g] != oj[g]
        parts.append((vt(0, oj[g][on]), vt(1, oi[g][on]), d0 + slot[on], v[on], d))
    # [u (x) x, d] = -u (x) d x
    a, l, k, v = cb.basis_rows(n)
    parts += [(vt(u, k), d0 + a, vt(u, l), -v, scale) for u in (0, 1)]
    try:
        dd = cb.brackets(n)
    except NotClosedError as e:
        raise NotClosedError(("d", *e.args[0])) from None
    parts += [(d0 + a, d0 + b, d0 + c, v, d) for a, b, c, v, d in dd]

    tl = [f"x{i}" for i in range(n)]
    labels = (list(sp2.labels)
              + [f"v+*{l}" for l in tl] + [f"v-*{l}" for l in tl]
              + [f"d({i},{jj})" for (i, jj) in sel_pairs])
    g = Algebra(big, pair_table(big, parts), labels=labels,
                name=f"g({t.name})" if t.name else "g(T)")
    if wts is not None:
        gw = [(w[0],) + zt for w in sp2.weights]
        gw += [(F1,) + wts[i] for i in range(n)]
        gw += [(-F1,) + wts[i] for i in range(n)]
        gw += [(F0,) + _wadd(wts[i], wts[jj]) for i, jj in sel_pairs]
        g.weights = gw
        # the torus coordinate s acts on T as diag(wts[k][s])
        diag = [(s, k * n + k, wts[k][s]) for s in range(rt) for k in range(n)
                if wts[k][s]]
        row, code = np.array([e[:2] for e in diag], dtype=np.int64).reshape(-1, 2).T
        zero = keys.index((0,) * rt) if (0,) * rt in keys else -1
        try:
            tcos = cb.coords(np.full(rt, zero), row, code,
                             *int_values([e[2] for e in diag]))
        except OutsideSpan:
            raise ValueError("grading torus is not inner") from None
        cart = [list(sp2.cartan[0]) + la.zero_vec(big - 3)]
        cart += [la.zero_vec(big) for _ in range(rt)]
        for q, slot, v, d in tcos:
            for x, y, w in zip(q.tolist(), slot.tolist(), v.tolist()):
                cart[1 + x][d0 + y] = Fraction(w, d)
        g.cartan = cart
    pair = EnvelopingPair(g, [0, 1, 2] + list(range(d0, big)),
                          [vt(u, i) for u in (0, 1) for i in range(n)],
                          list(sel_pairs), None)
    return g, pair


def lts_from_symplectic(t: SymplecticTripleData):
    """Lie triple system on V (x) T; the binary part vanishes because the
    odd part of g(T) brackets into the even part.

    Raises ValueError when g(T) fails its Lie certificate (the full Jacobi
    sweep), so a broken triple (the zero triple included) is rejected
    here."""
    g, pair = build_g_of_T(t)
    rep = check_lie(g, target=g.name)
    if not rep.passed:
        raise ValueError(f"{g.name} fails Jacobi; not a symplectic triple datum")
    ly = ly_from_reductive_indices(g, pair.h_index, pair.m_index,
                                   name=f"lts({t.name})" if t.name else "lts(T)")
    if ly.binary:
        raise AssertionError("odd-odd brackets leaked into the odd part")
    ly.notes.append(f"enveloping dim {g.dim}, inner span dim {len(pair.d_pairs)}")
    pair.ly = ly
    return ly


# ---------------------------------------------------------------------------
# T(J) from the recorded coefficient vector

# the product coefficients solved once on H3(k), by candidate name in
# _candidate_table (candidates not named have coefficient 0); the e
# pairing and the trace pairing of the form both have coefficient 1
H3K_VECTOR = {"A2": -3, "A3": 3, "A4": 1, "A5": -1, "B1": 2, "B2": 2,
              "B3": 1, "B6": -2, "B7": -2, "B8": -4, "P3": 2, "P4": 1,
              "P5": 1, "M3": -2, "M4": -4, "M5": -4, "E1": 1, "E2": -1,
              "E3": -1, "E4": -2, "E5": 2, "E7": 1, "E8": 2, "E9": -2}

_TRANK = {"+": 0, "-": 1, "a": 2, "b": 3}


def _typ(idx, dj):
    if idx == 0:
        return ("+", None)
    if idx == 1:
        return ("-", None)
    if idx < 2 + dj:
        return ("a", idx - 2)
    return ("b", idx - 2 - dj)


def _candidate_table(j: CubicJordanData):
    """The 36 product candidates: (name, pair types, third type, fn) with
    fn taking the pair sub-indices in sorted type order plus the third
    sub-index (None in e slots) and returning a sparse T vector.  Every
    map is symmetric in the pair and homogeneous for the charge pattern
    e+ 3, e- -3, a -1, b 1, which is what prunes the sectors."""
    S = j.sgram
    X = j.crosstab
    dj = j.dim

    def ep(c):
        return [(0, c)] if c else []

    def em(c):
        return [(1, c)] if c else []

    def aslot(ent, s=F1):
        return [(2 + l, s * c) for l, c in ent]

    def bslot(ent, s=F1):
        return [(2 + dj + l, s * c) for l, c in ent]

    def xx(p, q, r):
        # cross(cross(p, q), r)
        acc: dict[int, Fraction] = {}
        for l1, c1 in X[p][q]:
            for l, c in X[l1][r]:
                acc[l] = acc.get(l, F0) + c1 * c
        return [(l, c) for l, c in acc.items() if c]

    def sx(p, q, r):
        # S(cross(p, q), r), the full polarization of the norm
        s = F0
        for l1, c1 in X[p][q]:
            if S[l1][r]:
                s += c1 * S[l1][r]
        return s

    return [
        ("A1", ("+", "+"), "-", lambda p, q, r: [(0, F1)]),
        ("A2", ("+", "-"), "+", lambda p, q, r: [(0, F1)]),
        ("A3", ("+", "-"), "-", lambda p, q, r: [(1, F1)]),
        ("A4", ("+", "-"), "a", lambda p, q, r: [(2 + r, F1)]),
        ("A5", ("+", "-"), "b", lambda p, q, r: [(2 + dj + r, F1)]),
        ("A6", ("-", "-"), "+", lambda p, q, r: [(1, F1)]),
        ("B1", ("+", "a"), "b", lambda p, q, r: ep(S[q][r])),
        ("B2", ("+", "a"), "-", lambda p, q, r: [(2 + q, F1)]),
        ("B3", ("+", "a"), "a", lambda p, q, r: bslot(X[q][r])),
        ("B4", ("+", "b"), "-", lambda p, q, r: [(2 + dj + q, F1)]),
        ("B5", ("+", "b"), "a", lambda p, q, r: ep(S[r][q])),
        ("B6", ("-", "b"), "a", lambda p, q, r: em(S[r][q])),
        ("B7", ("-", "b"), "+", lambda p, q, r: [(2 + dj + q, F1)]),
        ("B8", ("-", "b"), "b", lambda p, q, r: aslot(X[q][r])),
        ("B9", ("-", "a"), "+", lambda p, q, r: [(2 + q, F1)]),
        ("B10", ("-", "a"), "b", lambda p, q, r: em(S[q][r])),
        ("P1", ("a", "a"), "b", lambda p, q, r:
            [(2 + q, S[p][r]), (2 + p, S[q][r])]),
        ("P2", ("a", "a"), "b", lambda p, q, r: [(2 + r, S[p][q])]),
        ("P3", ("a", "a"), "b", lambda p, q, r: aslot(xx(p, q, r))),
        ("P4", ("a", "a"), "a", lambda p, q, r: em(sx(p, q, r))),
        ("P5", ("a", "a"), "+", lambda p, q, r: bslot(X[p][q])),
        ("M1", ("b", "b"), "a", lambda p, q, r:
            [(2 + dj + q, S[p][r]), (2 + dj + p, S[q][r])]),
        ("M2", ("b", "b"), "a", lambda p, q, r: [(2 + dj + r, S[p][q])]),
        ("M3", ("b", "b"), "a", lambda p, q, r: bslot(xx(p, q, r))),
        ("M4", ("b", "b"), "b", lambda p, q, r: ep(sx(p, q, r))),
        ("M5", ("b", "b"), "-", lambda p, q, r: aslot(X[p][q])),
        ("E1", ("a", "b"), "+", lambda p, q, r: ep(S[p][q])),
        ("E2", ("a", "b"), "-", lambda p, q, r: em(S[p][q])),
        ("E3", ("a", "b"), "a", lambda p, q, r: [(2 + r, S[p][q])]),
        ("E4", ("a", "b"), "a", lambda p, q, r: [(2 + p, S[r][q])]),
        ("E5", ("a", "b"), "a", lambda p, q, r: aslot(xx(p, r, q))),
        ("E6", ("a", "b"), "a", lambda p, q, r: [(2 + q, S[p][r])]),
        ("E7", ("a", "b"), "b", lambda p, q, r: [(2 + dj + r, S[p][q])]),
        ("E8", ("a", "b"), "b", lambda p, q, r: [(2 + dj + q, S[p][r])]),
        ("E9", ("a", "b"), "b", lambda p, q, r: bslot(xx(q, r, p))),
        ("E10", ("a", "b"), "b", lambda p, q, r: [(2 + dj + p, S[q][r])]),
    ]


def _cand_cols(index, dj, i, jj, k):
    """(coefficient, sparse T vector) of every weighted candidate in the
    sector of the basis triple (i, jj, k)."""
    t1, s1 = _typ(i, dj)
    t2, s2 = _typ(jj, dj)
    if _TRANK[t1] > _TRANK[t2]:
        t1, s1, t2, s2 = t2, s2, t1, s1
    t3, s3 = _typ(k, dj)
    return [(u, [(l, c) for l, c in fn(s1, s2, s3) if c])
            for u, fn in index.get(((t1, t2), t3), ())]


def _check_rotation(t: SymplecticTripleData):
    """Exact rotation rule on every basis triple."""
    n = t.dim
    for i in range(n):
        for jj in range(n):
            d = t.dmat(i, jj)
            for k in range(n):
                acc: dict[int, Fraction] = {}
                for (l, kk), c in d.items():
                    if kk == k:
                        acc[l] = acc.get(l, F0) + c
                # subtract {y z x}: pair (jj, k), argument i
                dd = t.dmat(jj, k)
                for (l, kk), c in dd.items():
                    if kk == i:
                        acc[l] = acc.get(l, F0) - c
                g1 = t.gram[i][jj]
                if g1:
                    acc[k] = acc.get(k, F0) - g1
                g2 = t.gram[jj][k]
                if g2:
                    acc[i] = acc.get(i, F0) - g2
                g3 = t.gram[k][i]
                if g3:
                    acc[jj] = acc.get(jj, F0) + 2 * g3
                if any(v != 0 for v in acc.values()):
                    raise ValueError(f"rotation rule fails at {(i, jj, k)}")


def _check_skew(t: SymplecticTripleData):
    """Every inner map must be skew for the form: M^T G + G M = 0."""
    n = t.dim
    for (i, jj), m in t.trip.items():
        acc: dict[tuple[int, int], Fraction] = {}
        for (l, k), c in m.items():
            for v in range(n):
                if t.gram[l][v]:
                    # (M u, v) term: row k, column v
                    key = (k, v)
                    acc[key] = acc.get(key, F0) + c * t.gram[l][v]
                if t.gram[v][l]:
                    # (u, M v) term: row v, column k
                    key = (v, k)
                    acc[key] = acc.get(key, F0) + t.gram[v][l] * c
        if any(v != 0 for v in acc.values()):
            raise ValueError(f"inner map of pair {(i, jj)} is not skew")


def construct_TJ(j: CubicJordanData) -> SymplecticTripleData:
    """The symplectic triple on k^2 (+) J (+) J from H3K_VECTOR.

    Basis e+, e-, then J twice (the a and b slots).  The form pairs e+
    with e- by 1 and a_p with b_q by the trace form; the product is the
    H3K_VECTOR combination of the candidates of _candidate_table.  The
    datum is certified by the exact rotation rule and skewness of every
    inner map on every basis triple, then by check_lie on g(T).  Raises
    ValueError when any of them fails, and NotClosedError when the inner
    maps do not close."""
    dj = j.dim
    n = 2 + 2 * dj
    index: dict[tuple, list] = {}
    for name, pt, tt, fn in _candidate_table(j):
        if name in H3K_VECTOR:
            u = Fraction(H3K_VECTOR[name])
            index.setdefault((pt, tt), []).append((u, fn))
    gram = la.zeros(n, n)
    gram[0][1] = F1
    gram[1][0] = -F1
    for p in range(dj):
        for q in range(dj):
            v = j.sgram[p][q]
            if v:
                gram[2 + p][2 + dj + q] = v
                gram[2 + dj + q][2 + p] = -v
    trip: dict[tuple[int, int], dict] = {}
    for i in range(n):
        for jj in range(i, n):
            m = trip[(i, jj)] = {}
            for k in range(n):
                for u, ent in _cand_cols(index, dj, i, jj, k):
                    for l, c in ent:
                        m[(l, k)] = m.get((l, k), F0) + u * c
    wts = None
    if j.wts is not None:
        zero = tuple([F0] * len(j.wts[0]))
        wts = ([(Fraction(3),) + zero, (Fraction(-3),) + zero]
               + [(-F1,) + w for w in j.wts] + [(F1,) + w for w in j.wts])
    t = SymplecticTripleData(n, gram, trip, wts=wts,
                             name=f"T({j.name})" if j.name else "T(J)")
    _check_rotation(t)
    _check_skew(t)
    g, _ = build_g_of_T(t)
    if not check_lie(g, target=g.name).passed:
        raise ValueError(f"{g.name} fails Jacobi; not a symplectic triple datum")
    return t
