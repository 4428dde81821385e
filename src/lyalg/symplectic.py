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

construct_TJ recovers the classical triple on k^2 (+) J (+) J attached to
a degree-3 Jordan algebra J by solving for the coefficients of a finite
equivariant candidate basis (trace pairings, crosses and scalar slots)
under that rule plus the inner-map constraints.  No structure constant is
transcribed from a table; the result is certified by check_lie on g(T).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import sympy

from . import linalg as la
from .algebra import Algebra
from .buildtools import NotClosedError, OutsideSpan, SpMat, sp_commutators
from .checks import check_lie
from .compjordan import JordanAlg, trace_admissible_view
from .envelope import (EnvelopingPair, class_bases, class_coords,
                       ly_from_reductive_indices)
from .fastnum import sparse_int_kernel
from .io import fr_str
from .linalg import F0, F1
from .matrixalg import phi_map, skew_map_family, split_skew_form


class CubicJordanData:
    """A degree-3 Jordan algebra reduced to the four maps the triple
    solver consumes: unital product, norm trace, trace bilinear form and
    the full linearization of the adjoint (the cross).  The basis starts
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

    def __init__(self, dim, gram, trip, wts=None, name="", notes=None):
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
        self.notes = list(notes or [])

    def dmat(self, i, j) -> SpMat:
        if i > j:
            i, j = j, i
        return self.trip.get((i, j), {})

    def triple(self, i, j, k):
        """{e_i e_j e_k} as a sorted sparse vector."""
        out = [(l, c) for (l, kk), c in self.dmat(i, j).items() if kk == k]
        out.sort()
        return out


def _wadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def build_g_of_T(t: SymplecticTripleData):
    """The Z2-graded algebra on sp2 (+) V (x) T (+) inder(T) and its
    marked reductive split.

    Basis order: three sp2 pair maps, v+ (x) T, v- (x) T, then the inner
    maps d(i, j) in first-seen pair order.  Raises NotClosedError when
    the inner maps fail to close under commutators; Jacobi itself is not
    checked here (check_lie is the certificate).  When the datum carries
    weights, the torus realizing them must be inner and the returned
    algebra gets weights and cartan data for classification."""
    n = t.dim
    wts = t.wts
    rt = len(wts[0]) if wts else 0
    zt = tuple([F0] * rt)

    def wkey(i, jj):
        if wts is None:
            return ()
        return _wadd(wts[i], wts[jj])

    form2 = split_skew_form(2)
    sp2 = skew_map_family(form2, name="sp2")
    vpairs = ((0, 0), (0, 1), (1, 1))
    phimats = [phi_map(form2, p, q) for (p, q) in vpairs]
    pairpos = {vp: s for s, vp in enumerate(vpairs)}

    order = sorted(t.trip)
    okeys = [wkey(*pq) for pq in order]
    engines, chosen, coords = class_bases([t.trip[pq] for pq in order], okeys)
    sel = sorted(i for idx in chosen.values() for i in idx)
    sel_pairs = [order[i] for i in sel]
    mats = [t.trip[pq] for pq in sel_pairs]
    dkeys = [okeys[i] for i in sel]
    glob = {i: a for a, i in enumerate(sel)}

    def dco(key, c):
        # class coordinates as sparse coordinates over the inner-map basis
        return [(glob[chosen[key][u]], x) for u, x in enumerate(c) if x]

    nd = len(mats)
    pco = {pq: dco(key, c) for pq, key, c in zip(order, okeys, coords)}

    big = 3 + 2 * n + nd

    def vt(u, i):
        return 3 + u * n + i

    def dr(a):
        return 3 + 2 * n + a

    table: dict[tuple[int, int], list] = {}
    for kk, ent in sp2.table.items():
        table[kk] = list(ent)
    for p, mat in enumerate(phimats):
        for u in (0, 1):
            ent = [(r, c) for (r, uu), c in mat.items() if uu == u]
            if not ent:
                continue
        # phi acts on the V index of the module only
            for i in range(n):
                table[(p, vt(u, i))] = [(vt(r, i), c) for r, c in ent]
    for u in (0, 1):
        for v in (u, 1):
            if v == u:
                items = ((i, jj) for i in range(n) for jj in range(i + 1, n))
            elif u == 0:
                items = ((i, jj) for i in range(n) for jj in range(n))
            else:
                continue
            for (i, jj) in items:
                ent = []
                if t.gram[i][jj]:
                    ent.append((pairpos[(u, v)], t.gram[i][jj]))
                if u != v:
                    key = (i, jj) if i <= jj else (jj, i)
                    ent.extend((dr(a), c) for a, c in pco.get(key, []))
                if ent:
                    table[(vt(u, i), vt(v, jj))] = ent
    for a, mat in enumerate(mats):
        cols: dict[int, list] = {}
        for (l, k), c in mat.items():
            cols.setdefault(k, []).append((l, c))
        for u in (0, 1):
            for i, ent in cols.items():
                table[(vt(u, i), dr(a))] = [(vt(u, l), -c) for l, c in ent]
    dd, comms = sp_commutators(mats, n)
    queries = [(_wadd(dkeys[a], dkeys[b]), cm) for (a, b), cm in zip(dd, comms)]
    try:
        dcos = class_coords(engines, queries)
    except OutsideSpan as e:
        raise NotClosedError(("d", *dd[e.index])) from None
    for (a, b), (key, _), c in zip(dd, queries, dcos):
        ent = [(dr(x), v) for x, v in dco(key, c)]
        if ent:
            table[(dr(a), dr(b))] = ent

    tl = [f"x{i}" for i in range(n)]
    labels = (list(sp2.labels)
              + [f"v+*{l}" for l in tl] + [f"v-*{l}" for l in tl]
              + [f"d({i},{jj})" for (i, jj) in sel_pairs])
    g = Algebra(big, table, labels=labels,
                name=f"g({t.name})" if t.name else "g(T)")
    if wts is not None:
        gw = [(w[0],) + zt for w in sp2.weights]
        gw += [(F1,) + wts[i] for i in range(n)]
        gw += [(-F1,) + wts[i] for i in range(n)]
        gw += [(F0,) + key for key in dkeys]
        g.weights = gw
        cart = []
        h0 = la.zero_vec(big)
        for s, c in enumerate(sp2.cartan[0]):
            h0[s] = c
        cart.append(h0)
        targets = [(zt, {(k, k): wts[k][s] for k in range(n) if wts[k][s]})
                   for s in range(rt)]
        try:
            tcos = class_coords(engines, targets)
        except OutsideSpan:
            raise ValueError("grading torus is not inner") from None
        for c in tcos:
            hv = la.zero_vec(big)
            for a, v in dco(zt, c):
                hv[dr(a)] = v
            cart.append(hv)
        g.cartan = cart
    pair = EnvelopingPair(g, [0, 1, 2] + [dr(a) for a in range(nd)],
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


def module_action_ops(pair: EnvelopingPair):
    """Sparse matrices of ad(h) restricted to m, for commutant checks."""
    g = pair.g
    mpos = {gi: a for a, gi in enumerate(pair.m_index)}
    ops = []
    for h in pair.h_index:
        op: SpMat = {}
        for jcol in pair.m_index:
            for l, c in g.bk(h, jcol):
                if l in mpos:
                    op[(mpos[l], mpos[jcol])] = c
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# the candidate solve behind construct_TJ

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

    cands = [
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
    index: dict[tuple, list] = {}
    for ci, (_, pt, tt, fn) in enumerate(cands):
        index.setdefault((pt, tt), []).append((ci, fn))
    return cands, index


def _cand_cache(index, dj):
    """Memoized sparse candidate columns on basis triples."""
    cache: dict[tuple[int, int, int], list] = {}

    def cols(i, jj, k):
        key = (i, jj, k)
        got = cache.get(key)
        if got is not None:
            return got
        t1, s1 = _typ(i, dj)
        t2, s2 = _typ(jj, dj)
        if _TRANK[t1] > _TRANK[t2]:
            t1, s1, t2, s2 = t2, s2, t1, s1
        t3, s3 = _typ(k, dj)
        out = []
        for ci, fn in index.get(((t1, t2), t3), ()):
            ent = [(l, c) for l, c in fn(s1, s2, s3) if c]
            if ent:
                out.append((ci, ent))
        cache[key] = out
        return out

    return cols


def _form_val(j, i, jj):
    """(column, value) contributions of the two form candidates on a
    basis pair; column 0 is the e pairing, column 1 the trace pairing."""
    dj = j.dim
    t1, s1 = _typ(i, dj)
    t2, s2 = _typ(jj, dj)
    if t1 == "+" and t2 == "-":
        return [(0, F1)]
    if t1 == "-" and t2 == "+":
        return [(0, -F1)]
    if t1 == "a" and t2 == "b":
        v = j.sgram[s1][s2]
        return [(1, v)] if v else []
    if t1 == "b" and t2 == "a":
        v = j.sgram[s2][s1]
        return [(1, -v)] if v else []
    return []


def _probe_indices(dj):
    subs = sorted({0, 1, dj // 2, dj - 1} & set(range(dj)))
    return [0, 1] + [2 + s for s in subs] + [2 + dj + s for s in subs]


def _int_row(ent):
    """Scale a sparse Fraction row to coprime ints with positive lead."""
    ent = [(c, v) for c, v in ent if v != 0]
    if not ent:
        return None
    den = 1
    for _, v in ent:
        den = den * v.denominator // gcd(den, v.denominator)
    ivals = [(c, int(v * den)) for c, v in ent]
    g = 0
    for _, v in ivals:
        g = gcd(g, abs(v))
    ivals = [(c, v // g) for c, v in ivals]
    if ivals[0][1] < 0:
        ivals = [(c, -v) for c, v in ivals]
    return tuple(ivals)


def _rotation_rows(j, cols, probes, ncol):
    """Linear constraints from the rotation rule on probe triples."""
    rows = set()
    for i in probes:
        for jj in probes:
            for k in probes:
                bucket: dict[int, dict[int, Fraction]] = {}

                def put(l, col, v):
                    d = bucket.setdefault(l, {})
                    d[col] = d.get(col, F0) + v

                for ci, ent in cols(i, jj, k):
                    for l, c in ent:
                        put(l, 2 + ci, c)
                for ci, ent in cols(jj, k, i):
                    for l, c in ent:
                        put(l, 2 + ci, -c)
                for fc, v in _form_val(j, i, jj):
                    put(k, fc, -v)
                for fc, v in _form_val(j, jj, k):
                    put(i, fc, -v)
                for fc, v in _form_val(j, k, i):
                    put(jj, fc, 2 * v)
                for l, d in bucket.items():
                    row = _int_row(sorted(d.items()))
                    if row:
                        rows.add(row)
    return [list(r) for r in rows]


def _skew_eqs(j, cols, probes):
    """Quadratic equations making every inner map skew for the form,
    keyed by unordered column pairs with integer coefficients."""
    eqs = set()
    for ii, i in enumerate(probes):
        for jj in probes[ii:]:
            for pi, p in enumerate(probes):
                for q in probes[pi:]:
                    acc: dict[tuple[int, int], Fraction] = {}
                    for ci, ent in cols(i, jj, p):
                        for l, c in ent:
                            for fc, v in _form_val(j, l, q):
                                key = (fc, 2 + ci)
                                acc[key] = acc.get(key, F0) + c * v
                    for ci, ent in cols(i, jj, q):
                        for l, c in ent:
                            for fc, v in _form_val(j, p, l):
                                key = (fc, 2 + ci)
                                acc[key] = acc.get(key, F0) + c * v
                    row = _int_row(sorted(acc.items()))
                    if row:
                        eqs.add(row)
    return eqs


def _derivation_eqs(j, cols, probes):
    """Quadratic equations saying each inner map derives the product,
    harvested on a reduced probe set."""
    short = probes[:2] + probes[2:4] + probes[2 + len(probes) // 2:][:2]
    eqs = set()
    for pi, p in enumerate(short):
        for q in short[pi:]:
            for xi, x in enumerate(probes):
                for y in probes[xi:]:
                    for z in probes:
                        acc: dict[tuple, dict] = {}

                        def put(co, ci, l, v):
                            key = (min(co, ci), max(co, ci))
                            d = acc.setdefault(key, {})
                            d[l] = d.get(l, F0) + v

                        for ci, ent in cols(x, y, z):
                            for l2, c2 in ent:
                                for co, ent2 in cols(p, q, l2):
                                    for l, c in ent2:
                                        put(2 + co, 2 + ci, l, c * c2)
                        for ci, ent in cols(p, q, x):
                            for l2, c2 in ent:
                                for co, ent2 in cols(l2, y, z):
                                    for l, c in ent2:
                                        put(2 + co, 2 + ci, l, -c * c2)
                        for ci, ent in cols(p, q, y):
                            for l2, c2 in ent:
                                for co, ent2 in cols(x, l2, z):
                                    for l, c in ent2:
                                        put(2 + co, 2 + ci, l, -c * c2)
                        for ci, ent in cols(p, q, z):
                            for l2, c2 in ent:
                                for co, ent2 in cols(x, y, l2):
                                    for l, c in ent2:
                                        put(2 + co, 2 + ci, l, -c * c2)
                        percoord: dict[int, dict] = {}
                        for key, d in acc.items():
                            for l, v in d.items():
                                if v:
                                    percoord.setdefault(l, {})[key] = v
                        for d in percoord.values():
                            row = _int_row(sorted(d.items()))
                            if row:
                                eqs.add(row)
    return eqs


def _solve_branches(ker, quad_eqs, cands, norm_col, want_col):
    """Solve the quadratic system on the kernel parameters.

    Returns rational coefficient vectors, one per surviving branch, with
    the normalization column set to 1 and remaining free parameters bound
    by setting the first still-free coefficient to 1 in candidate order.
    Branches without the wanted cubic-norm coefficient are dropped."""
    ks = len(ker)
    syms = sympy.symbols(f"s0:{ks}")
    ncol = len(ker[0])
    ucol = []
    for c in range(ncol):
        expr = sympy.Integer(0)
        for tt in range(ks):
            if ker[tt][c]:
                expr += ker[tt][c] * syms[tt]
        ucol.append(sympy.expand(expr))
    eqs = [ucol[norm_col] - 1]
    for row in sorted(quad_eqs):
        expr = sympy.Integer(0)
        for (a, b), v in row:
            expr += v * ucol[a] * ucol[b]
        eqs.append(sympy.expand(expr))
    sols = sympy.solve(eqs, list(syms), dict=True)
    out = []
    for sol in sorted(sols, key=str):
        vals = [sympy.expand(u.subs(sol)) for u in ucol]
        # bind leftover scaling freedom: first still-symbolic coefficient
        # that can be made 1 in candidate order
        guard = 0
        while any(v.free_symbols for v in vals) and guard < ks + 1:
            guard += 1
            fixed = False
            for v in vals:
                fs = sorted(v.free_symbols, key=str)
                if not fs:
                    continue
                root = sympy.solve(v - 1, fs[0], dict=True)
                pick = None
                for r in root:
                    expr = r[fs[0]]
                    if not expr.free_symbols and expr.is_rational:
                        pick = r
                        break
                if pick is None:
                    continue
                vals = [sympy.expand(x.subs(pick)) for x in vals]
                fixed = True
                break
            if not fixed:
                break
        if any(v.free_symbols for v in vals):
            continue
        if not all(v.is_rational for v in vals):
            continue
        uvec = [Fraction(str(v)) for v in vals]
        if uvec[want_col] == 0:
            continue
        out.append(uvec)
    return out


def _assemble(j, cands, cols, uvec):
    """Materialize the triple datum for a solved coefficient vector and
    run the exact global checks that are cheap at every size: the full
    rotation rule and skewness of every inner map for the form."""
    dj = j.dim
    n = 2 + 2 * dj
    gram = la.zeros(n, n)
    gram[0][1] = uvec[0]
    gram[1][0] = -uvec[0]
    for p in range(dj):
        for q in range(dj):
            v = uvec[1] * j.sgram[p][q]
            if v:
                gram[2 + p][2 + dj + q] = v
                gram[2 + dj + q][2 + p] = -v
    trip: dict[tuple[int, int], dict] = {}
    for i in range(n):
        for jj in range(i, n):
            m: dict[tuple[int, int], Fraction] = {}
            for k in range(n):
                for ci, ent in cols(i, jj, k):
                    u = uvec[2 + ci]
                    if not u:
                        continue
                    for l, c in ent:
                        key = (l, k)
                        m[key] = m.get(key, F0) + u * c
            m = {k: v for k, v in m.items() if v}
            if m:
                trip[(i, jj)] = m
    wts = None
    if j.wts is not None:
        th = Fraction(3)
        wts = ([(th,) + j.wts[0][:0] + tuple([F0] * len(j.wts[0])),
                (-th,) + tuple([F0] * len(j.wts[0]))]
               + [(-F1,) + j.wts[i] for i in range(dj)]
               + [(F1,) + j.wts[i] for i in range(dj)])
    nz = [(cands[ci][0], fr_str(uvec[2 + ci]))
          for ci in range(len(cands)) if uvec[2 + ci]]
    notes = ["form " + fr_str(uvec[0]) + " e, " + fr_str(uvec[1]) + " trace",
             "product " + ", ".join(f"{nm} {v}" for nm, v in nz)]
    t = SymplecticTripleData(n, gram, trip, wts=wts,
                             name=f"T({j.name})" if j.name else "T(J)",
                             notes=notes)
    _check_rotation(t)
    _check_skew(t)
    return t


def _check_rotation(t: SymplecticTripleData):
    """Exact rotation rule on every basis triple."""
    n = t.dim
    for i in range(n):
        for jj in range(n):
            d = t.dmat(i, jj)
            rot = t.dmat(jj, i)
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
            del rot


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
    """Solve for the symplectic triple on k^2 (+) J (+) J.

    The form and product are parametrized over the candidate basis of
    _candidate_table plus the two form candidates, constrained by the
    rotation rule on probe triples, skewness and the derivation rule of
    the inner maps, with the e-pairing normalized to 1 and any leftover
    scaling bound by setting the first still-free coefficient to 1.
    Branches lacking the cubic-norm candidate are discarded (they head
    for the symplectic-polynomial triple, not this one) and every
    surviving branch is certified on g(T) before being returned.  Raises
    ValueError when nothing certifies."""
    dj = j.dim
    cands, index = _candidate_table(j)
    cols = _cand_cache(index, dj)
    probes = _probe_indices(dj)
    ncol = 2 + len(cands)
    rows = _rotation_rows(j, cols, probes, ncol)
    ker = sparse_int_kernel(rows, ncol)
    if not ker:
        raise ValueError("no solution found: rotation rule leaves nothing")
    quad = _skew_eqs(j, cols, probes) | _derivation_eqs(j, cols, probes)
    want = 2 + next(ci for ci, c in enumerate(cands) if c[0] == "P4")
    branches = _solve_branches(ker, quad, cands, 0, want)
    last = "no solution found"
    for uvec in branches:
        try:
            t = _assemble(j, cands, cols, uvec)
        except ValueError as e:
            last = f"no solution found: {e}"
            continue
        try:
            g, _ = build_g_of_T(t)
        except (NotClosedError, ValueError) as e:
            last = f"no solution found: {e}"
            continue
        rep = check_lie(g, target=g.name)
        if not rep.passed:
            last = "no solution found: a branch failed the Lie certificate"
            continue
        return t
    raise ValueError(last)
