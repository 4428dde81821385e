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
H3K_VECTOR, over a finite equivariant candidate basis: 24 int64 tensors
made from the trace form, the cross and the cross of a cross of J
(_candidates).  The vector was solved once on H3(k), from the rotation
rule, skewness of the inner maps and their derivation rule, and the same
vector serves H3(K), H3(Q) and H3(O) (E6, E7, E8 after F4).  It is not
trusted: every T(J) is certified by the exact rotation and skew checks
on every basis triple, each a sparse integer sum, and by a full Jacobi
sweep of g(T).  The vector does not carry over to a 1-dim J, so the
base-field triple (G2) is not built here.

Every tensor here is int64 with one scale.  J is read off its trace-zero
view: its basis is the unit, then the view's basis, so its product is
compjordan.unital_product.  The triple product is one int64 table
(pair, col, val, scale) in the layout of LYAlgebra.ternary_int, which
build_g_of_T reads as build_enveloping reads an LY algebra's.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import linalg as la
from .algebra import Algebra
from .buildtools import (NotClosedError, OutsideSpan, guard_bound, int_rows,
                         int_values, pair_table)
from .checks import check_lie
from .compjordan import JordanAlg, trace_admissible_view, unital_product
from .envelope import (EnvelopingPair, class_bases, ly_from_reductive_indices,
                       pair_classes)
from .fastnum import join, lowest_terms, summed
from .linalg import F0, F1
from .matrixalg import form_pairs, phi_map, skew_map_family, split_skew_form


class CubicJordanData:
    """A degree-3 Jordan algebra reduced to the maps the triple
    construction consumes, as int64 tensors over one scale: the unital
    product prod[i, k, a] (coordinate a of e_i e_k), the trace form
    sgram[i, k] = T(e_i e_k) and the cross cross[i, k, a], the full
    linearization of the adjoint x# = x x - T(x) x + S(x) 1.  The basis
    starts with the unit; tvals is the generic trace of each basis vector,
    the degree on the unit and 0 on the trace-zero rest.  wts, when
    present, grades all four maps."""

    def __init__(self, prod, scale, wts=None, name=""):
        n = self.dim = len(prod)
        self.prod = prod
        self.scale = scale
        self.tvals = tv = np.zeros(n, dtype=np.int64)
        tv[0] = 3
        # scale is prod[0, 0, 0], so every sgram and cross entry is below
        # 20 max|prod|
        guard_bound(20, prod)
        self.sgram = np.einsum('ikc,c->ik', prod, tv)
        eye = np.eye(n, dtype=np.int64)
        self.cross = 2 * prod - scale * (np.einsum('i,kc->ikc', tv, eye)
                                         + np.einsum('k,ic->ikc', tv, eye))
        self.cross[:, :, 0] += scale * np.outer(tv, tv) - self.sgram
        self.wts = [tuple(w) for w in wts] if wts is not None else None
        self.name = name


def cubic_jordan_data(j: JordanAlg) -> CubicJordanData:
    """Cubic datum of a degree-3 Jordan algebra on the graded basis
    unit + trace-zero torus eigenvectors."""
    if j.degree != 3:
        raise ValueError(f"degree {j.degree} algebra has no cubic datum")
    view = trace_admissible_view(j)
    zero = tuple([F0] * view.rank)
    wts = [zero] + [tuple(w) for w in view.weights]
    return CubicJordanData(*unital_product(view.ints), wts=wts, name=j.kind)


class SymplecticTripleData:
    """A skew form together with a triple product symmetric in the first
    two slots.

    gram, the form as rational rows, is held as form = (int64 matrix,
    scale).  trip is the product as one int64 table (pair, col, val,
    scale), the layout of LYAlgebra.ternary_int: val / scale is the
    coefficient of e_l in {e_i e_j e_k} at pair i n + j with i <= j and
    col l n + k, sorted by (pair, k, l), no value zero.  The pairs in the
    table are those of the nonzero inner maps d(e_i, e_j).  wts optionally
    grades the basis.  The constructor refuses (ValueError) a malformed
    form or table; build_g_of_T memoises g(T) in _cache."""

    def __init__(self, dim, gram, trip, wts=None, name=""):
        self.dim = dim
        if len(gram) != dim or any(len(r) != dim for r in gram):
            raise ValueError("gram size does not match dim")
        g, gs = int_rows(gram, dim)
        if (g != -g.T).any():
            raise ValueError("form is not skew-symmetric")
        if not g.any():
            raise ValueError("form is zero")
        self.form = g, gs
        pair, col, val = (np.asarray(a, dtype=np.int64) for a in trip[:3])
        if not pair.shape == col.shape == val.shape == (len(pair),):
            raise ValueError("triple table: arrays must be flat and of one length")
        if int(trip[3]) <= 0:
            raise ValueError("triple table: scale <= 0")
        i, jj = np.divmod(pair, dim)
        l, k = np.divmod(col, dim)
        for bad, what in [((pair < 0) | (pair >= dim * dim) | (col < 0)
                           | (col >= dim * dim), "index out of range"),
                          (i > jj, "i > j"), (val == 0, "zero value"),
                          (np.diff((pair * dim + k) * dim + l) <= 0,
                           "entries not strictly sorted by (pair, k, l)")]:
            if bad.any():
                raise ValueError("triple table: %s" % what)
        self.trip = pair, col, val, int(trip[3])
        self.wts = [tuple(w) for w in wts] if wts is not None else None
        self.name = name
        self._cache: dict = {}


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
    data for classification.  The result is memoised in t._cache["g"], as
    build_enveloping memoises on an LY algebra: construct_TJ and
    lts_from_symplectic share one assembly, and g's memoised Jacobi
    verdict spares the second sweep."""
    if "g" in t._cache:
        return t._cache["g"]
    n = t.dim
    wts = t.wts
    rt = len(wts[0]) if wts else 0
    zt = tuple([F0] * rt)

    pair, code, val, scale = t.trip
    gens, gen = np.unique(pair, return_inverse=True)
    oi, oj = np.divmod(gens, n)
    cls, keys = pair_classes(wts, oi, oj)
    cb = class_bases(gen, code, val, scale, cls, keys, by_class=False)
    sel_pairs = list(zip(oi[cb.basis].tolist(), oj[cb.basis].tolist()))
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
    form, gs = t.form
    i, j = np.nonzero(form)
    gv = form[i, j]
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
    t._cache["g"] = g, pair
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
# _candidates; the e pairing and the trace pairing of the form both have
# coefficient 1
H3K_VECTOR = {"A2": -3, "A3": 3, "A4": 1, "A5": -1, "B1": 2, "B2": 2,
              "B3": 1, "B6": -2, "B7": -2, "B8": -4, "P3": 2, "P4": 1,
              "P5": 1, "M3": -2, "M4": -4, "M5": -4, "E1": 1, "E2": -1,
              "E3": -1, "E4": -2, "E5": 2, "E7": 1, "E8": 2, "E9": -2}


def _candidates(j: CubicJordanData):
    """The product candidates H3K_VECTOR names, as (name, slots, c): c is
    an int64 tensor over the scale j.scale ** 2 and c[p, q, r, m] the
    coefficient of the m-th vector of slot 4 in {x_p y_q z_r}, x, y, z
    running over slots 1 to 3.  A slot is e+ ("+"), e- ("-") or the a or
    b copy of J.  Every map is symmetric in the pair and homogeneous for
    the charge pattern e+ 3, e- -3, a -1, b 1, which is what prunes the
    sectors."""
    s, S, X = j.scale, j.sgram, j.cross
    guard_bound(j.dim, X, X)
    guard_bound(j.dim, X, S)
    xx = np.einsum('pqa,arm->pqrm', X, X)       # cross(cross(p, q), r)
    sx = np.einsum('pqa,ar->pqr', X, S)[..., None]  # S(cross(p, q), r)
    for a in (S, X, [s]):
        guard_bound(s, a)
    one = np.full((1, 1, 1, 1), s * s)
    eye = np.eye(j.dim, dtype=np.int64)
    ss, sX, ee = s * S, s * X, s * s * eye
    sd = np.einsum('pq,rm->pqrm', ss, eye)
    return [
        ("A2", "+-++", one), ("A3", "+---", one),
        ("A4", "+-aa", ee[None, None]), ("A5", "+-bb", ee[None, None]),
        ("B1", "+ab+", ss[None, :, :, None]), ("B2", "+a-a", ee[None, :, None]),
        ("B3", "+aab", sX[None]), ("B6", "-ba-", ss.T[None, :, :, None]),
        ("B7", "-b+b", ee[None, :, None]), ("B8", "-bba", sX[None]),
        ("P3", "aaba", xx), ("P4", "aaa-", sx), ("P5", "aa+b", sX[:, :, None]),
        ("M3", "bbab", xx), ("M4", "bbb+", sx), ("M5", "bb-a", sX[:, :, None]),
        ("E1", "ab++", ss[:, :, None, None]), ("E2", "ab--", ss[:, :, None, None]),
        ("E3", "abaa", sd), ("E4", "abaa", np.einsum('rq,pm->pqrm', ss, eye)),
        ("E5", "abaa", np.einsum('prqm->pqrm', xx)), ("E7", "abbb", sd),
        ("E8", "abbb", np.einsum('pr,qm->pqrm', ss, eye)),
        ("E9", "abbb", np.einsum('qrpm->pqrm', xx)),
    ]


def _check_rotation(t: SymplecticTripleData):
    """Exact rotation rule on every basis triple: one sum over the codes
    ((i n + j) n + k) n + l of the component l of its five terms,
    {e_i e_j e_k}, -{e_j e_k e_i} and the three form terms.  Raises
    ValueError at the lex-first failing triple (i, j, k)."""
    n = t.dim
    pair, col, val, ps = t.trip
    g, gs = t.form
    i, j = np.divmod(pair, n)
    l, k = np.divmod(col, n)
    # {e_a e_b e_c} contains v e_l, for both orders of each pair
    two = i != j
    a, b, c, l, v = (np.concatenate([x, y[two]])
                     for x, y in ((i, j), (j, i), (k, k), (l, l), (val, val)))
    gi, gj = np.nonzero(g)
    gv = g[gi, gj][:, None]
    gi, gj, x = gi[:, None], gj[:, None], np.arange(n)

    def code(i, j, k, l):
        return ((i * n + j) * n + k) * n + l

    # a code sums at most six such values, the last form term counting twice
    guard_bound(6 * gs, val)
    guard_bound(6 * ps, g)
    terms = [np.broadcast_arrays(*term) for term in (
        (code(a, b, c, l), v * gs), (code(c, a, b, l), -v * gs),
        (code(gi, gj, x, x), -gv * ps),            # -(e_i, e_j) e_k
        (code(x, gi, gj, x), -gv * ps),            # -(e_j, e_k) e_i
        (code(gj, x, gi, x), 2 * gv * ps))]        # +2 (e_k, e_i) e_j
    bad = summed(*(np.concatenate([term[z].ravel() for term in terms])
                   for z in (0, 1)))[0]
    if len(bad):
        ijk = np.unravel_index(bad[0] // n, (n, n, n))
        raise ValueError(f"rotation rule fails at {tuple(map(int, ijk))}")


def _check_skew(t: SymplecticTripleData):
    """Every inner map M must be skew for the form G: M^T G + G M = 0.  Each
    product is one join of the table's entries with the form's on the
    index they contract, coded so that row + col is pair n^2 + u n + w for
    the entry (u, w); the first pair with a nonzero sum raises
    ValueError."""
    n = t.dim
    pair, col, val, _ = t.trip
    g, _ = t.form
    l, k = np.divmod(col, n)
    gl, gv = np.nonzero(g)
    w = g[gl, gv]
    guard_bound(2 * n, val, g)
    joined = [join((pair * n * n + k * n, l, val), (gl, gv, w)),     # M^T G
              join((gl * n, gv, w), (l, pair * n * n + k, val))]     # G M
    bad = summed(np.concatenate([row + col for row, col, _ in joined]),
                 np.concatenate([v for *_, v in joined]))[0]
    if len(bad):
        i, j = divmod(int(bad[0]) // (n * n), n)
        raise ValueError(f"inner map of pair {(i, j)} is not skew")


def construct_TJ(j: CubicJordanData) -> SymplecticTripleData:
    """The symplectic triple on k^2 (+) J (+) J from H3K_VECTOR.

    Basis e+, e-, then J twice (the a and b slots).  The form pairs e+
    with e- by 1 and a_p with b_q by the trace form; the product is the
    H3K_VECTOR combination of the candidates of _candidates, summed as one
    code list over the pairs i <= j.  The datum is certified by the exact
    rotation rule and skewness of every inner map on every basis triple,
    then by check_lie on g(T).  Raises ValueError when any of them fails,
    and NotClosedError when the inner maps do not close."""
    dj, s = j.dim, j.scale
    n = 2 + 2 * dj
    start = {"+": 0, "-": 1, "a": 2, "b": 2 + dj}
    mass = sum(map(abs, H3K_VECTOR.values()))
    codes, vals = [], []
    for name, slots, c in _candidates(j):
        guard_bound(mass, c)
        nz = np.nonzero(c)
        i, jj, k, l = (start[kind] + x for kind, x in zip(slots, nz))
        keep = i <= jj
        codes.append((((i * n + jj) * n + k) * n + l)[keep])
        vals.append(H3K_VECTOR[name] * c[nz][keep])
    code, val = summed(np.concatenate(codes), np.concatenate(vals))
    pk, l = np.divmod(code, n)
    pair, k = np.divmod(pk, n)
    g = np.zeros((n, n), dtype=np.int64)
    g[0, 1], g[2:2 + dj, 2 + dj:] = s, j.sgram
    gram = [[Fraction(x, s) for x in row] for row in (g - g.T).tolist()]
    wts = None
    if j.wts is not None:
        zero = tuple([F0] * len(j.wts[0]))
        wts = ([(Fraction(3),) + zero, (Fraction(-3),) + zero]
               + [(-F1,) + w for w in j.wts] + [(F1,) + w for w in j.wts])
    t = SymplecticTripleData(n, gram, (pair, l * n + k, *lowest_terms(val, s * s)),
                             wts=wts, name=f"T({j.name})" if j.name else "T(J)")
    _check_rotation(t)
    _check_skew(t)
    g, _ = build_g_of_T(t)
    if not check_lie(g, target=g.name).passed:
        raise ValueError(f"{g.name} fails Jacobi; not a symplectic triple datum")
    return t
