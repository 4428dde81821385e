"""Split composition algebras, Jordan algebras, and their trace-zero views.

Everything here is verified at construction time, exactly, on int64
tensors: each table is cleared of denominators once (_amb_int), and
every identity becomes an array equality of integer contractions, each
product guarded by buildtools.guard_bound (OverflowError rather than a
wrong answer).  Composition builders check the unit laws, the polarized
degree two equation, polarized norm multiplicativity on all basis
4-tuples, the associative trace form and alternativity.  The hermitian
Jordan tables are formed from the integer composition table, with the
scalar-diagonal and hermitian conditions checked as array equalities;
Jordan builders check the linearized Jordan identity (in float64, guarded
so that every partial sum stays below 2^53) and the associativity of the
generic trace form.

The trace-zero view packages what the two-ingredient Lie algebra
constructions consume: the star product and normalized trace form in a
torus eigenbasis, the inner pair derivations restricted to the slice, and
a weight-adapted basis of their span.  One integer path serves every
ambient: the pair maps of all slice pairs form one int64 tensor
(_pair_maps), from the composition table for compositions, as [R_x, R_y]
for hermitian Jordan algebras and from the form for spin factors, and one
slot is checked against the direct Fraction implementation.  Every view
certifies that the spanning pair maps are derivations and that its pair
derivation table is equivariant under their span, reading the same
integer tensors.
"""

import re
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import buildtools as bt
from . import linalg as la
from .fastnum import join, summed
from .linalg import F0, F1
from .matrixalg import split_sym_form

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


class CompAlg:
    """Unital algebra over Q whose quadratic norm admits composition.

    tab[i][j] is the dense coordinate vector of e_i e_j.  gram is the polar
    form of the norm, so n(x) = gram(x, x) / 2 and tr(x) = gram(x, 1); the
    trace vector gram(., 1) is computed once.  Instances are built through
    build_composition and must be treated as read-only; the builders cache
    and share them.
    """

    def __init__(self, kind, tab, gram, unit, labels):
        self.kind = kind
        self.dim = len(tab)
        self.tab = tab
        self.gram = gram
        self.unit = unit
        self.labels = labels
        self._int = None
        self._trv = la.mat_vec(gram, unit)

    def mul(self, x, y):
        out = la.zero_vec(self.dim)
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            row = self.tab[i]
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                f = xi * yj
                for k, cv in enumerate(row[j]):
                    if cv != 0:
                        out[k] += f * cv
        return out

    def polar(self, x, y):
        return la.dot(x, la.mat_vec(self.gram, y))

    def norm(self, x):
        return self.polar(x, x) * HALF

    def trace(self, x):
        return la.dot(x, self._trv)

    def conj(self, x):
        return la.vec_sub(la.vec_scale(self.trace(x), self.unit), x)

    def commutator(self, x, y):
        return la.vec_sub(self.mul(x, y), self.mul(y, x))

    def associator(self, x, y, z):
        return la.vec_sub(self.mul(self.mul(x, y), z),
                          self.mul(x, self.mul(y, z)))


def _table_k():
    tab = [[[F1]]]
    gram = [[Fraction(2)]]
    return tab, gram, [F1], ["1"]


def _table_K():
    # two orthogonal idempotents p, q with p + q = 1
    tab = [[la.zero_vec(2) for _ in range(2)] for _ in range(2)]
    tab[0][0][0] = F1
    tab[1][1][1] = F1
    gram = [[F0, F1], [F1, F0]]
    return tab, gram, [F1, F1], ["p", "q"]


def _table_Q():
    # 2x2 matrix units E11, E12, E21, E22; the norm is the determinant
    tab = [[la.zero_vec(4) for _ in range(4)] for _ in range(4)]
    unit = {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)}
    for a, (i, j) in unit.items():
        for b, (k, l) in unit.items():
            if j == k:
                tab[a][b][{(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}[(i, l)]] = F1
    gram = la.zeros(4, 4)
    gram[0][3] = gram[3][0] = F1
    gram[1][2] = gram[2][1] = Fraction(-1)
    return tab, gram, [F1, F0, F0, F1], ["E11", "E12", "E21", "E22"]


def _table_O():
    # vector-matrix model: basis p, u1, u2, u3, v1, v2, v3, q where p, q are
    # the diagonal idempotents and u, v the two off-diagonal 3-vector slots.
    # The cross terms carry signs (-, +); the verifier rejects same-sign
    # choices, which break norm multiplicativity.
    tab = [[la.zero_vec(8) for _ in range(8)] for _ in range(8)]
    P, Q = 0, 7
    U = [1, 2, 3]
    V = [4, 5, 6]
    tab[P][P][P] = F1
    tab[Q][Q][Q] = F1
    for m in range(3):
        tab[P][U[m]][U[m]] = F1
        tab[U[m]][Q][U[m]] = F1
        tab[Q][V[m]][V[m]] = F1
        tab[V[m]][P][V[m]] = F1
        tab[U[m]][V[m]][P] = F1
        tab[V[m]][U[m]][Q] = F1
    for m in range(3):
        n_, r = (m + 1) % 3, (m + 2) % 3
        tab[U[m]][U[n_]][V[r]] = F1
        tab[U[n_]][U[m]][V[r]] = -F1
        tab[V[m]][V[n_]][U[r]] = -F1
        tab[V[n_]][V[m]][U[r]] = F1
    gram = la.zeros(8, 8)
    gram[P][Q] = gram[Q][P] = F1
    for m in range(3):
        gram[U[m]][V[m]] = gram[V[m]][U[m]] = Fraction(-1)
    unit = la.zero_vec(8)
    unit[P] = unit[Q] = F1
    return tab, gram, unit, ["p", "u1", "u2", "u3", "v1", "v2", "v3", "q"]


def _first_failure(*checks):
    """Raise the message of the first flagged entry in row-major order.

    Each check is (boolean array, message), all of one shape; at a shared
    entry the earlier check wins, as in one nested loop over the entries.
    """
    flags = np.stack([np.ravel(bad) for bad, _ in checks])
    hit = np.flatnonzero(flags.any(axis=0))
    if len(hit):
        raise ValueError(checks[int(np.argmax(flags[:, hit[0]]))][1])


def _verify_composition(c):
    """Every defining identity as an integer contraction of the table.

    With e_i e_j = sum_k t[i, j, k] e_k / s, gram = g / sg and the unit
    u / su, each identity is cleared of denominators and compared as an
    array equality; every product is guarded against int64 overflow.
    """
    n = c.dim
    t, s = _amb_int(c)
    g, sg = bt.int_rows(c.gram)
    if not np.array_equal(g, g.T):
        raise ValueError("norm polar form is not symmetric")
    if la.rank(c.gram) != n:
        raise ValueError("norm form is degenerate")
    (u,), su = bt.int_rows([c.unit])
    eye = np.eye(n, dtype=np.int64)
    bt.guard_bound(n, u, t)
    bt.guard_bound(1, eye, [s * su])
    if not (np.array_equal(np.einsum('a,aik->ik', u, t), eye * (s * su))
            and np.array_equal(np.einsum('a,iak->ik', u, t), eye * (s * su))):
        raise ValueError("unit law fails")
    # polarized degree two equation, scaled by s sg su:
    # e_i e_j + e_j e_i - tr(e_i) e_j - tr(e_j) e_i + gram(e_i, e_j) 1 = 0
    bt.guard_bound(n, g, u)
    tv = g @ u
    bt.guard_bound(4 * sg * su, t)
    bt.guard_bound(2 * (2 * n + 1) * s, g, u)
    d2 = ((t + t.transpose(1, 0, 2)) * (sg * su)
          - s * (tv[:, None, None] * eye[None, :, :]
                 + tv[None, :, None] * eye[:, None, :]
                 - g[:, :, None] * u[None, None, :]))
    if d2.any():
        raise ValueError("degree two equation fails")
    # polarized norm multiplicativity on basis 4-tuples:
    # gram(e_i e_k, e_j e_l) + gram(e_i e_l, e_j e_k) = gram_ij gram_kl
    bt.guard_bound(n, t, g)
    ap = np.einsum('ikr,rs->iks', t, g)
    bt.guard_bound(2 * n * sg, ap, t)
    bt.guard_bound(s * s, g, g)
    a4 = np.einsum('iks,jls->ikjl', ap, t)
    lhs = (a4.transpose(0, 2, 1, 3) + a4.transpose(0, 2, 3, 1)) * sg
    if not np.array_equal(lhs, np.einsum('ij,kl->ijkl', g, g) * (s * s)):
        raise ValueError("norm is not multiplicative")
    # trace form symmetric and associative
    bt.guard_bound(n, t, tv)
    tf = np.einsum('ijc,c->ij', t, tv)
    bt.guard_bound(n, t, tf)
    assoc = np.einsum('ijs,sk->ijk', t, tf) != np.einsum('jks,is->ijk', t, tf)
    _first_failure((tf != tf.T, "trace form is not symmetric"),
                   (assoc.any(axis=2), "trace form is not associative"))
    # alternativity, in symmetrized form, on the associators
    # (e_i, e_j, e_k) = (e_i e_j) e_k - e_i (e_j e_k)
    bt.guard_bound(4 * n, t, t)
    aso = np.einsum('ijm,mkc->ijkc', t, t) - np.einsum('jkm,imc->ijkc', t, t)
    _first_failure(((aso + aso.transpose(1, 0, 2, 3)).any(axis=3),
                    "algebra is not left alternative"),
                   ((aso + aso.transpose(0, 2, 1, 3)).any(axis=3),
                    "algebra is not right alternative"))


@lru_cache(maxsize=None)
def build_composition(kind):
    """Split composition algebra over Q: "k", "K", "Q" or "O".

    Dimensions 1, 2, 4, 8.  All four come with the split (isotropic for
    dim > 1) norm form, and every defining identity is re-proved on the
    structure constants before the object is returned.
    """
    builders = {"k": _table_k, "K": _table_K, "Q": _table_Q, "O": _table_O}
    if kind not in builders:
        raise ValueError("unknown composition algebra %r" % kind)
    tab, gram, unit, labels = builders[kind]()
    c = CompAlg(kind, tab, gram, unit, labels)
    _verify_composition(c)
    return c


def comp_derivation(c, a, b):
    """Inner derivation of a composition algebra for an ordered pair.

    Columns are (1/4) ([[a, b], z] + 3 (a, z, b)) over the basis, with
    (a, z, b) the associator.  Alternating in (a, b); kills the unit.
    """
    ab = c.commutator(a, b)
    cols = []
    for k in range(c.dim):
        z = la.basis_vec(c.dim, k)
        w = la.vec_add(c.commutator(ab, z),
                       la.vec_scale(Fraction(3), c.associator(a, z, b)))
        cols.append(la.vec_scale(QUARTER, w))
    return la.transpose(cols)


class JordanAlg:
    """Commutative unital algebra over Q with a generic trace functional.

    tracev holds the values of the generic trace on the basis, normalized
    so the unit traces to the degree.  form, when set, is the bilinear
    form of a spin factor and switches the pair derivation convention in
    the trace-zero view.  Treat instances as read-only.
    """

    def __init__(self, kind, tab, degree, tracev, unit, labels,
                 form=None, signs=None):
        self.kind = kind
        self.dim = len(tab)
        self.tab = tab
        self.degree = degree
        self.tracev = tracev
        self.unit = unit
        self.labels = labels
        self.form = form
        self.signs = signs
        self._int = None

    def mul(self, x, y):
        out = la.zero_vec(self.dim)
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            row = self.tab[i]
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                f = xi * yj
                for k, cv in enumerate(row[j]):
                    if cv != 0:
                        out[k] += f * cv
        return out

    def gentrace(self, x):
        return la.dot(self.tracev, x)

    def right_mult(self, x):
        cols = [self.mul(la.basis_vec(self.dim, k), x) for k in range(self.dim)]
        return la.transpose(cols)


def jordan_derivation(j, x, y):
    """Commutator of the two right multiplications, an inner derivation."""
    rx = j.right_mult(x)
    ry = j.right_mult(y)
    return la.mat_sub(la.mat_mul(rx, ry), la.mat_mul(ry, rx))


def _verify_jordan(j):
    n = j.dim
    for a in range(n):
        e = la.basis_vec(n, a)
        if j.mul(j.unit, e) != e:
            raise ValueError("unit law fails")
    for i in range(n):
        for k in range(i):
            if j.tab[i][k] != j.tab[k][i]:
                raise ValueError("product is not commutative")
    if j.gentrace(j.unit) != j.degree:
        raise ValueError("the unit must trace to the degree")
    t, s = _amb_int(j)
    tli, _ = bt.int_rows([j.tracev])
    tv = tli[0]
    bt.guard_bound(n, t, tv.reshape(1, -1))
    tf = np.einsum('ijc,c->ij', t, tv)
    if not np.array_equal(tf, tf.T):
        raise ValueError("trace form is not symmetric")
    bt.guard_bound(n, t, tf)
    if not np.array_equal(np.einsum('ijc,ck->ijk', t, tf),
                          np.einsum('jkc,ic->ijk', t, tf)):
        raise ValueError("trace form is not associative")
    # linearized Jordan identity: the full symmetrization of
    # [R_x, R_{y z}] over each basis triple must vanish
    r = t.transpose(1, 2, 0)
    bt.guard_bound(n, t, r)
    rp = np.einsum('jkc,cab->jkab', t, r)
    # the products run through BLAS in float64, exact while every partial
    # sum is an integer below 2^53
    top = int(np.abs(r).max(initial=0)) * int(np.abs(rp).max(initial=0))
    if 6 * n * top >= 1 << 53:
        raise OverflowError("Jordan identity sweep would be inexact in float64")
    r, rp = r.astype(np.float64), rp.astype(np.float64)
    for i in range(n):
        off = np.triu_indices(n - i)
        jj = off[0] + i
        kk = off[1] + i
        rpp = rp[jj, kk]
        t1 = np.matmul(r[i], rpp) - np.matmul(rpp, r[i])
        t2 = np.matmul(r[jj], rp[i, kk]) - np.matmul(rp[i, kk], r[jj])
        t3 = np.matmul(r[kk], rp[i, jj]) - np.matmul(rp[i, jj], r[kk])
        if (t1 + t2 + t3).any():
            raise ValueError("Jordan identity fails on a basis triple")


def build_jordan_spin(m):
    """Spin factor on an m-dimensional split quadratic space.

    Product (a 1 + v)(b 1 + w) = (a b + phi(v, w)) 1 + a w + b v, degree 2,
    with phi the split symmetric form.
    """
    if m < 1:
        raise ValueError("need at least one vector direction")
    phi = split_sym_form(m)
    dim = m + 1
    tab = [[la.zero_vec(dim) for _ in range(dim)] for _ in range(dim)]
    tab[0][0][0] = F1
    for i in range(1, dim):
        tab[0][i][i] = F1
        tab[i][0][i] = F1
        for k in range(1, dim):
            tab[i][k][0] = phi.gram[i - 1][k - 1]
    tracev = [Fraction(2)] + [F0] * m
    labels = ["1"] + ["v%d" % i for i in range(1, dim)]
    j = JordanAlg("JV(%d)" % m, tab, 2, tracev, la.basis_vec(dim, 0),
                  labels, form=phi)
    _verify_jordan(j)
    return j


def _herm_basis(c, n, signs):
    mats = []
    labels = []
    for i in range(n):
        m = [[la.zero_vec(c.dim) for _ in range(n)] for _ in range(n)]
        m[i][i] = list(c.unit)
        mats.append(m)
        labels.append("E%d" % (i + 1))
    for i in range(n):
        for j in range(i + 1, n):
            for b in range(c.dim):
                m = [[la.zero_vec(c.dim) for _ in range(n)] for _ in range(n)]
                m[i][j] = la.basis_vec(c.dim, b)
                m[j][i] = la.vec_scale(Fraction(signs[i] * signs[j]),
                                       c.conj(la.basis_vec(c.dim, b)))
                mats.append(m)
                labels.append("%s[%d%d]" % (c.labels[b], i + 1, j + 1))
    return mats, labels


def _herm_table(c, n, signs, mats):
    """Structure constants of the symmetrized product on the hermitian basis.

    The basis matrices are cleared into one int64 tensor h[a, r, u, p]
    (entry (r, u) of basis matrix a, composition coordinate p); every
    product X Y comes from two guarded contractions with the integer
    composition table, and each symmetrized product X Y + Y X must have
    scalar diagonal entries and satisfy the twisted hermitian condition
    z[j][i] = signs[i] signs[j] conj(z[i][j]), checked as array equalities.
    """
    d = c.dim
    dim = len(mats)
    t, s = _amb_int(c)
    h, sh = bt.int_rows([[x for row in m for cell in row for x in cell]
                         for m in mats])
    h = h.reshape(dim, n, n, d)
    bt.guard_bound(d, h, t)
    ht = np.einsum('arup,pqk->aruqk', h, t)
    bt.guard_bound(2 * n * d, ht, h)
    z = np.einsum('aruqk,busq->abrsk', ht, h)
    z = z + z.transpose(1, 0, 2, 3, 4)   # scale S = 2 s sh^2
    scale = 2 * s * sh * sh
    (u,), su = bt.int_rows([c.unit])
    (tv,), st = bt.int_rows([c._trv])
    uidx = int(np.flatnonzero(u)[0])
    ii = np.arange(n)
    diag = z[:, :, ii, ii, :]
    bt.guard_bound(1, diag, u)
    bad_diag = (diag * u[uidx] != diag[..., uidx:uidx + 1] * u).any(axis=(2, 3))
    iu, ju = np.triu_indices(n, 1)
    up, low = z[:, :, iu, ju, :], z[:, :, ju, iu, :]
    sgn = np.array([signs[i] * signs[j] for i, j in zip(iu, ju)], dtype=np.int64)
    # conj(x) = tr(x) 1 - x, scaled by st su
    bt.guard_bound(2 * d, z, tv, u)
    bt.guard_bound(2 * st * su, z)
    conj = (np.einsum('abpk,k->abp', up, tv)[..., None] * u
            - up * (st * su))
    bad_off = (low * (st * su) != sgn[:, None] * conj).any(axis=(2, 3))
    _first_failure((bad_diag, "diagonal entry is not a scalar multiple of 1"),
                   (bad_off, "product left the hermitian subspace"))
    # coordinates: diagonal scalars, then the upper entries, over scale * u[uidx]
    bt.guard_bound(su, diag)
    bt.guard_bound(int(u[uidx]), up)
    co = np.concatenate([diag[..., uidx] * su,
                         (up * u[uidx]).reshape(dim, dim, -1)], axis=2)
    den = scale * int(u[uidx])
    frac = {v: Fraction(v, den) for v in np.unique(co).tolist()}
    return [[[frac[v] for v in cell] for cell in row] for row in co.tolist()]


@lru_cache(maxsize=None)
def build_jordan_hermitian(ckind, n, signs=None):
    """Hermitian n x n matrices over a composition algebra, symmetrized.

    signs twists the hermitian condition by a diagonal of +-1 entries,
    which changes the rational form without changing the dimension; the
    default is the untwisted identity choice.  The Jordan identity check
    rejects invalid inputs such as octonion entries at size 4.
    """
    c = build_composition(ckind)
    if n < 2:
        raise ValueError("matrix size must be at least 2")
    signs = tuple(signs) if signs is not None else (1,) * n
    if len(signs) != n or any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +-1 of length n")
    mats, labels = _herm_basis(c, n, signs)
    dim = len(mats)
    tab = _herm_table(c, n, signs, mats)
    tracev = [F1] * n + [F0] * (dim - n)
    unit = la.zero_vec(dim)
    for i in range(n):
        unit[i] = F1
    j = JordanAlg("H%d(%s)" % (n, ckind), tab, n, tracev, unit, labels,
                  signs=signs)
    _verify_jordan(j)
    return j


@lru_cache(maxsize=None)
def build_jordan(spec):
    """Jordan algebra from a short name.

    "k" is the one-dimensional algebra of degree 1, "Hn(C)" the hermitian
    n x n matrices over the composition algebra C in {k, K, Q, O}, and
    "JV(m)" the spin factor on an m-dimensional split quadratic space.
    Hermitian algebras over k get an alternating-sign twist so their
    derivation algebras contain a split torus; the other entry algebras
    are already split, so they keep the identity choice.
    """
    if spec == "k":
        j = JordanAlg("k", [[[F1]]], 1, [F1], [F1], ["1"])
        _verify_jordan(j)
        return j
    m = re.fullmatch(r"H(\d+)\(([kKQO])\)", spec)
    if m:
        n = int(m.group(1))
        ck = m.group(2)
        signs = tuple((-1) ** i for i in range(n)) if ck == "k" else None
        return build_jordan_hermitian(ck, n, signs)
    m = re.fullmatch(r"JV\((\d+)\)", spec)
    if m:
        return build_jordan_spin(int(m.group(1)))
    raise ValueError("unknown jordan algebra spec %r" % spec)


def _spin_pair_map(j, x, y):
    """Pair map z -> phi(v, z) w - phi(w, z) v on the vector part."""
    phi = j.form
    m = phi.dim
    out = la.zeros(j.dim, j.dim)
    vx = x[1:]
    wy = y[1:]
    for c in range(m):
        a = phi.apply(vx, la.basis_vec(m, c))
        b = phi.apply(wy, la.basis_vec(m, c))
        for r in range(m):
            val = a * wy[r] - b * vx[r]
            if val != 0:
                out[r + 1][c + 1] = val
    return out


class TraceAdmissible:
    """Trace-zero slice of a composition or Jordan algebra.

    Carries, all in the coordinates of a fixed torus eigenbasis of the
    slice: the star product x * y = x y - t(x y) 1, the normalized trace
    form t(x y), the restricted inner pair derivations with their
    coordinates over a weight-adapted basis of their span, and the span
    coordinates of the split torus itself.
    """

    def __init__(self, tag, amb, vecs, labels, weights, stab, tform, dt,
                 dcoords, dspan, dweights, tor_coords):
        self.tag = tag
        self.amb = amb
        self.vecs = vecs
        self.n0 = len(vecs)
        self.labels = labels
        self.weights = weights
        self.rank = len(weights[0]) if weights else 0
        self.stab = stab
        self.tform = tform
        self.dt = dt
        self.dcoords = dcoords
        self.dspan = dspan
        self.dweights = dweights
        self.tor_coords = tor_coords
        self._int = None      # the int64 tensors of tits._slice_ints
        self._span = None     # the span Lie algebra of tits._span_algebra

    def star(self, i, j):
        return self.stab[i][j]

    def tp(self, i, j):
        return self.tform[i][j]

    def dmat(self, i, j):
        if i == j:
            return la.zeros(self.n0, self.n0)
        if i < j:
            return self.dt[(i, j)]
        return la.mat_scale(-F1, self.dt[(j, i)])


def _x0_labels(tag, amblabels, vecs):
    out = []
    for idx, v in enumerate(vecs):
        nz = [(i, c) for i, c in enumerate(v) if c != 0]
        if len(nz) == 1 and nz[0][1] == 1:
            out.append(amblabels[nz[0][0]])
        elif len(nz) == 2 and nz[0][1] == 1 and nz[1][1] == -1:
            out.append("%s-%s" % (amblabels[nz[0][0]], amblabels[nz[1][0]]))
        elif len(nz) == 2 and nz[0][1] == -1 and nz[1][1] == 1:
            out.append("%s-%s" % (amblabels[nz[1][0]], amblabels[nz[0][0]]))
        else:
            out.append("%s0_%d" % (tag, idx))
    return out


def _amb_int(amb):
    """Dense structure constants as (int64 tensor, common denominator),
    cleared once per algebra."""
    if amb._int is None:
        n = amb.dim
        arr, s = bt.int_rows([cell for row in amb.tab for cell in row], n)
        amb._int = arr.reshape(n, n, n), s
    return amb._int


def _flat(m):
    return [v for row in m for v in row]


def _mat_combo(mats, co):
    out = la.zeros(len(mats[0]), len(mats[0][0]))
    for c, m in zip(co, mats):
        if c != 0:
            out = la.mat_add(out, la.mat_scale(c, m))
    return out


def _vec_combo(vecs, co):
    out = la.zero_vec(len(vecs[0]))
    for c, v in zip(co, vecs):
        if c != 0:
            out = la.vec_add(out, la.vec_scale(c, v))
    return out


def _offdiag(m):
    n = len(m)
    return any(m[r][c] != 0 for r in range(n) for c in range(n) if r != c)


def _pair_maps(amb, b, sb):
    """Ambient pair maps D(v_i, v_j) of the rows v_i = b[i] / sb, as one
    int64 tensor dt[i, j] (a matrix acting on ambient columns) and its
    scale.

    Compositions: (1/4) (ad [a, b] + 3 (R_b L_a - L_a R_b)), the columns
    (1/4) ([[a, b], z] + 3 (a, z, b)) of comp_derivation.  Spin factors:
    z -> phi(v, z) w - phi(w, z) v on the vector part, as _spin_pair_map.
    Other Jordan algebras: [R_x, R_y], as jordan_derivation.
    """
    n = amb.dim
    if isinstance(amb, JordanAlg) and amb.form is not None:
        g, sg = bt.int_rows(amb.form.gram)
        v = b[:, 1:]
        bt.guard_bound(n, v, g)
        gv = v @ g
        bt.guard_bound(2, v, gv)
        dt = np.zeros((len(b), len(b), n, n), dtype=np.int64)
        dt[:, :, 1:, 1:] = (np.einsum('jr,ic->ijrc', v, gv)
                            - np.einsum('ir,jc->ijrc', v, gv))
        return dt, sb * sb * sg
    t, s = _amb_int(amb)
    if isinstance(amb, CompAlg):
        bt.guard_bound(n, b, t)
        lm = np.einsum('ia,azk->ikz', b, t)     # L_{v_i}
        rm = np.einsum('ia,zak->ikz', b, t)     # R_{v_i}
        bt.guard_bound(2 * n, lm, b)
        p2 = np.einsum('ikz,jz->ijk', lm, b)
        comm = p2 - p2.transpose(1, 0, 2)
        bt.guard_bound(4 * n, comm, t)
        bt.guard_bound(12 * n, lm, rm)
        ad = (np.einsum('ijc,czk->ijkz', comm, t)
              - np.einsum('ijc,zck->ijkz', comm, t))
        asc = (np.einsum('jkm,imz->ijkz', rm, lm)
               - np.einsum('ikm,jmz->ijkz', lm, rm))
        return ad + 3 * asc, 4 * (s * sb) ** 2
    r = t.transpose(1, 2, 0)
    bt.guard_bound(n, b, r)
    rb = np.einsum('ia,arc->irc', b, r)
    bt.guard_bound(2 * n, rb, rb)
    m = np.einsum('irs,jst->ijrt', rb, rb)
    return m - m.transpose(1, 0, 2, 3), (s * sb) ** 2


def _pair_tables(amb, tl, vecs, b, sb, bc):
    """Star product, trace form and pair derivation table of the slice.

    One path for every ambient: with the slice basis cleared into int64
    rows b (scale sb), the star product and trace form come from the
    integer table and the pair maps from _pair_maps, and their
    coordinates over the slice from int64 batches through bc.  Returns
    stab, tform, dtfull (Fractions), the antisymmetric int64 tensor dv
    with dv[i, j] = D(i, j) * cs for i < j, its scale cs, and the
    ambient pair maps (dt, sdt).  One slot of each table is checked
    against the direct Fraction implementation.
    """
    tint, s = _amb_int(amb)
    n = amb.dim
    n0 = len(vecs)
    bt.guard_bound(n * n, b, b, tint)
    p2 = np.einsum('ia,jb,abc->ijc', b, b, tint, optimize=True)
    sp2 = sb * sb * s
    tli, st = bt.int_rows([tl])
    bt.guard_bound(n, p2, tli)
    tvals = np.einsum('ijc,c->ij', p2, tli[0])
    ui, su = bt.int_rows([amb.unit])
    bt.guard_bound(2 * st * su, p2)
    bt.guard_bound(2, tvals, ui)
    star = p2 * (st * su) - tvals[:, :, None] * ui[0][None, None, :]
    co, cs = bc.coords_int(star.reshape(n0 * n0, n), sp2 * st * su)
    stab = [[[Fraction(int(co[i * n0 + j, l]), cs) for l in range(n0)]
             for j in range(n0)] for i in range(n0)]
    tform = [[Fraction(int(tvals[i, j]), sp2 * st) for j in range(n0)]
             for i in range(n0)]
    dt, sdt = _pair_maps(amb, b, sb)
    bt.guard_bound(n, dt, b)
    img = np.einsum('ijrc,kc->ijrk', dt, b)
    co2, cs2 = bc.coords_int(
        img.transpose(0, 1, 3, 2).reshape(n0 * n0 * n0, n), sdt * sb)
    # dv[i, j][l][k]: coordinate l of D(i, j) v_k, kept for i < j
    dv = co2.reshape(n0, n0, n0, n0).transpose(0, 1, 3, 2)
    upper = np.triu(np.ones((n0, n0), dtype=bool), 1)
    dv = np.where(upper[:, :, None, None], dv, 0)
    dv = dv - dv.transpose(1, 0, 2, 3)
    frac = {v: Fraction(v, cs2) for v in np.unique(dv).tolist()}
    cols = dv.tolist()
    dtfull = {(i, j): [[frac[v] for v in row] for row in cols[i][j]]
              for i in range(n0) for j in range(i + 1, n0)}
    if n0 >= 2:
        if isinstance(amb, CompAlg):
            direct = comp_derivation
        elif amb.form is not None:
            direct = _spin_pair_map
        else:
            direct = jordan_derivation
        d01 = [[Fraction(x, sdt) for x in row] for row in dt[0, 1].tolist()]
        if d01 != direct(amb, vecs[0], vecs[1]):
            raise ArithmeticError("integer batch disagrees with the direct pair map")
        p = amb.mul(vecs[0], vecs[1])
        if tform[0][1] != la.dot(tl, p):
            raise ArithmeticError("integer batch disagrees with the trace form")
        rec = la.vec_scale(tform[0][1], amb.unit)
        rec = la.vec_add(rec, _vec_combo(vecs, stab[0][1]))
        if rec != p:
            raise ArithmeticError("integer batch disagrees with the star product")
    return stab, tform, dtfull, dv, cs2, (dt, sdt)


def _diagonal_coeffs(dspan0, n0):
    rows = []
    for rr in range(n0):
        for cc in range(n0):
            if rr != cc:
                rows.append([m[rr][cc] for m in dspan0])
    return la.kernel_basis(rows, len(dspan0))


def _toral_search(dspan0):
    """Hunt for a rationally diagonalizable element of the span.

    Tries the basis elements and geometric-coefficient combinations; used
    when no element of the span is diagonal on the natural basis, as for
    the sign-twisted hermitian algebras over k.  Raises ArithmeticError
    when the span has no split part to find.
    """
    ns = len(dspan0)
    cands = [la.basis_vec(ns, i) for i in range(ns)]
    for k in range(2, 30):
        cands.append([Fraction(k) ** i for i in range(ns)])
        cands.append([Fraction(-k) ** i for i in range(ns)])
    for co in cands:
        m = _mat_combo(dspan0, co)
        try:
            split = bt.rational_eigensplit(m)
        except ArithmeticError:
            continue
        if len(split) >= 2:
            return [co]
    raise ArithmeticError("no split torus found in the derivation span")


def _leibniz_check(tint, es):
    """Every int64 map es[s] is a derivation of the int64 table tint:
    E(e_i e_j) - E(e_i) e_j - e_i E(e_j) = 0.  As in _equivariance_check,
    each term is one join of the nonzeros of the maps (E[a][b] = w) and of
    the table (e_i e_j = v e_b) on the index they contract, coded so that
    row + col is the key of (s, i, j, a), and the terms must cancel."""
    n = tint.shape[0]
    bt.guard_bound(3 * n, es, tint)
    s, a, b = np.nonzero(es)
    w, s = es[s, a, b], s * n ** 3
    i, j, c = np.nonzero(tint)
    v = tint[i, j, c]
    joined = [join(*term) for term in (
        ((s + a, b, w), (c, i * n * n + j * n, v)),             # E(e_i e_j)
        ((s + b * n * n, a, -w), (i, j * n + c, v)),            # -E(e_i) e_j
        ((s + b * n, a, -w), (j, i * n * n + c, v)))]           # -e_i E(e_j)
    keys = np.concatenate([row + col for row, col, _ in joined])
    if len(summed(keys, np.concatenate([val for *_, val in joined]))[0]):
        raise ArithmeticError("a spanning pair derivation fails the Leibniz rule")


def _equivariance_check(es, d, n0, chunk=16):
    """Exhaustive check that conjugating a pair derivation by a span
    element matches moving the element into the pair slots,

        E D(i, j) - D(i, j) E = sum_c E[c][i] D(c, j) + E[c][j] D(i, c),

    for every span element E and every pair.  es holds the span elements
    and d the antisymmetric pair table (d[i, j] = D(i, j)), both as int64
    tensors; common scales drop out, since both sides are bilinear in
    (E, D).  Each of the four terms contracts one index of d with one
    index of E: for `chunk` span elements at a time, it is one join of the
    nonzeros of d and of the stacked elements on that index, with each
    side's other indices coded so that row + col is the key of
    (E, i, j, r, s); the four terms must cancel at every key.
    """
    if not len(es):
        return
    bt.guard_bound(4 * n0, es, d)
    n2 = n0 * n0
    i, j, r, s = np.nonzero(d)
    v = d[i, j, r, s]
    for e0 in range(0, len(es), chunk):
        blk = es[e0:e0 + chunk]
        e, a, b = np.nonzero(blk)                   # E[a][b] = w
        w, e = blk[e, a, b], e * n2 * n2
        # (left (row, key, val), right (key, col, val)) per term, signed
        joined = [join(*term) for term in (
            ((e + a * n0, b, w), (r, (i * n0 + j) * n2 + s, v)),        # E D(i,j)
            ((e + b * n0 * n2, a, -w), (i, j * n2 + r * n0 + s, v)),    # -E[c][i] D(c,j)
            (((i * n0 + j) * n2 + r * n0, s, -v), (a, e + b, w)),       # -D(i,j) E
            ((i * n0 * n2 + r * n0 + s, j, -v), (a, e + b * n2, w)))]   # -D(i,c) E[c][j]
        keys = np.concatenate([row + col for row, col, _ in joined])
        if len(summed(keys, np.concatenate([val for *_, val in joined]))[0]):
            raise ArithmeticError("pair derivation map is not equivariant")


def _build_view(amb, tag, tl, vecs, labels, tor_amb, depth):
    if depth > 2:
        raise AssertionError("eigenbasis rebase did not stabilize")
    n0 = len(vecs)
    bc = bt.BatchCoords(vecs)
    b, sb = bt.int_rows(vecs)
    stab, tform, dtfull, dv, cs, (dt, sdt) = _pair_tables(amb, tl, vecs, b, sb, bc)
    pairs = sorted(dtfull)
    flats = dv.reshape(n0, n0, n0 * n0)
    nzpairs = [p for p in pairs if flats[p].any()]
    if nzpairs:
        sel = bt.independent_rows([flats[p].tolist() for p in nzpairs])[0]
        span_pairs = [nzpairs[i] for i in sel]
    else:
        span_pairs = []
    ia, ib = np.array(span_pairs, dtype=np.int64).reshape(-1, 2).T
    dspan0 = [dtfull[p] for p in span_pairs]
    if tor_amb is not None:
        tor, ts = tor_amb
        bt.guard_bound(amb.dim, tor, b)
        img = np.einsum('trc,kc->tkr', tor, b)
        carr, ccs = bc.coords_int(img.reshape(-1, amb.dim), ts * sb)
        tor_res = [[[Fraction(x, ccs) for x in row] for row in blk]
                   for blk in carr.reshape(len(tor), n0, n0)
                   .transpose(0, 2, 1).tolist()]
        if any(_offdiag(t) for t in tor_res):
            raise ArithmeticError("torus stayed non-diagonal after a rebase")
    else:
        coeffs = _diagonal_coeffs(dspan0, n0) if dspan0 else []
        if not coeffs and dspan0:
            coeffs = _toral_search(dspan0)
        tor_res = [_mat_combo(dspan0, co) for co in coeffs]
        if any(_offdiag(t) for t in tor_res):
            # move to a common eigenbasis of the discovered torus, then
            # rebuild every table in the new coordinates
            tint, ts = bt.int_rows([_flat(t) for t in tor_res], n0 * n0)
            vnew, _ = bt.simultaneous_eigenbasis(tint.reshape(-1, n0, n0), ts)
            newvecs = [la.normalize_primitive(_vec_combo(vecs, co))
                       for co in vnew.tolist()]
            ci, sc = bt.int_rows(coeffs)
            bt.guard_bound(len(span_pairs), ci, dt)
            toramb = (np.einsum('tk,krc->trc', ci, dt[ia, ib]), sc * sdt)
            newlabels = ["%s0_%d" % (tag, i) for i in range(n0)]
            return _build_view(amb, tag, tl, newvecs, newlabels, toramb,
                               depth + 1)
    weights = [tuple(t[i][i] for t in tor_res) for i in range(n0)]
    if dspan0:
        # ad t scales the matrix unit E_ab by w_a - w_b when t is
        # diagonal, so the joint eigenspaces of the span are its
        # slices by the weight-difference class of the support; each
        # slice of a span element stays in the span
        byclass = {}
        for a in range(n0):
            for b2 in range(n0):
                mu = tuple(wa - wb for wa, wb in zip(weights[a], weights[b2]))
                byclass.setdefault(mu, []).append((a, b2))
        dspan, dweights = [], []
        for mu in sorted(byclass):
            pos = byclass[mu]
            rows = [r for r in ([m[a][b2] for (a, b2) in pos] for m in dspan0)
                    if any(r)]
            if not rows:
                continue
            for i in bt.independent_rows(rows)[0]:
                piece = la.zeros(n0, n0)
                for (a, b2), v in zip(pos, rows[i]):
                    piece[a][b2] = v
                dspan.append(piece)
                dweights.append(mu)
        if len(dspan) != len(dspan0):
            raise ArithmeticError("weight slices lost derivation rank")
        fbc = bt.BatchCoords([_flat(m) for m in dspan])
        pa, pb = np.array(pairs).T
        carr, ccs = fbc.coords_int(flats[pa, pb], cs)
        dcoords = {p: [Fraction(x, ccs) if x else F0 for x in row]
                   for p, row in zip(pairs, carr.tolist())}
        tor_coords = fbc.coords_rows([_flat(t) for t in tor_res])
    else:
        dspan = []
        dweights = []
        dcoords = {p: [] for p in pairs}
        tor_coords = []
    tint, _ = _amb_int(amb)
    _leibniz_check(tint, dt[ia, ib])
    _equivariance_check(dv[ia, ib], dv, n0)
    return TraceAdmissible(tag, amb, vecs, labels, weights, stab, tform,
                           dtfull, dcoords, dspan, dweights, tor_coords)


@lru_cache(maxsize=None)
def trace_admissible_view(amb):
    """Trace-zero view of a composition or Jordan algebra.

    The normalized trace is half the composition trace, or the generic
    trace over the degree; both make the unit trace to 1 and keep the
    trace form associative.  Spin factors use the bilinear-form pair map
    as their derivation convention; everything else uses the inner pair
    derivations of the ambient algebra (see _pair_maps).  The result is
    cached per object.
    """
    if isinstance(amb, CompAlg):
        tl = [amb.trace(la.basis_vec(amb.dim, i)) * HALF
              for i in range(amb.dim)]
    elif isinstance(amb, JordanAlg):
        tl = [tv / amb.degree for tv in amb.tracev]
    else:
        raise TypeError("expected a composition or Jordan algebra")
    tag = amb.kind
    vecs = la.kernel_basis([tl], amb.dim)
    if not vecs:
        return TraceAdmissible(tag, amb, [], [], [], [], [], {}, {}, [], [], [])
    labels = _x0_labels(tag, amb.labels, vecs)
    return _build_view(amb, tag, tl, vecs, labels, None, 0)
