"""Split composition algebras, Jordan algebras, and their trace-zero views.

Every ambient algebra is held as its int64 structure constants (_Tabled),
and everything is verified at construction time, exactly: each identity
is an array equality of integer contractions or joins, every product
guarded by buildtools.guard_bound (OverflowError rather than a wrong
answer).  Composition builders check the unit laws, the polarized degree
two equation, polarized norm multiplicativity on all basis 4-tuples, the
associative trace form and alternativity.  The hermitian Jordan tables
are formed from the integer composition table, with the scalar-diagonal
and hermitian conditions checked as array equalities; Jordan builders
check the associativity of the generic trace form and the linearized
Jordan identity, a sparse sweep of joins over the sorted triples.

The trace-zero view packages what the two-ingredient Lie algebra
constructions consume, as int64 tensors: the star product and normalized
trace form in a torus eigenbasis, and the inner pair derivations by
their coordinates over a basis of weight vectors of their span.  One
integer path serves every ambient: the pair maps of all slice pairs form
one int64 tensor (_pair_maps), from the composition table for
compositions, as [R_x, R_y] for hermitian Jordan algebras and from the
form for spin factors, and one slot is checked against the direct
Fraction implementation.  Each view is one pass (_build_view): its span
basis is the first independent pair maps, which one select finds with
every pair map's coordinates, and it certifies that they are
derivations and that its pair derivation table is equivariant.
"""

import re
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import buildtools as bt
from . import linalg as la
from .fastnum import SWEEP_BLOCK, blocks, join, lowest_terms, summed
from .linalg import F0, F1
from .matrixalg import split_sym_form

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def _frozen(arr, scale):
    """(arr, scale) in lowest terms, read-only."""
    arr, scale = lowest_terms(arr, scale)
    arr.setflags(write=False)
    return arr, scale


def _fractions(arr, scale):
    """arr / scale as nested lists of Fractions, one Fraction per distinct
    value."""
    vals, inv = np.unique(arr, return_inverse=True)
    frac = np.array([Fraction(v, scale) for v in vals.tolist()], dtype=object)
    return frac[inv.reshape(-1)].reshape(arr.shape).tolist()


class _Tabled:
    """An algebra held as its int64 structure constants _int = (t, s),
    e_i e_j = sum_k t[i, j, k] e_k / s, _frozen: the one source form, given
    as such a pair or cleared from Fraction lists tab[i][j][k].  tab is
    derived from it once, for mul and the tests.  Instances are read-only;
    the builders cache and share them."""

    def __init__(self, tab):
        if not isinstance(tab, tuple):
            n = len(tab)
            t, s = bt.int_rows([cell for row in tab for cell in row], n)
            tab = t.reshape(n, n, n), s
        self._int = _frozen(*tab)
        self.dim = len(self._int[0])

    @cached_property
    def tab(self):
        return _fractions(*self._int)

    def mul(self, x, y):
        out = la.zero_vec(self.dim)
        for i, xi in enumerate(x):
            for j, yj in enumerate(y if xi else ()):
                for k, cv in enumerate(self.tab[i][j] if yj else ()):
                    if cv:
                        out[k] += xi * yj * cv
        return out


class CompAlg(_Tabled):
    """Unital algebra over Q whose quadratic norm admits composition.

    gram is the polar form of the norm, so n(x) = gram(x, x) / 2 and
    tr(x) = gram(x, 1); the trace vector gram(., 1) is computed once.
    Instances are built through build_composition.
    """

    def __init__(self, kind, tab, gram, unit, labels):
        super().__init__(tab)
        self.kind = kind
        self.gram = gram
        self.unit = unit
        self.labels = labels
        self._trv = la.mat_vec(gram, unit)

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
    t, s = c._int
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


class JordanAlg(_Tabled):
    """Commutative unital algebra over Q with a generic trace functional.

    tracev holds the values of the generic trace on the basis, normalized
    so the unit traces to the degree.  form, when set, is the bilinear
    form of a spin factor and switches the pair derivation convention in
    the trace-zero view.  Treat instances as read-only.
    """

    def __init__(self, kind, tab, degree, tracev, unit, labels,
                 form=None, signs=None):
        super().__init__(tab)
        self.kind = kind
        self.degree = degree
        self.tracev = tracev
        self.unit = unit
        self.labels = labels
        self.form = form
        self.signs = signs

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
    t, s = j._int
    (u,), su = bt.int_rows([j.unit])
    bt.guard_bound(n, u, t)
    bt.guard_bound(1, [s], [su])
    if not np.array_equal(np.einsum('a,akc->kc', u, t),
                          np.eye(n, dtype=np.int64) * (s * su)):
        raise ValueError("unit law fails")
    if not np.array_equal(t, t.transpose(1, 0, 2)):
        raise ValueError("product is not commutative")
    if j.gentrace(j.unit) != j.degree:
        raise ValueError("the unit must trace to the degree")
    (tv,), _ = bt.int_rows([j.tracev])
    bt.guard_bound(n, t, tv)
    tf = np.einsum('ijc,c->ij', t, tv)
    if not np.array_equal(tf, tf.T):
        raise ValueError("trace form is not symmetric")
    bt.guard_bound(n, t, tf)
    if not np.array_equal(np.einsum('ijc,ck->ijk', t, tf),
                          np.einsum('jkc,ic->ijk', t, tf)):
        raise ValueError("trace form is not associative")
    _jordan_identity(t)


def _jordan_identity(t):
    """The linearized Jordan identity [R_i, R_jk] + [R_j, R_ki] + [R_k, R_ij]
    = 0 on every sorted triple i <= j <= k, from the int64 table of a
    commutative product (R_x e_b = e_b e_x, R_jk = R_{e_j e_k}).

    Summed over the ordered triples, [R_i, R_jk] is a positive multiple of
    that sum, so R_jk is one join of the table with R for j <= k (j < k
    counted twice), and R_i R_jk and R_jk R_i two more, coded by (sorted
    triple, row, col) and summed in blocks of the smallest index p (p = i
    when i <= j, else j), as fastnum.jacobi_violation sweeps.  Every
    product is guarded; ValueError names the lex-first failing triple.
    """
    n = len(t)
    if n ** 5 >= 1 << 63:
        raise OverflowError("Jordan identity sweep keys would overflow int64")
    b, x, a = np.nonzero(t)                         # R_x[a][b] = v
    v = t[b, x, a]
    up = b <= x                                     # e_j e_k = v e_a, j <= k
    bt.guard_bound(2 * n, v, v)
    jk, ab, jv = join(((b * n + x)[up], a[up], v[up] * (1 + (b < x)[up])),
                      (x, a * n + b, v))
    code, w = summed(jk * n * n + ab, jv)
    (j, k), (ja, jb) = np.divmod(code // (n * n), n), np.divmod(code % (n * n), n)
    bt.guard_bound(6 * n, v, w)
    # products per entry: R_i R_jk joins R's column with R_jk's row, and
    # R_jk R_i joins R_jk's column with R's row
    cnt = [np.bincount(z, minlength=n) for z in (ja, jb, b, a)]
    load = (np.bincount(x, cnt[0][b] + cnt[1][a], minlength=n)
            + np.bincount(j, cnt[2][ja] + cnt[3][jb], minlength=n))
    er, ej = np.arange(len(x)), np.arange(len(j))
    for p0, p1 in blocks(load, SWEEP_BLOCK):
        keys, vals = [], []
        for rm, jm, own in (((x >= p0) & (x < p1), j >= p0, True),    # p = i <= j
                            (x > p0, (j >= p0) & (j < p1), False)):   # p = j < i
            r1, q1, v1 = join((er[rm], b[rm], v[rm]), (ja[jm], ej[jm], w[jm]))
            q2, r2, v2 = join((ej[jm], jb[jm], w[jm]), (a[rm], er[rm], v[rm]))
            r, q = np.concatenate([r1, r2]), np.concatenate([q1, q2])
            i, jj, kk = x[r], j[q], k[q]
            lo, hi = np.minimum(i, jj), np.maximum(i, kk)
            code = ((lo * n + i + jj + kk - lo - hi) * n + hi) * n * n
            keep = (i <= jj) == own
            keys.append((code + np.concatenate([a[r1], ja[q2]]) * n
                         + np.concatenate([jb[q1], b[r2]]))[keep])
            vals.append(np.concatenate([v1, -v2])[keep])
        bad = summed(np.concatenate(keys), np.concatenate(vals))[0]
        if len(bad):
            raise ValueError("Jordan identity fails on the basis triple %s" % (
                tuple(int(z) for z in np.unravel_index(bad[0] // (n * n), (n,) * 3)),))


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
    t, s = c._int
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
    return co, scale * int(u[uidx])


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


SliceInts = namedtuple("SliceInts", "star tform dco dspan")


def pair_map_tensor(ints):
    """The pair derivations of a slice as one int64 tensor D[i, k, a, r],
    D(x_i, x_k) x_r = sum_a D[i, k, a, r] x_a, from their coordinates over
    the span (SliceInts), with its scale."""
    (dco, sc), (dsp, sd) = ints.dco, ints.dspan
    bt.guard_bound(len(dsp), dco, dsp)
    return np.einsum('ikc,car->ikar', dco, dsp), sc * sd


class TraceAdmissible:
    """Trace-zero slice of a composition or Jordan algebra, in a torus
    eigenbasis vecs with its weights.  Its one source form is `ints`, int64
    tensors _frozen with their scales: star[i, k, a] (coordinate a of
    x_i * x_k = x_i x_k - t(x_i x_k) 1), tform[i, k] (the trace form
    t(x_i x_k)), dco[i, k, c] (coordinate c of the pair derivation
    D(x_i, x_k) over a weight-adapted basis of their span, antisymmetric)
    and dspan[c, a, i] (entry (a, i) of span element c, of weight
    dweights[c]).  Every reader takes these tensors; nspan is the
    dimension of the span."""

    def __init__(self, tag, amb, vecs, labels, weights, dweights, ints):
        self.tag = tag
        self.amb = amb
        self.vecs = vecs
        self.n0 = len(vecs)
        self.labels = labels
        self.weights = weights
        self.rank = len(weights[0]) if weights else 0
        self.dweights = dweights
        self.ints = ints
        self.nspan = len(ints.dspan[0])
        self._span = None     # the span Lie algebra of tits._span_algebra


def _x0_labels(tag, amblabels, vecs):
    out = []
    for idx, v in enumerate(vecs):
        nz = sorted(((c, i) for i, c in enumerate(v) if c), reverse=True)
        if [c for c, _ in nz] in ([1], [1, -1]):
            out.append("-".join(amblabels[i] for _, i in nz))
        else:
            out.append("%s0_%d" % (tag, idx))
    return out


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
    t, s = amb._int
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


def _pair_action(amb, vecs, b, sb, bc):
    """The pair derivations acting on the slice with basis vecs (int64
    rows b, scale sb), and one select of the first independent ones.

    The images of the basis under the ambient maps D(v_i, v_j), i < j, of
    _pair_maps get their coordinates from one int64 batch through bc, and
    the slot D(v_0, v_1) is checked against the direct Fraction
    implementation.  Returns the antisymmetric tensor dv, dv[i, j][l][k]
    the coordinate l of D(v_i, v_j) v_k, and its scale; the chosen maps
    es = dv[i, j] and their ambient maps (matrices on ambient columns);
    and select's (pu, pv, x, d): the pairs of the nonzero maps, and x with
    row p d times the coordinates of map p over es.
    """
    n0 = len(vecs)
    dt, sdt = _pair_maps(amb, b, sb)
    if n0 >= 2:
        direct = (comp_derivation if isinstance(amb, CompAlg) else
                  _spin_pair_map if amb.form is not None else jordan_derivation)
        d01 = [[Fraction(x, sdt) for x in row] for row in dt[0, 1].tolist()]
        if d01 != direct(amb, vecs[0], vecs[1]):
            raise ArithmeticError("integer batch disagrees with the direct pair map")
    bt.guard_bound(amb.dim, dt, b)
    iu, ju = np.triu_indices(n0, 1)
    img = np.einsum('prc,kc->pkr', dt[iu, ju], b)
    co, cs = bc.coords_int(img.reshape(-1, amb.dim), sdt * sb)
    dv = np.zeros((n0, n0, n0, n0), dtype=np.int64)
    dv[iu, ju] = co.reshape(-1, n0, n0).transpose(0, 2, 1)
    dv[ju, iu] = -dv[iu, ju]
    flats = dv.reshape(n0, n0, n0 * n0)[iu, ju]
    nz = np.flatnonzero(flats.any(axis=1))
    sel, x, d = nz, np.zeros((0, 0), dtype=np.int64), 1
    if len(nz):
        span, sel, x = bt._exact(bt.select, flats[nz])
        d = span.d
    pu, pv = iu[nz], ju[nz]
    return dv, cs, dv[pu[sel], pv[sel]], dt[pu[sel], pv[sel]], (pu, pv, x, d)


def _pair_tables(amb, tl, vecs, b, sb, bc):
    """Star product and trace form of the slice, each with its scale:
    star[i, j, l], the coordinate l of v_i * v_j, from the integer table
    and one int64 batch through bc, and the trace form t(v_i v_j).  One
    slot of each is checked against the direct Fraction implementation.
    """
    tint, s = amb._int
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
    if n0 >= 2:
        p = amb.mul(vecs[0], vecs[1])
        t01 = Fraction(int(tvals[0, 1]), sp2 * st)
        if t01 != la.dot(tl, p):
            raise ArithmeticError("integer batch disagrees with the trace form")
        rec = la.vec_add(la.vec_scale(t01, amb.unit), la.mat_vec(
            la.transpose(vecs), [Fraction(x, cs) for x in co[1].tolist()]))
        if rec != p:
            raise ArithmeticError("integer batch disagrees with the star product")
    return (co.reshape(n0, n0, n0), cs), (tvals, sp2 * st)


def _diagonal_coeffs(es):
    """The combinations of the int64 maps es that are diagonal: the
    la.kernel_basis of their distinct off-diagonal entry rows."""
    n0 = es.shape[1]
    rows = es[:, ~np.eye(n0, dtype=bool)].T
    return la.kernel_basis(np.unique(rows, axis=0).tolist(), len(es))


def _toral_search(es, cs):
    """The certified eigenbasis (vectors, tuples) of simultaneous_eigenbasis
    for the first int64 map es[k] (scale cs) that it splits over Q into two
    or more eigenspaces.  Used when no element of the span is diagonal, as
    for the sign-twisted hermitian algebras over k; raises ArithmeticError
    when no map splits, and lets the split's OverflowError (a refusal)
    through.
    """
    for k in range(len(es)):
        try:
            vectors, tuples = bt.simultaneous_eigenbasis(es[k:k + 1], cs)
        except OverflowError:
            raise
        except ArithmeticError:
            continue
        if len(set(tuples)) >= 2:
            return vectors, tuples
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


def _build_view(amb, tag, tl, vecs, labels):
    """The view of the slice spanned by vecs, in one pass with no rebuild:

    1. the pair action and one select of the spanning pair maps;
    2. a split torus in their span: the diagonal combinations
       (_diagonal_coeffs), else the first map that splits (_toral_search);
    3. if it is not diagonal, its certified eigenbasis becomes the slice
       basis, its eigenvalue tuples the weights, and only the pair action
       (with its select) is recomputed there;
    4. the star product and trace form, the Leibniz rule and equivariance;
    5. the span basis: the torus is diagonal and the table equivariant, so
       each spanning map is a weight vector; they are stably grouped by
       weight-difference class, and select's coordinates permuted alike.
    """
    n0 = len(vecs)
    b, sb = bt.int_rows(vecs)
    bc = bt.BatchCoords(b, sb)
    dv, cs, es, dts, (pu, pv, x, d) = _pair_action(amb, vecs, b, sb, bc)
    coeffs = _diagonal_coeffs(es) if len(es) else []
    if coeffs or not len(es):
        ci, sc = bt.int_rows(coeffs, len(es))
        bt.guard_bound(len(es), ci, es)
        wts, tsc = np.einsum('tk,kaa->at', ci, es), sc * cs
    else:
        vnew, tuples = _toral_search(es, cs)
        wts, tsc = bt.int_rows(tuples)
        bt.guard_bound(n0, vnew, b)
        b, sb = bt.primitive_rows(vnew @ b), 1
        vecs = [[Fraction(v) for v in row] for row in b.tolist()]
        labels = ["%s0_%d" % (tag, i) for i in range(n0)]
        bc = bt.BatchCoords(b, sb)
        dv, cs, es, dts, (pu, pv, x, d) = _pair_action(amb, vecs, b, sb, bc)
    star, tform = _pair_tables(amb, tl, vecs, b, sb, bc)
    _leibniz_check(amb._int[0], dts)
    _equivariance_check(es, dv, n0)
    # ad t scales the matrix unit E_ab by w_a - w_b for a diagonal t, and
    # equivariance gives [t, D(v_i, v_j)] = (w_i + w_j) D(v_i, v_j)
    classes, cls = np.unique((wts[:, None] - wts[None]).reshape(n0 * n0, -1),
                             axis=0, return_inverse=True)
    cls = cls.reshape(-1)
    supp = es.reshape(len(es), n0 * n0) != 0
    kc = cls[supp.argmax(axis=1)]
    if (supp & (cls != kc[:, None])).any():
        raise ArithmeticError("a spanning pair map is not a weight vector")
    order = np.argsort(kc, kind="stable")
    dco = np.zeros((n0, n0, len(es)), dtype=np.int64)
    dco[pu, pv] = x[:, order]
    dco[pv, pu] = -dco[pu, pv]
    weights = [tuple(w) for w in _fractions(wts, tsc)]
    dweights = [tuple(w) for w in _fractions(classes[kc[order]], tsc)]
    ints = SliceInts(_frozen(*star), _frozen(*tform), _frozen(dco, d),
                     _frozen(es[order], cs))
    return TraceAdmissible(tag, amb, vecs, labels, weights, dweights, ints)


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
        empty = (_frozen(np.zeros((0,) * d, dtype=np.int64), 1) for d in (3, 2, 3, 3))
        return TraceAdmissible(tag, amb, [], [], [], [], SliceInts(*empty))
    labels = _x0_labels(tag, amb.labels, vecs)
    return _build_view(amb, tag, tl, vecs, labels)
