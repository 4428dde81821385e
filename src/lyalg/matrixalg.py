"""Classical matrix Lie algebras and the three tensor-space families.

The orthogonal and symplectic algebras are realized on split bilinear
forms (hyperbolic planes, plus a one-dimensional tail in odd dimension),
so each one comes with a torus that acts diagonally on the natural basis.
The three reductive-pair families on V1 (+) V2, sl2 (x) sym0(V2) and
sl(V1) (x) sl(V2) are produced directly from their closed product
formulas, with exact rational coefficients.  The two tensor families
share one builder: the trace form and the span coordinates of each
factor's anticommutators and double brackets are computed once per
factor (_FactorTable, every coordinate checked exactly), and the tensor
products are then index loops over the two tables.
"""

from fractions import Fraction
from itertools import combinations

from . import linalg as la
from .algebra import Algebra, LYAlgebra
from .buildtools import (BatchCoords, OutsideSpan, SpMat,
                         operator_algebra_from_basis, simultaneous_eigenbasis,
                         sp_commutator, sp_mul)
from .checks import transport_equal

F0 = Fraction(0)
F1 = Fraction(1)
F2 = Fraction(2)


class BilinForm:
    """Nondegenerate bilinear form, symmetric (eps=1) or skew (eps=-1)."""

    def __init__(self, gram: la.Matrix, eps: int):
        if eps not in (1, -1):
            raise ValueError("eps must be +-1")
        n = len(gram)
        for i in range(n):
            for j in range(n):
                if gram[i][j] != eps * gram[j][i]:
                    raise ValueError("gram matrix has the wrong symmetry")
        if la.rank(gram) != n:
            raise ValueError("form is degenerate")
        self.gram = [[Fraction(v) for v in row] for row in gram]
        self.eps = eps
        self.dim = n

    def apply(self, u: la.Vec, v: la.Vec) -> Fraction:
        return sum((u[i] * self.gram[i][j] * v[j]
                    for i in range(self.dim) for j in range(self.dim)), F0)


def split_sym_form(n: int, tail: int = 1) -> BilinForm:
    return BilinForm(la.sym_split_gram(n, tail=tail), 1)


def split_skew_form(n: int) -> BilinForm:
    return BilinForm(la.skew_split_gram(n), -1)


def form_torus_weights(form: BilinForm):
    """Per-V-basis-vector weight tuples for the standard torus of the
    split form: hyperbolic pair a contributes (+1, -1) in slot a."""
    m = form.dim // 2
    out = []
    for i in range(form.dim):
        w = [F0] * m
        if i < 2 * m:
            w[i // 2] = F1 if i % 2 == 0 else -F1
        out.append(tuple(w))
    return m, out


def phi_map(form: BilinForm, i: int, j: int) -> SpMat:
    """The map z -> phi(e_i, z) e_j - eps phi(e_j, z) e_i as a matrix."""
    out: SpMat = {}
    for c in range(form.dim):
        if form.gram[i][c] != 0:
            out[(j, c)] = out.get((j, c), F0) + form.gram[i][c]
        if form.gram[j][c] != 0:
            out[(i, c)] = out.get((i, c), F0) - form.eps * form.gram[j][c]
    return {k: v for k, v in out.items() if v != 0}


def skew_map_family(form: BilinForm, name: str = "") -> Algebra:
    """so(V, phi) or sp(V, phi) on its phi_{v,w} basis, torus included."""
    n = form.dim
    pairs = [(i, j) for i in range(n) for j in range(i + (1 if form.eps == 1 else 0), n)]
    mats = [phi_map(form, i, j) for (i, j) in pairs]
    r, vw = form_torus_weights(form)
    weights = [tuple(a + b for a, b in zip(vw[i], vw[j])) for (i, j) in pairs]
    cartan = []
    for a in range(r):
        idx = pairs.index((2 * a, 2 * a + 1))
        h = la.zero_vec(len(pairs))
        h[idx] = -F1
        cartan.append(h)
    labels = ["phi(%d,%d)" % p for p in pairs]
    return operator_algebra_from_basis(mats, labels=labels, name=name,
                                       weights=weights, cartan=cartan)


def sl_ops(n: int):
    """Operator basis of sl(n): the n-1 simple coroot diagonals first,
    then off-diagonal units.  Returns (mats, labels, weights, cartan)."""
    mats = []
    labels = []
    weights = []
    for t in range(n - 1):
        mats.append({(t, t): F1, (t + 1, t + 1): -F1})
        labels.append("h%d" % t)
        weights.append(tuple([F0] * (n - 1)))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            mats.append({(i, j): F1})
            labels.append("E(%d,%d)" % (i, j))
            w = []
            for t in range(n - 1):
                w.append(Fraction((1 if i == t else (-1 if i == t + 1 else 0))
                                  - (1 if j == t else (-1 if j == t + 1 else 0))))
            weights.append(tuple(w))
    cartan = [la.basis_vec(len(mats), t) for t in range(n - 1)]
    return mats, labels, weights, cartan


def build_matrix_lie(kind: str, n: int, tail: int = 1, name: str = "") -> Algebra:
    """Split classical Lie algebra on its canonical operator basis."""
    if kind == "sl":
        mats, labels, weights, cartan = sl_ops(n)
        return operator_algebra_from_basis(mats, labels=labels,
                                           name=name or "sl%d" % n,
                                           weights=weights, cartan=cartan)
    if kind == "gl":
        mats = []
        labels = []
        weights = []
        for i in range(n):
            for j in range(n):
                mats.append({(i, j): F1})
                labels.append("E(%d,%d)" % (i, j))
                weights.append(tuple(Fraction((1 if i == t else 0)
                                              - (1 if j == t else 0))
                                     for t in range(n)))
        cartan = [la.basis_vec(n * n, i * n + i) for i in range(n)]
        return operator_algebra_from_basis(mats, labels=labels,
                                           name=name or "gl%d" % n,
                                           weights=weights, cartan=cartan)
    if kind == "so":
        return skew_map_family(split_sym_form(n, tail=tail),
                               name=name or "so%d" % n)
    if kind == "sp":
        if n % 2:
            raise ValueError("sp needs an even-dimensional space")
        return skew_map_family(split_skew_form(n), name=name or "sp%d" % n)
    raise ValueError("unknown kind %r" % kind)


def lts_orthosymplectic_sum(form1: BilinForm, form2: BilinForm,
                            name: str = "") -> LYAlgebra:
    """Lie triple system V1 (x) V2 inside skew(V1 (+) V2).

    Binary product is zero; the ternary product applies the form-pair maps
    componentwise.  Reducible parameter ranges are built anyway and noted.
    """
    if form1.eps != form2.eps:
        raise ValueError("forms must share eps")
    eps = Fraction(form1.eps)
    n1, n2 = form1.dim, form2.dim
    g1, g2 = form1.gram, form2.gram

    def idx(a, b):
        return a * n2 + b

    ternary = {}
    dim = n1 * n2
    for i in range(dim):
        a1, b1 = divmod(i, n2)
        for j in range(i + 1, dim):
            a2, b2 = divmod(j, n2)
            for k in range(dim):
                a3, b3 = divmod(k, n2)
                acc: dict[int, Fraction] = {}
                c = g2[b1][b2]
                if c != 0:
                    if g1[a1][a3] != 0:
                        l = idx(a2, b3)
                        acc[l] = acc.get(l, F0) + c * g1[a1][a3]
                    if g1[a2][a3] != 0:
                        l = idx(a1, b3)
                        acc[l] = acc.get(l, F0) - eps * c * g1[a2][a3]
                c = g1[a1][a2]
                if c != 0:
                    if g2[b1][b3] != 0:
                        l = idx(a3, b2)
                        acc[l] = acc.get(l, F0) + c * g2[b1][b3]
                    if g2[b2][b3] != 0:
                        l = idx(a3, b1)
                        acc[l] = acc.get(l, F0) - eps * c * g2[b2][b3]
                ent = sorted((l, v) for l, v in acc.items() if v != 0)
                if ent:
                    ternary[(i, j, k)] = ent
    labels = ["x%d*y%d" % divmod(i, n2) for i in range(dim)]
    ly = LYAlgebra(dim, {}, ternary, labels=labels, name=name)
    r1, vw1 = form_torus_weights(form1)
    r2, vw2 = form_torus_weights(form2)
    ly.weights = [vw1[i // n2] + vw2[i % n2] for i in range(dim)]
    if form1.eps == 1 and (n1 == 2 or (n1 == 1 and n2 <= 2)):
        ly.notes.append("reducible module for the even part")
    return ly


def _sp_trace_mul(a: SpMat, b: SpMat) -> Fraction:
    return sum((v * b[(c, r)] for (r, c), v in a.items() if (c, r) in b), F0)


def sym0_basis(form: BilinForm):
    """Weight-adapted basis of the trace-zero phi-symmetric maps.

    Solved from the defining equations, then refined into a simultaneous
    eigenbasis of the standard torus of skew(V, phi).  Returns
    (mats, weight tuples).
    """
    n = form.dim
    g = form.gram
    eqs = []
    # f^T G = G f, entry by entry, over row-major unknowns f[r][c]
    for i in range(n):
        for j in range(n):
            row = la.zero_vec(n * n)
            for k in range(n):
                row[k * n + i] += g[k][j]
                row[k * n + j] -= g[i][k]
            eqs.append(row)
    tr = la.zero_vec(n * n)
    for r in range(n):
        tr[r * n + r] = F1
    eqs.append(tr)
    ker = la.kernel_basis(eqs)
    m, _ = form_torus_weights(form)
    hmats = [{k: -v for k, v in phi_map(form, 2 * a, 2 * a + 1).items()}
             for a in range(m)]
    kmats = [{divmod(i, n): x for i, x in enumerate(v) if x} for v in ker]
    solver = BatchCoords(kmats)
    restricted = []
    for h in hmats:
        try:
            cols = solver.coords_rows([sp_commutator(h, fm) for fm in kmats])
        except OutsideSpan:
            raise ArithmeticError("torus does not preserve sym0") from None
        restricted.append(la.transpose(cols))
    vecs, tups = simultaneous_eigenbasis(restricted)
    mats = []
    for co in vecs:
        flat = la.zero_vec(n * n)
        for c, kv in zip(co, ker):
            if c != 0:
                flat = [x + c * y for x, y in zip(flat, kv)]
        flat = la.normalize_primitive(flat)
        mats.append({(r, c): flat[r * n + c] for r in range(n)
                     for c in range(n) if flat[r * n + c] != 0})
    return mats, tups


class _FactorTable:
    """Structure data of one tensor factor, computed once per factor.

    For a basis x_a of trace-zero operators on an n-dim space: the trace
    form tr(x_a x_b), and the coordinates (sparse (index, value) lists) of
    the traceless anticommutator x_a x_b + x_b x_a - (2/n) tr(x_a x_b) 1
    and of the double brackets [[x_a, x_b], x_c].  The coordinates of
    (1/2)[x_a, x_b] are computed on demand, because [x_a, x_b] need not
    lie in the span (it does not for sym0).  The anticommutators and the
    double brackets each take one coords_rows batch of the factor's
    BatchCoords; a coordinate outside the span raises ArithmeticError.
    """

    def __init__(self, mats, weights, n: int, side: str, span: str):
        nb = len(mats)
        self.dim = nb
        self.weights = weights
        self.inv = Fraction(1, n)
        self.mats = mats
        self.solver = BatchCoords(mats)
        self.escaped = "%s factor escaped %s" % (side, span)
        self.tr = [[_sp_trace_mul(a, b) for b in mats] for a in mats]
        self.anti = [[None] * nb for _ in range(nb)]
        self.dbl = [[[[]] * nb] * nb for _ in range(nb)]
        self._half = {}
        sym = [(a, b) for a in range(nb) for b in range(a, nb)]
        antis = []
        for a, b in sym:
            m = sp_mul(mats[a], mats[b])
            for k, v in sp_mul(mats[b], mats[a]).items():
                m[k] = m.get(k, F0) + v
            shift = 2 * self.inv * self.tr[a][b]
            if shift != 0:
                for d in range(n):
                    m[(d, d)] = m.get((d, d), F0) - shift
            antis.append(m)
        for (a, b), co in zip(sym, self.coords(antis)):
            self.anti[a][b] = self.anti[b][a] = co
        skew = list(combinations(range(nb), 2))
        comms = [sp_commutator(mats[a], mats[b]) for a, b in skew]
        dbl = self.coords([sp_commutator(cm, x) for cm in comms for x in mats])
        for p, (a, b) in enumerate(skew):
            self.dbl[a][b] = dbl[p * nb:(p + 1) * nb]
            self.dbl[b][a] = [[(c, -v) for c, v in co]
                              for co in self.dbl[a][b]]

    def coords(self, ms: list[SpMat]):
        """Sparse coordinates of each map; ArithmeticError outside the span."""
        try:
            rows = self.solver.coords_rows(ms)
        except OutsideSpan:
            raise ArithmeticError(self.escaped) from None
        return [[(c, v) for c, v in enumerate(co) if v] for co in rows]

    def half_comm(self, a: int, b: int):
        """Coordinates of (1/2)[x_a, x_b]."""
        if a > b:
            return [(c, -v) for c, v in self.half_comm(b, a)]
        if (a, b) not in self._half:
            co = self.coords([sp_commutator(self.mats[a], self.mats[b])])[0]
            self._half[(a, b)] = [(c, v / 2) for c, v in co]
        return self._half[(a, b)]


def _sl_factor(n: int, side: str) -> _FactorTable:
    mats, _, weights, _ = sl_ops(n)
    return _FactorTable(mats, weights, n, side, "sl")


def _add_tensor(acc: dict, ca, cf, nf: int):
    for s, va in ca:
        for t, vf in cf:
            l = s * nf + t
            acc[l] = acc.get(l, F0) + va * vf


def _tensor_ly(left: _FactorTable, right: _FactorTable, name: str) -> LYAlgebra:
    """LY-algebra on left (x) right from the closed product formulas.

    With a (x) f the basis vectors (index s * nf + t):
      [a (x) f, a' (x) f'] = (1/2)[a, a'] (x) (f f' + f' f)_0
                             + (a a' + a' a)_0 (x) (1/2)[f, f'],
      [a (x) f, a' (x) f', a'' (x) f''] = (1/n2) tr(f f') [[a, a'], a''] (x) f''
                             + (1/n1) tr(a a') a'' (x) [[f, f'], f''],
    where ( )_0 removes the trace over the factor's n-dim space.
    """
    na, nf = left.dim, right.dim
    dim = na * nf
    binary = {}
    ternary = {}
    for i in range(dim):
        s1, t1 = divmod(i, nf)
        for j in range(i + 1, dim):
            s2, t2 = divmod(j, nf)
            acc: dict[int, Fraction] = {}
            _add_tensor(acc, left.half_comm(s1, s2), right.anti[t1][t2], nf)
            if left.anti[s1][s2]:
                _add_tensor(acc, left.anti[s1][s2], right.half_comm(t1, t2), nf)
            ent = sorted((l, v) for l, v in acc.items() if v != 0)
            if ent:
                binary[(i, j)] = ent
            cl = right.tr[t1][t2] * right.inv
            cr = left.tr[s1][s2] * left.inv
            if cl == 0 and cr == 0:
                continue
            dl, dr = left.dbl[s1][s2], right.dbl[t1][t2]
            for k in range(dim):
                s3, t3 = divmod(k, nf)
                acc = {}
                if cl != 0:
                    for s, v in dl[s3]:
                        acc[s * nf + t3] = v * cl
                if cr != 0:
                    for t, v in dr[t3]:
                        l = s3 * nf + t
                        acc[l] = acc.get(l, F0) + v * cr
                ent = sorted((l, v) for l, v in acc.items() if v != 0)
                if ent:
                    ternary[(i, j, k)] = ent
    labels = ["a%d*f%d" % divmod(i, nf) for i in range(dim)]
    ly = LYAlgebra(dim, binary, ternary, labels=labels, name=name)
    ly.weights = [left.weights[i // nf] + right.weights[i % nf]
                  for i in range(dim)]
    return ly


SL2_OPS = [
    {(0, 0): F1, (1, 1): -F1},        # h
    {(0, 1): F1},                     # e
    {(1, 0): F1},                     # f
]
SL2_WEIGHTS = [(F0,), (F2,), (-F2,)]


def ly_sp_tensor_sym(n2: int, eps2: int, name: str = "") -> LYAlgebra:
    """LY-algebra sl2 (x) sym0(V2) from the closed product formulas.

    This is the sl(V1) (x) sl(V2) formula with V1 of dim 2, where the
    traceless anticommutator of sl2 vanishes."""
    if eps2 == -1 and (n2 % 2 or n2 < 4):
        raise ValueError("skew V2 needs even dimension >= 4")
    if eps2 == 1 and n2 < 3:
        raise ValueError("symmetric V2 needs dimension >= 3")
    form2 = split_sym_form(n2) if eps2 == 1 else split_skew_form(n2)
    fmats, fweights = sym0_basis(form2)
    return _tensor_ly(_FactorTable(SL2_OPS, SL2_WEIGHTS, 2, "left", "sl2"),
                      _FactorTable(fmats, fweights, n2, "right", "sym0"),
                      name)


def ly_sl_tensor_sl(n1: int, n2: int, name: str = "") -> LYAlgebra:
    """LY-algebra sl(V1) (x) sl(V2) from the closed product formulas."""
    if not (2 <= n1 <= n2):
        raise ValueError("need 2 <= n1 <= n2")
    return _tensor_ly(_sl_factor(n1, "left"), _sl_factor(n2, "right"), name)


def check_coincidence(a: LYAlgebra, b: LYAlgebra, basis_map: la.Matrix) -> bool:
    """True iff basis_map carries both products of a exactly onto b."""
    return transport_equal(a, b, basis_map)
