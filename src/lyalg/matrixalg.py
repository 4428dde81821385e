"""Classical matrix Lie algebras and the three tensor-space families.

The orthogonal and symplectic algebras are realized on split bilinear
forms (hyperbolic planes, plus a one-dimensional tail in odd dimension),
so each one comes with a torus that acts diagonally on the natural basis.
The three reductive-pair families on V1 (+) V2, sl2 (x) sym0(V2) and
sl(V1) (x) sl(V2) are produced directly from their closed product
formulas, with exact rational coefficients.  Each is a tensor product
whose ternary product is one Kronecker sum, built by the Kronecker
builder in buildtools that the Tits grid uses too: the orthosymplectic
sum pairs each form's pair maps with the other Gram matrix, and the
two tensor families pair each factor's double brackets with the other
trace form.  A factor's trace form, anticommutator and double-bracket
coordinates are int64 tensors from its dense maps, each set from one
certified span solve (_Factor).  The ternary product stays an int64
table; the Fraction dict is never built.
"""

from fractions import Fraction

import numpy as np

from . import buildtools as bt
from . import linalg as la
from .algebra import Algebra, LYAlgebra, table_to_dict
from .buildtools import SpMat, operator_algebra_from_basis, simultaneous_eigenbasis
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


def form_pairs(form: BilinForm) -> list[tuple[int, int]]:
    """The (i, j) of the phi_{e_i,e_j} basis of so or sp: i < j, or i <= j
    for a skew form."""
    n = form.dim
    return [(i, j) for i in range(n) for j in range(i + (form.eps == 1), n)]


def skew_map_family(form: BilinForm, name: str = "") -> Algebra:
    """so(V, phi) or sp(V, phi) on its phi_{v,w} basis, torus included."""
    pairs = form_pairs(form)
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


def _form_maps(form: BilinForm):
    """The form-pair maps phi_{e_a,e_b} as the int64 tensor D[a, b, t, c] =
    g(a, c) [t = b] - eps g(b, c) [t = a], and the Gram matrix g, each
    with its scale."""
    g, s = bt.int_rows(form.gram, form.dim)
    bt.guard_bound(2, g)
    e = np.eye(form.dim, dtype=np.int64)
    d = np.einsum("ac,bt->abtc", g, e) - form.eps * np.einsum("bc,at->abtc", g, e)
    return (d, s), (g, s)


def lts_orthosymplectic_sum(form1: BilinForm, form2: BilinForm,
                            name: str = "") -> LYAlgebra:
    """Lie triple system V1 (x) V2 inside skew(V1 (+) V2).

    Binary product is zero; the ternary product applies the form-pair maps
    componentwise, each paired with the other factor's Gram matrix in the
    Kronecker sum (buildtools.kronecker_ternary).  Reducible parameter
    ranges are built anyway and noted.
    """
    if form1.eps != form2.eps:
        raise ValueError("forms must share eps")
    n1, n2 = form1.dim, form2.dim
    dim = n1 * n2
    ternary = bt.kronecker_ternary(*_form_maps(form1), *_form_maps(form2))
    labels = ["x%d*y%d" % divmod(i, n2) for i in range(dim)]
    ly = LYAlgebra(dim, {}, ternary, labels=labels, name=name)
    r1, vw1 = form_torus_weights(form1)
    r2, vw2 = form_torus_weights(form2)
    ly.weights = [vw1[i // n2] + vw2[i % n2] for i in range(dim)]
    if form1.eps == 1 and (n1 == 2 or (n1 == 1 and n2 <= 2)):
        ly.notes.append("reducible module for the even part")
    return ly


def sym0_basis(form: BilinForm):
    """Weight-adapted basis of the trace-zero phi-symmetric maps.

    Solved from the defining equations in int64, then refined into a
    simultaneous eigenbasis of the standard torus of skew(V, phi), whose
    action on the solutions is read off one Span solve.  Returns
    (mats, weight tuples).
    """
    n = form.dim
    (d, sd), (g, _) = _form_maps(form)       # guards 2 |g|
    e = np.eye(n, dtype=np.int64)
    # f^T G = G f, entry (i, j), over row-major unknowns f[k][l]; then tr f = 0
    eqs = np.einsum("kj,li->ijkl", g, e) - np.einsum("ik,lj->ijkl", g, e)
    ker = la.kernel_basis(eqs.reshape(n * n, n * n).tolist() + [e.ravel().tolist()])
    # the torus h_a = -phi_{e_2a,e_2a+1} acting on the kernel, from one Span solve
    a = np.arange(form_torus_weights(form)[0])
    k, _ = bt.int_rows(ker)
    h, f = -d[2 * a, 2 * a + 1], k.reshape(-1, n, n)
    bt.guard_bound(2 * n, h, f)
    span = bt.Span(k)
    x, bad = span.solve((np.einsum("art,ktc->akrc", h, f)
                         - np.einsum("krt,atc->akrc", f, h)).reshape(-1, n * n))
    if bad.any():
        raise ArithmeticError("torus does not preserve sym0")
    ops = x.reshape(len(a), len(ker), -1).transpose(0, 2, 1)
    vecs, tups = simultaneous_eigenbasis(ops, span.d * sd)
    bt.guard_bound(len(ker), vecs, k)
    flats = bt.primitive_rows(vecs @ k)
    mats = [{divmod(int(q), n): Fraction(int(flat[q])) for q in np.flatnonzero(flat)}
            for flat in flats]
    return mats, tups


class _Factor:
    """Structure tensors of one tensor factor, in int64 with their scales.

    For a basis x_a of trace-zero operators on an n-dim space: form is
    (1/n) tr(x_a x_b), anti[a, b, c] the coordinate c of the traceless
    anticommutator x_a x_b + x_b x_a - (2/n) tr(x_a x_b) 1, and
    dbl[a, b, c, r] the coordinate c of the double bracket [[x_a, x_b],
    x_r].  Every product comes from the dense int64 maps under one
    guard, and each set of coordinates from one Span solve, whose
    reconstruction check refuses (ArithmeticError) a coordinate outside
    the span.  The coordinates of (1/2)[x_a, x_b] come on demand (half),
    because [x_a, x_b] need not lie in the span (it does not for sym0).
    """

    def __init__(self, mats, weights, n: int, side: str, span: str):
        nb = len(mats)
        flat, self.s = bt.int_rows([{r * n + c: v for (r, c), v in m.items()}
                                    for m in mats], n * n)
        self.weights = weights
        self.span = bt.Span(flat)
        self.escaped = "%s factor escaped %s" % (side, span)
        m = flat.reshape(nb, n, n)
        bt.guard_bound(4 * n * n, m, m, m)       # bounds every product below
        prod = np.einsum("arc,bcd->abrd", m, m)
        tr = np.einsum("abrr->ab", prod)
        self.form = tr, n * self.s ** 2
        anti = n * (prod + prod.transpose(1, 0, 2, 3))
        anti -= 2 * tr[:, :, None, None] * np.eye(n, dtype=np.int64)
        self.anti = self.coords(anti, n * self.s ** 2)
        self.comm = prod - prod.transpose(1, 0, 2, 3)
        dbl, sd = self.coords(np.einsum("abrd,cde->abcre", self.comm, m)
                              - np.einsum("crd,abde->abcre", m, self.comm), self.s ** 3)
        self.dbl = dbl.transpose(0, 1, 3, 2), sd

    def coords(self, q, sq: int):
        """(x, scale): the coordinates x / scale over the basis of the maps
        q / sq, one map per entry of the leading axes of q."""
        x, bad = self.span.solve(q.reshape(-1, q.shape[-1] ** 2))
        if bad.any():
            raise ArithmeticError(self.escaped)
        return x.reshape(q.shape[:-2] + (-1,)), self.span.d * sq // self.s

    def half(self):
        """The coordinates of (1/2)[x_a, x_b], with their scale."""
        x, sc = self.coords(self.comm, self.s ** 2)
        return x, 2 * sc


def _tensor_ly(left: _Factor, right: _Factor, name: str) -> LYAlgebra:
    """LY-algebra on left (x) right from the closed product formulas.

    With a (x) f the basis vectors (index s * nf + t):
      [a (x) f, a' (x) f'] = (1/2)[a, a'] (x) (f f' + f' f)_0
                             + (a a' + a' a)_0 (x) (1/2)[f, f'],
      [a (x) f, a' (x) f', a'' (x) f''] = (1/n2) tr(f f') [[a, a'], a''] (x) f''
                             + (1/n1) tr(a a') a'' (x) [[f, f'], f''],
    where ( )_0 removes the trace over the factor's n-dim space.  The
    binary product is the two Kronecker batches (buildtools.kron), the
    second half taken only where the anticommutators do not vanish, and
    the ternary one is buildtools.kronecker_ternary.
    """
    na, nf = len(left.weights), len(right.weights)
    dim = na * nf
    terms = []
    if right.anti[0].any():
        terms.append((left.half(), right.anti))
    if left.anti[0].any():
        terms.append((left.anti, right.half()))
    parts = [(*bt.kron(xa, ya, 0), sx * sy) for (xa, sx), (ya, sy) in terms]
    binary = table_to_dict(bt.pair_table(dim, parts), dim, 2)
    ternary = bt.kronecker_ternary(left.dbl, left.form, right.dbl, right.form)
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
    return _tensor_ly(_Factor(SL2_OPS, SL2_WEIGHTS, 2, "left", "sl2"),
                      _Factor(fmats, fweights, n2, "right", "sym0"), name)


def ly_sl_tensor_sl(n1: int, n2: int, name: str = "") -> LYAlgebra:
    """LY-algebra sl(V1) (x) sl(V2) from the closed product formulas."""
    if not (2 <= n1 <= n2):
        raise ValueError("need 2 <= n1 <= n2")
    def factor(n, side):
        mats, _, weights, _ = sl_ops(n)
        return _Factor(mats, weights, n, side, "sl")

    return _tensor_ly(factor(n1, "left"), factor(n2, "right"), name)


def check_coincidence(a: LYAlgebra, b: LYAlgebra, basis_map: la.Matrix) -> bool:
    """True iff basis_map carries both products of a exactly onto b."""
    return transport_equal(a, b, basis_map)
