"""Two-slice derivation-grid Lie algebras and the classical square.

A trace-admissible slice (the trace-zero part of a split composition
algebra or of a suitable Jordan algebra) carries a star product, a
normalized trace form and a span of inner pair derivations.  Two such
slices combine on three blocks, the left derivation span, the tensor
grid of the two slices, and the right derivation span, under five
bracket rules; three cyclic closure identities decide exactly when the
result satisfies the Jacobi identity.  They are the right-span,
left-span and grid components of the Jacobiator on three grid elements,
so one full Jacobi sweep of the assembled algebra decides them all
(check_tits_conditions), and ly_inside_tits refuses a pair that fails
one.  Run over the four split composition algebras against the four
hermitian three by three Jordan algebras, the construction fills the
magic square of simple types.
The associative row has a variant on the full unital Jordan algebra,
isomorphic to the corresponding square cell through an explicit graded
basis map, and a small solver recovers the grid bracket coefficients
from equivariance plus the Jacobi constraints alone, which is how
uniqueness of the bracket up to scalars is certified.
"""

from fractions import Fraction
from math import lcm

import numpy as np
import sympy

from . import buildtools as bt
from . import fastnum
from . import linalg as la
from .algebra import Algebra, LYAlgebra
from .checks import check_lie, transport_equal
from .compjordan import build_composition, build_jordan, trace_admissible_view

F0 = Fraction(0)
F1 = Fraction(1)
F2 = Fraction(2)


def _sparse(vec):
    return [(i, v) for i, v in enumerate(vec) if v != 0]


def _span_algebra(view, name=""):
    """The derivation span of a slice as an abstract Lie algebra.

    operator_algebra_from_basis certifies that the span closes under
    commutator (NotClosedError otherwise).
    """
    return bt.operator_algebra_from_basis(
        [{(a, b): v for a, row in enumerate(m) for b, v in enumerate(row) if v}
         for m in view.dspan], name=name)


def _dco_lookup(view):
    """Signed sparse derivation-pair coordinates as a callable."""
    sp = {k: _sparse(v) for k, v in view.dcoords.items()}

    def co(i, j):
        if i == j:
            return []
        if i < j:
            return sp[(i, j)]
        return [(c, -v) for c, v in sp[(j, i)]]

    return co


def _grid_pair_entries(x, y):
    """Grid bracket terms for every ordered basis pair of the grid.

    Yields (i, j, k, l, dx_ent, grid_ent, dy_ent) with (i, j) < (k, l)
    lexicographically: the left-span part t_y(y_j y_l) D_{x_i, x_k},
    the grid part (x_i * x_k) (x) (y_j * y_l) as ((a, b), coeff) items,
    and the right-span part t_x(x_i x_k) d_{y_j, y_l}.
    """
    nx, ny = x.n0, y.n0
    stx = [[_sparse(x.stab[i][k]) for k in range(nx)] for i in range(nx)]
    sty = [[_sparse(y.stab[j][l]) for l in range(ny)] for j in range(ny)]
    dcox = _dco_lookup(x)
    dcoy = _dco_lookup(y)
    for i in range(nx):
        for j in range(ny):
            for k in range(i, nx):
                for l in range(j + 1 if k == i else 0, ny):
                    c1 = y.tform[j][l]
                    dx_ent = ([(c, c1 * v) for c, v in dcox(i, k)]
                              if c1 != 0 else [])
                    grid_ent = [((a, b), va * vb)
                                for a, va in stx[i][k] for b, vb in sty[j][l]]
                    c2 = x.tform[i][k]
                    dy_ent = ([(c, c2 * v) for c, v in dcoy(j, l)]
                              if c2 != 0 else [])
                    yield i, j, k, l, dx_ent, grid_ent, dy_ent


class TitsAlgebra:
    """Assembled three-block bracket with its ingredient views.

    The basis is the left derivation span, then the tensor grid in row
    major order, then the right derivation span; h_index and m_index
    give the reductive-pair split used by the inner Lie-Yamaguti
    extraction.
    """

    def __init__(self, alg, x, y):
        self.alg = alg
        self.x = x
        self.y = y
        self.nD = len(x.dspan)
        self.nd = len(y.dspan)
        self.ngrid = x.n0 * y.n0
        self.h_index = (list(range(self.nD))
                        + list(range(self.nD + self.ngrid, alg.dim)))
        self.m_index = list(range(self.nD, self.nD + self.ngrid))

    def grid_index(self, i, j):
        return self.nD + i * self.y.n0 + j


def build_tits(x, y, name=""):
    """Three-block algebra of an admissible slice pair, weights attached.

    The caller is responsible for the closure identities; the bracket is
    assembled regardless so that failures can be studied.  Both
    derivation spans must close under commutator (certified here).  The
    attached weights come from the ingredient torus data, so the result
    feeds saturate_torus and classify directly.
    """
    nDx, ndy = len(x.dspan), len(y.dspan)
    nx, ny = x.n0, y.n0
    ngrid = nx * ny
    dim = nDx + ngrid + ndy
    dofs = nDx + ngrid

    def gi(i, j):
        return nDx + i * ny + j

    table = dict(_span_algebra(x).table)
    for (i, j), ent in _span_algebra(y).table.items():
        table[(dofs + i, dofs + j)] = [(dofs + c, v) for c, v in ent]
    # a left derivation moves the left grid leg, a right one the right leg
    for p in range(nDx):
        m = x.dspan[p]
        for i in range(nx):
            col = [(a, m[a][i]) for a in range(nx) if m[a][i] != 0]
            if not col:
                continue
            for j in range(ny):
                table[(p, gi(i, j))] = [(gi(a, j), v) for a, v in col]
    for q in range(ndy):
        m = y.dspan[q]
        for j in range(ny):
            col = [(b, m[b][j]) for b in range(ny) if m[b][j] != 0]
            if not col:
                continue
            for i in range(nx):
                # grid precedes the right span, so store [x(x)y, d]
                table[(gi(i, j), dofs + q)] = [(gi(i, b), -v) for b, v in col]
    for i, j, k, l, dx_ent, grid_ent, dy_ent in _grid_pair_entries(x, y):
        acc = {}
        for c, v in dx_ent:
            acc[c] = acc.get(c, F0) + v
        for (a, b), v in grid_ent:
            t = gi(a, b)
            acc[t] = acc.get(t, F0) + v
        for c, v in dy_ent:
            acc[dofs + c] = acc.get(dofs + c, F0) + v
        ent = sorted((t, v) for t, v in acc.items() if v != 0)
        if ent:
            table[(gi(i, j), gi(k, l))] = ent
    zx = (F0,) * x.rank
    zy = (F0,) * y.rank
    weights = ([w + zy for w in x.dweights]
               + [x.weights[i] + y.weights[j]
                  for i in range(nx) for j in range(ny)]
               + [zx + w for w in y.dweights])
    labels = (["DX%d" % p for p in range(nDx)]
              + ["x%d*y%d" % (i, j) for i in range(nx) for j in range(ny)]
              + ["dY%d" % q for q in range(ndy)])
    alg = Algebra(dim, table, labels=labels,
                  name=name or "tits(%s,%s)" % (x.tag, y.tag))
    alg.weights = weights
    return TitsAlgebra(alg, x, y)


# closure identities


class TitsConditions:
    """Outcome of the three closure identities for a slice pair."""

    def __init__(self, ok, witnesses):
        self.ok = dict(ok)
        self.witnesses = dict(witnesses)

    def passed(self):
        return all(self.ok.values())

    def __repr__(self):
        bits = ", ".join("(%s)=%s" % (k, "pass" if v else "FAIL")
                         for k, v in sorted(self.ok.items()))
        return "<TitsConditions %s>" % bits


def _conditions(t):
    """The three closure identities of an assembled pair, from one sweep.

    On three grid elements the Jacobiator has a right-span, a left-span
    and a grid component, which are the identities (i), (ii) and (iii) on
    those basis triples.  fastnum.jacobi_defects lists every nonzero
    component J(p, q, k)_r, p < q < k, in order, so the first one with r
    in a block is the lex-first failing triple of that identity.  A
    triple with a span element satisfies Jacobi as long as the spans act
    by derivations, which the views certify; a defect there raises
    ArithmeticError.
    """
    n, lo, hi = t.alg.dim, t.nD, t.nD + t.ngrid
    pqk, r = np.divmod(fastnum.jacobi_defects(t.alg), n)
    pq, k = np.divmod(pqk, n)
    p, q = np.divmod(pq, n)
    off = np.flatnonzero((p < lo) | (k >= hi))
    if len(off):
        raise ArithmeticError("Jacobi defect off the grid at %s"
                              % ((int(p[off[0]]), int(q[off[0]]),
                                  int(k[off[0]])),))
    ok, wit = {}, {}
    blocks = {"i": r >= hi, "ii": r < lo, "iii": (r >= lo) & (r < hi)}
    for c, hit in blocks.items():
        first = np.flatnonzero(hit)[:1]
        ok[c] = not len(first)
        wit[c] = None
        if len(first):
            i, j = zip(*(divmod(int(g[first[0]]) - lo, t.y.n0)
                         for g in (p, q, k)))
            wit[c] = {"x": i, "y": j}
    return TitsConditions(ok, wit)


def check_tits_conditions(x, y):
    """Evaluate the three cyclic closure identities for the pair (x, y).

    (i) pairs the left star-trace scalars with right pair derivations,
    (ii) mirrors the sides, and (iii) balances the grid-valued terms.
    They are the right-span, left-span and grid components of the
    Jacobiator of build_tits(x, y) on three grid elements, so one full
    Jacobi sweep of the assembled algebra decides all three exactly over
    all basis triples.  A failing identity comes with its lex-first
    failing grid triple as witness, {"x": (i1, i2, i3), "y": (j1, j2, j3)}
    for the grid elements x_i1 (x) y_j1, x_i2 (x) y_j2 and x_i3 (x) y_j3.
    """
    return _conditions(build_tits(x, y))


# the reductive pair on the grid


def _derivation_entries(view, ordered):
    """Nonzero entries of a slice's pair derivations as int64 columns.

    Returns (i, i2, row, col, val) and a scale s with val / s =
    dmat(i, i2)[row][col], over the pairs i < i2, or over every ordered
    pair i != i2 when `ordered` is set (dmat is antisymmetric).
    """
    prs = sorted(view.dt)
    arr, s = bt.int_rows([[v for row in view.dt[p] for v in row] for p in prs])
    k, cell = np.nonzero(arr)
    val = arr[k, cell]
    pa = np.array(prs, dtype=np.int64).reshape(-1, 2)
    i, i2 = pa[k, 0], pa[k, 1]
    row, col = np.divmod(cell, view.n0)
    if ordered:
        i, i2 = np.concatenate([i, i2]), np.concatenate([i2, i])
        row, col = np.tile(row, 2), np.tile(col, 2)
        val = np.concatenate([val, -val])
    return (i, i2, row, col, val), s


def _kronecker_ternary(x, y):
    """Ternary table of the grid: t(y y') D_{x,x'} (x) 1 + t(x x') 1 (x) d_{y,y'}.

    Grid index i * ny + j stands for x_i (x) y_j.  Every contribution
    (p, q, r, target) is encoded as one int64 and summed after a sort;
    a code meets at most one term of each kind, so the sum of two
    guarded products cannot overflow.  Returns the LYAlgebra int64 table
    (pair, col, val, scale), whose order (pair, r, target) is code order.
    """
    nx, ny = x.n0, y.n0
    dim = nx * ny
    (xi, xi2, xa, xc, xv), sdx = _derivation_entries(x, False)
    (yj, yj2, yb, yc, yv), sdy = _derivation_entries(y, True)
    tx, stx = bt.int_rows(x.tform)
    ty, sty = bt.int_rows(y.tform)
    txa, txb = np.nonzero(tx)
    tya, tyb = np.nonzero(ty)
    den = lcm(sty * sdx, stx * sdy)
    fx, fy = den // (sty * sdx), den // (stx * sdy)
    bt.guard_bound(2 * fx, xv, ty)
    bt.guard_bound(2 * fy, yv, tx)
    # left term: x pairs i < i2 with any right pair j, j2 keep p < q
    pq = (xi[:, None] * ny + tya) * dim + xi2[:, None] * ny + tyb
    j3 = np.arange(ny)
    rt = (xc[:, None] * ny + j3) * dim + xa[:, None] * ny + j3
    codes = [(pq[:, :, None] * dim * dim + rt[:, None, :]).ravel()]
    vals = [np.broadcast_to((xv[:, None] * ty[tya, tyb] * fx)[:, :, None],
                            (len(xv), len(tya), ny)).ravel()]
    # right term: x pairs i <= i2, and j < j2 when i == i2
    e, f = np.nonzero((txa[None, :] < txb[None, :])
                      | ((txa[None, :] == txb[None, :]) & (yj < yj2)[:, None]))
    pq = (txa[f] * ny + yj[e]) * dim + txb[f] * ny + yj2[e]
    i3 = np.arange(nx)
    rt = (i3 * ny + yc[e, None]) * dim + i3 * ny + yb[e, None]
    codes.append((pq[:, None] * dim * dim + rt).ravel())
    vals.append(np.repeat(yv[e] * tx[txa[f], txb[f]] * fy, nx))
    code = np.concatenate(codes)
    val = np.concatenate(vals)
    order = np.argsort(code)
    code, val = code[order], val[order]
    first = np.flatnonzero(np.diff(code, prepend=-1))
    code, val = code[first], np.add.reduceat(val, first)
    nz = val != 0
    pqr, tgt = np.divmod(code[nz], dim)
    pair, r = np.divmod(pqr, dim)
    return pair, tgt * dim + r, val[nz], den


def ly_inside_tits(t):
    """Binary and ternary products induced on the grid block.

    The binary product is the grid part of the bracket.  The ternary one
    brackets the span part back onto a third grid element, which makes
    it the Kronecker sum of the two slices' inner pair derivations
    (Benito, Elduque and Martin-Herce, arXiv 0810.0440; Barton and
    Sudbery, "Magic squares and matrix models of Lie algebras", 2003):

        [x (x) y, x' (x) y', .] = t(y y') D_{x,x'} (x) 1 + t(x x') 1 (x) d_{y,y'}.

    It is assembled from the nonzero entries of the pair derivation
    tables and trace forms in one integer batch over a common
    denominator; the two terms collide only on the diagonal entries of
    D and d, where they are summed, and the algebra keeps that int64
    table (LYAlgebra.ternary_int); the binary table is the grid block of
    t.alg.  The result carries the grid weights and must agree
    constant-by-constant with the generic reductive-pair extraction,
    which the tests enforce.

    The pair must satisfy the closure identities (check_tits_conditions),
    read off one Jacobi sweep of t.alg; otherwise ValueError names the
    first failing identity and its witness.
    """
    co = _conditions(t)
    bad = next((c for c in ("i", "ii", "iii") if not co.ok[c]), None)
    if bad is not None:
        raise ValueError("Tits condition (%s) fails at %s: %s is not a Lie "
                         "algebra" % (bad, co.witnesses[bad], t.alg.name))
    x, y = t.x, t.y
    nx, ny = x.n0, y.n0
    lo, hi = t.nD, t.nD + t.ngrid
    binary = {}
    for (p, q), ent in t.alg.table.items():
        if lo <= p and q < hi:
            grid = [(c - lo, v) for c, v in ent if lo <= c < hi]
            if grid:
                binary[(p - lo, q - lo)] = grid
    labels = ["x%d*y%d" % (i, j) for i in range(nx) for j in range(ny)]
    ly = LYAlgebra(t.ngrid, binary, _kronecker_ternary(x, y), labels=labels,
                   name="ly-inside-%s" % t.alg.name)
    ly.weights = [x.weights[i] + y.weights[j]
                  for i in range(nx) for j in range(ny)]
    return ly


# the associative-row variant on the full unital Jordan algebra


def build_tkk_row(j, name=""):
    """Bracket on (2x2 trace-zero matrices) (x) J plus inner derivations.

    The grid leg runs over the whole unital Jordan algebra, unit slot
    first: commutator in the matrix factor against the Jordan product in
    the other, with twice the matrix trace feeding the pair derivation.
    Weights are attached the same way as in build_tits.
    """
    x = trace_admissible_view(build_composition("Q"))
    y = trace_admissible_view(j)
    nx = x.n0
    nyf = y.n0 + 1
    ndy = len(y.dspan)
    ngrid = nx * nyf
    dim = ngrid + ndy
    dofs = ngrid

    def gi(i, jj):
        return i * nyf + jj

    dcoy = _dco_lookup(y)
    stx = [[_sparse(x.stab[i][k]) for k in range(nx)] for i in range(nx)]
    table = {}
    for (a, b), ent in _span_algebra(y).table.items():
        table[(dofs + a, dofs + b)] = [(dofs + c, v) for c, v in ent]
    for q in range(ndy):
        m = y.dspan[q]
        for jj in range(1, nyf):
            col = [(b, m[b][jj - 1]) for b in range(y.n0) if m[b][jj - 1] != 0]
            if not col:
                continue
            for i in range(nx):
                table[(gi(i, jj), dofs + q)] = [(gi(i, b + 1), -v)
                                                for b, v in col]
    for i in range(nx):
        for jj in range(nyf):
            for k in range(i, nx):
                for ll in range(jj + 1 if k == i else 0, nyf):
                    acc = {}
                    comm = [(c, F2 * v) for c, v in stx[i][k]]
                    if jj == 0 and ll == 0:
                        prod = [(0, F1)]
                    elif jj == 0:
                        prod = [(ll, F1)]
                    elif ll == 0:
                        prod = [(jj, F1)]
                    else:
                        prod = [(0, y.tform[jj - 1][ll - 1])]
                        prod += [(b + 1, v)
                                 for b, v in _sparse(y.stab[jj - 1][ll - 1])]
                    for c, vc in comm:
                        for slot, vp in prod:
                            if vp != 0:
                                tkey = gi(c, slot)
                                acc[tkey] = acc.get(tkey, F0) + vc * vp
                    if jj > 0 and ll > 0:
                        c2 = 4 * x.tform[i][k]
                        if c2 != 0:
                            for c, v in dcoy(jj - 1, ll - 1):
                                acc[dofs + c] = acc.get(dofs + c, F0) + c2 * v
                    ent = sorted((tkey, v) for tkey, v in acc.items()
                                 if v != 0)
                    if ent:
                        table[(gi(i, jj), gi(k, ll))] = ent
    zy = (F0,) * y.rank
    zx = (F0,) * x.rank
    weights = []
    for i in range(nx):
        for jj in range(nyf):
            wy = zy if jj == 0 else y.weights[jj - 1]
            weights.append(x.weights[i] + wy)
    weights += [zx + w for w in y.dweights]
    labels = (["a%d*J%d" % (i, jj) for i in range(nx) for jj in range(nyf)]
              + ["dY%d" % q for q in range(ndy)])
    alg = Algebra(dim, table, labels=labels,
                  name=name or "tkk(%s)" % y.tag)
    alg.weights = weights
    return alg


def tkk_to_tits_map(j):
    """Graded isomorphism data for a degree-three Jordan ingredient.

    Returns (tkk, t, basis_map) where basis_map columns send the tkk
    basis into the three-block algebra: a (x) 1 goes to the commutator
    action of a inside the left span, a (x) x0 doubles onto the grid,
    derivations pass through.  Transport equality is checked by the
    caller through bracket_transport_equal.
    """
    x = trace_admissible_view(build_composition("Q"))
    y = trace_admissible_view(j)
    tk = build_tkk_row(j)
    t = build_tits(x, y)
    nx, ny = x.n0, y.n0
    nyf = ny + 1
    if tk.dim != t.alg.dim:
        raise ValueError("blocks do not line up; is the ingredient degree 3")
    co = bt.BatchCoords([[v for row in m for v in row] for m in x.dspan])
    try:
        adco = co.coords_rows([[F2 * x.stab[i][b][a] for a in range(nx)
                                for b in range(nx)] for i in range(nx)])
    except bt.OutsideSpan:
        raise ArithmeticError("commutator action escaped the left span") from None
    n = tk.dim
    m = [[F0] * n for _ in range(n)]
    for i in range(nx):
        for c, v in enumerate(adco[i]):
            m[c][i * nyf] = v
        for jj in range(1, nyf):
            m[t.grid_index(i, jj - 1)][i * nyf + jj] = F2
    for q in range(t.nd):
        m[t.nD + nx * ny + q][nx * nyf + q] = F1
    return tk, t, m


def bracket_transport_equal(a, b, basis_map):
    """True iff basis_map carries every bracket of a exactly onto b."""
    return transport_equal(a, b, basis_map)


# the sixteen-cell square


def magic_square():
    """Dimension, Jacobi verdict and certified type for every composition
    pair cell.

    Keys are (left kind, right kind) over k, K, Q, O; the right kind
    names the hermitian three by three Jordan ingredient.  "lie" is the
    verdict of the full Jacobi sweep, which classify then reuses.
    """
    from .roots import classify, saturate_torus

    out = {}
    for cx in "kKQO":
        x = trace_admissible_view(build_composition(cx))
        for cy in "kKQO":
            y = trace_admissible_view(build_jordan("H3(%s)" % cy))
            t = build_tits(x, y)
            cell = {"dim": t.alg.dim,
                    "lie": check_lie(t.alg).passed,
                    "type": classify(saturate_torus(t.alg))}
            out[(cx, cy)] = cell
    return out


# equivariant bracket recovery


class ModuleAction:
    """An algebra acting on a module by one sparse matrix per basis element."""

    def __init__(self, h, mdim, mats):
        if len(mats) != h.dim:
            raise ValueError("one action matrix per algebra basis element")
        self.h = h
        self.mdim = mdim
        self.mats = mats
        self.cols = []
        for sp in mats:
            cc = {}
            for (r, c), v in sp.items():
                cc.setdefault(c, []).append((r, v))
            self.cols.append(cc)


def tits_module_data(x, y):
    """Acting algebra, grid action and canonical bracket candidates.

    The acting algebra is the direct sum of the two derivation spans in
    block order (left span first).  The three candidates are the exact
    grid-pair tensors of the assembled bracket: trace-paired left
    derivations, the star grid product, and trace-paired right
    derivations, in that order, so the assembled algebra is recovered
    at coefficients (1, 1, 1).
    """
    nDx, ndy = len(x.dspan), len(y.dspan)
    nx, ny = x.n0, y.n0
    ngrid = nx * ny
    hdim = nDx + ndy

    def gi(i, j):
        return i * ny + j

    h = bt.direct_sum(_span_algebra(x, "Dspan(%s)" % x.tag),
                      _span_algebra(y, "dspan(%s)" % y.tag), name="D+d")
    mats = []
    for p in range(nDx):
        mm = x.dspan[p]
        sp = {}
        for i in range(nx):
            for a in range(nx):
                if mm[a][i] != 0:
                    for j in range(ny):
                        sp[(gi(a, j), gi(i, j))] = mm[a][i]
        mats.append(sp)
    for q in range(ndy):
        mm = y.dspan[q]
        sp = {}
        for j in range(ny):
            for b in range(ny):
                if mm[b][j] != 0:
                    for i in range(nx):
                        sp[(gi(i, b), gi(i, j))] = mm[b][j]
        mats.append(sp)
    cd, cm, cdd = {}, {}, {}
    for i, j, k, l, dx_ent, grid_ent, dy_ent in _grid_pair_entries(x, y):
        key = (gi(i, j), gi(k, l))
        if dx_ent:
            cd[key] = [(c, v) for c, v in dx_ent]
        if grid_ent:
            cm[key] = sorted((hdim + gi(a, b), v) for (a, b), v in grid_ent)
        if dy_ent:
            cdd[key] = [(nDx + c, v) for c, v in dy_ent]
    return h, ModuleAction(h, ngrid, mats), [cd, cdd, cm]


def tensor_action(h, mats1, mats2, n1, n2):
    """Product action of a two-block algebra on the tensor of two columns.

    h must be the direct sum of the algebras the two matrix lists
    represent, left block first; the module index is i*n2 + j.
    """
    if len(mats1) + len(mats2) != h.dim:
        raise ValueError("block sizes do not add up to the acting algebra")
    out = []
    for mm in mats1:
        sp = {}
        for (a, i), v in mm.items():
            for j in range(n2):
                sp[(a * n2 + j, i * n2 + j)] = v
        out.append(sp)
    for mm in mats2:
        sp = {}
        for (b, j), v in mm.items():
            for i in range(n1):
                sp[(i * n2 + b, i * n2 + j)] = v
        out.append(sp)
    return ModuleAction(h, n1 * n2, out)


def form_pair_module_data(f1, f2):
    """Acting algebra, action and form-paired candidates on V1 (x) V2.

    The two candidates pair one form against the skew family of the
    other: the right form times a left family element, then the left
    form times a right one.  Both land in the acting algebra.
    """
    from .matrixalg import phi_map, skew_map_family

    n1, n2 = f1.dim, f2.dim
    a1 = skew_map_family(f1, name="fam1")
    a2 = skew_map_family(f2, name="fam2")
    h = bt.direct_sum(a1, a2, name="fam1+fam2")
    pairs1 = [(i, j) for i in range(n1)
              for j in range(i + (1 if f1.eps == 1 else 0), n1)]
    pairs2 = [(i, j) for i in range(n2)
              for j in range(i + (1 if f2.eps == 1 else 0), n2)]
    pos1 = {p: c for c, p in enumerate(pairs1)}
    pos2 = {p: c for c, p in enumerate(pairs2)}
    mats1 = [phi_map(f1, i, j) for (i, j) in pairs1]
    mats2 = [phi_map(f2, i, j) for (i, j) in pairs2]
    act = tensor_action(h, mats1, mats2, n1, n2)

    def fam_coord(pos, eps, i, j):
        if (i, j) in pos:
            return [(pos[(i, j)], F1)]
        if (j, i) in pos:
            return [(pos[(j, i)], Fraction(-eps))]
        return []

    c1, c2 = {}, {}
    for p in range(n1 * n2):
        i1, j1 = divmod(p, n2)
        for q in range(p + 1, n1 * n2):
            i2, j2 = divmod(q, n2)
            ent = []
            if f2.gram[j1][j2] != 0:
                ent = [(c, f2.gram[j1][j2] * v)
                       for c, v in fam_coord(pos1, f1.eps, i1, i2)]
            if ent:
                c1[(p, q)] = ent
            ent = []
            if f1.gram[i1][i2] != 0:
                ent = [(a1.dim + c, f1.gram[i1][i2] * v)
                       for c, v in fam_coord(pos2, f2.eps, j1, j2)]
            if ent:
                c2[(p, q)] = ent
    return h, act, [c1, c2]


def _spread(n, cap):
    if n <= cap:
        return list(range(n))
    return sorted({round(t * (n - 1) / (cap - 1)) for t in range(cap)})


def _cand_eval(t, p, q):
    if p == q:
        return []
    if p < q:
        return t.get((p, q), [])
    return [(l, -v) for l, v in t.get((q, p), [])]


class EquivSolve:
    """Solution data for the equivariant bracket coefficient problem."""

    def __init__(self, ncand, kernel, equations, branches, symbols):
        self.ncand = ncand
        self.kernel = kernel
        self.equations = equations
        self.branches = branches
        self.symbols = symbols
        self.dims = [len(free) for _, free in branches]

    def family_dim(self):
        return max(self.dims) if self.dims else 0

    def coefficients(self, branch, assign):
        """Exact candidate coefficients at one parameter assignment.

        assign maps free symbols of the chosen branch to rationals; the
        result is the length-ncand coefficient vector as Fractions.
        """
        sol, free = self.branches[branch]
        uvals = []
        for s in self.symbols:
            e = sol.get(s, s)
            e = sympy.sympify(e).subs(assign)
            r = sympy.Rational(e)
            uvals.append(Fraction(int(r.p), int(r.q)))
        out = [F0] * self.ncand
        for k, u in enumerate(uvals):
            if u != 0:
                for i in range(self.ncand):
                    out[i] += u * self.kernel[k][i]
        return out


def solve_equivariant_bracket(h, mod, cands, mprobes=None, hprobes=None):
    """Recover the module bracket coefficients compatible with Jacobi.

    The bracket on the sum of h and its module is fixed on h and on
    mixed pairs; on module pairs it is an unknown combination of the
    candidate tensors.  Stage one collects the linear constraints from
    probe triples with one leg in h (equivariance defects) and keeps
    the kernel.  Stage two expands the module-only Jacobi sum on probe
    triples into exact polynomials in the kernel parameters and hands
    the deduplicated system to sympy.  The returned branches describe
    the solution variety; certification of a chosen point is the
    caller's job (assemble_bracket plus a full Jacobi sweep).
    """
    if not cands:
        raise ValueError("empty candidate span")
    mdim, hdim, nc = mod.mdim, h.dim, len(cands)
    if mprobes is None:
        mprobes = _spread(mdim, 12)
    if hprobes is None:
        hprobes = _spread(hdim, 10)

    def act_out(a, vec_ent):
        """Bracket of h basis element a against a sparse h(+)m vector."""
        out = {}
        for l, v in vec_ent:
            if l < hdim:
                for t, w in h.bk(a, l):
                    out[t] = out.get(t, F0) + v * w
            else:
                for r, w in mod.cols[a].get(l - hdim, []):
                    out[hdim + r] = out.get(hdim + r, F0) + v * w
        return out

    def cand_on_moved(t, moved, q):
        out = {}
        for r, vr in moved:
            for l, v in _cand_eval(t, r, q):
                out[l] = out.get(l, F0) + vr * v
        return out

    conset = set()
    for a in hprobes:
        for pi, p in enumerate(mprobes):
            for q in mprobes[pi + 1:]:
                defects = []
                for t in cands:
                    acc = act_out(a, _cand_eval(t, p, q))
                    for l, v in cand_on_moved(t, mod.cols[a].get(p, []),
                                              q).items():
                        acc[l] = acc.get(l, F0) - v
                    for l, v in cand_on_moved(t, mod.cols[a].get(q, []),
                                              p).items():
                        acc[l] = acc.get(l, F0) + v
                    defects.append(acc)
                support = sorted(set().union(*[d.keys() for d in defects]))
                for l in support:
                    row = tuple(d.get(l, F0) for d in defects)
                    if any(v != 0 for v in row):
                        lead = next(v for v in row if v != 0)
                        conset.add(tuple(v / lead for v in row))
    if conset:
        kernel = la.kernel_basis([list(r) for r in sorted(conset)], nc)
    else:
        kernel = [la.basis_vec(nc, i) for i in range(nc)]
    k0 = len(kernel)
    if k0 == 0:
        return EquivSolve(nc, kernel, [], [({}, [])], [])

    # linear forms over the kernel parameters for each probe bracket
    def lin_bracket(p, q):
        out = {}
        for i in range(nc):
            for l, v in _cand_eval(cands[i], p, q):
                for k in range(k0):
                    c = kernel[k][i] * v
                    if c != 0:
                        slot = out.setdefault(l, {})
                        slot[(k,)] = slot.get((k,), F0) + c
        return out

    cache = {}

    def lb(p, q):
        if p == q:
            return {}
        key = (p, q) if p < q else (q, p)
        if key not in cache:
            cache[key] = lin_bracket(*key)
        base = cache[key]
        if p < q:
            return base
        return {l: {mn: -v for mn, v in poly.items()}
                for l, poly in base.items()}

    def addmul(dst, poly, factor, extra=()):
        for mn, v in poly.items():
            key = tuple(sorted(mn + extra))
            nv = dst.get(key, F0) + v * factor
            if nv == 0:
                dst.pop(key, None)
            else:
                dst[key] = nv

    eqset = set()
    for ai, a in enumerate(mprobes):
        for bi, b in enumerate(mprobes[ai + 1:], ai + 1):
            for c in mprobes[bi + 1:]:
                acc = {}
                for (p, q, r) in ((a, b, c), (b, c, a), (c, a, b)):
                    for l, poly in lb(p, q).items():
                        if l < hdim:
                            for rr, w in mod.cols[l].get(r, []):
                                slot = acc.setdefault(hdim + rr, {})
                                addmul(slot, poly, w)
                        else:
                            for i in range(nc):
                                for l2, v2 in _cand_eval(cands[i],
                                                         l - hdim, r):
                                    for k in range(k0):
                                        cc = kernel[k][i] * v2
                                        if cc != 0:
                                            slot = acc.setdefault(l2, {})
                                            addmul(slot, poly, cc, (k,))
                for slot in acc.values():
                    items = sorted(slot.items())
                    if not items:
                        continue
                    lead = items[0][1]
                    eqset.add(tuple((mn, v / lead) for mn, v in items))
    us = list(sympy.symbols("u0:%d" % k0))
    exprs = []
    for poly in sorted(eqset):
        e = sympy.Integer(0)
        for mn, co in poly:
            term = sympy.Rational(co.numerator, co.denominator)
            for k in mn:
                term = term * us[k]
            e = e + term
        exprs.append(sympy.expand(e))
    if exprs:
        sols = sympy.solve(exprs, us, dict=True)
    else:
        sols = [dict()]
    branches = []
    for sol in sols:
        free = sorted({s for s in us if s not in sol},
                      key=lambda s: s.name)
        branches.append((sol, free))
    return EquivSolve(nc, kernel, exprs, branches, us)


def assemble_bracket(h, mod, cands, coeffs, name=""):
    """Algebra on h (+) module with the chosen candidate combination."""
    hdim, mdim = h.dim, mod.mdim
    dim = hdim + mdim
    table = {}
    for key, ent in h.table.items():
        table[key] = list(ent)
    for a in range(hdim):
        for c, col in mod.cols[a].items():
            ent = sorted((hdim + r, v) for r, v in col)
            if ent:
                table[(a, hdim + c)] = ent
    for p in range(mdim):
        for q in range(p + 1, mdim):
            acc = {}
            for i, ci in enumerate(coeffs):
                if ci == 0:
                    continue
                for l, v in cands[i].get((p, q), []):
                    acc[l] = acc.get(l, F0) + ci * v
            ent = sorted((l, v) for l, v in acc.items() if v != 0)
            if ent:
                table[(hdim + p, hdim + q)] = ent
    return Algebra(dim, table, name=name or "assembled")
