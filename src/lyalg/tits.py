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
The bracket is built as one guarded int64 batch (_assemble), never as a
Fraction dict: the span blocks are the span algebras' int64 tables,
shifted, the derivation actions come from the nonzeros of the spans,
and the grid block is the Kronecker batch of the slices' int64 star,
trace and derivation-coordinate tensors (_grid_terms), which each view
holds as its source form (TraceAdmissible.ints).  The result is an
Algebra holding its int64 table (Algebra.table_int), which the sweeps,
the Killing form, io and ly_inside_tits read directly; the grid's
ternary product and the form-paired candidates come from the same
Kronecker builder in buildtools that the matrix tensor families use.
The associative row has a variant on the full unital Jordan algebra
(build_tkk_row, on the same batch with the unit slot added),
isomorphic to the corresponding square cell through an explicit graded
basis map, and a small solver recovers the grid bracket coefficients
from equivariance plus the Jacobi constraints alone, which is how
uniqueness of the bracket up to scalars is certified.  It reads every
constraint off full Jacobi sweeps, every triple and no sample, of the
int64 algebra on h (+) m assembled at chosen coefficients.  Rescaling
the module by c multiplies the h-valued coefficients by c^2 and the
m-valued one by c, so the Jacobi constraints are two exact linear
systems, at c = 0 and at c = 1; the solver answers with a linear family
or with the scale family c^2 a_1 + c e_m, and refuses (ValueError) when
the m-valued part leaves more than one direction or one scale does not
describe the solutions at c = 1.
"""

from fractions import Fraction
from math import lcm

import numpy as np

from . import buildtools as bt
from . import fastnum
from . import linalg as la
from .algebra import Algebra, LYAlgebra, dict_to_table, table_to_dict
from .checks import check_lie, transport_equal
from .compjordan import (SliceInts, build_composition, build_jordan, pair_map_tensor,
                         trace_admissible_view, unital_product)

F0 = Fraction(0)
F1 = Fraction(1)
F2 = Fraction(2)


def _span_maps(view):
    """The derivation span of a slice as sparse matrices {(row, col): v},
    from its int64 tensor."""
    dsp, sd = view.ints.dspan
    maps = [{} for _ in dsp]
    for c, a, b in zip(*np.nonzero(dsp)):
        maps[c][(int(a), int(b))] = Fraction(int(dsp[c, a, b]), sd)
    return maps


def _span_algebra(view):
    """The derivation span of a slice as an abstract Lie algebra, built
    once per view and kept on it.

    operator_algebra_from_basis certifies that the span closes under
    commutator (NotClosedError otherwise).
    """
    if view._span is None:
        view._span = bt.operator_algebra_from_basis(_span_maps(view),
                                                    name="dspan(%s)" % view.tag)
    return view._span


def _grid_terms(xs, ys, left, grid, right):
    """The grid-grid block of the bracket of two slices, term by term,

        [x_i (x) y_j, x_k (x) y_l] = t(y_j y_l) D_{x_i,x_k}
            + (x_i * x_k) (x) (y_j * y_l) + t(x_i x_k) d_{y_j,y_l},

    with D_c at target left + c, x_a (x) y_b at grid + a ny + b and d_c at
    right + c.  Returns one (p, q, target, val, scale) batch per term, over
    the grid-local pairs p < q, from the slices' int64 tensors (SliceInts)."""
    out = []
    for (xa, sx), (ya, sy), base in ((xs.dco, ys.tform, left),
                                     (xs.star, ys.star, grid),
                                     (xs.tform, ys.dco, right)):
        out.append((*bt.kron(np.atleast_3d(xa), np.atleast_3d(ya), base), sx * sy))
    return out


def _assemble(xs, ys, xspan, yspan):
    """Dimension and int64 table of the three-block algebra of two slices.

    The basis is the left span (the Lie algebra xspan), the grid, x_i (x)
    y_j at nD + i ny + j, and the right span (yspan).  The span blocks are
    the spans' tables, shifted; a left derivation moves the left grid leg
    and a right one the right leg (stored as [x (x) y, d]); the grid block
    is _grid_terms.  One guarded int64 batch over a common scale.
    """
    nx, ny = len(xs.tform[0]), len(ys.tform[0])
    (dx, sx), (dy, sy) = xs.dspan, ys.dspan
    g0, d0 = len(dx), len(dx) + nx * ny
    dim = d0 + len(dy)
    parts = []
    for span, off in ((xspan, 0), (yspan, d0)):
        pair, tgt, val, s = span.table_int
        a, b = np.divmod(pair, span.dim)
        parts.append((a + off, b + off, tgt + off, val, s))
    c, a, i = np.nonzero(dx)
    j = np.arange(ny)
    left = (g0 + i[:, None] * ny + j, g0 + a[:, None] * ny + j)
    parts.append((np.repeat(c, ny), *(x.ravel() for x in left),
                  np.repeat(dx[c, a, i], ny), sx))
    c, b, j = np.nonzero(dy)
    i = g0 + np.arange(nx)[:, None] * ny
    shape = (nx, len(c))
    parts.append(((i + j).ravel(), np.broadcast_to(d0 + c, shape).ravel(),
                  (i + b).ravel(), np.broadcast_to(-dy[c, b, j], shape).ravel(), sy))
    parts += [(p + g0, q + g0, t, v, s) for p, q, t, v, s in _grid_terms(xs, ys, 0, g0, d0)]
    return dim, bt.pair_table(dim, parts)


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
        self.nD = x.nspan
        self.nd = y.nspan
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
    nDx, ndy = x.nspan, y.nspan
    nx, ny = x.n0, y.n0
    dim, table = _assemble(x.ints, y.ints,
                           _span_algebra(x), _span_algebra(y))
    zx = (F0,) * x.rank
    zy = (F0,) * y.rank
    weights = ([w + zy for w in x.dweights]
               + [wx + wy for wx in x.weights for wy in y.weights]
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
    pqk, r = np.divmod(fastnum.jacobi_defects(t.alg)[0], n)
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


def ly_inside_tits(t):
    """Binary and ternary products induced on the grid block.

    The binary product is the grid part of the bracket.  The ternary one
    brackets the span part back onto a third grid element, which makes
    it the Kronecker sum of the two slices' inner pair derivations
    (Benito, Elduque and Martin-Herce, arXiv 0810.0440; Barton and
    Sudbery, "Magic squares and matrix models of Lie algebras", 2003):

        [x (x) y, x' (x) y', .] = t(y y') D_{x,x'} (x) 1 + t(x x') 1 (x) d_{y,y'}.

    The shared Kronecker builder (buildtools.kronecker_ternary) assembles
    it from the pair maps of the slices' int64 tensors and their trace
    forms in one integer batch, and the algebra keeps that int64 table
    (LYAlgebra.ternary_int); the binary table is the grid block of
    t.alg.table_int.  The result carries the grid weights and must agree
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
    n, lo, m = t.alg.dim, t.nD, t.ngrid
    pair, tgt, val, s = t.alg.table_int
    p, q = np.divmod(pair, n)
    on = (p >= lo) & (q < lo + m) & (tgt >= lo) & (tgt < lo + m)
    binary = table_to_dict(((p[on] - lo) * m + q[on] - lo, tgt[on] - lo, val[on], s), m, 2)
    labels = ["x%d*y%d" % (i, j) for i in range(nx) for j in range(ny)]
    xs, ys = x.ints, y.ints
    ternary = bt.kronecker_ternary(pair_map_tensor(xs), xs.tform,
                                   pair_map_tensor(ys), ys.tform)
    ly = LYAlgebra(t.ngrid, binary, ternary, labels=labels,
                   name="ly-inside-%s" % t.alg.name)
    ly.weights = [x.weights[i] + y.weights[j]
                  for i in range(nx) for j in range(ny)]
    return ly


# the associative-row variant on the full unital Jordan algebra


def _unital(ys):
    """The tensors of a Jordan slice J0 extended to J = Q 1 + J0, unit slot
    first: the star product becomes the Jordan product (unital_product),
    and the derivations kill the unit.  The trace form is zero here: it
    only meets left derivations, which the tkk row has none of."""
    n = len(ys.tform[0]) + 1
    (dco, sc), (dsp, sd) = ys.dco, ys.dspan
    return SliceInts(unital_product(ys), (np.zeros((n, n), dtype=np.int64), 1),
                     (np.pad(dco, ((1, 0), (1, 0), (0, 0))), sc),
                     (np.pad(dsp, ((0, 0), (1, 0), (1, 0))), sd))


def build_tkk_row(j, name=""):
    """Bracket on (2x2 trace-zero matrices) (x) J plus inner derivations.

    The grid leg runs over the whole unital Jordan algebra, unit slot
    first: commutator in the matrix factor against the Jordan product in
    the other, with twice the matrix trace feeding the pair derivation.
    Weights are attached the same way as in build_tits.
    """
    x = trace_admissible_view(build_composition("Q"))
    y = trace_admissible_view(j)
    nx, nyf, ndy = x.n0, y.n0 + 1, y.nspan
    (sx, ssx), (tx, stx), (dco, _), (dsp, _) = x.ints
    bt.guard_bound(4, sx)
    bt.guard_bound(4, tx)
    # the matrix leg brackets by the commutator 2 a * b and pairs the
    # right span by 4 t(a b); it has no span block of its own
    xs = SliceInts((2 * sx, ssx), (4 * tx, stx), (dco[:, :, :0], 1), (dsp[:0], 1))
    dim, table = _assemble(xs, _unital(y.ints), Algebra(0, {}),
                           _span_algebra(y))
    wy = [(F0,) * y.rank] + y.weights          # the unit has weight 0
    weights = ([wx + w for wx in x.weights for w in wy]
               + [(F0,) * x.rank + w for w in y.dweights])
    labels = (["a%d*J%d" % (i, jj) for i in range(nx) for jj in range(nyf)]
              + ["dY%d" % q for q in range(ndy)])
    alg = Algebra(dim, table, labels=labels,
                  name=name or "tkk(%s)" % y.tag)
    alg.weights = weights
    return alg


def tkk_to_tits_map(j):
    """Graded isomorphism data from the tkk row of a Jordan ingredient j
    onto the three-block algebra T(Q, J0) of its trace-zero view.

    Returns (tkk, t, basis_map) where basis_map columns send the tkk
    basis into the three-block algebra: a (x) 1 goes to the commutator
    action of a inside the left span, a (x) x0 doubles onto the grid,
    derivations pass through.  The commutator actions, 2 star[i, b, a]
    at entry (a, b), get their coordinates over the left span from one
    Span solve on its int64 tensor; ArithmeticError if one leaves the
    span.  Transport equality is checked by the caller through
    bracket_transport_equal.
    """
    x = trace_admissible_view(build_composition("Q"))
    y = trace_admissible_view(j)
    tk = build_tkk_row(j)
    t = build_tits(x, y)
    nx, ny = x.n0, y.n0
    nyf = ny + 1
    (sx, ssx), (dsp, sd) = x.ints.star, x.ints.dspan
    bt.guard_bound(2, sx)
    span = bt.Span(dsp.reshape(len(dsp), -1))
    co, bad = span.solve(2 * sx.transpose(0, 2, 1).reshape(nx, -1))
    if bad.any():
        raise ArithmeticError("commutator action escaped the left span")
    n = tk.dim
    m = [[F0] * n for _ in range(n)]
    for i, row in enumerate(co.tolist()):
        for c, v in enumerate(row):
            m[c][i * nyf] = Fraction(v * sd, span.d * ssx)
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
    """An algebra acting on a module by one sparse matrix per basis
    element: mats[a][(r, c)] = v puts v m_r in [h_a, m_c]."""

    def __init__(self, h, mdim, mats):
        if len(mats) != h.dim:
            raise ValueError("one action matrix per algebra basis element")
        self.h = h
        self.mdim = mdim
        self.mats = mats


def tits_module_data(x, y):
    """Acting algebra, grid action and canonical bracket candidates.

    The acting algebra is the direct sum of the two derivation spans in
    block order (left span first).  The three candidates are the exact
    grid-pair tensors of the assembled bracket: trace-paired left
    derivations, the star grid product, and trace-paired right
    derivations, in that order, so the assembled algebra is recovered
    at coefficients (1, 1, 1).
    """
    h = bt.direct_sum(_span_algebra(x), _span_algebra(y), name="D+d")
    D = h.dim + x.n0 * y.n0
    cd, cm, cdd = (table_to_dict(bt.pair_table(D, [term]), D, 2) for term in
                   _grid_terms(x.ints, y.ints, 0, h.dim, x.nspan))
    mod = tensor_action(h, _span_maps(x), _span_maps(y), x.n0, y.n0)
    return h, mod, [cd, cdd, cm]


def tensor_action(h, mats1, mats2, n1, n2):
    """Product action of a two-block algebra on the tensor of two columns.

    h must be the direct sum of the algebras the two matrix lists
    represent, left block first; the module index is i*n2 + j.
    """
    if len(mats1) + len(mats2) != h.dim:
        raise ValueError("block sizes do not add up to the acting algebra")
    out = [{(a * n2 + j, i * n2 + j): v for (a, i), v in mm.items() for j in range(n2)}
           for mm in mats1]
    out += [{(i * n2 + b, i * n2 + j): v for (b, j), v in mm.items() for i in range(n1)}
            for mm in mats2]
    return ModuleAction(h, n1 * n2, out)


def _family_coords(form, pairs):
    """F[i, k, c]: phi_{e_i,e_k} over the family basis phi_{pairs[c]},
    with phi_{e_k,e_i} = -eps phi_{e_i,e_k}."""
    f = np.zeros((form.dim, form.dim, len(pairs)), dtype=np.int64)
    (i, k), c = np.array(pairs, dtype=np.int64).reshape(-1, 2).T, np.arange(len(pairs))
    f[k, i, c] = -form.eps
    f[i, k, c] = 1
    return f


def form_pair_module_data(f1, f2):
    """Acting algebra, action and form-paired candidates on V1 (x) V2.

    The two candidates pair one form against the skew family of the
    other: the right form times a left family element, then the left
    form times a right one.  Both land in the acting algebra.  Each is
    the Kronecker batch (buildtools.kron) of one family's coordinate
    tensor with the other form's Gram matrix.
    """
    from .matrixalg import form_pairs, phi_map, skew_map_family

    n1, n2 = f1.dim, f2.dim
    a1 = skew_map_family(f1, name="fam1")
    h = bt.direct_sum(a1, skew_map_family(f2, name="fam2"), name="fam1+fam2")
    pairs1, pairs2 = form_pairs(f1), form_pairs(f2)
    act = tensor_action(h, [phi_map(f1, *p) for p in pairs1],
                        [phi_map(f2, *p) for p in pairs2], n1, n2)
    (g1, s1), (g2, s2) = bt.int_rows(f1.gram, n1), bt.int_rows(f2.gram, n2)
    D = h.dim + n1 * n2
    cands = [table_to_dict(bt.pair_table(D, [(*bt.kron(xa, ya, base), s)]), D, 2)
             for xa, ya, base, s in ((_family_coords(f1, pairs1), g2[:, :, None], 0, s2),
                                     (g1[:, :, None], _family_coords(f2, pairs2), a1.dim, s1))]
    return h, act, cands


class _ModuleAlgebra:
    """The algebras on h (+) m whose module bracket is a combination
    sum_i x_i C_i of the candidates, as int64 parts for pair_table: h's
    table, the action entries [h_a, m_c] = v m_r at the pair (a, hdim + c)
    and each candidate's table, its module pairs moved past h.  at(x)
    assembles one."""

    def __init__(self, h, mod, cands):
        hd = self.hdim = h.dim
        n = self.dim = hd + mod.mdim
        pair, tgt, val, s = h.table_int
        ent = [(a, hd + c, hd + r, v) for a, mm in enumerate(mod.mats)
               for (r, c), v in mm.items()]
        act = np.array([e[:3] for e in ent], dtype=np.int64).reshape(-1, 3).T
        self.base = [(*np.divmod(pair, hd), tgt, val, s),
                     (*act, *bt.int_values([e[3] for e in ent]))]
        self.cands = []
        for t in cands:
            pair, tgt, val, s = dict_to_table(t, n, 2)
            self.cands.append((*(x + hd for x in np.divmod(pair, n)), tgt, val, s))

    def at(self, x, name="assembled"):
        parts = list(self.base)
        for c, (p, q, tgt, val, s) in zip(map(Fraction, x), self.cands):
            if c:
                bt.guard_bound(abs(c.numerator), val)
                parts.append((p, q, tgt, c.numerator * val, c.denominator * s))
        return Algebra(self.dim, bt.pair_table(self.dim, parts), name=name)


def _columns(algs, hdim, in_h):
    """(codes, M) from full Jacobi sweeps (fastnum.jacobi_defects) of the
    algebras: the codes of the components whose first leg is in h iff
    in_h, in order, and the int64 matrix whose column j holds algs[j]'s
    values there, over one common scale.  A component on two legs of h,
    which no module bracket changes, means that h is not a Lie algebra
    acting on m by a representation: ValueError at its triple."""
    den = lcm(*(g.table_int[3] ** 2 for g in algs))
    codes, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for g in algs:
        c, v = fastnum.jacobi_defects(g)
        p, q, k, _ = np.unravel_index(c, (g.dim,) * 4)
        two = np.flatnonzero(q < hdim)[:1]
        if len(two):
            raise ValueError("Jacobi fails at %s, on two elements of h: h is not a Lie "
                             "algebra acting on m by a representation"
                             % (tuple(int(x[two[0]]) for x in (p, q, k)),))
        f = den // g.table_int[3] ** 2
        bt.guard_bound(f, v)
        on = (p < hdim) == in_h
        codes.append(c[on])
        vals.append(v[on] * f)
    col = np.repeat(np.arange(len(algs)), [len(c) for c in codes[1:]])
    codes, row = np.unique(np.concatenate(codes), return_inverse=True)
    m = np.zeros((len(codes), len(algs)), dtype=np.int64)
    m[row, col] = np.concatenate(vals)
    return codes, m


def _kernel(m, width):
    """la.kernel_basis of the integer rows m, from the Gram matrix M^T M
    of their primitive forms: over Q, M x = 0 exactly when M^T M x = 0.
    OverflowError if a Gram entry could leave int64."""
    m = m[m.any(axis=1)]
    if len(m):
        m = bt.primitive_rows(m)
    bt.guard_bound(len(m), m, m)
    return la.kernel_basis([[Fraction(v) for v in row] for row in (m.T @ m).tolist()],
                           width)


class EquivSolve:
    """Solution data for the equivariant bracket coefficient problem.

    kernel is the stage-one basis of the equivariant candidate
    combinations.  Each branch is (terms, free): free lists the names of
    its parameters, and terms maps a monomial (a tuple of names) to a
    candidate coefficient vector, so the branch is the sum of the
    vectors times their monomials.  A scale branch is c^2 a + c e, with
    one parameter "c"; a linear branch has one parameter u0, u1, ... per
    basis vector.
    """

    def __init__(self, ncand, kernel, branches):
        self.ncand = ncand
        self.kernel = kernel
        self.branches = branches
        self.dims = [len(free) for _, free in branches]

    def family_dim(self):
        return max(self.dims) if self.dims else 0

    def coefficients(self, branch, assign):
        """Exact candidate coefficients at one parameter assignment.

        assign maps every free parameter name of the chosen branch to a
        rational; the result is the length-ncand coefficient vector as
        Fractions.
        """
        out = [F0] * self.ncand
        for mono, vec in self.branches[branch][0].items():
            w = F1
            for s in mono:
                w *= Fraction(assign[s])
            out = [o + w * v for o, v in zip(out, vec)]
        return out


def solve_equivariant_bracket(h, mod, cands):
    """Recover the module bracket coefficients compatible with Jacobi.

    The bracket on the sum of h and its module m is fixed on h and on
    mixed pairs; on module pairs it is an unknown combination of the
    candidate tensors, each of which must be pure: h-valued or m-valued
    (ValueError otherwise).  An empty candidate changes no bracket, so
    it gets coefficient 0 and no parameter.  Each constraint matrix has
    one column per full Jacobi sweep of the algebra at chosen
    coefficients (_ModuleAlgebra, _columns), and its kernel comes from
    the Gram matrix of its rows (_kernel).

    Stage one: column i is the (h, m, m) components of the sweep at the
    i-th candidate alone, the equivariance defects.  Their kernel splits
    as K_h (+) K_m because the defects of the two kinds never meet.
    Rescaling m by c multiplies the h-coefficients a by c^2 and the
    m-coefficient by c, and the Jacobiator J on (m, m, m) triples is
    linear in a once c is fixed, so stage two is two linear solves:

    * c = 1, when K_m is spanned by e: column k is J(h_k + e) - J(e) for
      the basis h_k of K_h, and the last column is J(e).  The kernel
      gives a_1 and the scale branch c^2 a_1 + c e, listed first; a
      kernel vector with last coordinate 0 would need more than one
      scale, and raises ValueError.
    * c = 0: the m-valued rows of the first columns (J(h_k) when K_m =
      0) are homogeneous in a; their kernel is a linear branch, one free
      parameter per basis vector, listed when nonzero or when there is no
      scale branch.  This is the whole family when K_m = 0.

    dim K_m > 1 raises ValueError, and so does a Jacobi defect on two
    elements of h (h is not Lie or does not act by a representation),
    naming its triple.  Certification of a chosen point is the caller's
    job (assemble_bracket plus a full Jacobi sweep).
    """
    if not cands:
        raise ValueError("empty candidate span")
    alg = _ModuleAlgebra(h, mod, cands)
    hd = alg.hdim
    # an empty candidate changes no bracket: coefficient 0, no parameter
    live = [i for i, t in enumerate(alg.cands) if t[3].any()]
    ncand, nc = len(cands), len(live)
    kinds = [set((alg.cands[i][2] >= hd).tolist()) for i in live]
    if any(len(k) > 1 for k in kinds):
        raise ValueError("a candidate has both h- and m-valued terms")
    minds = [i for i, k in enumerate(kinds) if True in k]

    def spread(v):
        out = [F0] * ncand
        for i, x in zip(live, v):
            out[i] = x
        return out

    kernel = _kernel(_columns([alg.at(spread(la.basis_vec(nc, i))) for i in range(nc)],
                              hd, True)[1], nc)
    mk = [v for v in kernel if any(v[i] for i in minds)]
    hk = [v for v in kernel if not any(v[i] for i in minds)]
    if len(mk) > 1:
        raise ValueError("the m-valued candidates leave %d equivariant "
                         "directions; one scale describes at most one" % len(mk))
    r = len(hk)
    vecs = [[a + b for a, b in zip(v, mk[0])] for v in hk] + mk if mk else hk
    codes, mmm = _columns([alg.at(spread(v)) for v in vecs], hd, False)
    if mk:
        mmm[:, :r] -= mmm[:, r:]

    def lift(coords):
        return [sum((u * v[i] for u, v in zip(coords, hk)), F0) for i in range(nc)]

    branches = []
    if mk:
        aug = _kernel(mmm, r + 1)
        if any(v[r] == 0 for v in aug):
            raise ValueError("the Jacobi system at scale 1 has a homogeneous "
                             "part; one scale cannot describe the family")
        if aug:
            a1 = [x / aug[0][r] for x in aug[0][:r]]
            branches.append(({("c", "c"): lift(a1), ("c",): mk[0]}, ["c"]))
    zero = _kernel(mmm[codes % alg.dim >= hd, :r], r)
    if zero or not branches:
        names = ["u%d" % k for k in range(len(zero))]
        branches.append(({(u,): lift(z) for u, z in zip(names, zero)}, names))
    return EquivSolve(ncand, [spread(v) for v in kernel],
                      [({mono: spread(v) for mono, v in terms.items()}, free)
                       for terms, free in branches])


def assemble_bracket(h, mod, cands, coeffs, name=""):
    """Algebra on h (+) module with the module bracket sum_i coeffs[i]
    cands[i], holding the int64 table pair_table assembles from h's
    table, the action and the weighted candidates (_ModuleAlgebra)."""
    return _ModuleAlgebra(h, mod, cands).at(coeffs, name or "assembled")
