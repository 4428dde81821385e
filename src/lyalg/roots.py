"""Type recognition for split semisimple Lie algebras, certificate first.

Every constructed algebra carries a candidate torus (`cartan`, coordinate
vectors) and per-basis-vector eigenvalue tuples (`weights`).  Nothing here
trusts those annotations: verify_weights rechecks each bracket exactly, and
verify_split_maximal certifies the torus is maximal by counting zero
weights.  Only after those certificates pass does classify read off the
type from rank, dimension and root lengths, so a wrong label can only come
from a wrong theorem, not a wrong computation.
"""

from fractions import Fraction
from math import gcd

from . import linalg as la
from .algebra import Algebra
from .buildtools import (_Coords, charpoly, rational_roots,
                         simultaneous_eigenbasis, sp_mul)
from .invariants import centroid_basis, is_semisimple, _grading_blocks

F0 = Fraction(0)
F1 = Fraction(1)


class ClassifyError(Exception):
    pass


def _sparse_bracket(alg: Algebra, xnz, ynz) -> dict:
    acc: dict = {}
    for i, xv in xnz:
        for j, yv in ynz:
            for l, v in alg.bk(i, j):
                acc[l] = acc.get(l, F0) + xv * yv * v
    return {l: v for l, v in acc.items() if v != 0}


def verify_weights(alg: Algebra) -> int:
    """Exact check that cartan is an abelian set acting diagonally with the
    recorded eigenvalues.  Returns the torus rank."""
    if alg.cartan is None or alg.weights is None:
        raise ClassifyError("no torus data on %r" % alg.name)
    r = len(alg.cartan)
    if any(len(w) != r for w in alg.weights) or len(alg.weights) != alg.dim:
        raise ClassifyError("weight table shape mismatch")
    if la.rank(alg.cartan) != r:
        raise ClassifyError("torus vectors are dependent")
    hnz = [[(i, v) for i, v in enumerate(h) if v != 0] for h in alg.cartan]
    for s in range(r):
        for t in range(s + 1, r):
            if _sparse_bracket(alg, hnz[s], hnz[t]):
                raise ClassifyError("torus is not abelian")
    for t in range(r):
        for j in range(alg.dim):
            got = _sparse_bracket(alg, hnz[t], [(j, F1)])
            lam = alg.weights[j][t]
            want = {j: lam} if lam != 0 else {}
            if got != want:
                raise ClassifyError("basis vector %d is not an eigenvector "
                                    "of torus element %d" % (j, t))
    return r


def root_multiplicities(alg: Algebra) -> dict:
    out: dict = {}
    for w in alg.weights:
        out[w] = out.get(w, 0) + 1
    return out


def verify_split_maximal(alg: Algebra):
    """Certify: semisimple, torus acts diagonally, torus is a full Cartan
    subalgebra (zero-weight multiplicity equals rank) and every root space
    is one-dimensional.  Returns (rank, list of roots)."""
    r = verify_weights(alg)
    if not is_semisimple(alg):
        raise ClassifyError("Killing form is degenerate")
    mult = root_multiplicities(alg)
    zero = tuple([F0] * r)
    if mult.get(zero, 0) != r:
        raise ClassifyError("zero-weight space has dimension %d, rank is %d"
                            % (mult.get(zero, 0), r))
    roots = []
    for w, m in mult.items():
        if w == zero:
            continue
        if m != 1:
            raise ClassifyError("root %s has multiplicity %d" % (w, m))
        roots.append(w)
    return r, sorted(roots)


def _cartan_killing(alg: Algebra, r: int) -> la.Matrix:
    # ad h is diagonal on the basis, so traces are sums over the weights
    return [[sum((w[s] * w[t] for w in alg.weights), F0) for t in range(r)]
            for s in range(r)]


def _simple_label(alg: Algebra, cert=None) -> str:
    r, roots = verify_split_maximal(alg) if cert is None else cert
    n = alg.dim
    kappa = _cartan_killing(alg, r)
    nu = la.inv(kappa)
    def norm2(a):
        return sum((a[s] * nu[s][t] * a[t]
                    for s in range(r) for t in range(r)), F0)
    norms = [norm2(a) for a in roots]
    lengths = sorted(set(norms))
    if len(lengths) == 1:
        if n == r * (r + 2):
            return "A%d" % r
        if r >= 4 and n == r * (2 * r - 1):
            return "D%d" % r
        exceptional = {(6, 78): "E6", (7, 133): "E7", (8, 248): "E8"}
        if (r, n) in exceptional:
            return exceptional[(r, n)]
        raise ClassifyError("no simply laced type of rank %d dim %d" % (r, n))
    if len(lengths) == 2:
        ratio = lengths[1] / lengths[0]
        if ratio == 3:
            if (r, n) != (2, 14):
                raise ClassifyError("triple-ratio roots outside G2")
            return "G2"
        if ratio != 2:
            raise ClassifyError("root length ratio %s" % ratio)
        if (r, n) == (4, 52):
            return "F4"
        if n != r * (2 * r + 1):
            raise ClassifyError("two root lengths but dim %d, rank %d" % (n, r))
        if r == 2:
            return "C2"
        nlong = sum(1 for v in norms if v == lengths[1])
        if nlong == 2 * r:
            return "C%d" % r
        if nlong == 2 * r * (r - 1):
            return "B%d" % r
        raise ClassifyError("long-root count %d fits neither B nor C" % nlong)
    raise ClassifyError("more than two root lengths")


def _regular_rep(sp_basis, dim):
    """Multiplication table of a commuting associative matrix algebra,
    as s x s regular representation matrices."""
    support = sorted({k for m in sp_basis for k in m})
    pos = {k: i for i, k in enumerate(support)}
    rows = []
    for m in sp_basis:
        row = la.zero_vec(len(support))
        for k, v in m.items():
            row[pos[k]] = v
        rows.append(row)
    solver = _Coords(rows)
    s = len(sp_basis)
    reps = []
    for i in range(s):
        cols = []
        for j in range(s):
            prod = sp_mul(sp_basis[i], sp_basis[j])
            vec = la.zero_vec(len(support))
            for k, v in prod.items():
                if k not in pos:
                    raise ClassifyError("centroid not closed under products")
                vec[pos[k]] = v
            co = solver.coords(vec)
            if co is None:
                raise ClassifyError("centroid not closed under products")
            cols.append(co)
        reps.append(la.transpose(cols))
    if any((i, i) not in pos for i in range(dim)):
        raise ClassifyError("identity is outside the centroid span")
    ivec = [F1 if k[0] == k[1] else F0 for k in support]
    one = solver.coords(ivec)
    if one is None:
        raise ClassifyError("identity is outside the centroid span")
    return reps, one


def split_ideals(alg: Algebra) -> list[Algebra]:
    """Decompose a semisimple algebra whose centroid has dimension > 1 into
    its minimal ideals, via the primitive idempotents of the centroid.

    Requires the centroid to split over the rationals (true for every
    catalog construction).  Torus data is pushed down to each ideal when
    the parent carries it.
    """
    cb = centroid_basis(alg)
    s = len(cb)
    if s < 2:
        raise ClassifyError("centroid is one-dimensional, nothing to split")
    sp_basis = []
    for m in cb:
        sp_basis.append({(i, j): v for i, row in enumerate(m)
                         for j, v in enumerate(row) if v != 0})
    reps, one = _regular_rep(sp_basis, alg.dim)
    # find a generator of the (commutative, etale) centroid whose
    # characteristic polynomial has s distinct rational roots
    found = None
    for k in range(1, 40):
        coeffs = [Fraction(k ** i) for i in range(s)]
        mu = [[sum((coeffs[i] * reps[i][a][b] for i in range(s)), F0)
               for b in range(s)] for a in range(s)]
        try:
            roots = rational_roots(charpoly(mu))
        except ArithmeticError:
            continue
        if len(set(roots)) == s:
            found = (mu, sorted(set(roots)))
            break
    if found is None:
        raise ClassifyError("centroid does not split over the rationals")
    mu, eigvals = found
    idems = []
    for lam in eigvals:
        v = list(one)
        for other in eigvals:
            if other == lam:
                continue
            v = la.mat_vec([[mu[a][b] - (other if a == b else F0)
                             for b in range(s)] for a in range(s)], v)
            v = la.vec_scale(F1 / (lam - other), v)
        e: dict = {}
        for i, c in enumerate(v):
            if c == 0:
                continue
            for kk, val in sp_basis[i].items():
                e[kk] = e.get(kk, F0) + c * val
        idems.append({kk: val for kk, val in e.items() if val != 0})
    total = {}
    for e in idems:
        if sp_mul(e, e) != e:
            raise ClassifyError("projection is not idempotent")
        for kk, val in e.items():
            total[kk] = total.get(kk, F0) + val
    ident = {(i, i): F1 for i in range(alg.dim)}
    if {k: v for k, v in total.items() if v != 0} != ident:
        raise ClassifyError("idempotents do not sum to the identity")

    blocks = _grading_blocks(alg.dim, alg.weights)
    out = []
    for m_idx, e in enumerate(idems):
        rows = []
        pivots = []
        for blk in blocks:
            bpos = {g: i for i, g in enumerate(blk)}
            cols = []
            for j in blk:
                img = la.zero_vec(len(blk))
                any_nz = False
                for (rr, cc), val in e.items():
                    if cc == j:
                        if rr not in bpos:
                            raise ClassifyError("projection leaves its block")
                        img[bpos[rr]] = val
                        any_nz = True
                if any_nz:
                    cols.append(img)
            if not cols:
                continue
            rr_rows, piv = la.rref(cols)
            for row in rr_rows:
                full = la.zero_vec(alg.dim)
                for i, g in enumerate(blk):
                    full[g] = row[i]
                rows.append(full)
            pivots.extend(blk[p] for p in piv)
        ideal = _subalgebra_on_rows(alg, rows, pivots, e,
                                    name="%s#%d" % (alg.name, m_idx))
        out.append(ideal)
    if sum(i.dim for i in out) != alg.dim:
        raise ClassifyError("ideal dimensions do not add up")
    return out


def _subalgebra_on_rows(alg: Algebra, rows, pivots, idem, name=""):
    """Assemble the algebra on a reduced-echelon basis of an ideal.

    Per-block rows are reduced echelon and blocks have disjoint support,
    so coordinates of any member vector are just its pivot entries (and
    membership is verified exactly on each use).  `idem` is the centroid
    idempotent projecting onto this ideal, used to push torus data down.
    """
    nb = len(rows)

    def coords(v):
        d = [v[p] for p in pivots]
        rec = la.zero_vec(alg.dim)
        for dt, row in zip(d, rows):
            if dt != 0:
                rec = [x + dt * y for x, y in zip(rec, row)]
        if rec != v:
            raise ClassifyError("vector escaped the ideal")
        return d

    table = {}
    for a in range(nb):
        for b in range(a + 1, nb):
            w = alg.bracket(rows[a], rows[b])
            ent = [(k, v) for k, v in enumerate(coords(w)) if v != 0]
            if ent:
                table[(a, b)] = ent
    sub = Algebra(nb, table, name=name)
    if alg.cartan is not None and alg.weights is not None:
        r = len(alg.cartan)
        sub_cartan = []
        sub_cartan_in_old = []
        span = la.SpanTracker(alg.dim)
        for h in alg.cartan:
            hp = la.zero_vec(alg.dim)
            for (rr, cc), val in idem.items():
                if h[cc] != 0:
                    hp[rr] += val * h[cc]
            if hp == la.zero_vec(alg.dim) or span.contains(hp):
                continue
            span.add(hp)
            sub_cartan.append(coords(hp))
            xs = la.solve(la.transpose(alg.cartan), hp)
            if xs is None:
                raise ClassifyError("projected torus element left the "
                                    "zero-weight span")
            sub_cartan_in_old.append(xs)
        sub.cartan = sub_cartan
        wrows = []
        for row in rows:
            j = next(i for i, x in enumerate(row) if x != 0)
            wfull = alg.weights[j]
            wrows.append(tuple(
                sum((xs[t] * wfull[t] for t in range(r)), F0)
                for xs in sub_cartan_in_old))
        sub.weights = wrows
    return sub


def _offdiag_mat(m) -> bool:
    return any(v != 0 for i, row in enumerate(m)
               for j, v in enumerate(row) if i != j)


def check_grading(alg: Algebra) -> int:
    """Certify that the recorded weights grade the bracket: every structure
    constant lives at the sum of its arguments' weights.  Returns the
    weight-tuple length."""
    if alg.weights is None or len(alg.weights) != alg.dim:
        raise ClassifyError("no weight data on %r" % alg.name)
    r = len(alg.weights[0])
    for (i, j), ent in alg.table.items():
        want = tuple(a + b for a, b in zip(alg.weights[i], alg.weights[j]))
        for l, _ in ent:
            if alg.weights[l] != want:
                raise ClassifyError("structure constant off the grading at "
                                    "(%d,%d)->%d" % (i, j, l))
    return r


def saturate_torus(alg: Algebra) -> Algebra:
    """Rebase so the whole zero-weight space acts diagonally.

    The input needs only a valid weight grading (an explicit torus is
    verified when present).  If the algebra is semisimple and its
    zero-weight space g_0 is abelian with rationally diagonalizable
    adjoint action, g_0 is a split Cartan subalgebra and the result is the
    same algebra on a basis of simultaneous eigenvectors, with full torus
    data.  Raises if g_0 is not abelian or does not split rationally.
    """
    if alg.cartan is not None:
        verify_weights(alg)
    r = check_grading(alg)
    n = alg.dim
    zero = tuple([F0] * r)
    zidx = [i for i, w in enumerate(alg.weights) if w == zero]
    for a in range(len(zidx)):
        for b in range(a + 1, len(zidx)):
            if alg.bk(zidx[a], zidx[b]):
                raise ClassifyError("zero-weight space is not abelian")
    if alg.cartan is not None and len(zidx) == len(alg.cartan):
        return alg
    blocks = _grading_blocks(n, alg.weights)
    new_vecs: list = []
    new_wts: list = []
    for blk in blocks:
        pos = {g: t for t, g in enumerate(blk)}
        ops = []
        for z in zidx:
            rows = []
            for j in blk:
                img = alg.bk(z, j)
                vec = la.zero_vec(len(blk))
                for l, v in img:
                    if l not in pos:
                        raise ClassifyError("grading is broken")
                    vec[pos[l]] = v
                rows.append(vec)
            ops.append(la.transpose(rows))
        if all(not _offdiag_mat(op) for op in ops):
            vecs = [la.basis_vec(len(blk), t) for t in range(len(blk))]
            tups = [[op[t][t] for op in ops] for t in range(len(blk))]
        else:
            vecs, tups = simultaneous_eigenbasis(ops)
        for v, t in zip(vecs, tups):
            full = la.zero_vec(n)
            for c, j in zip(v, blk):
                full[j] = c
            new_vecs.append(full)
            new_wts.append(tuple(t))
    order = sorted(range(len(new_vecs)), key=lambda i: (new_wts[i], i))
    new_vecs = [new_vecs[i] for i in order]
    new_wts = [new_wts[i] for i in order]
    out = _rebase(alg, new_vecs)
    out.weights = new_wts
    zero2 = tuple([F0] * len(zidx))
    cart_idx = [i for i, w in enumerate(new_wts) if w == zero2]
    if len(cart_idx) != len(zidx):
        raise ClassifyError("zero-weight space changed size in rebase")
    out.cartan = [la.basis_vec(n, i) for i in cart_idx]
    return out


def _rebase(alg: Algebra, vecs) -> Algebra:
    """Structure constants on a new basis given by full coordinate vectors.

    Blockwise per weight class, each new vector is supported in a single
    block, so coordinates are solved with one small solver per block.
    Pairs whose weight sum is not a class are skipped outright; the
    grading certificate already forces those brackets to vanish.
    """
    n = alg.dim
    blocks = _grading_blocks(n, alg.weights)
    solvers = {}
    memb = {}
    for bi, blk in enumerate(blocks):
        for j in blk:
            memb[j] = bi
    rowsof: dict = {}
    nzof = []
    blkof = []
    for t, v in enumerate(vecs):
        nz = [(i, x) for i, x in enumerate(v) if x != 0]
        nzof.append(nz)
        bi = memb[nz[0][0]]
        if any(memb[i] != bi for i, _ in nz):
            raise ClassifyError("new basis vector crosses weight blocks")
        blkof.append(bi)
        rowsof.setdefault(bi, []).append((t, v))
    for bi, pairs in rowsof.items():
        blk = blocks[bi]
        sub = [[v[j] for j in blk] for _, v in pairs]
        solvers[bi] = (_Coords(sub), [t for t, _ in pairs], blk)
    # integer weight keys make the pair loop's adds and lookups cheap
    den = 1
    for blk in blocks:
        for x in alg.weights[blk[0]]:
            den = den * x.denominator // gcd(den, x.denominator)
    clsw = [tuple(int(x * den) for x in alg.weights[blk[0]]) for blk in blocks]
    wclass = {w: bi for bi, w in enumerate(clsw)}
    unit = {}
    for bi, pairs in rowsof.items():
        if len(pairs) == 1 and len(nzof[pairs[0][0]]) == 1:
            t, _ = pairs[0]
            j, c = nzof[t][0]
            unit[bi] = (t, j, c)
    table = {}
    for a in range(n):
        wa = clsw[blkof[a]]
        for b in range(a + 1, n):
            wb = clsw[blkof[b]]
            bi = wclass.get(tuple(x + y for x, y in zip(wa, wb)))
            if bi is None:
                continue
            w = _sparse_bracket(alg, nzof[a], nzof[b])
            if not w:
                continue
            if any(memb[i] != bi for i in w):
                raise ClassifyError("bracket escaped its weight block")
            if bi in unit:
                t, j, c = unit[bi]
                if len(w) != 1 or j not in w:
                    raise ClassifyError("bracket escaped its weight block")
                table[(a, b)] = [(t, w[j] / c)]
                continue
            solver, tids, blk = solvers[bi]
            co = solver.coords([w.get(j, F0) for j in blk])
            if co is None:
                raise ClassifyError("bracket escaped its weight block")
            entl = sorted((t, c) for t, c in zip(tids, co) if c != 0)
            if entl:
                table[(a, b)] = entl
    return Algebra(n, table, name=alg.name)


def classify(alg: Algebra) -> str:
    """Certified type string: a simple label like "E8", or a sorted
    plus-joined list like "A2+A2" for a semisimple sum."""
    if not is_semisimple(alg):
        raise ClassifyError("algebra is not semisimple")
    cert = verify_split_maximal(alg)
    if len(centroid_basis(alg)) == 1:
        return _simple_label(alg, cert)
    parts = [classify(i) for i in split_ideals(alg)]
    return "+".join(sorted(parts))
