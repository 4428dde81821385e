"""Type recognition for split semisimple Lie algebras, certificate first.

Every constructed algebra carries a candidate torus H (`cartan`,
coordinate vectors) and per-basis-vector eigenvalue tuples (`weights`).
Nothing here trusts those annotations.  classify runs a chain of exact
certificates:

1. the full Jacobi sweep (fastnum.require_lie, memoised on the
   algebra), so the bracket is a Lie bracket;
2. verify_weights: H is abelian and acts diagonally on the basis with
   the recorded eigenvalues;
3. is_semisimple: the Killing form is nondegenerate (Cartan's criterion);
4. verify_split_maximal: the zero-weight space has dimension rank H and
   every root space is one-dimensional, so H is its own centralizer.

In characteristic 0, an abelian, ad-diagonalizable, self-centralizing
subalgebra of a semisimple Lie algebra is a split Cartan subalgebra, and
the roots form a root system in the rational dual of H with the inner
product dual to the Killing form on H.  The simple ideals correspond one
to one to the irreducible components of that root system (Humphreys,
"Introduction to Lie Algebras and Representation Theory", sections 8 and
14.1; de Graaf, "Lie Algebras: Theory and Algorithms", 2000): the
connected components of the roots, two roots linked when their pairing is
nonzero.  A component of rank l with N roots spans an ideal of dimension
l + N, whose type follows from l, l + N and the root lengths.  So a wrong
label can only come from a wrong theorem, not a wrong computation.

saturate_torus, which produces the torus data, runs on the integer
scaled structure constants (fastnum.scaled): check_grading compares
integer weight codes over every entry at once, and _rebase forms all
brackets of the new basis as two guarded int64 joins, certifying
each weight block's coordinates by one exact coords_int batch.  It runs
the memoised Jacobi sweep first, so a bracket that is not Lie is refused
with its failing triple before any eigenvalue is computed, and a zero
weight space that does not split over Q is refused with ClassifyError.
"""

from fractions import Fraction
from math import lcm

import numpy as np

from . import linalg as la
from .algebra import Algebra
from .buildtools import (BatchCoords, IrrationalRoot, OutsideSpan, guard_bound,
                         int_rows, simultaneous_eigenbasis)
from .fastnum import ClassifyError, join, require_lie, scaled, summed
from .invariants import is_semisimple, _grading_blocks

F0 = Fraction(0)
F1 = Fraction(1)


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


def _simple_label(r: int, n: int, norms) -> str:
    """Type of a simple split algebra of rank r and dim n whose roots have
    the given squared lengths (any common positive scale)."""
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
        ratio = Fraction(lengths[1], lengths[0])
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


def _root_pairing(alg: Algebra, r: int, roots) -> np.ndarray:
    """Gram matrix of the roots under the form dual to the Killing form on
    the torus, as exact Python integers scaled by one positive constant."""
    nu = la.inv(_cartan_killing(alg, r))
    dr = lcm(*(x.denominator for a in roots for x in a))
    dn = lcm(*(x.denominator for row in nu for x in row))
    a = np.array([[int(x * dr) for x in w] for w in roots], dtype=object)
    b = np.array([[int(x * dn) for x in row] for row in nu], dtype=object)
    return a @ b @ a.T


def _offdiag_mat(m) -> bool:
    return any(v != 0 for i, row in enumerate(m)
               for j, v in enumerate(row) if i != j)


def check_grading(alg: Algebra) -> int:
    """Certify that the recorded weights grade the bracket: every structure
    constant lives at the sum of its arguments' weights.  Returns the
    weight-tuple length.

    The weights are cleared of denominators into integer codes and
    compared over the arrays of fastnum.scaled(alg) in one pass.
    """
    if alg.weights is None or len(alg.weights) != alg.dim:
        raise ClassifyError("no weight data on %r" % alg.name)
    if not alg.dim:
        raise ClassifyError("the zero algebra has no weights to grade it")
    r = len(alg.weights[0])
    if any(len(w) != r for w in alg.weights):
        raise ClassifyError("weight table shape mismatch")
    w, _ = int_rows(alg.weights)
    st = scaled(alg)
    bad = np.flatnonzero((w[st.p] + w[st.q] != w[st.s]).any(axis=1))
    if len(bad):
        # scaled lists the entries of table_int in (i, j, l) order, each
        # as (i, j) before (j, i), so the first bad one is the lex-first
        # (i, j) -> l, i < j, of the table
        i, j, l = (int(x[bad[0]]) for x in (st.p, st.q, st.s))
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
    data.  Raises ClassifyError if the bracket fails the memoised Jacobi
    sweep (witness: the first failing triple), or if g_0 is not abelian
    or does not split rationally; for an irrational eigenvalue its
    witness is the irreducible factor of the minimal polynomial.
    """
    require_lie(alg)
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
            try:
                vecs, tups = simultaneous_eigenbasis(ops)
            except ArithmeticError as e:
                wit = e.factor if isinstance(e, IrrationalRoot) else None
                raise ClassifyError("zero-weight space does not split over "
                                    "Q: %s" % e, wit) from None
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

    Each new vector must lie in one weight block.  With B the integer
    change-of-basis matrix (columns the new vectors, one common
    denominator), the brackets [v_a, v_b] in old coordinates come from
    the scaled structure constants as two guarded int64 joins, summed,
    contracting the first and then the second argument with B.  Each
    bracket must then lie in the block of its weight, and every target
    block's coordinates over its new vectors come from one coords_int
    batch, whose reconstruction check certifies them.

    This is an exact change of basis: the n vectors are independent (each
    block's engine raises on dependent rows) and every coordinate is
    checked, so a Jacobi verdict of None on the input carries over.
    """
    n = alg.dim
    if len(vecs) != n:
        raise ClassifyError("%d new basis vectors for dim %d" % (len(vecs), n))
    blocks = _grading_blocks(n, alg.weights)
    memb = np.zeros(n, dtype=np.int64)
    for bi, blk in enumerate(blocks):
        memb[blk] = bi
    bint, sb = int_rows(vecs)            # row t: new vector t, scaled by sb
    t_nz, i_nz = np.nonzero(bint)
    first = np.flatnonzero(np.diff(t_nz, prepend=-1))
    if len(first) != n:
        raise ValueError("basis rows are dependent")
    vblk = memb[i_nz[first]]
    if (memb[i_nz] != vblk[t_nz]).any():
        raise ClassifyError("new basis vector crosses weight blocks")
    st = scaled(alg)
    bv = bint[t_nz, i_nz]
    # first argument: X[a, j * n + l] = sum_i B[i, a] c^l_{ij}
    guard_bound(n, bint, st.c)
    a, jl, xv = join((t_nz, i_nz, bv), (st.p, st.q * n + st.s, st.c))
    code, xv = summed(a * n * n + jl, xv)
    (a, j), l = np.divmod(code // n, n), code % n
    # second argument: Y[a * n + l, b] = sum_j X[a, j * n + l] B[j, b]
    guard_bound(n, xv, bint)
    al, b, yv = join((a * n + l, j, xv), (i_nz, t_nz, bv))
    keep = al // n < b
    code, yv = summed(al[keep] * n + b[keep], yv[keep])
    (a, l), b = np.divmod(code // n, n), code % n
    # each bracket lies in the block of weight w_a + w_b
    w, _ = int_rows([alg.weights[blk[0]] for blk in blocks])
    tgt = memb[l]
    if (w[tgt] != w[vblk[a]] + w[vblk[b]]).any():
        raise ClassifyError("bracket escaped its weight block")
    table = {}
    local = np.zeros(n, dtype=np.int64)
    for blk in blocks:
        local[blk] = np.arange(len(blk))
    tids = [[] for _ in blocks]
    for t in range(n):
        tids[vblk[t]].append(t)
    order = np.lexsort((l, b, a, tgt))
    a, b, l, yv, tgt = a[order], b[order], l[order], yv[order], tgt[order]
    bstart = np.flatnonzero(np.diff(tgt, prepend=-1)).tolist() + [len(tgt)]
    for lo, hi in zip(bstart, bstart[1:]):
        bi = int(tgt[lo])
        pairs, row = np.unique(a[lo:hi] * n + b[lo:hi], return_inverse=True)
        vint = np.zeros((len(pairs), len(blocks[bi])), dtype=np.int64)
        vint[row, local[l[lo:hi]]] = yv[lo:hi]
        engine = BatchCoords([[vecs[t][i] for i in blocks[bi]] for t in tids[bi]])
        try:
            carr, cs = engine.coords_int(vint, st.S * sb * sb)
        except OutsideSpan:
            raise ClassifyError("bracket escaped its weight block") from None
        carr = carr.tolist()
        frac = {c: Fraction(c, cs) for c in set().union(*carr)}
        for p, crow in zip(pairs.tolist(), carr):
            table[divmod(p, n)] = [(t, frac[c]) for t, c in zip(tids[bi], crow) if c]
    out = Algebra(n, dict(sorted(table.items())), name=alg.name)
    if "jacobi" in alg._cache and alg._cache["jacobi"] is None:
        out._cache["jacobi"] = None     # the Jacobi identity is basis-free
    return out


def _components(adj: np.ndarray) -> list[list[int]]:
    """Connected components of a symmetric boolean adjacency matrix."""
    seen = np.zeros(len(adj), dtype=bool)
    out = []
    for s in range(len(adj)):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        for a in comp:                  # comp grows while it is walked
            new = np.flatnonzero(adj[a] & ~seen)
            seen[new] = True
            comp.extend(new.tolist())
        out.append(comp)
    return out


def classify(alg: Algebra) -> str:
    """Certified type string: a simple label like "E8", or a sorted
    plus-joined list like "A2+A2" for a semisimple sum.

    Certificates first: the full Jacobi sweep, then verify_split_maximal.
    The simple ideals are then the connected components of the roots
    linked by a nonzero pairing, and each is labelled from its rank,
    dimension and root lengths.
    """
    require_lie(alg)
    r, roots = verify_split_maximal(alg)
    if not roots:
        raise ClassifyError("no roots on %r" % alg.name)
    pair = _root_pairing(alg, r, roots)
    parts = []
    total = 0
    for idx in _components(pair != 0):
        rank = la.rank([roots[i] for i in idx])
        total += rank
        parts.append(_simple_label(rank, rank + len(idx),
                                   [pair[i, i] for i in idx]))
    if total != r:
        raise ClassifyError("root components have total rank %d, torus "
                            "rank is %d" % (total, r))
    return "+".join(sorted(parts))
