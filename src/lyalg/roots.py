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

The chain, and saturate_torus, which produces the torus data, read the
bracket only as the integer scaled structure constants (fastnum.scaled)
and the weights only as integer codes (buildtools.int_rows): the grading
and torus checks are array passes over the entries, and the Killing
form on the torus is W^T W of the codes.  saturate_torus hands each
weight block on which g_0 does not act diagonally to
buildtools.simultaneous_eigenbasis as one int64 operator array, and
assembles the new basis as one int64 matrix; a rational eigenvalue of
an integer matrix is an integer, so floats only propose the eigenvalues
and exact integer checks decide (de Graaf 2000, on splitting a Cartan
subalgebra over Q).  _rebase maps the brackets to the new basis with
three guarded int64 joins, the last against the exact block-diagonal
inverse of the basis (buildtools.exact_inverses: integer adjugates for
the 1 x 1 and 2 x 2 blocks, float proposals checked by an exact product
for the others), and returns an int64 table.  saturate_torus runs
the memoised Jacobi sweep first, so a bracket that is not Lie is refused
with its failing triple before any eigenvalue is computed, and a zero
weight space that does not split over Q is refused with ClassifyError.
"""

from fractions import Fraction
from math import lcm

import numpy as np

from . import linalg as la
from .algebra import Algebra
from .buildtools import (IrrationalRoot, _exact, batch, exact_inverses, int_rows,
                         pair_table, simultaneous_eigenbasis)
from .fastnum import (INT64_GUARD, PRIMES, ClassifyError, distinct, exact_dot, guard_bound,
                      join, rank_mod, require_lie, scaled, summed)
from .invariants import is_semisimple, _grading_blocks

F0 = Fraction(0)


def verify_weights(alg: Algebra) -> int:
    """Exact check that cartan is an abelian set acting diagonally with the
    recorded eigenvalues (_torus_rank).  Returns the torus rank, memoised
    in alg._cache for the torus data it was computed on."""
    if alg.cartan is None or alg.weights is None:
        raise ClassifyError("no torus data on %r" % alg.name)
    key = (tuple(map(tuple, alg.cartan)), tuple(alg.weights))
    hit = alg._cache.get("weights")
    if hit is None or hit[0] != key:
        hit = alg._cache["weights"] = key, _torus_rank(alg)
    return hit[1]


def _torus_rank(alg: Algebra) -> int:
    """verify_weights' check.  With H the torus vectors as integer rows,
    ad(h_t) comes from the scaled structure constants (fastnum.scaled) as
    one guarded int64 join, in O(nnz) memory, and [h_s, h_t] as a second.
    ad(h_t) minus the recorded diagonal (buildtools.batch) names the first
    (t, j) that fails.  A mod-p rank r, never above the rank over Q,
    certifies the torus vectors independent."""
    n, r = alg.dim, len(alg.cartan)
    if (len(alg.weights) != n or any(len(w) != r for w in alg.weights)
            or any(len(h) != n for h in alg.cartan)):
        raise ClassifyError("weight table shape mismatch")
    h, hs = int_rows(alg.cartan, n)
    if rank_mod(h, PRIMES[0]) != r and la.rank(alg.cartan) != r:
        raise ClassifyError("torus vectors are dependent")
    ht, hi = np.nonzero(h)
    hv = h[ht, hi]
    st = scaled(alg)
    # ad(h_t) as codes (t n + j) n + l of [h_t, e_j] = v e_l, scale hs S
    guard_bound(n, hv, st.c)
    t, jl, v = join((ht, hi, hv), (st.p, st.q * n + st.s, st.c))
    code, v = summed(t * n * n + jl, v)
    # [h_s, h_t] = sum_j H[t, j] [h_s, e_j]
    (s, j), l = np.divmod(code // n, n), code % n
    guard_bound(n, v, hv)
    sl, t, u = join((s * n + l, j, v), (hi, ht, hv))
    if len(summed((sl // n * r + t) * n + sl % n, u)[0]):
        raise ClassifyError("torus is not abelian")
    w, ws = int_rows(alg.weights, r)
    jw, tw = np.nonzero(w)
    bad = batch([(code, v, hs * st.S), ((tw * n + jw) * n + jw, -w[jw, tw], ws)])[0]
    if len(bad):
        t, j = divmod(int(bad[0]) // n, n)
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


def _root_pairing(alg: Algebra, codes: np.ndarray) -> np.ndarray:
    """Gram matrix of the roots, given as the integer rows codes, under the
    form dual to the Killing form on the torus, as exact integers scaled
    by one positive constant: int64, or Python ints where the int64 guard
    refuses.

    ad h is diagonal on the basis with the verified weights as its
    eigenvalues, so the Killing form on the torus is the sum over the
    weights of alpha(h) alpha(h'): W^T W for the integer weight codes W.
    Its inverse times the least common denominator, Y, comes from
    exact_inverses, and the Gram matrix is A Y A^T for the root codes A,
    each product one fastnum.exact_dot."""
    def pairing(w, a):
        y = exact_inverses(exact_dot(w.T, w)[None])[1][0]
        return exact_dot(exact_dot(a, y), a.T)

    return _exact(pairing, int_rows(alg.weights)[0], codes)


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
    st = scaled(alg)
    zero = ~int_rows(alg.weights, r)[0].any(axis=1)
    if (zero[st.p] & zero[st.q]).any():
        raise ClassifyError("zero-weight space is not abelian")
    nz = int(zero.sum())
    if alg.cartan is not None and nz == len(alg.cartan):
        return alg
    blocks = _grading_blocks(n, alg.weights)
    memb, local = _block_index(n, blocks)
    # ad z for z in g_0: the entries [e_z, e_j] = c e_l by the block of j,
    # which holds l (check_grading certified the grading)
    on = np.flatnonzero(zero[st.p])
    z, j, l, c = (np.cumsum(zero) - 1)[st.p[on]], st.q[on], st.s[on], st.c[on]
    # every new vector starts as the old one, in block order, its weight
    # read off the diagonal; the blocks where some ad z is not diagonal
    # are split by simultaneous_eigenbasis
    start = np.cumsum([0] + [len(blk) for blk in blocks])
    pos = start[memb] + local
    basis = np.zeros((n, n), dtype=np.int64)
    basis[pos, np.arange(n)] = 1
    diag = np.zeros((n, nz), dtype=np.int64)
    diag[pos[j[j == l]], z[j == l]] = c[j == l]
    frac = {x: Fraction(x, st.S) for x in set(diag.ravel().tolist())}
    new_wts = [tuple(frac[x] for x in w) for w in diag.tolist()]
    for bi in distinct(memb[j[j != l]]).tolist():
        blk, lo, hi = blocks[bi], start[bi], start[bi + 1]
        e = memb[j] == bi
        ops = np.zeros((nz, hi - lo, hi - lo), dtype=np.int64)
        ops[z[e], local[l[e]], local[j[e]]] = c[e]
        try:
            vecs, tups = simultaneous_eigenbasis(ops, st.S)
        except OverflowError:
            raise                       # a size refusal, not a verdict
        except ArithmeticError as err:
            wit = err.factor if isinstance(err, IrrationalRoot) else None
            raise ClassifyError("zero-weight space does not split over "
                                "Q: %s" % err, wit) from None
        basis[lo:hi] = 0
        basis[lo:hi, blk] = vecs
        new_wts[lo:hi] = tups
    order = sorted(range(n), key=lambda i: (new_wts[i], i))
    out = _rebase(alg, basis[order], blocks)
    out.weights = new_wts = [new_wts[i] for i in order]
    zero2 = tuple([F0] * nz)
    cart_idx = [i for i, w in enumerate(new_wts) if w == zero2]
    if len(cart_idx) != nz:
        raise ClassifyError("zero-weight space changed size in rebase")
    out.cartan = [la.basis_vec(n, i) for i in cart_idx]
    return out


def _block_index(n: int, blocks):
    """For each basis index, its block and its position in the block."""
    memb, local = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    for bi, blk in enumerate(blocks):
        memb[blk], local[blk] = bi, np.arange(len(blk))
    return memb, local


def _rebase(alg: Algebra, basis: np.ndarray, blocks) -> Algebra:
    """The algebra on the new basis whose vector t is the integer row
    basis[t], as an int64 table; blocks are the weight blocks of alg.

    Each new vector must lie in one weight block, and each block must
    hold as many new vectors as its size.  The brackets [v_a, v_b] in old
    coordinates come from the scaled structure constants as two guarded
    int64 joins, summed, contracting the first and then the second
    argument with the basis.  Each bracket must lie in the block of its
    weight, and a third join maps it to new coordinates against the exact
    inverse of the basis (_block_inverse: the blocks of each size as one
    stack through exact_inverses, where a 1 x 1 or 2 x 2 block is its
    integer adjugate and np.linalg proposes the inverse of a larger one,
    accepted only when B Y == d I holds in fastnum.exact_dot: a float64
    product, exact because its bound stays below 2^53, or guarded int64).

    This is an exact change of basis (a singular block raises), so a
    Jacobi verdict of None on the input carries over.
    """
    n = alg.dim
    if basis.shape != (n, n):
        raise ClassifyError("%d new basis vectors for dim %d" % (len(basis), n))
    memb = _block_index(n, blocks)[0]
    t_nz, i_nz = np.nonzero(basis)
    first = np.flatnonzero(np.diff(t_nz, prepend=-1))
    if len(first) != n:
        raise ValueError("basis rows are dependent")
    vblk = memb[i_nz[first]]
    if (memb[i_nz] != vblk[t_nz]).any():
        raise ClassifyError("new basis vector crosses weight blocks")
    if (np.bincount(vblk, minlength=len(blocks)) != [len(blk) for blk in blocks]).any():
        raise ValueError("basis rows are dependent")
    il, it, iv, dinv = _block_inverse(basis, blocks, np.argsort(vblk, kind="stable"))
    st = scaled(alg)
    bv = basis[t_nz, i_nz]
    # first argument: X[a, j * n + l] = sum_i B[i, a] c^l_{ij}
    guard_bound(n, basis, st.c)
    a, jl, xv = join((t_nz, i_nz, bv), (st.p, st.q * n + st.s, st.c))
    code, xv = summed(a * n * n + jl, xv)
    (a, j), l = np.divmod(code // n, n), code % n
    # second argument: Y[a * n + l, b] = sum_j X[a, j * n + l] B[j, b]
    guard_bound(n, xv, basis)
    al, b, yv = join((a * n + l, j, xv), (i_nz, t_nz, bv))
    keep = al // n < b
    code, yv = summed(al[keep] * n + b[keep], yv[keep])
    (a, l), b = np.divmod(code // n, n), code % n
    # each bracket lies in the block of weight w_a + w_b
    w, _ = int_rows([alg.weights[blk[0]] for blk in blocks])
    if (w[memb[l]] != w[vblk[a]] + w[vblk[b]]).any():
        raise ClassifyError("bracket escaped its weight block")
    # new coordinates: Z[a * n + b, t] = sum_l Y[a * n + l, b] Binv[l, t]
    guard_bound(n, yv, iv)
    ab, t, zv = join((a * n + b, l, yv), (il, it, iv))
    out = Algebra(n, pair_table(n, [(ab // n, ab % n, t, zv, st.S * dinv)]), name=alg.name)
    if "jacobi" in alg._cache and alg._cache["jacobi"] is None:
        out._cache["jacobi"] = None     # the Jacobi identity is basis-free
    return out


def _block_inverse(basis: np.ndarray, blocks, tids: np.ndarray):
    """(l, t, v, scale): the inverse of the block-diagonal basis, entry
    (l, t) v / scale the coordinate t of the old e_l, over the least
    common denominator of all blocks.  tids lists the new vectors block
    by block.  The blocks of each size go to exact_inverses as one stack
    (most weight blocks are 1 x 1), whose lowest terms make the scale and
    the entries those of the Fraction inverse; OverflowError if an entry
    over that scale does not fit the int64 batch path."""
    cut = np.cumsum([0] + [len(blk) for blk in blocks])
    sizes = np.diff(cut)
    parts = []
    for k in distinct(sizes).tolist():
        bs = np.flatnonzero(sizes == k)
        new = tids[cut[bs][:, None] + np.arange(k)]
        old = np.array([blocks[b] for b in bs.tolist()], dtype=np.int64)
        d, y = exact_inverses(basis[new[:, :, None], old[:, None, :]])
        parts.append((old, new, d.tolist(), y))
    scale = lcm(*(x for _, _, d, _ in parts for x in d))
    if scale >= INT64_GUARD:
        raise OverflowError("inverse basis does not fit the int64 batch path")
    il, it, iv = [], [], []
    for old, new, d, y in parts:
        mult = np.array([scale // x for x in d], dtype=np.int64)
        if (np.abs(y).max(axis=(1, 2)) > (INT64_GUARD - 1) // mult).any():
            raise OverflowError("inverse basis does not fit the int64 batch path")
        il.append(np.broadcast_to(old[:, :, None], y.shape).ravel())
        it.append(np.broadcast_to(new[:, None, :], y.shape).ravel())
        iv.append((y * mult[:, None, None]).astype(np.int64).ravel())
    return np.concatenate(il), np.concatenate(it), np.concatenate(iv), scale


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
    codes = int_rows(roots)[0]
    pair = _root_pairing(alg, codes)
    comps = _components(pair != 0)
    # the components' root spans are orthogonal under the pairing, which
    # is definite, so their ranks over Q add up to at most r: mod-p ranks,
    # never above those, that add up to r are exact
    ranks = [rank_mod(codes[idx], PRIMES[0]) for idx in comps]
    if sum(ranks) != r:
        ranks = [la.rank(codes[idx].tolist()) for idx in comps]
    parts = [_simple_label(k, k + len(idx), [pair[i, i] for i in idx])
             for k, idx in zip(ranks, comps)]
    if sum(ranks) != r:
        raise ClassifyError("root components have total rank %d, torus "
                            "rank is %d" % (sum(ranks), r))
    return "+".join(sorted(parts))
