"""Exact checks at scale: integer-scaled tensors, sparse sweeps, mod-p ranks.

Structure constants come as the algebra's int64 table (Algebra.table_int,
one global scale S per algebra), which ScaledTables lays out as numpy
coordinate arrays without a per-entry loop.  All fast paths stay exact:

* sparse integer matrix products, each one join of two coordinate lists
  (summed by the caller), with entries bounded well below 2^63 (asserted
  from the data by guard_bound, never assumed);
* dense integer matrix products (exact_dot) on float64 BLAS where the
  same bound, read off the operands, stays below 2^53, so that every
  partial sum is an integer a float64 holds exactly, and in guarded
  int64 otherwise;
* mod-p elimination with p below 2^31 so products fit int64, used only as
  a one-sided certificate (a rank mod p never exceeds the rank over Q);
  every exact answer comes from an exact solve or an exact check.

The Jacobi sweep (jacobi_violation) checks only the sorted triples
p < q < k: the stored bracket is alternating, so the Jacobiator is too,
and the lex-first failing triple, if any, is sorted.  Each component of
J(p, q, k) is summed once from the products of stored entries with rows
of the full table, in blocks of p, and is bounded from the data by
3 n amax^2 before any product is formed.  jacobi_violation stops at the
first failing block, jacobi_defects returns every nonzero component with
its value (the Tits closure identities, the LY axioms and the constraints
of the equivariant bracket solver are read off them); both memoise the
verdict on the algebra, and neither sweeps again after a clean one.
require_lie turns a failed sweep into ClassifyError with the failing
triple, for every entry point that needs a Lie bracket
(classify, saturate_torus, is_semisimple).
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .algebra import Algebra

# primes just under 2^30; (p-1)^2 < 2^60 keeps mod-p arithmetic inside int64
PRIMES = [1073741789, 1073741783, 1073741741, 1073741723, 1073741719,
          1073741717, 1073741689, 1073741671, 1073741663, 1073741651,
          1073741621, 1073741567, 1073741561, 1073741527, 1073741503]

# primes just under 2^20, for the pivots of the span engine
# (buildtools.Span and buildtools.select)
PRIMES20 = [1048573, 1048571, 1048559, 1048549, 1048517]

# the int64 batch paths refuse a worst-case entry of 2^62 or more
INT64_GUARD = 1 << 62

# a float64 holds every integer below 2^53 exactly
FLOAT_EXACT = 1 << 53

# float64 entries per row block of exact_dot (a block of a's rows and its
# product): 2^17, 1 MB, bounds the float copies of a tall operand; e8-ly's
# peak RSS read the same for blocks from 2^12 to 2^20
DOT_BLOCK = 1 << 17

# products per block of the Jacobi sweep: on E8, 2^16 keeps the blocks'
# traced peak near 4 MB (69 MB at 2^20) at within 5% of the fastest budget
SWEEP_BLOCK = 1 << 16


class ScaledTables:
    """Integer-scaled structure constants of an Algebra, as coordinates.

    Read off alg.table_int: S is its scale, and every stored entry
    [e_i, e_j] = c e_s, i < j, appears as (p, q, s, c) = (i, j, s, c)
    followed by (j, i, s, -c), in the table's (pair, target) order.
    """

    def __init__(self, alg: Algebra):
        n = alg.dim
        pair, tgt, val, S = alg.table_int
        i, j = np.divmod(pair, n)
        self.n = n
        self.S = S
        self.p = np.column_stack([i, j]).ravel()
        self.q = np.column_stack([j, i]).ravel()
        self.s = np.repeat(tgt, 2)
        self.c = np.column_stack([val, -val]).ravel()
        self.amax = int(np.abs(val).max(initial=0))


def scaled(alg: Algebra) -> ScaledTables:
    st = alg._cache.get("scaled")
    if st is None:
        st = alg._cache["scaled"] = ScaledTables(alg)
    return st


class _SweepTables:
    """The scaled bracket in the two orders the Jacobi sweep joins.

    Stored half: every table entry [e_a, e_b] = v e_m with a < b, sorted
    by a.  Full table: every [e_m, e_c] = w e_r of the antisymmetric
    bracket, sorted by (m, c, r), with the keys m n + c and the per-row
    column offsets `off`, off[m n + c] = first position with key >= m n + c,
    so that row m restricted to lo <= c < hi is the position range
    off[m n + lo] to off[m n + hi].  `load[p]` bounds the number of
    products whose sorted triple starts at p.
    """

    def __init__(self, st: ScaledTables):
        n = self.n = st.n
        self.a, self.b, self.m, self.v = (x[::2] for x in (st.p, st.q, st.s, st.c))
        o = np.lexsort((st.s, st.q, st.p))
        self.key = st.p[o] * n + st.q[o]
        self.r, self.w = st.s[o], st.c[o]
        self.off = np.searchsorted(self.key, np.arange(n * n + 1))
        row = self.m * n
        # c > a: products whose triple starts at the entry's own a
        lo, hi = self.span(row + self.a + 1, row + n)
        # c < a: for every full entry (m, c), the stored entries with target
        # m and a > c each give one product whose triple starts at c
        by_row = np.sort(row + self.a)
        fc = self.key % n
        down = (np.searchsorted(by_row, self.key - fc + n)
                - np.searchsorted(by_row, self.key, side="right"))
        self.load = (np.bincount(self.a, hi - lo, minlength=n)
                     + np.bincount(fc, down, minlength=n))

    def span(self, lo, hi):
        """Position ranges of the keys lo <= key < hi, as two arrays."""
        return self.off[lo], self.off[hi]


def blocks(load, budget: int):
    """Consecutive ranges [p0, p1) of the smallest index p, each with a
    load (load[p] products for p) of about `budget` products, at least one
    index each."""
    cum = np.cumsum(load)
    p0 = 0
    while p0 < len(load):
        base = cum[p0 - 1] if p0 else 0
        p1 = max(p0 + 1, int(np.searchsorted(cum, base + budget, side="right")))
        yield p0, p1
        p0 = p1


def guard_bound(terms: int, *arrs) -> int:
    """Refuse (OverflowError) a batched product whose worst-case entry, a
    sum of `terms` products of one entry of each array, could reach the
    int64 guard; return that bound, terms times each array's max |entry|."""
    b = terms
    for a in arrs:
        b *= int(np.abs(a).max(initial=0))
    if b >= INT64_GUARD:
        raise OverflowError("integer batch would overflow int64")
    return b


def exact_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, exactly, for integer matrices a (m, k) and b (k, w).

    For int64 operands every term of an entry is at most max|a| max|b| and
    every partial sum at most k max|a| max|b|, the bound guard_bound reads
    off the operands.  Below 2^53 every partial sum is an integer that a
    float64 holds exactly, in any summation order, so one float64 BLAS
    product gives the exact entries (the classic trick of exact linear
    algebra on BLAS: Dumas, Giorgi and Pernet, "Dense linear algebra over
    word-size prime fields: the FFLAS and FFPACK packages", ACM TOMS 35,
    2008); it runs over the rows of a in blocks of about DOT_BLOCK floats.
    Otherwise the product runs in int64 (numpy has no BLAS kernel for it),
    after guard_bound refuses a bound of 2^62 or more (OverflowError).
    Operands in Python ints (dtype object) multiply exactly as they are.
    """
    if a.dtype == object or b.dtype == object:
        return a @ b
    if guard_bound(a.shape[1], a, b) >= FLOAT_EXACT:
        return a @ b
    out = np.empty((len(a), b.shape[1]), dtype=np.int64)
    bf = b.astype(np.float64)
    step = max(1, DOT_BLOCK // max(1, a.shape[1] + b.shape[1]))
    for lo in range(0, len(a), step):
        out[lo:lo + step] = a[lo:lo + step].astype(np.float64) @ bf
    return out


def distinct(a: np.ndarray, axis=None) -> np.ndarray:
    """The sorted distinct entries (or rows, axis=0) of a: np.unique
    without the masked-array test a plain np.unique makes, whose first
    call imports numpy.ma (about 10 ms and 1.7 MB in a fresh process)."""
    return np.unique(a, return_index=True, axis=axis)[0]


def summed(code, val):
    """The entries (code, val) in code order, the values of equal codes
    summed and zero sums dropped."""
    o = np.argsort(code)
    code, val = code[o], val[o]
    first = np.flatnonzero(np.diff(code, prepend=-1))
    code, val = code[first], np.add.reduceat(val, first)
    nz = val != 0
    return code[nz], val[nz]


def lowest_terms(val: np.ndarray, den: int):
    """The values val / den as (val', den') in lowest terms: the common
    factor of den and every value divided out."""
    g = gcd(den, int(np.gcd.reduce(val, axis=None)))
    return val // g, den // g


def _expand(lo, hi):
    """(i, pos) for every lo[i] <= pos < hi[i], in one vector pass."""
    cnt = np.maximum(hi - lo, 0)
    ent = np.repeat(np.arange(len(lo)), cnt)
    pos = np.arange(len(ent)) + np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
    return ent, pos


def join(left, right):
    """The terms of the sparse product of the coordinate lists left = (row,
    key, val) and right = (key, col, val), joined on the shared index:
    (row, col, lval rval) for every pair of entries with equal keys, not
    summed.  Both sides are sorted by key (sorted queries make searchsorted
    several times faster), and _expand lists each left entry's matches."""
    (row, lkey, lval), (rkey, col, rval) = left, right
    lo, ro = np.argsort(lkey, kind="stable"), np.argsort(rkey, kind="stable")
    lk, rk = lkey[lo], rkey[ro]
    ent, pos = _expand(np.searchsorted(rk, lk), np.searchsorted(rk, lk, "right"))
    ent, pos = lo[ent], ro[pos]
    return row[ent], col[pos], lval[ent] * rval[pos]


def _jacobi_block(sw: _SweepTables, p0: int, p1: int) -> tuple[np.ndarray, np.ndarray]:
    """(codes, vals) of the nonzero Jacobiator components J(p, q, k)_r,
    p < q < k, p0 <= p < p1: the sorted codes ((p n + q) n + k) n + r and
    the values times S^2.

    Each stored entry [e_a, e_b] = v e_m is joined with row m of the full
    table, [e_m, e_c] = w e_r, c not in {a, b}; v w is the coefficient of
    e_r in one of the three terms of J at the sorted triple of (a, b, c),
    with sign -1 exactly when a < c < b (the term -[[p, k], q]).  The
    triples starting in [p0, p1) come from the entries with p0 <= a < p1
    and c > a, and from those with c < a and p0 <= c < p1.
    """
    n = sw.n
    i0, i1 = np.searchsorted(sw.a, [p0, p1])
    a, b, row = sw.a[i0:i1], sw.b[i0:i1], sw.m[i0:i1] * n
    j0 = int(np.searchsorted(sw.a, p0, side="right"))
    a2, row2 = sw.a[j0:], sw.m[j0:] * n
    # (first entry, position ranges, sign, (p, q, k) as positions in (a, b, c))
    parts = (
        (i0, sw.span(row + a + 1, row + b), -1, (0, 2, 1)),
        (i0, sw.span(row + b + 1, row + n), 1, (0, 1, 2)),
        (j0, sw.span(row2 + p0, row2 + np.minimum(a2, p1)), 1, (2, 0, 1)),
    )
    keys, vals = [], []
    for first, (lo, hi), sign, order in parts:
        ent, pos = _expand(lo, hi)
        ent += first
        abc = (sw.a[ent], sw.b[ent], sw.key[pos] % n)
        p, q, k = (abc[t] for t in order)
        keys.append(((p * n + q) * n + k) * n + sw.r[pos])
        vals.append(sign * sw.v[ent] * sw.w[pos])
    return summed(np.concatenate(keys), np.concatenate(vals))


def _triple(code: int, n: int) -> tuple[int, int, int]:
    t = int(code) // n
    return (t // (n * n), (t // n) % n, t % n)


def _sweep_tables(alg: Algebra) -> _SweepTables:
    """The sweep's join tables, after the int64 guards on the data."""
    st = scaled(alg)
    n = st.n
    if n ** 4 >= 1 << 63 or 3 * n * st.amax * st.amax >= 1 << 63:
        raise OverflowError("structure constants too large for int64 sweep")
    return _SweepTables(st)


def jacobi_violation(alg: Algebra) -> tuple[int, int, int] | None:
    """First (p, q, k) in lex order with nonzero Jacobi defect, else None.

    The stored table holds only pairs i < j, so the bracket, and with it
    the Jacobiator J, is alternating: J vanishes on a triple with a
    repeated index, and permuting a triple permutes its sign.  The set of
    failing triples is closed under permutation, so its lex-first element
    is sorted: the lex-first failing sorted triple is the lex-first
    failing ordered triple, the witness a sweep over all n^3 triples
    returns.  The sweep sums each component J(p, q, k)_r with p < q < k
    once (_jacobi_block), in blocks of the smallest index p of about
    SWEEP_BLOCK products each, and stops at the first block with a defect;
    every product of a triple lands in the block of its p.  A component is
    a sum of at most 3 n products of at most amax^2 each, where amax
    bounds the scaled constants; the sweep refuses (OverflowError) when
    that sum, or the key (p, q, k, r) encoded as one integer below n^4,
    could leave int64.

    The verdict of the full sweep is kept in alg._cache["jacobi"], so a
    repeated sweep costs nothing, and an exact change of basis may carry
    a clean verdict over (roots.saturate_torus does).
    """
    if "jacobi" in alg._cache:
        return alg._cache["jacobi"]
    sw = _sweep_tables(alg)
    best = None
    for p0, p1 in blocks(sw.load, SWEEP_BLOCK):
        codes = _jacobi_block(sw, p0, p1)[0]
        if len(codes):
            best = _triple(codes[0], sw.n)
            break
    alg._cache["jacobi"] = best
    return best


def jacobi_defects(alg: Algebra) -> tuple[np.ndarray, np.ndarray]:
    """Every nonzero Jacobiator component of the full sweep, as (codes,
    vals): the sorted codes ((p n + q) n + k) n + r of J(p, q, k)_r with
    p < q < k, and the components times S^2, S the scale of alg.table_int.

    The same blocks and int64 guards as jacobi_violation, without the
    early stop; the verdict (the triple of the first code, or None) is
    stored in alg._cache["jacobi"] as jacobi_violation would store it.
    A memoised clean verdict means there is no defect, so it returns two
    empty arrays without a sweep; a memoised failing triple still sweeps,
    for the other defects.
    """
    empty = np.zeros(0, dtype=np.int64)
    if "jacobi" in alg._cache and alg._cache["jacobi"] is None:
        return empty, empty
    sw = _sweep_tables(alg)
    parts = [_jacobi_block(sw, p0, p1) for p0, p1 in blocks(sw.load, SWEEP_BLOCK)]
    codes, vals = (np.concatenate([empty] + [part[z] for part in parts]) for z in (0, 1))
    alg._cache["jacobi"] = _triple(codes[0], sw.n) if len(codes) else None
    return codes, vals


class ClassifyError(Exception):
    """The algebra fails a certificate; witness, when set, is what failed."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def require_lie(alg: Algebra) -> None:
    """Refuse a bracket that fails the (memoised) full Jacobi sweep:
    ClassifyError whose witness is the first failing triple."""
    w = jacobi_violation(alg)
    if w is not None:
        raise ClassifyError("Jacobi identity fails at %s" % (w,), witness=w)


def killing_int(alg: Algebra) -> np.ndarray:
    """Killing form Gram matrix scaled by S^2, as an int64 (n, n) array."""
    st = scaled(alg)
    n = st.n
    if n and st.amax and n * n * st.amax * st.amax >= (1 << 62):
        raise OverflowError("structure constants too large for int64 killing form")
    # K[p,q] = tr(ad_p ad_q) = sum_{s,r} c^r_{ps} c^s_{qr}, joined on (s, r)
    p, q, v = join((st.p, st.q * n + st.s, st.c), (st.s * n + st.q, st.p, st.c))
    K = np.zeros((n, n), dtype=np.int64)
    np.add.at(K, (p, q), v)
    return K


# ---------------------------------------------------------------- mod p

def rref_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of an integer matrix mod p."""
    m = np.mod(a, p).astype(np.int64)
    nr, nc = m.shape
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        nz = np.nonzero(m[r:, c])[0]
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r] = m[r] * pow(int(m[r, c]), p - 2, p) % p
        col = m[:, c].copy()
        col[r] = 0
        rows = np.nonzero(col)[0]
        if len(rows):
            m[rows] = (m[rows] - col[rows, None] * m[r][None, :]) % p
        pivots.append(c)
        r += 1
    return m[:r], pivots


def rank_mod(a: np.ndarray, p: int) -> int:
    return len(rref_mod(a, p)[1])
