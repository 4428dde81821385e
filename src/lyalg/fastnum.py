"""Exact checks at scale: integer-scaled tensors, sparse sweeps, modular solves.

Structure constants are cleared of denominators once (a single global scale
S per algebra) and handled as int64 numpy / scipy.sparse data.  All fast
paths stay exact:

* sparse integer matrix products whose entries are bounded well below 2^63
  (asserted from the data, never assumed);
* mod-p elimination with p below 2^31 so products fit int64;
* CRT lifting plus rational reconstruction, always followed by exact
  verification over Z, with the mod-p rank as the matching lower bound, so
  reconstruction failures can only cause retries, never wrong answers.

The Jacobi sweep (jacobi_violation) checks only the sorted triples
p < q < k: the stored bracket is alternating, so the Jacobiator is too,
and the lex-first failing triple, if any, is sorted.  Each component of
J(p, q, k) is summed once from the products of stored entries with rows
of the full table, in blocks of p, and is bounded from the data by
3 n amax^2 before any product is formed.  jacobi_violation stops at the
first failing block, jacobi_defects returns every nonzero component (the
Tits closure identities are read off them); both memoise the verdict on
the algebra, and neither sweeps again after a clean one.  require_lie turns a failed sweep into ClassifyError with
the failing triple, for every entry point that needs a Lie bracket
(classify, saturate_torus, is_semisimple).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np
from scipy import sparse

from .algebra import Algebra
from .linalg import normalize_primitive

# primes just under 2^30; (p-1)^2 < 2^60 keeps mod-p arithmetic inside int64
PRIMES = [1073741789, 1073741783, 1073741741, 1073741723, 1073741719,
          1073741717, 1073741689, 1073741671, 1073741663, 1073741651,
          1073741621, 1073741567, 1073741561, 1073741527, 1073741503]

# primes just under 2^20, for the selection phase of the streamed solver:
# chunk reduction then runs as an exact fp64 matmul (products < 2^40,
# sums of a few hundred of them stay < 2^53)
PRIMES20 = [1048573, 1048571, 1048559, 1048549, 1048517]

# products per block of the Jacobi sweep: on E8, 2^16 keeps the blocks'
# traced peak near 4 MB (69 MB at 2^20) at within 5% of the fastest budget
SWEEP_BLOCK = 1 << 16


class ScaledTables:
    """Integer-scaled structure constants of an Algebra, in sparse layouts."""

    def __init__(self, alg: Algebra):
        n = alg.dim
        S = 1
        for ent in alg.table.values():
            for _, c in ent:
                S = lcm(S, c.denominator)
        ps, qs, ss, cs = [], [], [], []
        for (i, j), ent in alg.table.items():
            for k, c in ent:
                v = c.numerator * (S // c.denominator)
                ps.append(i); qs.append(j); ss.append(k); cs.append(v)
                ps.append(j); qs.append(i); ss.append(k); cs.append(-v)
        self.n = n
        self.S = S
        self.p = np.array(ps, dtype=np.int64)
        self.q = np.array(qs, dtype=np.int64)
        self.s = np.array(ss, dtype=np.int64)
        self.c = np.array(cs, dtype=np.int64)
        self.amax = int(np.max(np.abs(self.c))) if len(cs) else 0
        # row s, col (k,r): c^r_{sk}
        self.M = sparse.csr_array(
            (self.c, (self.p, self.q * n + self.s)), shape=(n, n * n))


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
        o = np.argsort(st.p[::2], kind="stable")
        self.a, self.b, self.m, self.v = (x[::2][o] for x in (st.p, st.q, st.s, st.c))
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

    def blocks(self, budget: int):
        """Consecutive ranges [p0, p1) of the smallest index, each with a
        load of about `budget` products (at least one index each)."""
        cum = np.cumsum(self.load)
        p0 = 0
        while p0 < self.n:
            base = cum[p0 - 1] if p0 else 0
            p1 = max(p0 + 1, int(np.searchsorted(cum, base + budget, side="right")))
            yield p0, p1
            p0 = p1


def _expand(lo, hi):
    """(i, pos) for every lo[i] <= pos < hi[i], in one vector pass."""
    cnt = np.maximum(hi - lo, 0)
    ent = np.repeat(np.arange(len(lo)), cnt)
    pos = np.arange(len(ent)) + np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
    return ent, pos


def _jacobi_block(sw: _SweepTables, p0: int, p1: int) -> np.ndarray:
    """Sorted codes ((p n + q) n + k) n + r of the nonzero Jacobiator
    components J(p, q, k)_r, p < q < k, p0 <= p < p1.

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
    key = np.concatenate(keys)
    if not len(key):
        return key
    o = np.argsort(key)
    key, val = key[o], np.concatenate(vals)[o]
    start = np.flatnonzero(np.diff(key, prepend=-1))
    return key[start[np.add.reduceat(val, start) != 0]]


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
    for p0, p1 in sw.blocks(SWEEP_BLOCK):
        codes = _jacobi_block(sw, p0, p1)
        if len(codes):
            best = _triple(codes[0], sw.n)
            break
    alg._cache["jacobi"] = best
    return best


def jacobi_defects(alg: Algebra) -> np.ndarray:
    """Every nonzero Jacobiator component of the full sweep, as the sorted
    codes ((p n + q) n + k) n + r of J(p, q, k)_r with p < q < k.

    The same blocks and int64 guards as jacobi_violation, without the
    early stop; the verdict (the triple of the first code, or None) is
    stored in alg._cache["jacobi"] as jacobi_violation would store it.
    A memoised clean verdict means there is no defect, so it returns the
    empty array without a sweep; a memoised failing triple still sweeps,
    for the other defects.
    """
    if "jacobi" in alg._cache and alg._cache["jacobi"] is None:
        return np.zeros(0, dtype=np.int64)
    sw = _sweep_tables(alg)
    codes = np.concatenate([np.zeros(0, dtype=np.int64)]
                           + [_jacobi_block(sw, p0, p1)
                              for p0, p1 in sw.blocks(SWEEP_BLOCK)])
    alg._cache["jacobi"] = _triple(codes[0], sw.n) if len(codes) else None
    return codes


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
    # K[p,q] = tr(ad_p ad_q) = sum_{s,r} c^r_{ps} c^s_{qr}
    X = sparse.csr_array((st.c, (st.p, st.q * n + st.s)), shape=(n, n * n))
    Y = sparse.csr_array((st.c, (st.p, st.s * n + st.q)), shape=(n, n * n))
    K = (X @ Y.T).toarray()
    return np.asarray(K, dtype=np.int64)


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


def _kernel_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int], list[int]]:
    rows, pivots = rref_mod(a, p)
    nc = a.shape[1]
    free = [c for c in range(nc) if c not in set(pivots)]
    ker = np.zeros((len(free), nc), dtype=np.int64)
    for idx, c in enumerate(free):
        ker[idx, c] = 1
        for r, pc in enumerate(pivots):
            ker[idx, pc] = (-int(rows[r, c])) % p
    return ker, pivots, free


def crt(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    inv = pow(m1 % m2, m2 - 2, m2)  # m2 prime and coprime to m1
    m = m1 * m2
    x = (r1 + (r2 - r1) * inv % m2 * m1) % m
    return x, m


def rat_recon(r: int, m: int) -> Fraction | None:
    """Rational reconstruction: num/den = r mod m with |num|, den <= sqrt(m/2)."""
    bound = isqrt(m // 2)
    a, b = m, r % m
    pa, pb = 0, 1
    while b > bound:
        qt = a // b
        a, b = b, a - qt * b
        pa, pb = pb, pa - qt * pb
    if b > bound or abs(pb) > bound or pb == 0:
        return None
    if gcd(b, abs(pb)) != 1:
        return None
    return Fraction(b, pb) if pb > 0 else Fraction(-b, -pb)


def exact_kernel_int(a: np.ndarray, max_primes: int = 12) -> list[list[int]]:
    """Certified kernel basis of an integer matrix, as primitive int vectors.

    Kernel vectors are CRT-lifted from several primes, then verified exactly
    over Z; the mod-p rank certifies completeness.  Raises if reconstruction
    keeps failing (never returns an unverified answer).
    """
    nc = a.shape[1]
    if nc == 0:
        return []
    if a.shape[0] == 0:
        return [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]
    abig = a.astype(object)
    best_rank = -1
    for nprimes in (2, 4, max_primes):
        kers, primes_used = [], []
        for p in PRIMES[:nprimes]:
            ker, pivots, free = _kernel_mod(a, p)
            r = len(pivots)
            if r > best_rank:
                best_rank = r
                kers, primes_used = [], []
            if r == best_rank:
                kers.append((ker, free))
                primes_used.append(p)
        free0 = kers[0][1]
        if any(k[1] != free0 for k in kers):
            continue  # pivot structure unstable, try more primes
        nfree = len(free0)
        out = []
        ok = True
        for idx in range(nfree):
            r0, m0 = kers[0][0][idx].astype(object), primes_used[0]
            for (ker, _), p in zip(kers[1:], primes_used[1:]):
                r0 = [crt(int(x), m0, int(y), p)[0] for x, y in zip(r0, ker[idx])]
                m0 *= p
            vec = []
            for x in r0:
                f = rat_recon(int(x), m0)
                if f is None:
                    ok = False
                    break
                vec.append(f)
            if not ok:
                break
            vec = normalize_primitive(vec)
            ints = [int(x) for x in vec]
            resid = abig @ np.array(ints, dtype=object)
            if any(int(t) != 0 for t in resid):
                ok = False
                break
            out.append(ints)
        if ok and best_rank + len(out) == nc:
            return out
    raise ArithmeticError("modular kernel reconstruction failed to certify")


class _Echelon20:
    """Row space mod a small prime, with fp64-exact chunked reduction."""

    def __init__(self, ncols: int, p: int):
        self.p = p
        self.ncols = ncols
        self.rows = np.zeros((0, ncols), dtype=np.float64)
        self.pivots: list[int] = []

    def reduce_chunk(self, chunk: np.ndarray) -> np.ndarray:
        p = self.p
        if len(self.pivots) and len(chunk):
            # guard: len(pivots) * p^2 must stay below 2^53 for exactness
            assert len(self.pivots) * p * p < (1 << 53) - (1 << 40)
            coef = chunk[:, self.pivots]
            chunk = np.mod(chunk - coef @ self.rows, p)
        return chunk

    def add_pivot_row(self, row: np.ndarray) -> int:
        """row must already be reduced and nonzero; returns its pivot column."""
        p = self.p
        nz = np.nonzero(row)[0]
        pc = int(nz[0])
        row = row * pow(int(row[pc]), p - 2, p) % p
        if len(self.pivots):
            fac = self.rows[:, pc].copy()
            self.rows = np.mod(self.rows - np.outer(fac, row), p)
        self.rows = np.vstack([self.rows, row])
        self.pivots.append(pc)
        return pc


def sparse_int_kernel(rows: list[list[tuple[int, int]]], ncols: int,
                      chunk: int = 1024) -> list[list[int]]:
    """Certified kernel of a tall sparse integer matrix, streamed.

    `rows` holds sparse integer rows as (col, value) lists.  A mod-p pass
    over PRIMES20[0] selects a candidate spanning subset of rows, the exact
    kernel of that subset is computed and verified against every row; any
    violated row joins the subset and the loop repeats, so a degenerate
    selection prime costs time, never correctness.
    """
    if ncols == 0:
        return []
    if not rows:
        return [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    p = PRIMES20[0]
    ech = _Echelon20(ncols, p)
    saved: list[int] = []
    buf: list[np.ndarray] = []
    buf_idx: list[int] = []

    def flush():
        nonlocal buf, buf_idx
        if not buf:
            return
        red = ech.reduce_chunk(np.stack(buf))
        for ridx, row in zip(buf_idx, red):
            row = ech.reduce_chunk(row[None, :])[0]
            if np.any(row):
                ech.add_pivot_row(row)
                saved.append(ridx)
        buf, buf_idx = [], []

    for idx, r in enumerate(rows):
        dense = np.zeros(ncols, dtype=np.float64)
        for c, v in r:
            dense[c] = (dense[c] + v) % p
        buf.append(dense)
        buf_idx.append(idx)
        if len(buf) >= chunk:
            flush()
    flush()

    # exact phase with self-correcting verification
    for _ in range(ncols + 1):
        sub = np.zeros((len(saved), ncols), dtype=object)
        for a, ridx in enumerate(saved):
            for c, v in rows[ridx]:
                sub[a, c] += v
        big = any(abs(int(x)) >= (1 << 62) for x in sub.flat) if len(saved) else False
        ker = exact_kernel_int(sub if big else sub.astype(np.int64))
        bad = _first_violated_row(rows, ker, exclude=set(saved))
        if bad is None:
            return ker
        saved.append(bad)
    raise ArithmeticError("sparse kernel failed to stabilize")


def _first_violated_row(rows, ker, exclude) -> int | None:
    if not ker:
        return None
    kmax = max((abs(x) for v in ker for x in v), default=0)
    ka = np.array(ker, dtype=np.int64) if kmax < (1 << 62) else None
    for idx, r in enumerate(rows):
        if idx in exclude or not r:
            continue
        amax = max(abs(v) for _, v in r)
        if ka is not None and len(r) * amax * max(kmax, 1) < (1 << 62):
            cols = np.array([c for c, _ in r], dtype=np.int64)
            vals = np.array([v for _, v in r], dtype=np.int64)
            if np.any(ka[:, cols] @ vals):
                return idx
        elif _violates_big(r, ker):
            return idx
    return None


def _violates_big(row, ker) -> bool:
    for v in ker:
        if sum(val * v[c] for c, val in row) != 0:
            return True
    return False
