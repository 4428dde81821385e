"""Shared machinery for turning concrete operator models into Algebra objects.

Two jobs live here.  operator_algebra_from_basis takes a list of sparse
matrices acting on some space, checks the span is closed under commutators
and returns the abstract Algebra with exact structure constants.  It
scales all nonzero commutators to one int64 batch and takes their
coordinates from a single BatchCoords call, whose exact reconstruction
check is the closure certificate.  The eigensplit helpers refine a basis
so that a chosen torus acts diagonally, which the construction modules
use before freezing structure constants.
"""

from fractions import Fraction
from itertools import combinations

from . import linalg as la
from .algebra import Algebra
from .envelope import SpMat, sp_commutator

F0 = Fraction(0)
F1 = Fraction(1)


class NotClosedError(Exception):
    """A commutator left the span of the proposed basis."""


def sp_mul(a: SpMat, b: SpMat) -> SpMat:
    bycol: dict[int, list] = {}
    for (r, c), v in b.items():
        bycol.setdefault(r, []).append((c, v))
    out: SpMat = {}
    for (r, c), v in a.items():
        for c2, v2 in bycol.get(c, ()):
            k = (r, c2)
            out[k] = out.get(k, F0) + v * v2
    return {k: v for k, v in out.items() if v != 0}


class _Coords:
    """Fast exact coordinates in the row span of a fixed independent set.

    Keeps the reduced echelon form R = T B of the basis matrix B once.
    Since R is reduced, a vector v in the span satisfies
    v = sum_t v[piv_t] R_t, so coordinates w.r.t. B are (v at pivots) T.
    """

    def __init__(self, rows: la.Matrix):
        self.nb = len(rows)
        self.r, self.piv, self.t = la.rref_t(rows)
        if len(self.r) != self.nb:
            raise ValueError("basis rows are dependent")

    def coords(self, v: la.Vec):
        d = [v[p] for p in self.piv]
        # exact membership check before trusting the coordinates
        rec = la.zero_vec(len(v))
        for dt, row in zip(d, self.r):
            if dt != 0:
                rec = [x + dt * y for x, y in zip(rec, row)]
        if rec != v:
            return None
        out = la.zero_vec(self.nb)
        for i, dt in enumerate(d):
            if dt != 0:
                trow = self.t[i]
                out = [x + dt * y for x, y in zip(out, trow)]
        return out


class MatSpanSolver:
    """Exact coordinates of sparse matrices in the span of a fixed list."""

    def __init__(self, mats):
        self.support = sorted({k for m in mats for k in m})
        self.pos = {k: i for i, k in enumerate(self.support)}
        rows = []
        for m in mats:
            row = la.zero_vec(len(self.support))
            for k, v in m.items():
                row[self.pos[k]] = v
            rows.append(row)
        self.solver = _Coords(rows)

    def coords(self, m: SpMat):
        """Coordinate vector, or None if m is outside the span."""
        vec = la.zero_vec(len(self.support))
        for k, v in m.items():
            if k not in self.pos:
                return None
            vec[self.pos[k]] = v
        return self.solver.coords(vec)


def operator_algebra_from_basis(mats, labels=None, name="", weights=None,
                                cartan=None):
    """Abstract Lie algebra spanned by given operators, via commutators.

    mats: list of sparse matrices (dict (row, col) -> Fraction) on a common
    space.  The span must be closed under [a, b] = ab - ba; otherwise
    NotClosedError is raised with the first offending pair.  cartan, if
    given, is a list of coordinate vectors w.r.t. mats.

    The nonzero commutators are collected first and their coordinates come
    from one BatchCoords.coords_int call, whose reconstruction check is the
    closure certificate.  If it fails, the first escapee is located with
    the exact _Coords.coords.
    """
    nb = len(mats)
    pairs, comms = [], []
    for i, j in combinations(range(nb), 2):
        cm = sp_commutator(mats[i], mats[j])
        if cm:
            pairs.append((i, j))
            comms.append(cm)
    # a key that only a commutator has is a zero column of every basis row,
    # so the batch check rejects that commutator like any other escapee
    pos: dict = {}
    for m in [*mats, *comms]:
        for k in m:
            pos.setdefault(k, len(pos))

    def dense(m):
        vec = la.zero_vec(len(pos))
        for k, v in m.items():
            vec[pos[k]] = v
        return vec

    bc = BatchCoords([dense(m) for m in mats])
    table = {}
    if comms:
        vint, vs = int_rows([{pos[k]: v for k, v in cm.items()}
                             for cm in comms], len(pos))
        try:
            carr, cs = bc.coords_int(vint, vs)
        except ValueError:
            for pair, cm in zip(pairs, comms):
                if bc.co.coords(dense(cm)) is None:
                    raise NotClosedError(pair) from None
            raise
        for pair, row in zip(pairs, carr.tolist()):
            ent = [(k, Fraction(x, cs)) for k, x in enumerate(row) if x]
            if ent:
                table[pair] = ent
    alg = Algebra(nb, table, labels=labels, name=name)
    if weights is not None:
        alg.weights = [tuple(w) for w in weights]
    if cartan is not None:
        alg.cartan = [list(h) for h in cartan]
    return alg


def direct_sum(a: Algebra, b: Algebra, name="") -> Algebra:
    """External direct sum with commuting summands.

    Weights and torus data are carried over when both summands have them,
    padding each weight tuple with zeros for the other summand's torus.
    """
    n = a.dim + b.dim
    table = {}
    for (i, j), ent in a.table.items():
        table[(i, j)] = list(ent)
    for (i, j), ent in b.table.items():
        table[(i + a.dim, j + a.dim)] = [(k + a.dim, v) for k, v in ent]
    out = Algebra(n, table, labels=list(a.labels) + list(b.labels), name=name)
    if a.weights is not None and b.weights is not None:
        ra = len(a.weights[0]) if a.dim else 0
        rb = len(b.weights[0]) if b.dim else 0
        out.weights = ([w + (F0,) * rb for w in a.weights]
                       + [(F0,) * ra + w for w in b.weights])
        if a.cartan is not None and b.cartan is not None:
            out.cartan = ([h + la.zero_vec(b.dim) for h in a.cartan]
                          + [la.zero_vec(a.dim) + h for h in b.cartan])
    return out


def subalgebra_on_indices(alg: Algebra, indices: list[int],
                          name: str = "") -> Algebra:
    """Restriction to the span of a subset of basis vectors.

    Raises ValueError if a bracket of two chosen vectors leaves the
    subset.  Weight and torus annotations are sliced along when present
    (torus vectors must be supported on the subset to survive).
    """
    pos = {g: i for i, g in enumerate(indices)}
    table = {}
    for a, ga in enumerate(indices):
        for b in range(a + 1, len(indices)):
            gb = indices[b]
            ent = []
            for l, v in alg.bk(ga, gb):
                if l not in pos:
                    raise ValueError("subset is not closed under the bracket")
                ent.append((pos[l], v))
            if ent:
                table[(a, b)] = sorted(ent)
    sub = Algebra(len(indices), table,
                  labels=[alg.labels[g] for g in indices], name=name)
    if alg.weights is not None:
        sub.weights = [alg.weights[g] for g in indices]
    if alg.cartan is not None:
        kept = []
        for h in alg.cartan:
            if all(h[i] == 0 for i in range(alg.dim) if i not in pos):
                kept.append([h[g] for g in indices])
        sub.cartan = kept or None
    return sub


def rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots with multiplicity; raises if any root is not
    rational (the polynomial must split over the rationals)."""
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator)
                          * x ** (len(coeffs) - 1 - i)
                          for i, c in enumerate(coeffs)), x)
    out = []
    const, factors = poly.factor_list()
    for fac, mult in factors:
        if fac.degree() != 1:
            raise ArithmeticError("irrational eigenvalue: %s" % fac)
        a, b = fac.all_coeffs()
        root = -Fraction(b.p, b.q) / Fraction(a.p, a.q)
        out.extend([root] * mult)
    return sorted(out)


def minimal_polynomial(m: la.Matrix) -> list[Fraction]:
    """Coefficients (leading first, monic) of the minimal polynomial of m.

    Grown by a Krylov sweep on flattened powers of m.  For the matrices we
    split (semisimple with a handful of eigenvalues) the degree is tiny, so
    this costs a few matrix products where expanding the characteristic
    polynomial of a 50-dim block would not be funny anymore.
    """
    n = len(m)
    if n == 0:
        return [F1]
    power = la.eye(n)
    flats = []
    while len(flats) <= n:
        flat = [v for row in power for v in row]
        co = la.solve(la.transpose(flats), flat) if flats else None
        if co is not None:
            # m^d = sum co_i m^i, so minpoly = x^d - sum co_i x^i
            return [F1] + [-c for c in reversed(co)]
        flats.append(flat)
        power = la.mat_mul(power, m)
    raise AssertionError("no dependence among matrix powers up to the dimension")


def rational_eigensplit(m: la.Matrix):
    """Split the space into eigenspaces of m.

    Returns a list of (eigenvalue, basis vectors) sorted by eigenvalue.
    Requires m to be diagonalizable with rational spectrum; raises
    ArithmeticError otherwise.
    """
    n = len(m)
    vals = sorted(set(rational_roots(minimal_polynomial(m))))
    out = []
    total = 0
    for lam in vals:
        shifted = [[m[i][j] - (lam if i == j else F0) for j in range(n)]
                   for i in range(n)]
        ker = la.kernel_basis(shifted)
        if ker:
            out.append((lam, ker))
            total += len(ker)
    if total != n:
        raise ArithmeticError("matrix is not diagonalizable over Q")
    return out


def simultaneous_eigenbasis(mats: list[la.Matrix]):
    """Common eigenbasis of a list of commuting matrices.

    Returns (vectors, tuples): vectors[i] is a basis vector, tuples[i] the
    tuple of eigenvalues under each matrix.  Raises ArithmeticError if the
    matrices are not simultaneously diagonalizable over the rationals.
    """
    if not mats:
        raise ValueError("no matrices given")
    n = len(mats[0])
    blocks = [([F0] * len(mats), [la.basis_vec(n, i) for i in range(n)])]
    for t, m in enumerate(mats):
        nxt = []
        for tup, vecs in blocks:
            if len(vecs) == 1:
                # still need the eigenvalue on this one-dim block
                img = la.mat_vec(m, vecs[0])
                j = next(i for i, x in enumerate(vecs[0]) if x != 0)
                lam = img[j] / vecs[0][j]
                if la.vec_sub(img, la.vec_scale(lam, vecs[0])) != la.zero_vec(n):
                    raise ArithmeticError("block is not an eigenvector")
                tup2 = list(tup)
                tup2[t] = lam
                nxt.append((tup2, vecs))
                continue
            # restrict m to the block: columns are images in block coords
            sub = _Coords(vecs)
            restr = []
            for v in vecs:
                img = la.mat_vec(m, v)
                co = sub.coords(img)
                if co is None:
                    raise ArithmeticError("matrix does not preserve block")
                restr.append(co)
            restr = la.transpose(restr)
            for lam, kb in rational_eigensplit(restr):
                lifted = []
                for k in kb:
                    w = la.zero_vec(n)
                    for c, bvec in zip(k, vecs):
                        if c != 0:
                            w = [x + c * y for x, y in zip(w, bvec)]
                    lifted.append(la.normalize_primitive(w))
                tup2 = list(tup)
                tup2[t] = lam
                nxt.append((tup2, lifted))
        blocks = nxt
    vectors = []
    tuples = []
    for tup, vecs in sorted(blocks, key=lambda bl: bl[0]):
        for v in vecs:
            vectors.append(v)
            tuples.append(tuple(tup))
    return vectors, tuples


# ---------------------------------------------------------------------------
# integer batch layer
#
# The 27-dimensional constructions need thousands of span-membership and
# coordinate computations; doing each one in Fraction arithmetic is exact but
# slow.  The helpers below clear denominators once and push whole batches
# through int64 matrix products, with explicit overflow guards and a full
# reconstruction check, so the speed never costs exactness.

INT64_GUARD = 1 << 62


def int_rows(rows, width: int | None = None):
    """Clear denominators of rational rows into (int64 array, scale).

    A row is a dense list, or a dict column -> value (then width is needed).
    """
    import numpy as np
    from math import lcm

    def items(row):
        return row.items() if isinstance(row, dict) else enumerate(row)

    if rows and not isinstance(rows[0], dict):
        width = len(rows[0])
    s = 1
    for row in rows:
        for _, v in items(row):
            s = lcm(s, v.denominator)
    arr = np.zeros((len(rows), width or 0), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, v in items(row):
            iv = v.numerator * (s // v.denominator)
            if abs(iv) >= INT64_GUARD:
                raise OverflowError("entry does not fit the int64 batch path")
            arr[i, j] = iv
    return arr, s


def guard_bound(terms: int, *arrs):
    """Refuse a batched product whose worst-case entry could overflow int64."""
    import numpy as np

    b = terms
    for a in arrs:
        b *= int(np.abs(a).max(initial=0))
    if b >= INT64_GUARD:
        raise OverflowError("integer batch would overflow int64")


class BatchCoords:
    """Coordinates in a fixed rational span for many vectors at once.

    The basis is echelonized once through _Coords; a batch of query rows then
    needs two integer matrix products.  Every batch is reconstruction-checked
    against the echelon rows, so a query outside the span raises instead of
    returning garbage.
    """

    def __init__(self, rows: la.Matrix):
        self.co = _Coords(rows)
        self.nb = len(rows)
        self.rint, self.rs = int_rows(self.co.r)
        self.tint, self.ts = int_rows(self.co.t)

    def coords_int(self, vint, vs: int):
        """Exact coords of the rows of vint (entries scaled by vs).

        Returns (carr, cs): row k of carr divided by cs gives the
        coefficients of query k over the original basis rows.  Raises
        ValueError if any query row is outside the span.
        """
        import numpy as np

        d = vint[:, self.co.piv]
        guard_bound(len(self.co.piv), d, self.rint)
        guard_bound(1, vint, np.array([self.rs], dtype=np.int64))
        if not np.array_equal(d @ self.rint, vint * self.rs):
            raise ValueError("query row outside the span in integer batch")
        guard_bound(len(self.co.piv), d, self.tint)
        return d @ self.tint, vs * self.ts

    def coords_rows(self, rows: la.Matrix) -> la.Matrix:
        """Fraction-level convenience wrapper around coords_int."""
        if not rows:
            return []
        vint, vs = int_rows(rows)
        carr, cs = self.coords_int(vint, vs)
        return [[Fraction(int(x), cs) for x in row] for row in carr]


def independent_rows(rows: la.Matrix) -> list[int]:
    """Indices of a maximal independent subset of rows, exactly certified.

    A single mod-p echelon pass proposes the subset, then every remaining row
    must pass the exact BatchCoords membership check.  If the prime hid a
    dependence the escapee joins the subset and the loop repeats, so a bad
    prime costs a retry, never a wrong answer.
    """
    import numpy as np

    from . import fastnum

    if not rows:
        return []
    arr = fastnum.fraction_rows_to_int(rows)
    if arr.dtype == object:
        arr = np.vectorize(lambda x: x % fastnum.PRIMES20[0])(arr).astype(np.int64)
    _, cand = fastnum.rref_mod(arr.T, fastnum.PRIMES20[0])
    chosen = sorted(cand)
    while True:
        bc = BatchCoords([rows[i] for i in chosen])
        rest = [i for i in range(len(rows)) if i not in set(chosen)]
        try:
            bc.coords_rows([rows[i] for i in rest])
            return chosen
        except ValueError:
            # find the first escapee exactly and retry with it included
            for i in rest:
                if bc.co.coords(rows[i]) is None:
                    chosen = sorted(chosen + [i])
                    break
            else:
                raise
