"""Shared machinery for turning concrete operator models into Algebra objects.

BatchCoords is the certified span engine for rows given as Fractions:
exact coordinates in a fixed span, and the choice of independent rows,
are computed here (the inner maps of the enveloping algebra and of g(T),
which come as integer data, go through envelope.class_bases instead).
Its guarantees:

* the basis rows are dense Fraction lists, or sparse dicts with any
  hashable keys; a sparse query with a nonzero entry at a key outside
  the support of the basis is outside the span;
* coords(v) gives the exact coordinates of one vector, or None when v is
  outside the span;
* coords_int pushes an int64 batch through two integer products, refuses
  (OverflowError) a product whose worst case could overflow, and checks
  the reconstruction of every row exactly, so it never returns
  coordinates of a row outside the span: OutsideSpan names the first;
* coords_rows answers a Fraction batch through coords_int, and row by
  row in exact arithmetic when the int64 guard refuses, so it never
  raises OverflowError;
* independent_rows selects the first independent rows in the given
  order: a mod-p echelon pass proposes them and one exact batch
  certifies the proposal (see its docstring), so a bad prime costs a
  retry, never a wrong answer (Dixon, "Exact solution of linear
  equations using p-adic expansions", Numer. Math. 1982, for the
  pattern of a modular proposal with an exact check).

int_commutators forms every pairwise commutator of a list of integer
sparse matrices in one guarded int64 sparse product; the class bases of
the enveloping algebra and of g(T) (envelope.class_bases) take their
commutators from it, and operator_algebra_from_basis through the
Fraction wrapper sp_commutators.  int_values clears a sequence of
Fractions to int64 with one common denominator.
operator_algebra_from_basis takes a list of sparse matrices acting on
some space, checks the span is closed under commutators and returns the
abstract Algebra with exact structure constants; all commutator
coordinates come from one batch, whose reconstruction check is the
closure certificate.  The eigensplit helpers refine a basis so that a
chosen torus acts diagonally, which the construction modules use before
freezing structure constants; their rational roots come from exact
Horner checks, and sympy is imported only to name an irrational factor.
"""

from fractions import Fraction
from math import lcm
from operator import attrgetter

import numpy as np
from scipy import sparse

from . import fastnum
from . import linalg as la
from .algebra import Algebra

F0 = Fraction(0)
F1 = Fraction(1)

SpMat = dict[tuple[int, int], Fraction]  # (row, col) -> coeff, zero entries absent


class NotClosedError(Exception):
    """A commutator left the span of the proposed basis."""


def _sp_product(a: SpMat, b: SpMat, out: dict, neg: bool = False) -> dict:
    """Add a b (or - a b) into out; entries that cancel stay as zeros."""
    byrow: dict[int, list] = {}
    for (r, c), v in b.items():
        byrow.setdefault(r, []).append((c, -v if neg else v))
    for (r, m), v in a.items():
        for c, w in byrow.get(m, ()):
            k = (r, c)
            out[k] = out.get(k, F0) + v * w
    return out


def sp_mul(a: SpMat, b: SpMat) -> SpMat:
    return {k: v for k, v in _sp_product(a, b, {}).items() if v != 0}


def sp_commutator(a: SpMat, b: SpMat) -> SpMat:
    out = _sp_product(b, a, _sp_product(a, b, {}), neg=True)
    return {k: v for k, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# the span engine
#
# Clearing denominators once and pushing whole batches through int64
# matrix products is what makes the 27-dimensional constructions cheap;
# explicit overflow guards and a full reconstruction check keep it exact.

INT64_GUARD = 1 << 62


class EntryOverflow(OverflowError):
    """Entry `index` of a batch does not fit int64."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def int_values(coeffs) -> tuple[np.ndarray, int]:
    """Clear the denominators of a sequence of rationals at once: returns
    the int64 array of the values times S, and S, their least common
    denominator.  Refuses (OverflowError) an S that does not fit the int64
    batch path, and (EntryOverflow) a value that does not: the message
    names the entry and the limit it passes."""
    try:
        num = np.fromiter(map(attrgetter("numerator"), coeffs), np.int64, len(coeffs))
        den = np.fromiter(map(attrgetter("denominator"), coeffs), np.int64, len(coeffs))
    except OverflowError:
        t, c = next((t, c) for t, c in enumerate(coeffs)
                    if not (-2 ** 63 <= c.numerator < 2 ** 63 and c.denominator < 2 ** 63))
        raise EntryOverflow("value %s (entry %d) does not fit int64 (|x| < 2^63)"
                            % (c, t), t) from None
    s = lcm(*np.unique(den).tolist())
    if s >= INT64_GUARD:
        raise OverflowError("denominators do not fit the int64 batch path")
    mult = s // den
    lim = (INT64_GUARD - 1) // mult
    bad = np.flatnonzero((num > lim) | (num < -lim))
    if len(bad):
        t = int(bad[0])
        v = coeffs[t] * s
        raise EntryOverflow(
            "value %s (entry %d) times the common denominator %d is %s, outside %s"
            % (coeffs[t], t, s, v, "int64 (|x| < 2^63)" if abs(v) >= 2 ** 63
               else "the int64 batch path (|x| < 2^62)"), t)
    return num * mult, s


def int_rows(rows, width: int | None = None):
    """Clear denominators of rational rows into (int64 array, scale).

    A row is a dense list, or a dict column -> value (then width is needed).
    """
    def items(row):
        return row.items() if isinstance(row, dict) else enumerate(row)

    if rows and not isinstance(rows[0], dict):
        width = len(rows[0])
    ent = [(i, j, v) for i, row in enumerate(rows) for j, v in items(row) if v]
    vals, s = int_values([v for _, _, v in ent])
    arr = np.zeros((len(rows), width or 0), dtype=np.int64)
    if ent:
        arr[[i for i, _, _ in ent], [j for _, j, _ in ent]] = vals
    return arr, s


def guard_bound(terms: int, *arrs):
    """Refuse a batched product whose worst-case entry could overflow int64."""
    b = terms
    for a in arrs:
        b *= int(np.abs(a).max(initial=0))
    if b >= INT64_GUARD:
        raise OverflowError("integer batch would overflow int64")


def int_commutators(ms, ml, mk, vals, b: int, n: int):
    """Every nonzero entry of the commutators [A_s, A_t], s < t, of b
    integer sparse maps on an n-dimensional space.

    Entry e of the maps is vals[e] at (ml[e], mk[e]) of A_{ms[e]}, every
    position at most once.  All products come from one guarded int64
    sparse product: block (s, t) of vstack(A) @ hstack(A) is A_s A_t.
    Returns (pair, lk, v), sorted: v at lk = l n + k of [A_s, A_t] with
    pair = s b + t.  OverflowError if a product does not fit int64.
    """
    guard_bound(n, vals, vals)
    stacked = sparse.csr_array((vals, (ms * n + ml, mk)), shape=(b * n, n))
    side = sparse.csr_array((vals, (ml, ms * n + mk)), shape=(n, b * n))
    prod = (stacked @ side).tocoo()
    (r, c), v = prod.coords, prod.data
    (s, l), (t, k) = np.divmod(r, n), np.divmod(c, n)
    off = s != t
    s, t, l, k, v = s[off], t[off], l[off], k[off], v[off]
    # [A_s, A_t] at (l, k) is (A_s A_t)[l, k] - (A_t A_s)[l, k]
    lo, hi = np.minimum(s, t), np.maximum(s, t)
    code, v = fastnum.summed(((lo * b + hi) * n + l) * n + k, np.where(s < t, v, -v))
    pair, lk = np.divmod(code, n * n)
    return pair, lk, v


def sp_commutators(maps: list[SpMat], n: int):
    """Every nonzero commutator [maps[s], maps[t]], s < t, in (s, t) order,
    of sparse maps on an n-dimensional space, through int_commutators.

    Returns the pairs and their commutators as SpMats, with one Fraction
    per distinct value.  OverflowError if an entry or a product does not
    fit int64.
    """
    b = len(maps)
    ent = [(s, l, k) for s, m in enumerate(maps) for (l, k) in m]
    if not ent:
        return [], []
    vals, sc = int_values([v for m in maps for v in m.values()])
    ms, ml, mk = np.array(ent, dtype=np.int64).T
    pair, lk, v = int_commutators(ms, ml, mk, vals, b, n)
    v = v.tolist()
    frac = {x: Fraction(x, sc * sc) for x in set(v)}
    entries = list(zip(zip(*(x.tolist() for x in np.divmod(lk, n))),
                       map(frac.__getitem__, v)))
    start = np.flatnonzero(np.diff(pair, prepend=-1))
    bounds = start.tolist() + [len(entries)]
    pairs = [divmod(p, b) for p in pair[start].tolist()]
    return pairs, [dict(entries[a:z]) for a, z in zip(bounds, bounds[1:])]


class OutsideSpan(ValueError):
    """Row `index` of a query batch is not in the span."""

    def __init__(self, index: int):
        super().__init__("query row %d is outside the span" % index)
        self.index = index


class BatchCoords:
    """Exact coordinates in the span of fixed independent rows.

    The reduced echelon form R = T B of the basis matrix B is kept once,
    read off la.rref of [B | I] (ValueError if the rows are dependent,
    which puts a pivot in the I block).  Since R is reduced, a vector
    v in the span satisfies v = sum_t v[piv_t] R_t, so its coordinates
    over B are (v at the pivots) T, accepted only after the exact check
    that the sum reproduces v.
    """

    def __init__(self, rows):
        self.pos = None
        if not rows or isinstance(rows[0], dict):
            self.pos = {}
            for row in rows:
                for k in row:
                    self.pos.setdefault(k, len(self.pos))
            rows = [self._dense(row) for row in rows]
        nb = self.nb = len(rows)
        width = len(rows[0]) if rows else 0
        aug, self.piv = la.rref([list(row) + la.basis_vec(nb, i)
                                 for i, row in enumerate(rows)])
        if nb and self.piv[-1] >= width:
            raise ValueError("basis rows are dependent")
        self.r = [row[:width] for row in aug]
        self.t = [row[width:] for row in aug]
        self._ints = None

    def _cols(self, v: dict):
        """A sparse query as {column: value}, None if it leaves the support."""
        out = {}
        for k, x in v.items():
            if x != 0:
                c = self.pos.get(k)
                if c is None:
                    return None
                out[c] = x
        return out

    def _dense(self, v):
        if not isinstance(v, dict):
            return v
        cols = self._cols(v)
        if cols is None:
            return None
        out = la.zero_vec(len(self.pos))
        for c, x in cols.items():
            out[c] = x
        return out

    def coords(self, v):
        """Exact coordinates of one vector, or None outside the span."""
        v = self._dense(v)
        if v is None:
            return None
        d = [v[p] for p in self.piv]
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

    def coords_int(self, vint, vs: int):
        """Exact coords of the rows of vint (entries scaled by vs).

        Returns (carr, cs): row k of carr divided by cs gives the
        coefficients of query k over the basis rows.  Raises OutsideSpan
        for the first query row outside the span, and OverflowError when
        the int64 guard refuses.
        """
        if self._ints is None:
            width = vint.shape[1]
            self._ints = (*int_rows(self.r, width), *int_rows(self.t, self.nb))
        rint, rs, tint, ts = self._ints
        d = vint[:, self.piv]
        guard_bound(len(self.piv), d, rint)
        guard_bound(1, vint, np.array([rs], dtype=np.int64))
        bad = np.flatnonzero((d @ rint != vint * rs).any(axis=1))
        if len(bad):
            raise OutsideSpan(int(bad[0]))
        guard_bound(len(self.piv), d, tint)
        return d @ tint, vs * ts

    def coords_rows(self, rows) -> la.Matrix:
        """Exact coordinates of every row (dense lists or dicts).

        One int64 batch when the guard allows it, else row by row in
        exact arithmetic.  Raises OutsideSpan for the first row outside
        the span.
        """
        if not rows:
            return []
        cols, width = rows, None
        if isinstance(rows[0], dict):
            cols, width = [self._cols(v) for v in rows], len(self.pos)
            miss = next((k for k, c in enumerate(cols) if c is None), None)
            if miss is not None:
                self.coords_rows(rows[:miss])   # an earlier escapee comes first
                raise OutsideSpan(miss)
        try:
            carr, cs = self.coords_int(*int_rows(cols, width))
        except OverflowError:
            out = [self.coords(v) for v in rows]
            miss = next((k for k, c in enumerate(out) if c is None), None)
            if miss is not None:
                raise OutsideSpan(miss) from None
            return out
        return [[Fraction(x, cs) if x else F0 for x in row]
                for row in carr.tolist()]


def independent_rows(rows):
    """The first independent rows in the given order, exactly certified.

    Returns (chosen, engine, coords): the indices of the rows that are
    not combinations of the rows before them, a BatchCoords on those
    rows, and the coordinates of every row over them.

    One mod-p echelon pass proposes the indices, then one coords_rows
    batch certifies that every other row is a combination of the chosen
    rows before it, which pins the set down.  If the prime hid a
    dependence, the first failing row joins the set: a row outside the
    span just joins, and a row that needs a later chosen row takes the
    place of the last one it needs (exchange lemma, so the set stays
    independent and moves to a lexicographically earlier one).  Then the
    check repeats.
    """
    if not rows:
        return [], BatchCoords([]), []
    # each row cleared of denominators, then reduced mod p
    p = fastnum.PRIMES20[0]
    pos: dict = {}
    ii, jj, vals = [], [], []
    for i, row in enumerate(rows):
        nz = [(k, x) for k, x in (row.items() if isinstance(row, dict)
                                  else enumerate(row)) if x]
        d = lcm(*(x.denominator for _, x in nz))
        for k, x in nz:
            ii.append(i)
            jj.append(pos.setdefault(k, len(pos)))
            vals.append(x.numerator * (d // x.denominator) % p)
    arr = np.zeros((len(rows), len(pos)), dtype=np.int64)
    arr[ii, jj] = vals
    _, chosen = fastnum.rref_mod(arr.T, p)
    while True:
        engine = BatchCoords([rows[i] for i in chosen])
        cset = set(chosen)
        rest = [i for i in range(len(rows)) if i not in cset]
        try:
            co = engine.coords_rows([rows[i] for i in rest])
        except OutsideSpan as e:
            chosen = sorted(chosen + [rest[e.index]])
            continue
        late = next(((i, c) for i, c in zip(rest, co)
                     if any(c[t] for t, j in enumerate(chosen) if j > i)), None)
        if late is None:
            break
        i, c = late
        out = max(j for t, j in enumerate(chosen) if c[t])
        chosen = sorted([j for j in chosen if j != out] + [i])
    coords = dict(zip(rest, co))
    for t, i in enumerate(chosen):
        coords[i] = la.basis_vec(len(chosen), t)
    return chosen, engine, [coords[i] for i in range(len(rows))]


def operator_algebra_from_basis(mats, labels=None, name="", weights=None,
                                cartan=None):
    """Abstract Lie algebra spanned by given operators, via commutators.

    mats: list of sparse matrices (dict (row, col) -> Fraction) on a common
    space.  The span must be closed under [a, b] = ab - ba; otherwise
    NotClosedError is raised with the first offending pair.  cartan, if
    given, is a list of coordinate vectors w.r.t. mats.

    The nonzero commutators get their coordinates from one BatchCoords
    batch, whose reconstruction check is the closure certificate.
    """
    nb = len(mats)
    space = 1 + max((max(k) for m in mats for k in m), default=-1)
    pairs, comms = sp_commutators(mats, space)
    try:
        co = BatchCoords(mats).coords_rows(comms)
    except OutsideSpan as e:
        raise NotClosedError(pairs[e.index]) from None
    table = {}
    for pair, row in zip(pairs, co):
        ent = [(k, x) for k, x in enumerate(row) if x]
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
    table = dict(a.table)
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


class IrrationalRoot(ArithmeticError):
    """A polynomial that must split over Q has an irreducible factor of
    degree above one; factor is that sympy Poly."""

    def __init__(self, factor):
        super().__init__("irrational eigenvalue: %s" % factor)
        self.factor = factor


def _horner(coeffs, x):
    """Quotient and remainder of the division by (X - x), leading first."""
    out = [coeffs[0]]
    for c in coeffs[1:]:
        out.append(c + x * out[-1])
    return out[:-1], out[-1]


def rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots with multiplicity; raises IrrationalRoot if any
    root is not rational (the polynomial must split over the rationals).

    With the denominators cleared, the leading coefficient a is an
    integer and a r is an integer for every rational root r.  So the
    floating-point roots, scaled by a and rounded, give the candidates;
    each is confirmed by exact Horner evaluation, and every confirmed root
    is divided out as often as it divides.  Only a factor left over (an
    irrational root, or a rational one the floating-point step missed)
    goes to sympy, whose first irreducible factor of degree above one is
    the witness.
    """
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    lead = abs(ints[0])
    try:
        approx = np.roots([float(c) for c in ints])
    except (OverflowError, np.linalg.LinAlgError):
        approx = []
    rest, out = [Fraction(c) for c in coeffs], []
    cands = {round(lead * z.real) for z in approx if np.isfinite(z)}
    for cand in sorted(Fraction(c, lead) for c in cands):
        quo, rem = _horner(rest, cand)
        while len(rest) > 1 and rem == 0:
            rest = quo
            out.append(cand)
            quo, rem = _horner(rest, cand)
    if len(rest) > 1:
        import sympy
        # over ZZ (primitive factors) when the input was integral, as a
        # Poly of the input itself would be, else over QQ (monic factors)
        if den == 1:
            rest = [c * lcm(*(c.denominator for c in rest)) for c in rest]
        x = sympy.Symbol("x")
        poly = sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator)
                              * x ** (len(rest) - 1 - i)
                              for i, c in enumerate(rest)), x,
                          domain="ZZ" if den == 1 else "QQ")
        for fac, mult in poly.factor_list()[1]:
            if fac.degree() != 1:
                raise IrrationalRoot(fac)
            a, b = fac.all_coeffs()
            out.extend([-Fraction(b.p, b.q) / Fraction(a.p, a.q)] * mult)
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
            try:
                restr = BatchCoords(vecs).coords_rows(
                    [la.mat_vec(m, v) for v in vecs])
            except OutsideSpan:
                raise ArithmeticError("matrix does not preserve block") from None
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
