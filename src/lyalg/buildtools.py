"""Shared machinery for turning concrete operator models into Algebra objects.

The certified span engine lives here: one solver and one selection loop
answer every span question in the package, the closure of the
derivation spans, the slices' coordinates (compjordan), the commutator
action of the tkk map (tits), the change of basis to a split torus
(roots) and the inner maps of the enveloping algebra and of g(T)
(envelope.class_bases).  Its guarantees:

* Span holds independent integer rows C.  A mod-p elimination pass
  proposes pivot columns with an invertible minor M, and d M^-1 is
  integral; a query q has x = q[:, piv] (d M^-1), d times its
  coordinates, accepted only after the exact check x C == d q.  An int64
  query runs in guarded int64 and is refused (OverflowError) where a
  product could overflow; a query in Python ints (dtype object) runs
  the same solve exactly;
* select picks the first independent rows in the given order: a mod-p
  echelon pass proposes them and one Span solve certifies that every
  other row is a combination of the chosen rows before it.  If the
  prime hid a dependence, the first failing row joins the set (see its
  docstring), so a bad prime costs a retry, never a wrong answer (Dixon,
  "Exact solution of linear equations using p-adic expansions", Numer.
  Math. 1982, for the pattern of a modular proposal with an exact
  check);
* BatchCoords is the int64 adapter of the trace-zero views' slice
  coordinates (compjordan._pair_action, _pair_tables): a Span on the
  slice basis, given as int64 rows with their common scale, and
  coords_int, which answers an int64 batch in guarded int64 and raises
  OutsideSpan naming the first row outside the span.

int_commutators forms every pairwise commutator of a list of integer
sparse matrices from one guarded int64 join (fastnum.join); the class
bases of the enveloping algebra and of g(T) (envelope.class_bases) and
operator_algebra_from_basis take their commutators from it.

pair_table assembles every table: each builder hands it int64 parts
(p, q, target, val, scale), batch brings them to their least common
scale, sums equal entries and puts the result in lowest terms, and the
Algebra holds that table.  The Tits algebras, the enveloping algebra,
g(T), direct_sum, subalgebra_on_indices and roots._rebase build this
way; operator_algebra_from_basis hands over the coordinates of its one
solve, already in table order.  The Kronecker builder (kron, batch,
pair_table, kronecker_ternary) serves every tensor product X (x) Y: the
Tits grid, the matrix tensor families and the form-paired candidates
each pass it int64 tensors of their factors, and kronecker_ternary gives
the ternary product t(y y') D_{x,x'} (x) 1 + t(x x') 1 (x) d_{y,y'} as
one guarded int64 table.  int_values clears a sequence of Fractions to
int64 with one common denominator.
operator_algebra_from_basis takes a list of sparse matrices acting on
some space, checks the span is closed under commutators and returns the
abstract Algebra holding its int64 table: all commutator coordinates
come from one Span solve, whose reconstruction check is the closure
certificate.  simultaneous_eigenbasis refines a basis so that a chosen
torus, given as int64 operators, acts diagonally (saturate_torus, the
views of compjordan and sym0 use it): floats propose the eigenvalues of
each integer block and exact integer kernels decide, and a block they do
not settle goes to rational_eigensplit, whose rational roots come from
exact Horner checks; sympy is imported only to name an irrational
factor.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

import numpy as np

from . import fastnum
from . import linalg as la
from .algebra import Algebra

F0 = Fraction(0)
F1 = Fraction(1)

SpMat = dict[tuple[int, int], Fraction]  # (row, col) -> coeff, zero entries absent


class NotClosedError(Exception):
    """A commutator left the span of the proposed basis."""


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


def _entries(rows, width):
    """The nonzero entries (i, j, value) of rational rows, and their width.

    A row is a dense list, or a dict column -> value (then width is needed).
    """
    def items(row):
        return row.items() if isinstance(row, dict) else enumerate(row)

    if rows and not isinstance(rows[0], dict):
        width = len(rows[0])
    return [(i, j, v) for i, row in enumerate(rows) for j, v in items(row) if v], width or 0


def int_rows(rows, width: int | None = None):
    """Clear denominators of rational rows into (int64 array, scale).

    A row is a dense list, or a dict column -> value (then width is needed).
    """
    ent, width = _entries(rows, width)
    vals, s = int_values([v for _, _, v in ent])
    arr = np.zeros((len(rows), width), dtype=np.int64)
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
    join: its terms at row (s, l) and column (t, k) make up block (s, t)
    of vstack(A) @ hstack(A), which is A_s A_t.  Returns (pair, lk, v),
    sorted: v at lk = l n + k of [A_s, A_t] with pair = s b + t.
    OverflowError if a product does not fit int64.
    """
    guard_bound(n, vals, vals)
    r, c, v = fastnum.join((ms * n + ml, mk, vals), (ml, ms * n + mk, vals))
    (s, l), (t, k) = np.divmod(r, n), np.divmod(c, n)
    off = s != t
    s, t, l, k, v = s[off], t[off], l[off], k[off], v[off]
    # [A_s, A_t] at (l, k) is (A_s A_t)[l, k] - (A_t A_s)[l, k]
    lo, hi = np.minimum(s, t), np.maximum(s, t)
    code, v = fastnum.summed(((lo * b + hi) * n + l) * n + k, np.where(s < t, v, -v))
    pair, lk = np.divmod(code, n * n)
    return pair, lk, v


# the Kronecker builder of a tensor product X (x) Y


def kron(xa, ya, base):
    """Entries xa[i, k, u] ya[j, l, w] of [x_i (x) y_j, x_k (x) y_l] at
    target base + u W + w, W = ya.shape[2], as (p, q, target, val) over
    the grid pairs p = i ny + j < q = k ny + l, each (p, q, target) once."""
    ny, W = ya.shape[0], ya.shape[2]
    (i, k, u), (j, l, w) = np.nonzero(xa), np.nonzero(ya)
    xv, yv = xa[i, k, u], ya[j, l, w]
    guard_bound(1, xv, yv)
    p, q = i[:, None] * ny + j, k[:, None] * ny + l
    e, g = np.nonzero(p < q)
    return p[e, g], q[e, g], base + u[e] * W + w[g], xv[e] * yv[g]


def batch(parts):
    """(code, val, scale) of the entries (code, val, scale) of parts over
    their least common scale, in code order and lowest terms, equal codes
    summed and zeros dropped.  Each value is guarded here once brought to
    the common scale; that every code's sum fits int64 is the caller's
    guard, as a join's guard_bound over all its terms gives it.  No parts
    give no entries."""
    den = lcm(*(s for *_, s in parts))
    for _, v, s in parts:
        guard_bound(den // s, v)
    empty = [np.zeros(0, dtype=np.int64)]
    code, val = fastnum.summed(np.concatenate(empty + [c for c, _, _ in parts]),
                               np.concatenate(empty + [v * (den // s) for _, v, s in parts]))
    return (code, *fastnum.lowest_terms(val, den))


def pair_table(dim, parts):
    """The int64 table (pair, target, val, scale) of the entries
    (p, q, target, val, scale) of parts, through batch."""
    code, val, s = batch([((p * dim + q) * dim + t, v, s) for p, q, t, v, s in parts])
    pair, tgt = np.divmod(code, dim)
    return pair, tgt, val, s


def kronecker_ternary(dx, tx, dy, ty):
    """Ternary table of X (x) Y: t(y y') D_{x,x'} (x) 1 + t(x x') 1 (x) d_{y,y'}.

    dx is the int64 pair-map tensor D[i, k, a, r] of X, D(x_i, x_k) x_r =
    sum_a D[i, k, a, r] x_a, and tx the form t(x_i, x_k) of X, likewise
    dy and ty for Y, each as (array, scale).  Grid index i ny + j stands
    for x_i (x) y_j.  kron pairs each factor's pair maps with the other's
    form over the grid pairs p < q, the identity on the other leg spreads
    each entry over the third argument r, and batch sums the codes
    (p, q, r, target).  Returns the LYAlgebra int64 table
    (pair, col, val, scale); a 0-dim factor gives the empty table.
    """
    (dx, sdx), (tx, stx), (dy, sdy), (ty, sty) = dx, tx, dy, ty
    nx, ny = len(tx), len(ty)
    dim = nx * ny
    if not dim:
        e = np.zeros(0, dtype=np.int64)
        return e, e, e, 1
    # left: D_{x_i,x_k} x_r (x) y_s, r = i3 ny + s, at a ny + s
    p, q, u, v = kron(dx.reshape(nx, nx, -1), ty[:, :, None], 0)
    (a, i3), s = np.divmod(u[:, None], nx), np.arange(ny)
    left = ((p * dim + q)[:, None] * dim + i3 * ny + s) * dim + a * ny + s
    # right: x_r (x) d_{y_j,y_l} y_s, r = i3 ny + s, at i3 ny + b
    p, q, u, w = kron(tx[:, :, None], dy.reshape(ny, ny, -1), 0)
    (b, s), i3 = np.divmod(u, ny), np.arange(nx)[:, None] * ny
    right = ((p * dim + q) * dim + i3 + s) * dim + i3 + b
    code, val, den = batch([(left.ravel(), np.repeat(v, ny), sty * sdx),
                            (right.ravel(), np.tile(w, nx), stx * sdy)])
    pqr, tgt = np.divmod(code, dim)
    pair, r = np.divmod(pqr, dim)
    return pair, tgt * dim + r, val, den


def dense_rows(row, code, val, nrows: int, cols: np.ndarray):
    """Rows of sparse entries (value val[e] of row row[e] at column code
    code[e]) as a dense int64 block over the sorted codes cols; bad marks
    the rows with an entry outside cols."""
    pos = np.minimum(np.searchsorted(cols, code), len(cols) - 1)
    inside = cols[pos] == code
    out = np.zeros((nrows, len(cols)), dtype=np.int64)
    out[row[inside], pos[inside]] = val[inside]
    bad = np.zeros(nrows, dtype=bool)
    bad[row[~inside]] = True
    return out, bad


class OutsideSpan(ValueError):
    """Row `index` of a query batch is not in the span."""

    def __init__(self, index: int):
        super().__init__("query row %d is outside the span" % index)
        self.index = index


class Span:
    """Exact coordinates in the span of independent integer rows c.

    piv are columns with an invertible minor M = c[:, piv], found mod a
    prime, or by an exact echelon form should every prime lose rank
    (ValueError if the rows are dependent), and minv = d M^-1 is
    integral.  A row q in the span has the coordinates q[:, piv] M^-1,
    so x = q[:, piv] minv is d times them, and q is in the span exactly
    when x c == d q.  Rows c in int64 keep minv in int64 (OverflowError
    if it does not fit); rows in Python ints (dtype object) keep it so.
    """

    def __init__(self, c: np.ndarray):
        r = len(c)
        for p in fastnum.PRIMES20:
            piv = fastnum.rref_mod(c, p)[1]
            if len(piv) == r:
                break
        else:
            piv = la.rref(c.tolist())[1]
            if len(piv) < r:
                raise ValueError("basis rows are dependent")
        inv = la.inv(c[:, piv].tolist())
        d = lcm(*(x.denominator for row in inv for x in row))
        minv = [[x.numerator * (d // x.denominator) for x in row] for row in inv]
        big = max([d] + [abs(x) for row in minv for x in row])
        if c.dtype != object and big >= INT64_GUARD:
            raise OverflowError("pivot inverse does not fit the int64 batch path")
        self.c, self.piv, self.d = c, piv, d
        self.minv = np.array(minv, dtype=c.dtype).reshape(r, r)

    def solve(self, q: np.ndarray):
        """(x, bad): x = d times the coordinates of the rows of q, valid
        where bad is False; bad marks the rows outside the span.

        An int64 q runs in guarded int64: OverflowError where a product
        could overflow, or when the span is held in Python ints.  A q in
        Python ints (dtype object) is solved exactly.
        """
        r = len(self.piv)
        qp = q[:, self.piv]
        guarded = q.dtype != object
        if guarded:
            if self.c.dtype == object:
                raise OverflowError("the span is held in Python ints, not int64")
            guard_bound(r, qp, self.minv)
        x = qp @ self.minv
        if guarded:
            guard_bound(r, x, self.c)
            guard_bound(self.d, q)
        return x, (x @ self.c != self.d * q).any(axis=1)


def select(a: np.ndarray):
    """The first independent rows of an integer matrix, exactly certified.

    Returns (span, chosen, x): a Span on the chosen rows, their indices,
    and x with row i = span.d times the coordinates of row i of a.

    One mod-p echelon pass proposes the indices, then one Span solve
    certifies that every other row is a combination of the chosen rows
    before it, which pins the set down.  If the prime hid a dependence,
    the first failing row joins the set: a row outside the span just
    joins, and a row that needs a later chosen row takes the place of the
    last one it needs (exchange lemma, so the set stays independent and
    moves to a lexicographically earlier one).  Then the check repeats.
    """
    chosen = fastnum.rref_mod(a.T, fastnum.PRIMES20[0])[1]
    while True:
        span = Span(a[chosen])
        rest = np.setdiff1d(np.arange(len(a)), chosen)
        x, bad = span.solve(a[rest])
        if bad.any():
            chosen = sorted(chosen + [int(rest[np.argmax(bad)])])
            continue
        late = ((x != 0) & (np.array(chosen) > rest[:, None])).any(axis=1)
        if not late.any():
            break
        k = int(np.argmax(late))
        out = chosen[int(np.flatnonzero(x[k])[-1])]
        chosen = sorted([j for j in chosen if j != out] + [int(rest[k])])
    full = np.zeros((len(a), len(chosen)), dtype=a.dtype)
    full[rest] = x
    full[chosen, np.arange(len(chosen))] = span.d
    return span, chosen, full


def _exact(solve, a: np.ndarray):
    """solve(a), or solve on a in Python ints when the int64 guard refuses."""
    try:
        return solve(a)
    except OverflowError:
        return solve(a.astype(object))


class BatchCoords:
    """Exact coordinates in the span of fixed independent rational rows
    rows / scale, given as int64 rows with their common scale, through
    one Span on them (held in Python ints when its pivot inverse does not
    fit int64).  ValueError if the rows are dependent.
    """

    def __init__(self, rows: np.ndarray, scale: int):
        self.span = _exact(Span, rows)
        self.scale = scale

    def coords_int(self, vint, vs: int):
        """Exact coords of the rows of vint (entries scaled by vs), in
        guarded int64.

        Returns (carr, cs): row k of carr divided by cs gives the
        coefficients of query k over the basis rows.  Raises OutsideSpan
        for the first query row outside the span, and OverflowError when
        the int64 guard refuses.
        """
        x, bad = self.span.solve(vint)
        if bad.any():
            raise OutsideSpan(int(np.argmax(bad)))
        # the basis rows are the integer rows over scale
        g = gcd(self.scale, self.span.d)
        guard_bound(self.scale // g, x)
        return x * (self.scale // g), self.span.d // g * vs


def operator_algebra_from_basis(mats, labels=None, name="", weights=None,
                                cartan=None):
    """Abstract Lie algebra spanned by given operators, via commutators.

    mats: list of independent sparse matrices (dict (row, col) ->
    Fraction) on a common space.  The span must be closed under
    [a, b] = ab - ba; otherwise NotClosedError is raised with the first
    offending pair.  cartan, if given, is a list of coordinate vectors
    w.r.t. mats.

    The maps are one int64 block over the codes row n + col of their
    entries, and a Span on it; the nonzero commutators (int_commutators)
    get their coordinates from one solve, whose reconstruction check is
    the closure certificate, and those coordinates, in lowest terms, are
    the Algebra's int64 table.  ValueError if the maps are dependent,
    OverflowError if an entry, a product or the pivot inverse does not
    fit int64.
    """
    nb = len(mats)
    space = 1 + max((max(k) for m in mats for k in m), default=-1)
    gen, code = np.array([(s, l * space + k) for s, m in enumerate(mats) for l, k in m],
                         dtype=np.int64).reshape(-1, 2).T
    vals, sc = int_values([v for m in mats for v in m.values()])
    cols = np.unique(code)
    span = Span(dense_rows(gen, code, vals, nb, cols)[0])
    pair, lk, v = int_commutators(gen, *np.divmod(code, space), vals, nb, space)
    pairs, row = np.unique(pair, return_inverse=True)
    q, miss = dense_rows(row, lk, v, len(pairs), cols)
    x, bad = span.solve(q)
    bad = np.flatnonzero(bad | miss)
    if len(bad):
        raise NotClosedError(divmod(int(pairs[bad[0]]), nb))
    # the commutators carry the maps' scale sc twice, the maps once
    r, t = np.nonzero(x)
    val, den = fastnum.lowest_terms(x[r, t], span.d * sc)
    alg = Algebra(nb, (pairs[r], t, val, den), labels=labels, name=name)
    if weights is not None:
        alg.weights = [tuple(w) for w in weights]
    if cartan is not None:
        alg.cartan = [list(h) for h in cartan]
    return alg


def direct_sum(a: Algebra, b: Algebra, name="") -> Algebra:
    """External direct sum with commuting summands: the int64 tables of a
    and b, b's shifted past a's basis, through pair_table.

    Weights and torus data are carried over when both summands have them,
    padding each weight tuple with zeros for the other summand's torus.
    """
    n = a.dim + b.dim
    parts = []
    for x, off in ((a, 0), (b, a.dim)):
        pair, tgt, val, s = x.table_int
        parts.append((pair // x.dim + off, pair % x.dim + off, tgt + off, val, s))
    out = Algebra(n, pair_table(n, parts), labels=list(a.labels) + list(b.labels),
                  name=name)
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
    """Restriction to the span of a subset of basis vectors: the entries
    of alg's int64 table between chosen vectors, renumbered, through
    pair_table.

    Raises ValueError for an index that is repeated or outside
    range(alg.dim), and if a bracket of two chosen vectors leaves the
    subset.  Weight and torus annotations are sliced along when present
    (torus vectors must be supported on the subset to survive).
    """
    n, m = alg.dim, len(indices)
    if len(set(indices)) != m or not all(0 <= g < n for g in indices):
        raise ValueError("indices must be distinct and in range(%d)" % n)
    pos = np.full(n, -1)
    pos[list(indices)] = np.arange(m)
    pair, tgt, val, s = alg.table_int
    a, b = pos[pair // n], pos[pair % n]
    on = (a >= 0) & (b >= 0)
    a, b, t, v = a[on], b[on], pos[tgt[on]], val[on]
    if (t < 0).any():
        raise ValueError("subset is not closed under the bracket")
    table = pair_table(m, [(np.minimum(a, b), np.maximum(a, b), t,
                            np.where(a < b, v, -v), s)])
    sub = Algebra(m, table, labels=[alg.labels[g] for g in indices], name=name)
    if alg.weights is not None:
        sub.weights = [alg.weights[g] for g in indices]
    if alg.cartan is not None:
        kept = []
        for h in alg.cartan:
            if all(h[i] == 0 for i in range(n) if pos[i] < 0):
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


def primitive_rows(rows: np.ndarray) -> np.ndarray:
    """Nonzero integer rows divided by their gcd, with a positive leading
    nonzero entry (linalg.normalize_primitive, row by row)."""
    g = np.gcd.reduce(rows, axis=1)
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    return rows // np.where(lead < 0, -g, g)[:, None]


def _restriction(op: np.ndarray, vecs: np.ndarray):
    """(r, d): op v_j = sum_i r[i, j] v_i / d on the integer rows v_j of
    vecs, from one Span solve.  A block as large as the space is still
    its standard basis, so there r = op.  ArithmeticError if op leaves
    the span."""
    if len(vecs) == len(op):
        return op, 1
    span = Span(vecs)
    guard_bound(len(op), vecs, op)
    x, bad = span.solve(vecs @ op.T)
    if bad.any():
        raise ArithmeticError("matrix does not preserve block")
    return x.T, span.d


def _eigenspaces(op: np.ndarray, scale: int, vecs: np.ndarray):
    """[(eigenvalue, rows)] of op / scale on the span of the rows vecs,
    sorted by eigenvalue, each eigenspace as primitive integer rows.

    The restriction r / d of op is exact, so every kernel vector of
    r - mu lifts to an eigenvector of op.  A rational eigenvalue of the
    integer matrix r is an integer, so the rounded float spectrum of r
    proposes them, and the exact kernels decide: they must fill the
    block.  Otherwise the exact restriction goes to rational_eigensplit,
    which splits it or raises.
    """
    r, d = _restriction(op, vecs)
    n, rl = len(r), r.tolist()
    if (r == r[0, 0] * np.eye(n, dtype=np.int64)).all():
        return [(Fraction(rl[0][0], d * scale), vecs)]
    bound = n * int(np.abs(r).max(initial=0))     # bounds every eigenvalue
    try:
        mus = sorted({round(z.real) for z in np.linalg.eigvals(r.astype(float))})
    except (np.linalg.LinAlgError, ValueError, OverflowError):
        mus = []
    out = []
    for mu in (mu for mu in mus if abs(mu) <= bound):
        ker = la.kernel_basis([[x - mu * (i == j) for j, x in enumerate(row)]
                               for i, row in enumerate(rl)])
        if ker:
            out.append((Fraction(mu, d * scale), ker))
    if sum(len(ker) for _, ker in out) != n:
        out = rational_eigensplit([[Fraction(x, d * scale) for x in row] for row in rl])
    return [(lam, _lift(ker, vecs)) for lam, ker in out]


def _lift(ker, vecs: np.ndarray) -> np.ndarray:
    """Primitive integer rows of the combinations ker (integral
    coordinate rows) of the rows vecs."""
    k = np.array([[int(x) for x in v] for v in ker], dtype=np.int64)
    guard_bound(len(vecs), k, vecs)
    return primitive_rows(k @ vecs)


def simultaneous_eigenbasis(ops: np.ndarray, scale: int):
    """Common eigenbasis of commuting matrices, given as one int64 array
    ops of shape (k, m, m) with a common scale: matrix t is ops[t] / scale.

    Returns (vectors, tuples): vectors is an int64 (m, m) array whose
    row i is a primitive basis vector, tuples[i] the tuple of its
    eigenvalues (Fractions) under each matrix, ordered by tuple.  The
    matrices split the space one after another, block by block; each
    block is split exactly in integers (_eigenspaces), where the float
    spectrum only proposes eigenvalues and exact integer kernels decide.
    Raises ArithmeticError if the matrices are not simultaneously
    diagonalizable over the rationals (IrrationalRoot, with the factor,
    for an irrational eigenvalue).
    """
    k, m = len(ops), ops.shape[-1]
    if not k:
        raise ValueError("no matrices given")
    # a block is (eigenvalues so far, rows); t is the next matrix
    blocks, t = [([], np.eye(m, dtype=np.int64))], 0
    while t < k and any(len(vecs) > 1 for _, vecs in blocks):
        nxt = []
        for tup, vecs in blocks:
            if len(vecs) == 1:
                parts = [(_eigenvalues(ops[t:t + 1], scale, vecs)[0][0], vecs)]
            else:
                parts = _eigenspaces(ops[t], scale, vecs)
            nxt.extend((tup + [lam], sub) for lam, sub in parts)
        blocks, t = nxt, t + 1
    # once every block is one vector, its eigenvalues under the rest at once
    vectors = np.concatenate([vecs for _, vecs in blocks])
    heads = [tup for tup, vecs in blocks for _ in vecs]
    tuples = [tuple(h + lam) for h, lam in zip(heads, _eigenvalues(ops[t:], scale, vectors))]
    order = sorted(range(m), key=tuples.__getitem__)
    return vectors[order], [tuples[i] for i in order]


def _eigenvalues(ops: np.ndarray, scale: int, vecs: np.ndarray):
    """lam[b][s], the eigenvalue of ops[s] / scale on row b of vecs;
    ArithmeticError if a row is not an eigenvector of every matrix.

    The rows are primitive, so an eigenvalue of the integer ops[s] on one
    is an integer.  It is read off the row's largest entry, so lam v is
    no larger than the image and the check needs no further guard."""
    guard_bound(ops.shape[-1], ops, vecs)
    img = np.einsum("sij,bj->bsi", ops, vecs)
    b = np.arange(len(vecs))
    j = np.abs(vecs).argmax(axis=1)
    lam, rem = np.divmod(img[b, :, j], vecs[b, j][:, None])
    if rem.any() or (img != lam[:, :, None] * vecs[:, None, :]).any():
        raise ArithmeticError("block is not an eigenvector")
    return [[Fraction(x, scale) for x in row] for row in lam.tolist()]
