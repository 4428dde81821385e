"""The Killing form radical and semisimplicity, the operator algebra and
eigenbasis tools, on small algebras where every answer is known by hand.

The exact references live here, on the Fraction routines of linalg:
the derivation algebra of a multiplication table (derivation_space), the
dimension of the commutant of a set of operators (commutant_dim), which
certifies that a module is irreducible in test_matrix_families, the
first independent rows of a list and the coordinates of rows over
independent rows (first_independent, coords_reference), which the
reference views and tensor factors use in place of the span engine, and
the Fraction common eigenbasis (eigenbasis_reference) that the integer
simultaneous_eigenbasis must reproduce.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from lyalg import invariants
from lyalg import linalg as la
from lyalg.algebra import Algebra
from lyalg.buildtools import (IrrationalRoot, NotClosedError, direct_sum,
                              operator_algebra_from_basis,
                              rational_eigensplit, simultaneous_eigenbasis)
from lyalg.invariants import is_semisimple, killing_radical
from lyalg.matrixalg import build_matrix_lie
from lyalg.roots import classify

fr = Fraction


def ad(g, x):
    """Matrix of ad(x) = [x, .] acting on column coordinates."""
    return la.transpose([g.bracket(x, la.basis_vec(g.dim, j)) for j in range(g.dim)])


def derivation_space(dim, mul):
    """Basis of the matrices D with D(xy) = D(x) y + x D(y) for the
    bilinear product mul, from the dim^3 Leibniz equations on the basis
    in the dim^2 entries of D (entry D[r][c] is unknown r dim + c)."""
    e = [la.basis_vec(dim, i) for i in range(dim)]
    tab = [[mul(x, y) for y in e] for x in e]
    rows = []
    for i in range(dim):
        for j in range(dim):
            for a in range(dim):
                row = [fr(0)] * (dim * dim)
                for c in range(dim):
                    row[a * dim + c] += tab[i][j][c]
                    row[c * dim + i] -= tab[c][j][a]
                    row[c * dim + j] -= tab[i][c][a]
                rows.append(row)
    return [[v[r * dim:(r + 1) * dim] for r in range(dim)]
            for v in la.kernel_basis(rows, dim * dim)]


def commutant_dim(ops, dim, weights=None):
    """Dimension of {phi : phi A = A phi for every operator A}.

    Operators are sparse matrices {(row, col): Fraction}.  `weights`
    restricts phi to the blocks of equal weight, which loses nothing when
    the grading torus acts through the span of the operators.
    """
    slots = [(r, c) for r in range(dim) for c in range(dim)
             if weights is None or weights[r] == weights[c]]
    slot = {rc: u for u, rc in enumerate(slots)}
    rows = []
    for op in ops:
        # equation (r, j) of A phi - phi A: sum_k A_rk phi_kj - phi_rk A_kj
        eqs = {}
        for (r, k), x in op.items():
            for j in range(dim):
                if (k, j) in slot:
                    eqs.setdefault((r, j), [fr(0)] * len(slots))[slot[k, j]] += x
                if (j, r) in slot:
                    eqs.setdefault((j, k), [fr(0)] * len(slots))[slot[j, r]] -= x
        rows = la.rref(rows + list(eqs.values()))[0]
    return len(slots) - len(rows)


def sl2():
    # basis h, e, f with [h,e] = 2e, [h,f] = -2f, [e,f] = h
    table = {
        (0, 1): [(1, fr(2))],
        (0, 2): [(2, fr(-2))],
        (1, 2): [(0, fr(1))],
    }
    a = Algebra(3, table, labels=["h", "e", "f"], name="sl2")
    a.weights = [(fr(0),), (fr(2),), (fr(-2),)]
    a.cartan = [[fr(1), fr(0), fr(0)]]
    return a


def heisenberg():
    return Algebra(3, {(0, 1): [(2, fr(1))]}, labels=["x", "y", "z"])


def test_killing_sl2():
    g = sl2()
    assert killing_radical(g) == []
    assert is_semisimple(g)
    assert classify(g) == "A1"


def test_killing_heisenberg():
    h = heisenberg()
    rad = killing_radical(h)
    assert len(rad) == 3
    assert not is_semisimple(h)


def test_is_semisimple_mod_p_then_exact_fallback():
    g = sl2()
    assert is_semisimple(g)
    assert "killing_radical" not in g._cache     # full rank mod p sufficed
    gl3 = build_matrix_lie("gl", 3)
    for a in (heisenberg(), gl3):
        assert not is_semisimple(a)
        assert a._cache["killing_radical"]      # the exact solve decided
    assert gl3._cache["killing_radical"] == [[fr(int(i % 4 == 0)) for i in range(9)]]


def test_is_semisimple_exact_path_when_the_prime_fails(monkeypatch):
    # sl2's Killing form diag(8) + 4 (e f + f e) is 0 mod 2, so full rank
    # mod p fails and only the exact radical can answer
    monkeypatch.setattr(invariants, "PRIMES", [2])
    g = sl2()
    assert is_semisimple(g)
    assert g._cache["killing_radical"] == []
    h = heisenberg()
    assert not is_semisimple(h)
    assert len(killing_radical(h)) == 3


def test_centroid_direct_sum():
    # a split semisimple algebra has one centroid dimension per simple
    # ideal, and classify names the ideals
    g = direct_sum(sl2(), sl2(), name="sl2+sl2")
    assert g.weights is not None and g.cartan is not None
    assert is_semisimple(g)
    assert classify(g) == "A1+A1"


def test_derivations_sl2_all_inner():
    g = sl2()
    der = derivation_space(3, g.bracket)
    assert len(der) == 3
    ads = [ad(g, la.basis_vec(3, i)) for i in range(3)]
    flats = [[v for row in d for v in row] for d in der]
    assert first_independent(flats) == [0, 1, 2]
    coords_reference(flats, [[v for row in m for v in row] for m in ads])


def test_derivations_abelian():
    a = Algebra(2, {})
    assert len(derivation_space(2, a.bracket)) == 4


def test_commutant_of_irreducible_action():
    g = sl2()
    ops = []
    for i in range(3):
        m = ad(g, la.basis_vec(3, i))
        ops.append({(r, c): m[r][c] for r in range(3) for c in range(3)
                    if m[r][c] != 0})
    assert commutant_dim(ops, 3) == 1
    assert commutant_dim(ops, 3, weights=g.weights) == 1


def test_operator_algebra_round_trip():
    e = {(0, 1): fr(1)}
    f = {(1, 0): fr(1)}
    h = {(0, 0): fr(1), (1, 1): fr(-1)}
    alg = operator_algebra_from_basis([h, e, f], labels=["h", "e", "f"])
    assert alg.table == sl2().table
    with pytest.raises(ValueError, match="dependent"):
        operator_algebra_from_basis([h, e, {(0, 1): fr(2)}])


def test_operator_algebra_not_closed():
    e = {(0, 1): fr(1)}
    f = {(1, 0): fr(1)}
    with pytest.raises(NotClosedError) as exc:
        operator_algebra_from_basis([e, f])
    assert exc.value.args[0] == (0, 1)


def test_operator_algebra_not_closed_inside_support():
    # [E01, E10] = E00 - E11 stays on the support of E00 + E11 but is not
    # in the span, so only the exact coordinate check can reject it
    e01 = {(0, 1): fr(1)}
    e10 = {(1, 0): fr(1)}
    unit = {(0, 0): fr(1), (1, 1): fr(1)}
    with pytest.raises(NotClosedError) as exc:
        operator_algebra_from_basis([e01, e10, unit])
    assert exc.value.args[0] == (0, 1)


def test_eigensplit_swap():
    m = [[fr(0), fr(1)], [fr(1), fr(0)]]
    split = rational_eigensplit(m)
    assert [lam for lam, _ in split] == [fr(-1), fr(1)]
    for lam, vecs in split:
        for v in vecs:
            assert la.mat_vec(m, v) == la.vec_scale(lam, v)


def test_eigensplit_rejects_irrational():
    rot = [[fr(0), fr(-1)], [fr(1), fr(0)]]
    with pytest.raises(ArithmeticError):
        rational_eigensplit(rot)


def first_independent(rows):
    """Indices of the rows that are not combinations of the rows before
    them: the pivot columns of rows^T (la.rref)."""
    return la.rref(la.transpose(rows))[1] if rows else []


def coords_reference(basis, rows):
    """Coordinates of rows over independent rows basis: la.solve of
    basis^T x = row for every row at once, as one la.rref of
    [basis^T | rows^T], whose first len(basis) rows are then [I | X^T].
    ArithmeticError if a row is outside the span."""
    if not rows:
        return []
    nb = len(basis)
    red, piv = la.rref([b + r for b, r in zip(la.transpose(basis), la.transpose(rows),
                                              strict=True)])
    if piv != list(range(nb)):
        raise ArithmeticError("a row is outside the span of the basis")
    return la.transpose([row[nb:] for row in red])


def eigenbasis_reference(mats):
    """Common eigenbasis of commuting Fraction matrices: the space split
    by one matrix after another, block by block, each block's restriction
    from coords_reference and its split from rational_eigensplit, the lifted
    vectors made primitive.  Returns (vectors, tuples) ordered by tuple."""
    if not mats:
        raise ValueError("no matrices given")
    n = len(mats[0])
    blocks = [([fr(0)] * len(mats), [la.basis_vec(n, i) for i in range(n)])]
    for t, m in enumerate(mats):
        nxt = []
        for tup, vecs in blocks:
            if len(vecs) == 1:
                img = la.mat_vec(m, vecs[0])
                j = next(i for i, x in enumerate(vecs[0]) if x != 0)
                lam = img[j] / vecs[0][j]
                if la.vec_sub(img, la.vec_scale(lam, vecs[0])) != la.zero_vec(n):
                    raise ArithmeticError("block is not an eigenvector")
                tup2 = list(tup)
                tup2[t] = lam
                nxt.append((tup2, vecs))
                continue
            try:
                restr = coords_reference(vecs, [la.mat_vec(m, v) for v in vecs])
            except ArithmeticError:
                raise ArithmeticError("matrix does not preserve block") from None
            for lam, kb in rational_eigensplit(la.transpose(restr)):
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
    vectors, tuples = [], []
    for tup, vecs in sorted(blocks, key=lambda bl: bl[0]):
        for v in vecs:
            vectors.append(v)
            tuples.append(tuple(tup))
    return vectors, tuples


def test_simultaneous_eigenbasis():
    a = [[0, 1, 0], [1, 0, 0], [0, 0, 2]]
    b = [[3, 0, 0], [0, 3, 0], [0, 0, 5]]
    vecs, tups = simultaneous_eigenbasis(np.array([a, b]), 1)
    assert vecs.dtype == np.int64 and len(vecs) == 3
    assert sorted(tups) == [(fr(-1), fr(3)), (fr(1), fr(3)), (fr(2), fr(5))]
    for v, t in zip(vecs.tolist(), tups):
        assert la.mat_vec(a, v) == la.vec_scale(t[0], v)
        assert la.mat_vec(b, v) == la.vec_scale(t[1], v)
    assert (vecs.tolist(), tups) == eigenbasis_reference(
        [[[fr(x) for x in row] for row in m] for m in (a, b)])


def unimodular(rng, n):
    """A seeded integer matrix of determinant 1 and its integer inverse,
    as a product of elementary row operations."""
    u, ui = np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        e = np.eye(n, dtype=np.int64)
        e[i, j] = c
        u, ui = e @ u, ui @ (2 * np.eye(n, dtype=np.int64) - e)
    assert (u @ ui == np.eye(n)).all()
    return u, ui


# diagonals of commuting operators, conjugated below: repeated
# eigenvalues, blocks that only the second or third operator splits, and
# a zero operator
DIAGONALS = [
    [[1, 1, 2, 2], [0, 3, 0, 3], [5, 5, 5, 7]],
    [[4, 4, 4], [0, 0, 0], [1, -1, 1]],
    [[2, 2, 2, 2, 2], [1, 1, 1, -3, -3], [0, 2, 2, 0, 1]],
    [[0, 0, 6, 6, -6, -6], [1, -1, 1, -1, 1, -1], [0, 0, 0, 0, 0, 0], [3, 3, 3, 3, 3, 9]],
]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scale", [1, 2, 6])
@pytest.mark.parametrize("diagonals", DIAGONALS)
def test_integer_eigenbasis_matches_the_fraction_reference(diagonals, scale, seed):
    rng = random.Random(seed)
    u, ui = unimodular(rng, len(diagonals[0]))
    ops = np.array([u @ np.diag(d) @ ui for d in diagonals])
    vecs, tups = simultaneous_eigenbasis(ops, scale)
    ref = eigenbasis_reference([[[fr(x, scale) for x in row] for row in op]
                                for op in ops.tolist()])
    assert (vecs.tolist(), tups) == ref


@pytest.mark.parametrize("ops, witness", [
    ([[[1, 1], [0, 1]]], None),                                 # a Jordan block
    ([[[0, 2], [1, 0]], [[1, 0], [0, 1]]], "x**2 - 2"),
    ([[[1, 0, 0], [0, 1, 0], [0, 0, 2]],
      [[0, 0, 0], [0, 0, 0], [1, 0, 0]]], None),                # leaves the block
], ids=["jordan-block", "irrational", "leaves-the-block"])
def test_integer_eigenbasis_refuses_as_the_reference_does(ops, witness):
    with pytest.raises(ArithmeticError) as new:
        simultaneous_eigenbasis(np.array(ops, dtype=np.int64), 1)
    with pytest.raises(ArithmeticError) as ref:
        eigenbasis_reference([[[fr(x) for x in row] for row in op] for op in ops])
    assert type(new.value) is type(ref.value)
    assert str(new.value) == str(ref.value)
    if witness is None:
        assert not isinstance(new.value, IrrationalRoot)
    else:
        assert str(new.value.factor.as_expr()) == str(ref.value.factor.as_expr()) == witness
