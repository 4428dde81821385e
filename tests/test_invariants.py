"""Killing form, centroid, commutant and derivation solvers on small
algebras where every answer is known by hand."""

from fractions import Fraction

import pytest

from lyalg import linalg as la
from lyalg.algebra import Algebra
from lyalg.buildtools import (NotClosedError, direct_sum, independent_rows,
                              operator_algebra_from_basis,
                              rational_eigensplit, simultaneous_eigenbasis)
from lyalg.invariants import (centroid_basis, centroid_dim, derivation_basis,
                              is_semisimple, is_simple, killing_gram,
                              killing_radical, commutant_dim)
from lyalg.matrixalg import build_matrix_lie

fr = Fraction


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
    assert killing_gram(g) == [[fr(8), fr(0), fr(0)],
                               [fr(0), fr(0), fr(4)],
                               [fr(0), fr(4), fr(0)]]
    assert killing_radical(g) == []
    assert is_semisimple(g)
    assert is_simple(g)


def test_killing_heisenberg():
    h = heisenberg()
    rad = killing_radical(h)
    assert len(rad) == 3
    assert not is_semisimple(h)
    assert not is_simple(h)


def test_is_semisimple_mod_p_then_exact_fallback():
    g = sl2()
    assert is_semisimple(g)
    assert "killing_radical" not in g._cache     # full rank mod p sufficed
    gl3 = build_matrix_lie("gl", 3)
    for a in (heisenberg(), gl3):
        assert not is_semisimple(a)
        assert a._cache["killing_radical"]      # the exact solve decided
    assert len(gl3._cache["killing_radical"]) == 1


def test_centroid_sl2_is_scalars():
    g = sl2()
    cb = centroid_basis(g)
    assert len(cb) == 1
    phi = cb[0]
    lead = next(v for row in phi for v in row if v != 0)
    assert [[v / lead for v in row] for row in phi] == la.eye(3)


def test_centroid_direct_sum():
    g = direct_sum(sl2(), sl2(), name="sl2+sl2")
    assert g.weights is not None and g.cartan is not None
    assert centroid_dim(g) == 2
    assert is_semisimple(g)
    assert not is_simple(g)
    # same answer without the weight-block shortcut
    g2 = direct_sum(sl2(), sl2())
    g2.weights = None
    assert centroid_dim(g2) == 2


def test_derivations_sl2_all_inner():
    g = sl2()
    der = derivation_basis(g)
    assert len(der) == 3
    ads = [la.transpose([g.bracket(la.basis_vec(3, i), la.basis_vec(3, j))
                         for j in range(3)]) for i in range(3)]
    chosen, span, _ = independent_rows([[v for row in d for v in row]
                                        for d in der])
    assert chosen == [0, 1, 2]
    for m in ads:
        assert span.coords([v for row in m for v in row]) is not None


def test_derivations_abelian():
    a = Algebra(2, {})
    assert len(derivation_basis(a)) == 4


def test_commutant_of_irreducible_action():
    g = sl2()
    ops = []
    for i in range(3):
        m = g.ad(la.basis_vec(3, i))
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


def test_simultaneous_eigenbasis():
    a = [[fr(0), fr(1), fr(0)], [fr(1), fr(0), fr(0)], [fr(0), fr(0), fr(2)]]
    b = [[fr(3), fr(0), fr(0)], [fr(0), fr(3), fr(0)], [fr(0), fr(0), fr(5)]]
    vecs, tups = simultaneous_eigenbasis([a, b])
    assert len(vecs) == 3
    assert sorted(tups) == [(fr(-1), fr(3)), (fr(1), fr(3)), (fr(2), fr(5))]
    for v, t in zip(vecs, tups):
        assert la.mat_vec(a, v) == la.vec_scale(t[0], v)
        assert la.mat_vec(b, v) == la.vec_scale(t[1], v)
