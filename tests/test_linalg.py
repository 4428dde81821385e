from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyalg import linalg as la

F = Fraction

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)


def small_matrix(rows=st.integers(1, 5), cols=st.integers(1, 5)):
    return st.tuples(rows, cols).flatmap(
        lambda rc: st.lists(
            st.lists(rationals, min_size=rc[1], max_size=rc[1]),
            min_size=rc[0], max_size=rc[0],
        )
    )


def test_rref_known():
    a = [[F(1), F(2)], [F(2), F(4)]]
    rows, piv = la.rref(a)
    assert rows == [[F(1), F(2)]]
    assert piv == [0]


def test_solve_and_inv():
    a = [[F(2), F(1)], [F(1), F(3)]]
    b = [F(5), F(10)]
    x = la.solve(a, b)
    assert la.rank(a) == 2
    assert la.mat_vec(a, x) == b
    ai = la.inv(a)
    assert la.mat_mul(a, ai) == la.eye(2)


def test_normalize_primitive():
    v = [F(0), F(-2, 3), F(4, 3)]
    assert la.normalize_primitive(v) == [F(0), F(1), F(-2)]
    assert la.normalize_primitive([F(0), F(0)]) == [F(0), F(0)]


@given(small_matrix())
@settings(max_examples=60, deadline=None)
def test_kernel_annihilates(a):
    ker = la.kernel_basis(a)
    for v in ker:
        assert la.is_zero_vec(la.mat_vec(a, v))
        ints = [x.denominator == 1 for x in v]
        assert all(ints)
        lead = next(x for x in v if x != 0)
        assert lead > 0


@given(small_matrix())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(a):
    assert la.rank(a) + len(la.kernel_basis(a)) == len(a[0])


@given(small_matrix())
@settings(max_examples=40, deadline=None)
def test_rref_idempotent(a):
    rows, piv = la.rref(a)
    if rows:
        rows2, piv2 = la.rref(rows)
        assert rows2 == rows and piv2 == piv


@given(small_matrix(rows=st.integers(1, 4), cols=st.integers(1, 4)),
       st.lists(rationals, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_solve_verifies(a, x):
    x = (x * 4)[: len(a[0])]
    b = la.mat_vec(a, x)
    got = la.solve(a, b)
    assert got is not None
    assert la.mat_vec(a, got) == b


def test_split_grams():
    g = la.sym_split_gram(5)
    assert g[0][1] == 1 and g[1][0] == 1 and g[4][4] == 1
    assert la.rank(g) == 5
    s = la.skew_split_gram(4)
    assert s[0][1] == 1 and s[1][0] == -1
    with pytest.raises(ValueError):
        la.skew_split_gram(3)
