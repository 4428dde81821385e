"""The certified span engine, Span and select, directly and through the
int64 adapter of the trace-zero views, BatchCoords, and the exact
rational root finder."""

import random
from fractions import Fraction

import numpy as np
import pytest

from lyalg import linalg as la
from lyalg.buildtools import (INT64_GUARD, BatchCoords, IrrationalRoot,
                              OutsideSpan, Span, _exact, int_rows, int_values,
                              rational_roots, select, subalgebra_on_indices)
from lyalg.fastnum import PRIMES20
from lyalg.matrixalg import build_matrix_lie

F = Fraction


def vecs(*rows):
    return [[F(x) for x in r] for r in rows]


def ints(*rows):
    return np.array(rows, dtype=np.int64)


def test_span_gives_d_times_the_coordinates_of_rows_in_the_span():
    c = np.array([[2, 0, 1, 4], [0, 3, 1, 0], [1, 1, 0, 5]], dtype=np.int64)
    span = Span(c)
    co = np.array([[1, 0, 0], [2, -1, 3], [0, 0, 0], [-4, 5, 7]], dtype=np.int64)
    q = co @ c
    x, bad = span.solve(q)
    assert not bad.any()
    assert (x @ c == span.d * q).all()
    assert (x == span.d * co).all()


def test_span_flags_rows_outside_the_span():
    # the span of (1, 0, 2) and (0, 1, 3) is {(a, b, 2a + 3b)}
    span = Span(np.array([[1, 0, 2], [0, 1, 3]], dtype=np.int64))
    q = np.array([[1, 1, 5], [0, 0, 1], [2, -1, 1], [1, 1, 4]], dtype=np.int64)
    x, bad = span.solve(q)
    assert bad.tolist() == [False, True, False, True]
    assert (x[~bad] == span.d * np.array([[1, 1], [2, -1]])).all()


def test_span_refuses_dependent_basis_rows_only():
    with pytest.raises(ValueError, match="dependent"):
        Span(np.array([[1, 2, 0], [2, 4, 0]], dtype=np.int64))
    # rows dependent only modulo the first prime take the next one
    p = PRIMES20[0]
    span = Span(np.array([[1, 0], [1, p]], dtype=np.int64))
    x, bad = span.solve(np.array([[2, p]], dtype=np.int64))
    assert not bad.any() and (x == span.d * np.array([[1, 1]])).all()


def test_span_pivot_inverse_past_the_int64_guard_overflows():
    # the inverse of [[a, 1], [1, 0]] is [[0, 1], [1, -a]]
    c = np.array([[INT64_GUARD, 1], [1, 0]], dtype=np.int64)
    with pytest.raises(OverflowError, match="pivot inverse"):
        Span(c)
    span = Span(c.astype(object))
    x, bad = span.solve(np.array([[INT64_GUARD + 1, 1]], dtype=object))
    assert not bad.any() and x.tolist() == [[1, 1]]
    # an int64 query cannot run against the Python-int span
    with pytest.raises(OverflowError):
        span.solve(np.array([[1, 0]], dtype=np.int64))


def test_span_object_rows_agree_with_fraction_solve():
    rng = random.Random(11)
    outside = 0
    for _ in range(20):
        nb, width = rng.randint(1, 4), rng.randint(4, 6)
        rows = [[rng.choice([0, 1, -3, 2**70 + rng.randint(0, 9)])
                 for _ in range(width)] for _ in range(nb)]
        if la.rank(vecs(*rows)) < nb:
            continue
        span = Span(np.array(rows, dtype=object))
        q = [[rng.randint(-2**66, 2**66) for _ in range(nb)] for _ in range(3)]
        q = la.mat_mul(vecs(*q), vecs(*rows)) + [la.basis_vec(width, 0)]
        x, bad = span.solve(np.array([[int(v) for v in row] for row in q],
                                     dtype=object))
        cols = la.transpose(vecs(*rows))
        for row, xr, b in zip(q, x.tolist(), bad):
            want = la.solve(cols, row)
            assert b == (want is None)
            outside += b
            if want is not None:
                assert [F(v, span.d) for v in xr] == want
    assert outside


def coords(x, d):
    """Rows of an integer array over a common denominator, as Fractions."""
    return [[F(v, d) for v in row] for row in x.tolist()]


def test_selection_and_membership():
    span, chosen, x = select(ints([1, 1, 0], [2, 2, 0], [0, 1, 1]))
    assert chosen == [0, 2]
    assert coords(x, span.d) == [[1, 0], [2, 0], [0, 1]]
    x, bad = span.solve(ints([1, 0, -1], [0, 0, 1]))
    assert bad.tolist() == [False, True]
    assert coords(x[:1], span.d) == [[1, -1]]


def test_coords_of_one_vector_and_a_batch():
    eng = BatchCoords(ints([1, 1, 0], [0, 0, 1]), 1)
    assert coords(*eng.coords_int(ints([3, 3, -1]), 1)) == [[3, -1]]
    with pytest.raises(OutsideSpan):
        eng.coords_int(ints([1, 0, 0]), 1)
    q = int_rows(vecs([3, 3, -1], [F(1, 2), F(1, 2), 0]))
    assert coords(*eng.coords_int(*q)) == [[3, -1], [F(1, 2), 0]]
    with pytest.raises(OutsideSpan) as err:
        eng.coords_int(ints([0, 0, 5], [1, 0, 0], [0, 1, 0]), 1)
    assert err.value.index == 1
    # basis rows with a scale: (1/2, 1/2, 0) and (0, 0, 1)
    eng = BatchCoords(*int_rows(vecs([F(1, 2), F(1, 2), 0], [0, 0, 1])))
    assert coords(*eng.coords_int(ints([3, 3, -1]), 1)) == [[6, -1]]


def test_selection_extends_to_basis():
    rows = [[1, 1, 1]] + np.eye(3, dtype=np.int64).tolist()
    _, chosen, _ = select(ints(*rows))
    assert la.rank(vecs(*[rows[i] for i in chosen])) == 3
    assert chosen == [0, 1, 2]


def test_dependent_basis_rows_raise():
    with pytest.raises(ValueError):
        BatchCoords(ints([1, 2], [2, 4]), 1)
    with pytest.raises(ValueError):
        BatchCoords(*int_rows(vecs([F(1, 3), 1], [1, 3])))


def test_seeded_bases_answer_exactly_and_refuse_the_rest():
    # random combinations come back with their exact coordinates, a row
    # outside the span raises OutsideSpan, dependent rows raise ValueError
    rng = random.Random(7)
    dependent = outside = 0
    for _ in range(60):
        nb, width = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[F(rng.choice([0, 0, 1, -2, 3]), rng.randint(1, 3))
                 for _ in range(width)] for _ in range(nb)]
        if la.rank(rows) < nb:
            dependent += 1
            with pytest.raises(ValueError):
                BatchCoords(*int_rows(rows))
            continue
        eng = BatchCoords(*int_rows(rows))
        co = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nb)]
              for _ in range(3)]
        combos = la.mat_mul(co, rows)
        assert coords(*eng.coords_int(*int_rows(combos))) == co
        escapee = next((la.basis_vec(width, i) for i in range(width)
                        if la.rank(rows + [la.basis_vec(width, i)]) > nb), None)
        if escapee is not None:
            outside += 1
            with pytest.raises(OutsideSpan) as err:
                eng.coords_int(*int_rows(combos + [escapee] + combos))
            assert err.value.index == 3
    assert 0 < dependent < 60 and outside


def test_selection_is_greedy_over_zero_and_repeated_rows():
    span, chosen, x = select(ints([0, 0, 0], [1, 2, 0], [1, 2, 0], [0, 0, 0], [2, 4, 0],
                                  [0, 1, 0], [1, 3, 0], [0, 0, 7]))
    co = coords(x, span.d)
    assert chosen == [1, 5, 7]
    assert co[0] == co[3] == [0, 0, 0]
    assert co[4] == [2, 0, 0]
    assert co[6] == [1, 1, 0]
    assert select(np.zeros((0, 2), dtype=np.int64))[1] == []
    assert select(ints([0, 0]))[1] == []


def test_selection_corrects_a_prime_that_hides_a_dependence():
    p = PRIMES20[0]
    # row 1 equals row 0 mod p, so the proposal skips it for row 2
    span, chosen, x = select(ints([1, 0], [1, p], [0, 1]))
    assert chosen == [0, 1]
    assert coords(x, span.d)[2] == [F(-1, p), F(1, p)]
    # row 1 vanishes mod p: the exact check finds it outside the span
    assert select(ints([1, 0, 0], [0, p, 0], [1, p, 0]))[1] == [0, 1]


def test_selection_past_the_int64_guard_answers_exactly():
    big = 2**62 + 1
    a = ints([big, 1], [1, 0], [big + 1, 1])
    # the pivot inverse of the first two rows leaves int64: _exact reruns
    # the selection in Python ints
    with pytest.raises(OverflowError, match="pivot inverse"):
        select(a)
    span, chosen, x = _exact(select, a)
    assert chosen == [0, 1] and x.dtype == object
    assert coords(x, span.d)[2] == [1, 1]
    x, bad = span.solve(np.array([[2 * big, 2]], dtype=object))
    assert not bad.any() and coords(x, span.d) == [[2, 0]]
    # a query past the guard is solved in Python ints, and still refused
    x, bad = _exact(Span(ints([1, 0])).solve, ints([big, 1]))
    assert bad.tolist() == [True] and x.dtype == object
    # the int64 batch of an adapter held in Python ints keeps its guard
    with pytest.raises(OverflowError):
        BatchCoords(a[:2], 1).coords_int(ints([1, 1]), 1)


def poly(*roots, lead=F(1), extra=()):
    """Coefficients, leading first, of lead * prod (x - r) * extra."""
    out = [lead]
    for r in roots:
        out = [a - r * b for a, b in zip(out + [F(0)], [F(0)] + out)]
    if extra:
        prod = [F(0)] * (len(out) + len(extra) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(extra):
                prod[i + j] += a * b
        out = prod
    return out


def test_int_values_names_the_value_beyond_int64():
    with pytest.raises(OverflowError, match=r"value %d \(entry 1\).*\(\|x\| < 2\^63\)"
                       % 2 ** 70):
        int_values([F(1), F(2 ** 70), F(3)])
    with pytest.raises(OverflowError, match="int64"):
        int_values([F(1, 2 ** 64)])


def test_rational_roots_with_multiplicity():
    assert rational_roots(poly(2, 2, 2, -1, 0, 0)) == [-1, 0, 0, 2, 2, 2]
    assert rational_roots([F(1)]) == []


def test_rational_roots_of_a_non_monic_polynomial():
    # a rational leading coefficient, fractional and repeated roots
    coeffs = poly(F(1), F(-1, 2), F(1, 3), F(1, 3), lead=F(6, 7))
    assert rational_roots(coeffs) == [F(-1, 2), F(1, 3), F(1, 3), 1]


def test_irrational_root_witness_is_the_sympy_factor():
    import sympy
    x = sympy.Symbol("x")
    for coeffs in (poly(3, F(1, 2), extra=[F(1), F(0), F(-2)]),
                   poly(1, extra=[F(2), F(0), F(0), F(1)]),
                   [F(1), F(0), F(-2)]):
        expr = sum(sympy.Rational(c.numerator, c.denominator)
                   * x ** (len(coeffs) - 1 - i) for i, c in enumerate(coeffs))
        want = next(f for f, _ in sympy.Poly(expr, x).factor_list()[1]
                    if f.degree() > 1)
        with pytest.raises(IrrationalRoot) as err:
            rational_roots(coeffs)
        assert err.value.factor == want
        assert err.value.factor.domain == want.domain


@pytest.mark.parametrize("indices", [[0, 0, 1], [-1], [0, 7]],
                         ids=["repeated", "negative", "too large"])
def test_subalgebra_on_indices_refuses_what_is_not_a_subset(indices):
    # on sl2 a repeated index would give a 3-dim algebra and -1 would
    # wrap around to e2
    with pytest.raises(ValueError, match="distinct and in range"):
        subalgebra_on_indices(build_matrix_lie("sl", 2), indices)


def test_subalgebra_on_indices_renumbers_in_the_given_order():
    g = build_matrix_lie("sl", 2)
    sub = subalgebra_on_indices(g, [2, 0])
    assert sub.labels == [g.labels[2], g.labels[0]]
    assert sub.table == {(0, 1): [(0, F(2))]}
    with pytest.raises(ValueError, match="not closed"):
        subalgebra_on_indices(g, [1, 2])
