"""Integer scaling of structure constants refuses what int64 cannot hold;
the join primitive and the Killing form match dense numpy references; the
dense exact product equals the Python-int product on both of its paths."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyalg import fastnum
from lyalg.algebra import Algebra
from lyalg.compjordan import build_composition, build_jordan, trace_admissible_view
from lyalg.fastnum import (FLOAT_EXACT, INT64_GUARD, distinct, exact_dot, jacobi_violation,
                           join, killing_int, scaled, summed)
from lyalg.matrixalg import build_matrix_lie
from lyalg.tits import build_tits


def test_scaled_tables_name_the_constant_beyond_int64():
    # 2^62 fits int64, but times the common denominator 3 it does not
    alg = Algebra(3, {(0, 1): [(2, Fraction(2 ** 62))],
                      (1, 2): [(0, Fraction(1, 3))]})
    with pytest.raises(OverflowError, match=r"e2 in \[e0, e1\].*int64 \(\|x\| < 2\^63\)"):
        scaled(alg)
    with pytest.raises(OverflowError, match="int64"):
        jacobi_violation(alg)


# ---------------------------------------------------------------- join

def _dense(row, col, val, shape):
    out = np.zeros(shape, dtype=np.int64)
    np.add.at(out, (row, col), val)
    return out


def _coords(rng, size, rows, keys, lim=50):
    """Random entries (row, key, val), rows and keys repeating."""
    return (rng.integers(0, rows, size), rng.integers(*keys, size),
            rng.integers(-lim, lim + 1, size))


def _join_product(left, right, shape):
    row, col, val = join(left, right)
    assert row.dtype == col.dtype == val.dtype == np.int64
    return _dense(row, col, val, shape)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("lkeys, rkeys", [((0, 9), (0, 9)),    # keys shared
                                          ((0, 6), (3, 9)),    # missing on each side
                                          ((0, 2), (0, 2))])   # heavily repeated
def test_join_matches_the_dense_product(seed, lkeys, rkeys):
    rng = np.random.default_rng(seed)
    nr, nk, nc = 7, 9, 5
    lr, lk, lv = _coords(rng, int(rng.integers(1, 40)), nr, lkeys)
    rc, rk, rv = _coords(rng, int(rng.integers(1, 40)), nc, rkeys)
    want = _dense(lr, lk, lv, (nr, nk)) @ _dense(rk, rc, rv, (nk, nc))
    assert np.array_equal(_join_product((lr, lk, lv), (rk, rc, rv), (nr, nc)), want)
    # summed keeps exactly the nonzero entries of the product
    row, col, val = join((lr, lk, lv), (rk, rc, rv))
    code, tot = summed(row * nc + col, val)
    assert code.tolist() == np.flatnonzero(want).tolist()
    assert tot.tolist() == want.ravel()[code].tolist()


@pytest.mark.parametrize("nl, nr", [(0, 4), (4, 0), (0, 0)])
def test_join_of_an_empty_operand_has_no_terms(nl, nr):
    rng = np.random.default_rng(nl + 10 * nr)
    left, right = _coords(rng, nl, 3, (0, 3)), _coords(rng, nr, 3, (0, 3))
    right = (right[1], right[0], right[2])
    row, col, val = join(left, right)
    assert len(row) == len(col) == len(val) == 0


def test_join_keeps_terms_that_cancel_and_summed_drops_them():
    # (1 -1) (2 2)^T: two terms at (0, 0) that sum to zero
    left = tuple(np.array(x, dtype=np.int64) for x in ([0, 0], [0, 1], [1, -1]))
    right = tuple(np.array(x, dtype=np.int64) for x in ([1, 0], [0, 0], [2, 2]))
    row, col, val = join(left, right)
    assert sorted(zip(row.tolist(), col.tolist(), val.tolist())) == [(0, 0, -2), (0, 0, 2)]
    code, tot = summed(row + col, val)
    assert len(code) == len(tot) == 0


# ---------------------------------------------------------------- Killing form

def _killing_reference(alg):
    """tr(ad_p ad_q) = sum_{r,s} c^r_{ps} c^s_{qr}, from a dense Fraction
    tensor C[p, s, r] = c^r_{ps} of the alternating bracket."""
    n = alg.dim
    c = np.full((n, n, n), Fraction(0), dtype=object)
    for (i, j), ent in alg.table.items():
        for k, v in ent:
            c[i, j, k], c[j, i, k] = v, -v
    return np.einsum("psr,qrs->pq", c, c)


@pytest.mark.parametrize("make", [
    lambda: build_matrix_lie("sl", 3),
    lambda: build_matrix_lie("so", 5),
    lambda: build_tits(trace_admissible_view(build_composition("K")),
                       trace_admissible_view(build_jordan("H3(K)"))).alg,
])
def test_killing_int_matches_a_dense_einsum(make):
    alg = make()
    scale = alg.table_int[3]
    got = killing_int(alg)
    assert got.dtype == np.int64 and got.shape == (alg.dim, alg.dim)
    want = _killing_reference(alg) * scale * scale
    assert got.tolist() == want.tolist()
    assert np.count_nonzero(got)


# ---------------------------------------------------------------- exact_dot

class MatmulSpy(np.ndarray):
    """An int64 array that records the dtype of the left operand of every
    product it takes part in on the left, float64 views included."""

    seen: list = []

    def __matmul__(self, other):
        MatmulSpy.seen.append(self.dtype)
        return np.asarray(self) @ np.asarray(other)


@st.composite
def near_the_float_bound(draw, above: bool):
    """(a, b) whose bound k max|a| max|b| is the largest below 2^53 or the
    least at or above it for the drawn k and max|a|, with the maxima
    attained (with either sign) and every other entry drawn below them."""
    k, m, w = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    amax = draw(st.integers(1, (FLOAT_EXACT - 1) // k))
    bmax = (FLOAT_EXACT - 1) // (k * amax) + int(above)

    def mat(rows, cols, top):
        vals = draw(st.lists(st.integers(-top, top), min_size=rows * cols,
                             max_size=rows * cols))
        vals[draw(st.integers(0, rows * cols - 1))] = draw(st.sampled_from([top, -top]))
        return np.array(vals, dtype=np.int64).reshape(rows, cols)

    return mat(m, k, amax), mat(k, w, bmax)


@pytest.mark.parametrize("above", [False, True], ids=["below-2^53", "above-2^53"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_exact_dot_is_the_python_int_product_on_each_side_of_2_53(above, data):
    a, b = data.draw(near_the_float_bound(above))
    bound = a.shape[1] * int(np.abs(a).max()) * int(np.abs(b).max())
    assert (bound >= FLOAT_EXACT) == above and bound < INT64_GUARD
    MatmulSpy.seen = []
    got = exact_dot(a.view(MatmulSpy), b)
    assert got.dtype == np.int64
    assert got.tolist() == (a.astype(object) @ b.astype(object)).tolist()
    # below 2^53 the product ran on float64, at or above it in int64
    assert MatmulSpy.seen and set(MatmulSpy.seen) == {np.dtype(np.int64 if above else np.float64)}


def test_exact_dot_float_path_keeps_odd_sums_near_2_53():
    # 3 (2^51 - 1)(1) summed: odd and just below 2^53, where a float64
    # product with a bound past 2^53 would round
    a = np.array([[2 ** 51 - 1] * 3, [-(2 ** 51 - 1), 1, 2 ** 51 - 1]], dtype=np.int64)
    b = np.array([[1, 1], [1, -1], [1, 1]], dtype=np.int64)
    assert exact_dot(a, b).tolist() == (a.astype(object) @ b.astype(object)).tolist()


def test_exact_dot_large_product_is_the_int64_product():
    # large enough for a multi-threaded BLAS to split the work, with the
    # bound 300 * 2^20 * 2^23 just below 2^53
    rng = np.random.default_rng(11)
    a = rng.integers(-2 ** 20, 2 ** 20 + 1, (400, 300))
    b = rng.integers(-2 ** 23, 2 ** 23 + 1, (300, 200))
    a[0, 0], b[0, 0] = 2 ** 20, -2 ** 23
    assert 300 * 2 ** 43 < FLOAT_EXACT
    assert np.array_equal(exact_dot(a, b), a @ b)


def test_exact_dot_row_blocks_and_empty_operands(monkeypatch):
    rng = np.random.default_rng(3)
    a, b = rng.integers(-9, 10, (37, 5)), rng.integers(-9, 10, (5, 4))
    monkeypatch.setattr(fastnum, "DOT_BLOCK", 20)      # two rows per block
    assert np.array_equal(exact_dot(a, b), a @ b)
    for shape_a, shape_b in [((0, 3), (3, 2)), ((2, 0), (0, 3)), ((2, 3), (3, 0))]:
        out = exact_dot(np.zeros(shape_a, dtype=np.int64), np.zeros(shape_b, dtype=np.int64))
        assert out.shape == (shape_a[0], shape_b[1]) and out.dtype == np.int64


def test_exact_dot_past_the_int64_guard_raises():
    a = np.array([[2 ** 31, 1]], dtype=np.int64)
    b = np.array([[2 ** 30], [1]], dtype=np.int64)
    # bound 2 * 2^31 * 2^30 = 2^62: refused, although this product fits
    with pytest.raises(OverflowError, match="int64"):
        exact_dot(a, b)
    # Python ints are multiplied as they are
    assert exact_dot(a.astype(object), b.astype(object)).tolist() == [[2 ** 61 + 1]]


def test_distinct_is_np_unique():
    rng = np.random.default_rng(5)
    a = rng.integers(-4, 5, 30)
    assert np.array_equal(distinct(a), np.unique(a))
    rows = rng.integers(0, 2, (12, 3))
    assert np.array_equal(distinct(rows, axis=0), np.unique(rows, axis=0))


def test_building_algebras_does_not_import_numpy_ma():
    # a plain np.unique or np.setdiff1d imports numpy.ma on first use
    code = """if True:
        import sys
        from lyalg.compjordan import build_composition, build_jordan
        from lyalg.compjordan import trace_admissible_view as view
        from lyalg.matrixalg import build_matrix_lie, ly_sl_tensor_sl
        from lyalg.roots import classify, saturate_torus
        from lyalg.checks import check_ly
        from lyalg.tits import build_tits
        t = build_tits(view(build_composition('K')), view(build_jordan('H3(K)')))
        assert classify(saturate_torus(t.alg)) == 'A2+A2'
        assert classify(saturate_torus(build_matrix_lie('so', 7))) == 'B3'
        assert check_ly(ly_sl_tensor_sl(2, 3)).passed
        print('numpy.ma' in sys.modules)
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["False"]
