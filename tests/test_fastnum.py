"""Integer scaling of structure constants refuses what int64 cannot hold;
the join primitive and the Killing form match dense numpy references."""

from fractions import Fraction

import numpy as np
import pytest

from lyalg.algebra import Algebra
from lyalg.compjordan import build_composition, build_jordan, trace_admissible_view
from lyalg.fastnum import jacobi_violation, join, killing_int, scaled, summed
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
