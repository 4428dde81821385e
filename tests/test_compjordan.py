"""Oracles for the composition algebra and Jordan algebra layer.

Expected dimensions and structure constants were fixed by hand before the
builders existed: derivation algebra dimensions 0, 0, 3, 14 for the four
split composition algebras, pair-derivation span dimensions 3, 8, 21, 52
for the hermitian 3x3 Jordan algebras, and a handful of individual
products worked out on paper.
"""

import itertools
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyalg import buildtools as bt
from lyalg import linalg as la
from lyalg.compjordan import (
    JordanAlg,
    _equivariance_check,
    _verify_jordan,
    build_composition,
    build_jordan,
    build_jordan_hermitian,
    build_jordan_spin,
    comp_derivation,
    jordan_derivation,
    trace_admissible_view,
)
from test_invariants import derivation_space
from viewforms import fraction_forms


def ev(n, *pairs):
    v = la.zero_vec(n)
    for i, c in pairs:
        v[i] = F(c)
    return v


def test_composition_dimensions_and_unit():
    for kind, d in [("k", 1), ("K", 2), ("Q", 4), ("O", 8)]:
        c = build_composition(kind)
        assert c.dim == d
        assert c.mul(c.unit, c.unit) == c.unit
        assert c.norm(c.unit) == 1
        assert c.trace(c.unit) == 2 * c.norm(c.unit)
        for i in range(d):
            e = la.basis_vec(d, i)
            assert c.mul(c.unit, e) == e
            assert c.mul(e, c.unit) == e


def test_composition_caching():
    assert build_composition("O") is build_composition("O")


def test_split_octonion_structure_constants():
    c = build_composition("O")
    # basis order p, u1, u2, u3, v1, v2, v3, q
    e = lambda i: la.basis_vec(8, i)
    assert c.mul(e(1), e(2)) == e(6)
    assert c.mul(e(2), e(1)) == ev(8, (6, -1))
    assert c.mul(e(4), e(5)) == ev(8, (3, -1))
    assert c.mul(e(1), e(4)) == e(0)
    assert c.mul(e(4), e(1)) == e(7)
    assert c.mul(e(0), e(1)) == e(1)
    assert c.mul(e(1), e(0)) == la.zero_vec(8)
    assert c.mul(e(7), e(1)) == la.zero_vec(8)
    assert c.mul(e(1), e(7)) == e(1)


def test_split_norms_isotropic():
    o = build_composition("O")
    assert o.norm(la.basis_vec(8, 0)) == 0
    assert o.norm(la.basis_vec(8, 1)) == 0
    assert o.polar(la.basis_vec(8, 1), la.basis_vec(8, 4)) == -1
    k2 = build_composition("K")
    assert k2.norm(la.basis_vec(2, 0)) == 0
    q = build_composition("Q")
    assert q.norm(la.basis_vec(4, 0)) == 0
    x = [F(2), F(3), F(5), F(7)]
    assert q.norm(x) == 2 * 7 - 3 * 5


def test_norm_multiplicativity_direct():
    for kind in ("Q", "O"):
        c = build_composition(kind)
        x = [F(i + 1) for i in range(c.dim)]
        y = [F(i * i - 3) for i in range(c.dim)]
        assert c.norm(c.mul(x, y)) == c.norm(x) * c.norm(y)


def test_octonions_alternative_not_associative():
    c = build_composition("O")
    e = lambda i: la.basis_vec(8, i)
    # (u1 u2) u3 - u1 (u2 u3) = v3 u3 - u1 v1 = q - p
    assert c.associator(e(1), e(2), e(3)) == ev(8, (0, -1), (7, 1))
    x = la.vec_add(la.vec_add(e(0), e(1)), e(4))
    y = la.vec_add(e(2), e(7))
    assert c.associator(x, x, y) == la.zero_vec(8)
    assert c.associator(y, x, x) == la.zero_vec(8)
    assert c.associator(x, y, x) == la.zero_vec(8)


def test_conjugation_and_degree_two():
    c = build_composition("O")
    x = [F(v) for v in (3, 1, -2, 0, 5, 1, 1, -4)]
    assert c.conj(c.conj(x)) == x
    assert c.mul(x, c.conj(x)) == la.vec_scale(c.norm(x), c.unit)
    sq = c.mul(x, x)
    lhs = la.vec_sub(sq, la.vec_scale(c.trace(x), x))
    assert lhs == la.vec_scale(-c.norm(x), c.unit)


def test_quaternion_pair_derivation_is_commutator_action():
    q = build_composition("Q")
    a = la.basis_vec(4, 1)
    b = la.basis_vec(4, 2)
    d = comp_derivation(q, a, b)
    # [a, b] = E11 - E22, and the associator part vanishes, so the pair
    # derivation is one quarter of ad [a, b]
    assert [row[1] for row in d] == ev(4, (1, F(1, 2)))
    assert [row[2] for row in d] == ev(4, (2, F(-1, 2)))
    assert [row[0] for row in d] == la.zero_vec(4)
    assert comp_derivation(q, a, a) == la.zeros(4, 4)
    neg = [[-v for v in row] for row in comp_derivation(q, b, a)]
    assert d == neg


def test_pair_derivation_satisfies_leibniz():
    c = build_composition("O")
    a = [F(v) for v in (1, 2, 0, -1, 3, 0, 1, 2)]
    b = [F(v) for v in (0, 1, 1, 4, -2, 1, 0, 1)]
    d = comp_derivation(c, a, b)
    x = [F(v) for v in (2, 0, 1, 1, 0, -3, 2, 5)]
    y = [F(v) for v in (1, 1, -1, 0, 2, 2, 0, -1)]
    lhs = la.mat_vec(d, c.mul(x, y))
    rhs = la.vec_add(c.mul(la.mat_vec(d, x), y), c.mul(x, la.mat_vec(d, y)))
    assert lhs == rhs
    assert la.mat_vec(d, c.unit) == la.zero_vec(8)


def test_derivation_space_dims():
    for kind, expect in [("k", 0), ("K", 0), ("Q", 3), ("O", 14)]:
        c = build_composition(kind)
        assert len(derivation_space(c.dim, c.mul)) == expect


def test_comp_view_octonions():
    v = trace_admissible_view(build_composition("O"))
    f = fraction_forms(v)
    assert v.n0 == 7
    assert v.nspan == 14
    assert v.rank == 2
    zero = tuple([F(0)] * 2)
    assert sum(1 for w in v.weights if w == zero) == 1
    wl = sorted(v.weights)
    assert sorted(tuple(-x for x in w) for w in wl) == wl
    assert sum(1 for w in v.dweights if w == zero) == 2
    # X0 basis order: u1 u2 u3 v1 v2 v3 (p - q)
    assert f.stab[0][1] == ev(7, (5, 1))
    assert f.stab[1][0] == ev(7, (5, -1))
    assert f.stab[0][0] == la.zero_vec(7)
    assert f.stab[6][0] == ev(7, (0, 1))
    assert f.stab[0][6] == ev(7, (0, -1))
    assert f.tform[0][3] == F(1, 2)
    assert f.tform[0][0] == 0
    assert f.tform[6][6] == 1
    assert la.rank(f.tform) == 7


def test_comp_view_star_respects_weights():
    v = trace_admissible_view(build_composition("O"))
    f = fraction_forms(v)
    for i in range(v.n0):
        for j in range(v.n0):
            s = f.stab[i][j]
            for c, val in enumerate(s):
                if val != 0:
                    want = tuple(a + b for a, b in zip(v.weights[i], v.weights[j]))
                    assert v.weights[c] == want


def test_comp_view_quaternions():
    v = trace_admissible_view(build_composition("Q"))
    f = fraction_forms(v)
    assert v.n0 == 3
    assert v.nspan == 3
    assert v.rank == 1
    assert sum(1 for w in v.weights if w == (F(0),)) == 1
    # E12 * E21 = E11 - t(E11) 1 = (E11 - E22) / 2
    assert f.stab[0][1] == ev(3, (2, F(1, 2)))


def test_comp_view_small_kinds():
    vk = trace_admissible_view(build_composition("k"))
    assert vk.n0 == 0 and vk.nspan == 0 and vk.rank == 0
    v2 = trace_admissible_view(build_composition("K"))
    f2 = fraction_forms(v2)
    assert v2.n0 == 1
    assert v2.nspan == 0 and v2.rank == 0
    assert v2.weights == [()]
    assert f2.stab[0][0] == [F(0)]
    assert f2.tform[0][0] == 1


def test_jordan_spin_basics():
    j = build_jordan_spin(5)
    assert j.dim == 6 and j.degree == 2
    assert j.mul(la.basis_vec(6, 1), la.basis_vec(6, 2)) == la.basis_vec(6, 0)
    assert j.mul(la.basis_vec(6, 1), la.basis_vec(6, 1)) == la.zero_vec(6)
    assert j.mul(la.basis_vec(6, 5), la.basis_vec(6, 5)) == la.basis_vec(6, 0)
    assert j.gentrace(j.unit) == 2
    v = trace_admissible_view(j)
    f = fraction_forms(v)
    assert v.n0 == 5
    assert v.nspan == 10
    assert v.rank == 2
    for i in range(5):
        for k in range(5):
            assert f.stab[i][k] == la.zero_vec(5)
    assert f.tform == la.sym_split_gram(5)
    d01 = f.dmat(0, 1)
    want = la.zeros(5, 5)
    want[0][0] = F(-1)
    want[1][1] = F(1)
    assert d01 == want


def test_jordan_hermitian_dims_and_unit():
    for spec, d in [("H3(k)", 6), ("H3(K)", 9), ("H3(Q)", 15),
                    ("H3(O)", 27), ("H4(K)", 16)]:
        j = build_jordan(spec)
        assert j.dim == d
        n = j.degree
        assert j.gentrace(j.unit) == n
        for a in range(d):
            e = la.basis_vec(d, a)
            assert j.mul(j.unit, e) == e


def test_jordan_derivation_properties():
    j = build_jordan("H3(K)")
    x = la.basis_vec(9, 3)
    y = la.basis_vec(9, 5)
    d = jordan_derivation(j, x, y)
    assert la.mat_vec(d, j.unit) == la.zero_vec(9)
    a = [F(v) for v in (1, 0, 2, -1, 1, 0, 3, 1, 1)]
    b = [F(v) for v in (0, 2, 1, 1, 0, -2, 0, 1, 4)]
    lhs = la.mat_vec(d, j.mul(a, b))
    rhs = la.vec_add(j.mul(la.mat_vec(d, a), b), j.mul(a, la.mat_vec(d, b)))
    assert lhs == rhs
    # skew for the normalized trace form
    ta = j.gentrace(j.mul(la.mat_vec(d, a), b))
    tb = j.gentrace(j.mul(a, la.mat_vec(d, b)))
    assert ta + tb == 0


def test_jordan_view_span_dims_small():
    for spec, n0, span, rank in [("H3(k)", 5, 3, 1), ("H3(K)", 8, 8, 2),
                                 ("H3(Q)", 14, 21, 3)]:
        v = trace_admissible_view(build_jordan(spec))
        f = fraction_forms(v)
        assert (v.n0, v.nspan, v.rank) == (n0, span, rank)
        zero = tuple([F(0)] * rank)
        assert sum(1 for w in v.dweights if w == zero) == rank
        assert la.rank(f.tform) == n0


def test_jordan_view_h3K_trace_values():
    v = trace_admissible_view(build_jordan("H3(K)"))
    f = fraction_forms(v)
    # X0 opens with E2 - E1, E3 - E1
    assert f.tform[0][0] == F(2, 3)
    assert f.tform[0][1] == F(1, 3)


def test_jordan_view_octonion_hermitian():
    v = trace_admissible_view(build_jordan("H3(O)"))
    f = fraction_forms(v)
    assert v.n0 == 26
    assert v.nspan == 52
    assert v.rank == 4
    zero = tuple([F(0)] * 4)
    assert sum(1 for w in v.weights if w == zero) == 2
    wl = sorted(v.weights)
    assert sorted(tuple(-x for x in w) for w in wl) == wl
    assert sum(1 for w in v.dweights if w == zero) == 4
    assert la.rank(f.tform) == 26


def test_view_equivariance_explicit():
    v = trace_admissible_view(build_jordan("H3(K)"))
    f = fraction_forms(v)
    e = f.dspan[0]
    i, j = 0, 1
    dij = f.dmat(i, j)
    lhs = la.mat_sub(la.mat_mul(e, dij), la.mat_mul(dij, e))
    rhs = [[sum((e[c][i] * f.dmat(c, j)[r][k] + e[c][j] * f.dmat(i, c)[r][k]
                 for c in range(v.n0)), F(0)) for k in range(v.n0)] for r in range(v.n0)]
    assert lhs == rhs


def test_h3k_untwisted_has_no_split_torus():
    j = build_jordan_hermitian("k", 3, (1, 1, 1))
    with pytest.raises(ArithmeticError):
        trace_admissible_view(j)


def test_octonion_hermitian_size_four_rejected():
    with pytest.raises(ValueError, match="Jordan identity fails on the basis triple"):
        build_jordan_hermitian("O", 4)


def perturbed_jordan(spec, triple):
    """The algebra spec with delta added to its product, where t(delta(e_a,
    e_b) e_c) is 1 on the permutations of triple (unit-free indices) and 0
    elsewhere.  delta is commutative, kills the unit and keeps the trace
    form associative, so of the verifier's checks only the Jordan identity
    can fail."""
    j = build_jordan(spec)
    tab = [[list(cell) for cell in row] for row in j.tab]
    tinv = la.inv([[j.gentrace(cell) for cell in row] for row in tab])
    for a, b, c in set(itertools.permutations(triple)):
        tab[a][b] = la.vec_add(tab[a][b], [row[c] for row in tinv])
    return JordanAlg("broken", tab, j.degree, list(j.tracev), list(j.unit),
                     list(j.labels))


def first_failing_triple_reference(j):
    """The lex-first sorted triple on which the cyclic sum of [R_x, R_yz]
    is nonzero, in Fractions."""
    n = j.dim
    e = [la.basis_vec(n, i) for i in range(n)]

    def br(a, b):
        return la.mat_sub(la.mat_mul(a, b), la.mat_mul(b, a))

    def cyc(x, y, z):
        return br(j.right_mult(e[x]), j.right_mult(j.mul(e[y], e[z])))

    for i, k, l in itertools.combinations_with_replacement(range(n), 3):
        terms = zip(cyc(i, k, l), cyc(k, l, i), cyc(l, i, k))
        if any(a + b + c for rows in terms for a, b, c in zip(*rows)):
            return (i, k, l)
    return None


def test_jordan_identity_negative_control():
    j = build_jordan("H3(K)")
    tab = [[list(cell) for cell in row] for row in j.tab]
    tab[1][2][0] += 1
    tab[2][1] = tab[1][2]
    bad = JordanAlg("broken", tab, j.degree, list(j.tracev), list(j.unit),
                    list(j.labels))
    # E2 E3 gains E1, so the unit already fails
    with pytest.raises(ValueError, match="unit law fails"):
        _verify_jordan(bad)
    bad = perturbed_jordan("H3(K)", (3, 5, 7))
    with pytest.raises(ValueError, match=r"on the basis triple \(0, 3, 7\)$"):
        _verify_jordan(bad)
    assert first_failing_triple_reference(bad) == (0, 3, 7)


@pytest.mark.parametrize("spec, triple, witness", [
    ("H3(K)", (3, 7, 8), (0, 0, 7)),     # the witness repeats an index
    ("H2(Q)", (3, 3, 4), (0, 3, 3)),
    ("H3(K)", (4, 6, 8), (0, 4, 8)),     # three distinct indices
    ("H3(k)", (3, 4, 5), (0, 3, 5)),
])
def test_jordan_identity_names_the_first_failing_sorted_triple(spec, triple, witness):
    bad = perturbed_jordan(spec, triple)
    with pytest.raises(ValueError) as err:
        _verify_jordan(bad)
    assert str(err.value) == "Jordan identity fails on the basis triple %s" % (witness,)
    assert first_failing_triple_reference(bad) == witness


def test_jordan_identity_refuses_entries_too_large_for_int64():
    # JV(3) with its form scaled by 2^k is a spin factor, so a Jordan
    # algebra; at 2^29 a product of the sweep could leave int64
    j = build_jordan("JV(3)")

    def scaled(k):
        tab = [[[x * 2 ** k if a and b and not c else x for c, x in enumerate(cell)]
                for b, cell in enumerate(row)] for a, row in enumerate(j.tab)]
        return JordanAlg("JV(3)'", tab, 2, list(j.tracev), list(j.unit), list(j.labels))

    _verify_jordan(scaled(28))
    with pytest.raises(OverflowError, match="overflow int64"):
        _verify_jordan(scaled(29))


def _flat(m):
    return [v for row in m for v in row]


def int_tables(v, dt):
    """The span and the antisymmetric pair table of a view as int64
    tensors, the form _equivariance_check reads."""
    rows, _ = bt.int_rows([_flat(m) for m in fraction_forms(v).dspan]
                          + [_flat(dt[p]) for p in sorted(dt)])
    es = rows[:v.nspan].reshape(-1, v.n0, v.n0)
    d = np.zeros((v.n0, v.n0, v.n0 * v.n0), dtype=np.int64)
    ia, ib = np.array(sorted(dt)).T
    d[ia, ib] = rows[v.nspan:]
    d[ib, ia] = -rows[v.nspan:]
    return es, d.reshape(v.n0, v.n0, v.n0, v.n0), v.n0


def test_equivariance_check_rejects_a_changed_entry():
    v = trace_admissible_view(build_composition("O"))
    f = fraction_forms(v)
    _equivariance_check(*int_tables(v, f.dt))
    pair = (0, 1)
    m = [row[:] for row in f.dt[pair]]
    r, c = next((r, c) for r in range(v.n0) for c in range(v.n0) if m[r][c] != 0)
    m[r][c] += 1
    bad = dict(f.dt)
    bad[pair] = m
    with pytest.raises(ArithmeticError, match="not equivariant"):
        _equivariance_check(*int_tables(v, bad))
    # the view itself is untouched
    _equivariance_check(*int_tables(v, f.dt))


def test_equivariance_check_rejects_a_changed_entry_h3o():
    v = trace_admissible_view(build_jordan("H3(O)"))
    f = fraction_forms(v)
    assert v.n0 == 26
    _equivariance_check(*int_tables(v, f.dt))
    pair, r, c = next((p, r, c) for p in sorted(f.dt) for r in range(v.n0)
                      for c in range(v.n0) if f.dt[p][r][c] != 0)
    m = [row[:] for row in f.dt[pair]]
    m[r][c] += 1
    bad = dict(f.dt)
    bad[pair] = m
    with pytest.raises(ArithmeticError, match="not equivariant"):
        _equivariance_check(*int_tables(v, bad))
    _equivariance_check(*int_tables(v, f.dt))



@pytest.mark.parametrize("chunk", [1, 5, 16, 64])
def test_equivariance_check_rejects_a_changed_span_element_in_any_batch(chunk):
    # D is untouched, so only the changed element can fail: every batch
    # position must be checked, the last of a batch included
    v = trace_admissible_view(build_jordan("H3(Q)"))
    f = fraction_forms(v)
    es, d, n0 = int_tables(v, f.dt)
    _equivariance_check(es, d, n0, chunk)
    for k in sorted({0, chunk - 1, chunk, len(es) - 1} & set(range(len(es)))):
        bad = es.copy()
        bad[k, 0, 1] += 1
        with pytest.raises(ArithmeticError, match="not equivariant"):
            _equivariance_check(bad, d, n0, chunk)

def test_every_view_certifies_equivariance(monkeypatch):
    import lyalg.compjordan as cj

    seen = []
    monkeypatch.setattr(cj, "_equivariance_check",
                        lambda dspan, dt, n0: seen.append(n0))
    for spec in ("H3(Q)", "H4(K)", "H3(O)"):
        trace_admissible_view.__wrapped__(build_jordan(spec))
    assert seen == [14, 15, 26]


@given(st.lists(st.integers(-4, 4), min_size=16, max_size=16))
@settings(max_examples=40, deadline=None)
def test_norm_multiplicativity_random(vals):
    c = build_composition("O")
    x = [F(v) for v in vals[:8]]
    y = [F(v) for v in vals[8:]]
    assert c.norm(c.mul(x, y)) == c.norm(x) * c.norm(y)


@given(st.lists(st.integers(-3, 3), min_size=18, max_size=18))
@settings(max_examples=30, deadline=None)
def test_jordan_identity_random(vals):
    j = build_jordan("H3(K)")
    x = [F(v) for v in vals[:9]]
    y = [F(v) for v in vals[9:]]
    xx = j.mul(x, x)
    lhs = j.mul(j.mul(xx, y), x)
    rhs = j.mul(xx, j.mul(y, x))
    assert lhs == rhs
