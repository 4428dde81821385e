"""The classical matrix Lie algebras, the three tensor-space LY families,
their enveloping algebras and the stated coincidences between them."""

import hashlib
from fractions import Fraction

import pytest

from lyalg import io
from lyalg import linalg as la
from lyalg.algebra import LYAlgebra
from lyalg.buildtools import subalgebra_on_indices
from lyalg.checks import check_lie, check_ly
from lyalg.envelope import build_enveloping
from lyalg.matrixalg import (SL2_OPS, BilinForm, build_matrix_lie,
                             check_coincidence, lts_orthosymplectic_sum,
                             ly_sl_tensor_sl, ly_sp_tensor_sym, sl_ops,
                             split_skew_form, split_sym_form, sym0_basis,
                             _sp_trace_mul)
from lyalg.roots import classify, saturate_torus, verify_weights
from test_invariants import commutant_dim
from test_tits import inner_maps

fr = Fraction


def test_matrix_lie_dimensions():
    assert build_matrix_lie("sl", 2).dim == 3
    assert build_matrix_lie("so", 5).dim == 10
    assert build_matrix_lie("sp", 6).dim == 21
    assert build_matrix_lie("gl", 3).dim == 9


def test_matrix_lie_types():
    for kind, n, want in [("sl", 2, "A1"), ("sl", 4, "A3"), ("so", 5, "C2"),
                          ("so", 7, "B3"), ("so", 8, "D4"), ("sp", 6, "C3")]:
        g = build_matrix_lie(kind, n)
        assert check_lie(g).passed
        assert classify(g) == want


def test_matrix_lie_bad_kind():
    with pytest.raises(ValueError):
        build_matrix_lie("su", 3)
    with pytest.raises(ValueError):
        build_matrix_lie("sp", 5)


def test_form_validation():
    with pytest.raises(ValueError):
        BilinForm([[fr(0), fr(1)], [fr(1), fr(0)]], -1)
    with pytest.raises(ValueError):
        BilinForm([[fr(1), fr(0)], [fr(0), fr(0)]], 1)


def env_type(ly):
    pair = build_enveloping(ly)
    return pair, classify(saturate_torus(pair.g))


def test_lts_ortho_3_5():
    ly = lts_orthosymplectic_sum(split_sym_form(3, tail=1),
                                 split_sym_form(5, tail=-1),
                                 name="lts-so(3,5)")
    assert ly.dim == 15
    assert not ly.binary
    assert ly.notes == []
    assert check_ly(ly).passed
    pair, label = env_type(ly)
    assert pair.g.dim == 28 and label == "D4"
    dsub = subalgebra_on_indices(pair.g, pair.h_index)
    assert dsub.dim == 13
    assert classify(saturate_torus(dsub)) == "A1+C2"
    dops = list(inner_maps(ly).values())
    assert commutant_dim(dops, ly.dim, weights=ly.weights) == 1


def test_lts_sp_2_2():
    ly = lts_orthosymplectic_sum(split_skew_form(2), split_skew_form(2),
                                 name="lts-sp(2,2)")
    assert ly.dim == 4 and not ly.binary
    assert check_ly(ly).passed
    pair, label = env_type(ly)
    assert pair.g.dim == 10 and label == "C2"


def test_lts_ortho_reducible_flag():
    ly = lts_orthosymplectic_sum(split_sym_form(1), split_sym_form(2, tail=-1))
    assert ly.notes and "reducible" in ly.notes[0]
    dops = list(inner_maps(ly).values())
    assert commutant_dim(dops, ly.dim) > 1


def test_sp2_sym_3_1():
    ly = ly_sp_tensor_sym(3, 1, name="ly-sp2-sym(3,1)")
    assert ly.dim == 15
    assert check_ly(ly).passed
    pair, label = env_type(ly)
    assert pair.g.dim == 21 and label == "C3"


def test_sp2_sym_6_skew():
    ly = ly_sp_tensor_sym(6, -1, name="ly-sp2-sym(6,-1)")
    assert ly.dim == 42
    assert check_ly(ly).passed
    pair, label = env_type(ly)
    assert pair.g.dim == 66 and label == "D6"


def test_sp2_sym_4_zero_binary():
    ly = ly_sp_tensor_sym(4, -1)
    assert ly.dim == 15
    assert not ly.binary
    assert check_ly(ly).passed


def test_sp2_sym_bad_params():
    with pytest.raises(ValueError):
        ly_sp_tensor_sym(2, -1)
    with pytest.raises(ValueError):
        ly_sp_tensor_sym(2, 1)


def test_sl_tensor_sl_2_3():
    ly = ly_sl_tensor_sl(2, 3, name="ly-sl(2,3)")
    assert ly.dim == 24
    assert check_ly(ly).passed
    pair, label = env_type(ly)
    assert pair.g.dim == 35 and label == "A5"
    dsub = subalgebra_on_indices(pair.g, pair.h_index)
    assert dsub.dim == 11
    dops = list(inner_maps(ly).values())
    assert commutant_dim(dops, ly.dim, weights=ly.weights) == 1


def test_sl_tensor_sl_3_3_dims():
    ly = ly_sl_tensor_sl(3, 3)
    assert ly.dim == 64
    pair = build_enveloping(ly)
    assert pair.g.dim == 80


def test_sl_tensor_sl_bad_params():
    with pytest.raises(ValueError):
        ly_sl_tensor_sl(1, 3)
    with pytest.raises(ValueError):
        ly_sl_tensor_sl(3, 2)


PINNED_SHA256 = [
    (lambda: ly_sl_tensor_sl(2, 3),
     "743741b46b5aa216686fe15819e69041473930507d1ddc84eba16c3a0f706c2d"),
    (lambda: ly_sp_tensor_sym(3, 1),
     "2a77cb59f46741c7cccae624e5c06b5dce738a1388cce846e555f376ea3a5a89"),
    (lambda: ly_sp_tensor_sym(4, -1),
     "58ce3f6dbe46244f9c5ff2ca97345d8351efab58fd3981e2e2ab837ade0d56a5"),
    (lambda: build_matrix_lie("sl", 4),
     "8ac32434eab8ba0d9a8c8dba3c65c30f5c82d3af2e7fbacde61b17830d2d73c5"),
    (lambda: build_matrix_lie("so", 7),
     "8562f5e1ace36d45ebc024361baa5a928d22e3cddb40182aee9d20c8e9b72ac9"),
    (lambda: build_matrix_lie("sp", 6),
     "67e1015a52fa3235ed62c904dcddea47cccf65c7a5850f1a75ee73f85a60e237"),
]


@pytest.mark.parametrize("build, want", PINNED_SHA256,
                         ids=["sl2xsl3", "sl2xsym0(3,1)", "sl2xsym0(4,-1)",
                              "sl4", "so7", "sp6"])
def test_builders_canonical_bytes_pinned(build, want):
    """The canonical JSON of each builder's output, byte for byte."""
    alg = build()
    obj = (io.ly_to_obj(alg) if isinstance(alg, LYAlgebra)
           else io.algebra_to_obj(alg))
    assert hashlib.sha256(io.dumps(obj).encode()).hexdigest() == want


def trace_gram(mats, scale):
    return [[scale * _sp_trace_mul(a, b) for b in mats] for a in mats]


def test_coincidence_sp2sym_4_with_ortho_3_5():
    a = ly_sp_tensor_sym(4, -1)
    fmats, _ = sym0_basis(split_skew_form(4))
    g1 = BilinForm(trace_gram(SL2_OPS, fr(1)), 1)
    g2 = BilinForm(trace_gram(fmats, fr(-1, 2)), 1)
    b = lts_orthosymplectic_sum(g1, g2)
    assert check_coincidence(a, b, la.eye(15))


def test_coincidence_sl22_with_ortho_3_3():
    a = ly_sl_tensor_sl(2, 2)
    amats, _, _, _ = sl_ops(2)
    g1 = BilinForm(trace_gram(amats, fr(1)), 1)
    g2 = BilinForm(trace_gram(amats, fr(-1)), 1)
    b = lts_orthosymplectic_sum(g1, g2)
    assert check_coincidence(a, b, la.eye(9))


def test_coincidence_identity_and_failure():
    a = ly_sl_tensor_sl(2, 2)
    assert check_coincidence(a, a, la.eye(a.dim))
    twisted = la.eye(a.dim)
    twisted[0][0] = fr(2)
    assert not check_coincidence(a, a, twisted)
    with pytest.raises(ValueError):
        bad = la.zeros(a.dim, a.dim)
        check_coincidence(a, a, bad)


def test_family_weights_verify():
    for kind, n in [("sl", 3), ("so", 6), ("sp", 4)]:
        g = build_matrix_lie(kind, n)
        assert verify_weights(g) == len(g.cartan)
