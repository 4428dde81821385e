"""Symplectic triple data from degree-3 Jordan algebras."""

import hashlib
import re

import numpy as np
import pytest

from lyalg import fastnum, io, symplectic
from lyalg.algebra import Algebra
from lyalg.compjordan import build_jordan
from lyalg.fastnum import jacobi_violation
from lyalg.matrixalg import split_skew_form
from lyalg.roots import classify, saturate_torus
from lyalg.symplectic import (SymplecticTripleData, build_g_of_T,
                              construct_TJ, cubic_jordan_data,
                              lts_from_symplectic)


def sha(obj) -> str:
    return hashlib.sha256(io.dumps(obj).encode()).hexdigest()


def test_cubic_jordan_data_h3k():
    d = cubic_jordan_data(build_jordan("H3(k)"))
    assert d.dim == 6
    # the basis starts with the unit, whose trace is the degree
    assert d.tvals[0] == 3


@pytest.mark.parametrize("kind", ["JV(3)", "k"])
def test_cubic_jordan_data_refuses_other_degrees(kind):
    with pytest.raises(ValueError, match="no cubic datum"):
        cubic_jordan_data(build_jordan(kind))


# g(T(J)) and lts(T(J)) from the recorded vector: dims, type, size of
# the inner span and sha256 of the canonical JSON
SERIES = [
    ("H3(k)", 52, "F4", 21,
     "7d583b4643fc732e0ea26a04bb66fa03d1e151e68b22de8881184056acaed903",
     28, "991f701ed03b54165c95105d4c4e9861c3427d91e2599c0de86aa8fabf98eff5"),
    ("H3(K)", 78, "E6", 35,
     "58f0ccdbdfd06172204ee5aba58e9a7806be2bfc5fe4493a83e85f506cf6f9f4",
     40, "0f42fad49bdbd8f0dc382d7601d06571f4a89111c03a4da8ef282def3ad31c98"),
    ("H3(Q)", 133, "E7", 66,
     "9a4752fd5de7810021d426eb82fd3823d6f5c98baffc8fe8f4f383dbd926503a",
     64, "45dacf942a7f777ec68bd2d13b22e18f76a0e1e0ef90a09c08944fa1baf8cf21"),
    ("H3(O)", 248, "E8", 133,
     "816ab4464fa606135cd661a9e58469759e6446da46ec9614f16f226557806e71",
     112, "2cf400f3c9a7f586656d73aea4ed67ec5fb298217c2441228f719f8e22b9c7b8"),
]


@pytest.mark.parametrize("kind,dim,typ,nd,gsha,lydim,lysha", SERIES,
                         ids=[s[0] for s in SERIES])
def test_construct_TJ_builds_the_exceptional_series(kind, dim, typ, nd, gsha,
                                                    lydim, lysha):
    t = construct_TJ(cubic_jordan_data(build_jordan(kind)))
    g, pair = build_g_of_T(t)
    assert g.dim == dim
    assert jacobi_violation(g) is None
    assert classify(saturate_torus(g)) == typ
    assert len(pair.d_pairs) == nd
    assert sha(io.algebra_to_obj(g)) == gsha
    ly = lts_from_symplectic(t)
    assert ly.dim == lydim
    assert sha(io.ly_to_obj(ly)) == lysha


# the lex-first failing triple or pair of each check
@pytest.mark.parametrize("name,delta,match", [
    ("A2", 1, "rotation rule fails at (0, 0, 1)"),
    ("P4", 1, "inner map of pair (2, 2) is not skew"),
    ("E9", -1, "rotation rule fails at (2, 8, 8)"),
    ("M4", 1, "inner map of pair (8, 8) is not skew"),
], ids=["rotation", "skew", "rotation-E9", "skew-M4"])
def test_construct_TJ_refuses_a_changed_vector(monkeypatch, name, delta, match):
    vec = dict(symplectic.H3K_VECTOR)
    vec[name] += delta
    monkeypatch.setattr(symplectic, "H3K_VECTOR", vec)
    with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
        construct_TJ(cubic_jordan_data(build_jordan("H3(k)")))


def test_construct_TJ_refuses_a_g_of_T_that_fails_jacobi(monkeypatch):
    real = symplectic.build_g_of_T

    def doubled_first_entry(t):
        g, pair = real(t)
        key = next(iter(g.table))
        bad = Algebra(g.dim, {**g.table, key: [(k, 2 * c) for k, c in g.table[key]]},
                      labels=g.labels, name=g.name)
        bad.weights, bad.cartan = g.weights, g.cartan
        return bad, pair

    monkeypatch.setattr(symplectic, "build_g_of_T", doubled_first_entry)
    with pytest.raises(ValueError, match="fails Jacobi"):
        construct_TJ(cubic_jordan_data(build_jordan("H3(k)")))


def table(*entries, scale=1):
    """The int64 table (pair, col, val, scale) of the entries
    (pair, col, val) on a 2-dim space."""
    return (*np.array(entries, dtype=np.int64).reshape(-1, 3).T, scale)


GRAM = split_skew_form(2).gram
F1 = GRAM[0][1]


@pytest.mark.parametrize("gram,trip,match", [
    ([[0, F1]], table(), "gram size does not match dim"),
    ([[0, F1], [F1, 0]], table(), "form is not skew-symmetric"),
    ([[0, 0], [0, 0]], table(), "form is zero"),
    (GRAM, table((2, 0, 1)), "i > j"),
    (GRAM, table((0, 1, 1), (0, 0, 1)), "not strictly sorted"),
    (GRAM, table((0, 0, 1), (0, 0, 1)), "not strictly sorted"),
    (GRAM, table((0, 0, 0)), "zero value"),
    (GRAM, table((4, 0, 1)), "index out of range"),
    (GRAM, table((0, 4, 1)), "index out of range"),
    (GRAM, table((0, 0, 1), scale=0), "scale <= 0"),
    (GRAM, table((0, 0, 1), scale=-1), "scale <= 0"),
    (GRAM, (np.array([0]), np.array([0, 1]), np.array([1]), 1), "of one length"),
], ids=["gram-size", "gram-not-skew", "gram-zero", "i>j", "unsorted",
        "repeated", "zero-value", "pair-range", "col-range", "scale-zero",
        "scale-negative", "lengths"])
def test_symplectic_triple_data_refuses_a_malformed_datum(gram, trip, match):
    with pytest.raises(ValueError, match=match):
        SymplecticTripleData(2, gram, trip)


def test_lts_from_symplectic_refuses_the_zero_triple():
    t = SymplecticTripleData(2, split_skew_form(2).gram, table())
    with pytest.raises(ValueError, match="fails Jacobi"):
        lts_from_symplectic(t)


def test_lts_from_symplectic_reuses_the_certified_g_of_T(monkeypatch):
    # construct_TJ builds and sweeps g(T); lts_from_symplectic reads the
    # memoised algebra and its memoised verdict
    j = cubic_jordan_data(build_jordan("H3(k)"))
    calls = {"assembly": 0, "sweep": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(symplectic, "pair_table", counted("assembly", symplectic.pair_table))
    monkeypatch.setattr(fastnum, "_sweep_tables", counted("sweep", fastnum._sweep_tables))
    t = construct_TJ(j)
    ly = lts_from_symplectic(t)
    assert calls == {"assembly": 1, "sweep": 1}
    assert ly.dim == 28 and build_g_of_T(t)[0].dim == 52
