"""Classifier edge cases beyond the happy paths exercised elsewhere."""

from fractions import Fraction

import pytest

from lyalg import linalg as la
from lyalg.algebra import Algebra
from lyalg.buildtools import direct_sum
from lyalg.fastnum import jacobi_violation
from lyalg.matrixalg import build_matrix_lie
from lyalg.roots import (ClassifyError, classify, check_grading,
                         saturate_torus, verify_weights, verify_split_maximal)

fr = Fraction


def test_classify_rejects_nonsemisimple():
    h = Algebra(3, {(0, 1): [(2, fr(1))]})
    h.weights = [(fr(0),)] * 3
    h.cartan = [[fr(0), fr(0), fr(1)]]
    with pytest.raises(ClassifyError):
        classify(h)


def test_verify_weights_catches_lies():
    g = build_matrix_lie("sl", 2)
    g.weights = [g.weights[0], g.weights[2], g.weights[1]]
    with pytest.raises(ClassifyError):
        verify_weights(g)


def test_grading_check():
    g = build_matrix_lie("sl", 3)
    assert check_grading(g) == 2
    g2 = build_matrix_lie("sl", 3)
    g2.weights = [g2.weights[0]] * g2.dim
    with pytest.raises(ClassifyError):
        verify_weights(g2)


def test_composite_classification():
    s = direct_sum(build_matrix_lie("sl", 3), build_matrix_lie("sl", 3))
    assert classify(s) == "A2+A2"
    t = direct_sum(build_matrix_lie("so", 5), build_matrix_lie("sl", 2))
    assert classify(t) == "A1+C2"


def test_classify_sl2_plus_so7():
    s = direct_sum(build_matrix_lie("sl", 2), build_matrix_lie("so", 7))
    assert classify(s) == "A1+B3"


def test_classify_rejects_non_lie_bracket_with_valid_torus():
    g = build_matrix_lie("sl", 3)
    # [E(0,1), E(1,2)] doubled: weights and torus still check out
    table = dict(g.table)
    table[(2, 5)] = [(k, 2 * c) for k, c in table[(2, 5)]]
    bad = Algebra(g.dim, table, labels=g.labels, name="sl3-doubled")
    bad.weights, bad.cartan = g.weights, g.cartan
    verify_weights(bad)
    with pytest.raises(ClassifyError, match=r"Jacobi.*\(2, 3, 4\)"):
        classify(bad)


def test_saturate_carries_a_clean_jacobi_verdict():
    g = build_matrix_lie("sl", 3)
    g.cartan = None                 # forces a rebase onto eigenvectors
    assert "jacobi" not in saturate_torus(g)._cache
    assert jacobi_violation(g) is None
    s = saturate_torus(g)
    assert s is not g and s._cache["jacobi"] is None


def test_saturate_already_saturated():
    g = build_matrix_lie("sp", 4)
    assert saturate_torus(g) is g


def test_split_maximal_rejects_fat_zero_block():
    g = build_matrix_lie("sl", 3)
    # drop one torus element: zero-weight space now exceeds the rank
    g.cartan = g.cartan[:1]
    g.weights = [(w[0],) for w in g.weights]
    with pytest.raises(ClassifyError):
        verify_split_maximal(g)
