"""Symplectic triple data from degree-3 Jordan algebras."""

import hashlib
from fractions import Fraction

from lyalg import io
from lyalg.compjordan import build_jordan
from lyalg.fastnum import jacobi_violation
from lyalg.roots import classify, saturate_torus
from lyalg.symplectic import (_assemble, _cand_cache, _candidate_table,
                              build_g_of_T, cubic_jordan_data,
                              lts_from_symplectic)

# the coefficient vector solved on H3(k) (the product candidates by name;
# the e form and the trace form both have coefficient 1)
H3K_VECTOR = {"A2": -3, "A3": 3, "A4": 1, "A5": -1, "B1": 2, "B2": 2,
              "B3": 1, "B6": -2, "B7": -2, "B8": -4, "P3": 2, "P4": 1,
              "P5": 1, "M3": -2, "M4": -4, "M5": -4, "E1": 1, "E2": -1,
              "E3": -1, "E4": -2, "E5": 2, "E7": 1, "E8": 2, "E9": -2}


def sha(obj) -> str:
    return hashlib.sha256(io.dumps(obj).encode()).hexdigest()


def test_cubic_jordan_data_h3k():
    d = cubic_jordan_data(build_jordan("H3(k)"))
    assert d.dim == 6
    # the basis starts with the unit, whose trace is the degree
    assert d.tvals[0] == 3


def test_g_of_T_from_the_recorded_h3k_vector_is_f4():
    j = cubic_jordan_data(build_jordan("H3(k)"))
    cands, index = _candidate_table(j)
    uvec = [Fraction(1), Fraction(1)] + [Fraction(H3K_VECTOR.get(c[0], 0))
                                         for c in cands]
    t = _assemble(j, cands, _cand_cache(index, j.dim), uvec)
    g, pair = build_g_of_T(t)
    assert g.dim == 52
    assert jacobi_violation(g) is None
    assert classify(saturate_torus(g)) == "F4"
    assert len(pair.d_pairs) == 21
    assert sha(io.algebra_to_obj(g)) == (
        "7d583b4643fc732e0ea26a04bb66fa03d1e151e68b22de8881184056acaed903")
    ly = lts_from_symplectic(t)
    assert ly.dim == 28
    assert sha(io.ly_to_obj(ly)) == (
        "991f701ed03b54165c95105d4c4e9861c3427d91e2599c0de86aa8fabf98eff5")
