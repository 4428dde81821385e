"""Integer scaling of structure constants refuses what int64 cannot hold."""

from fractions import Fraction

import pytest

from lyalg.algebra import Algebra
from lyalg.fastnum import jacobi_violation, scaled


def test_scaled_tables_name_the_constant_beyond_int64():
    # 2^62 fits int64, but times the common denominator 3 it does not
    alg = Algebra(3, {(0, 1): [(2, Fraction(2 ** 62))],
                      (1, 2): [(0, Fraction(1, 3))]})
    with pytest.raises(OverflowError, match=r"e2 in \[e0, e1\].*int64 \(\|x\| < 2\^63\)"):
        scaled(alg)
    with pytest.raises(OverflowError, match="int64"):
        jacobi_violation(alg)
