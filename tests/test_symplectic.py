"""Symplectic triple data from degree-3 Jordan algebras."""

from lyalg.compjordan import build_jordan
from lyalg.symplectic import cubic_jordan_data


def test_cubic_jordan_data_h3k():
    d = cubic_jordan_data(build_jordan("H3(k)"))
    assert d.dim == 6
    # the basis starts with the unit, whose trace is the degree
    assert d.tvals[0] == 3
