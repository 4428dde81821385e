"""Rational reconstruction in the modular kernel solver."""

from fractions import Fraction
from math import isqrt, prod

from lyalg.fastnum import PRIMES, rat_recon


def residue(f: Fraction, m: int) -> int:
    return f.numerator * pow(f.denominator, -1, m) % m


def test_rat_recon_large_modulus_round_trip():
    m = prod(PRIMES)
    f = Fraction(-123456789, 987654321)
    assert rat_recon(residue(f, m), m) == f
    # beyond float range the bound must still be computed exactly
    assert rat_recon(5, 2 ** 1100 + 15) == 5


def test_rat_recon_none_without_small_fraction():
    m = 101
    bound = isqrt(m // 2)
    small = {residue(Fraction(a, b), m) for a in range(-bound, bound + 1)
             for b in range(1, bound + 1)}
    r = next(r for r in range(m) if r not in small)
    assert rat_recon(r, m) is None


def test_rat_recon_perfect_square_bound():
    # m // 2 = k^2 with k above 2^53: a float square root rounds the bound
    # down to k - 1 and loses the fraction k / 1 that sits on it
    k = 2 ** 60 + 1
    m = 2 * k * k + 1
    assert rat_recon(k, m) == k
    assert rat_recon(residue(Fraction(-k, k - 1), m), m) == Fraction(-k, k - 1)
