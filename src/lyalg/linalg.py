"""Exact linear algebra over the rationals.

Everything here works on plain list-of-list matrices and list vectors with
fractions.Fraction entries.  Dimensions in this package stay small enough
(a few hundred) that dense Gaussian elimination is fine; the hot loops that
are not fine live in fastnum.py.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Vec = list[Fraction]
Matrix = list[list[Fraction]]

F0 = Fraction(0)
F1 = Fraction(1)


def fr(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def zero_vec(n: int) -> Vec:
    return [F0] * n


def basis_vec(n: int, i: int) -> Vec:
    v = [F0] * n
    v[i] = F1
    return v


def eye(n: int) -> Matrix:
    return [basis_vec(n, i) for i in range(n)]


def zeros(r: int, c: int) -> Matrix:
    return [[F0] * c for _ in range(r)]


def vec_add(u: Vec, v: Vec) -> Vec:
    return [a + b for a, b in zip(u, v, strict=True)]


def vec_sub(u: Vec, v: Vec) -> Vec:
    return [a - b for a, b in zip(u, v, strict=True)]


def vec_scale(c: Fraction, v: Vec) -> Vec:
    return [c * a for a in v]


def dot(u: Vec, v: Vec) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), F0)


def mat_vec(a: Matrix, v: Vec) -> Vec:
    return [dot(row, v) for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b, skipping the zero entries of both factors."""
    brows = [[(c, v) for c, v in enumerate(row) if v] for row in b]
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [F0] * width
        for k, x in enumerate(row):
            if x:
                for c, v in brows[k]:
                    acc[c] += x * v
        out.append(acc)
    return out


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def is_zero_vec(v: Vec) -> bool:
    return all(x == 0 for x in v)


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    rows = [list(r) for r in a if not is_zero_vec(r)]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F1 / rows[r][c]
        rows[r] = [x * inv if x else F0 for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y if y else x
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def normalize_primitive(v: Vec) -> Vec:
    """Scale to coprime integer entries with positive leading nonzero."""
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = 0
    for n in ints:
        g = gcd(g, n)
    if g == 0:
        return [F0] * len(v)
    lead = next(n for n in ints if n != 0)
    if lead < 0:
        g = -g
    return [Fraction(n // g) for n in ints]


def kernel_basis(a: Matrix, ncols: int | None = None) -> list[Vec]:
    """Basis of the right kernel, primitive-normalized, sorted by free column."""
    if ncols is None:
        if not a:
            raise ValueError("ncols required for empty matrix")
        ncols = len(a[0])
    if not a:
        return [basis_vec(ncols, i) for i in range(ncols)]
    rows, pivots = rref(a)
    pivset = set(pivots)
    basis = []
    for c in range(ncols):
        if c in pivset:
            continue
        v = zero_vec(ncols)
        v[c] = F1
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][c]
        basis.append(normalize_primitive(v))
    return basis


def solve(a: Matrix, b: Vec) -> Vec | None:
    """One solution of a x = b (free variables set to 0), or None."""
    if not a:
        return None if any(x != 0 for x in b) else []
    ncols = len(a[0])
    aug = [list(row) + [bb] for row, bb in zip(a, b, strict=True)]
    rows, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = zero_vec(ncols)
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][ncols]
    return x


def inv(a: Matrix) -> Matrix:
    n = len(a)
    aug = [list(row) + basis_vec(n, i) for i, row in enumerate(a)]
    rows, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible")
    return [row[n:] for row in rows]


def sym_split_gram(n: int, tail: int = 1) -> Matrix:
    """Split symmetric form: hyperbolic 2x2 blocks, trailing (tail) if n odd."""
    g = zeros(n, n)
    for i in range(0, n - 1, 2):
        g[i][i + 1] = F1
        g[i + 1][i] = F1
    if n % 2:
        g[n - 1][n - 1] = Fraction(tail)
    return g


def skew_split_gram(n: int) -> Matrix:
    """Standard symplectic form: [[0,1],[-1,0]] diagonal blocks."""
    if n % 2:
        raise ValueError("symplectic form needs even dimension")
    g = zeros(n, n)
    for i in range(0, n, 2):
        g[i][i + 1] = F1
        g[i + 1][i] = -F1
    return g
