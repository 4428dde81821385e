"""The Fraction reference for checks.transport_equal: the per-pair loop
that maps every product of one algebra through the basis map and compares
it with the product of the images, entry by entry, for the tests that
compare the int64 check with it."""

from itertools import combinations, product

from lyalg.algebra import LYAlgebra
from lyalg.linalg import F0, rank


def transport_equal_reference(a, b, basis_map) -> bool:
    """True iff basis_map carries every product of a exactly onto b.

    a and b are both Algebra (the bracket is compared) or both LYAlgebra
    (the binary and the ternary product are compared).  Columns of
    basis_map are the images of a's basis vectors; the map must be
    invertible (ValueError otherwise).  Images stay sparse, so a
    permutation-like map costs about one lookup per product entry.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    n = a.dim
    if rank(basis_map) != n:
        raise ValueError("basis map is not invertible")
    imgs = [[(r, basis_map[r][c]) for r in range(n) if basis_map[r][c] != 0]
            for c in range(n)]

    def image(ent):
        acc: dict = {}
        for l, v in ent:
            for r, x in imgs[l]:
                acc[r] = acc.get(r, F0) + v * x
        return {r: x for r, x in acc.items() if x != 0}

    def on_images(op, args):
        acc: dict = {}
        for terms in product(*(imgs[i] for i in args)):
            coef = 1
            for _, x in terms:
                coef *= x
            for l, v in op(*(r for r, _ in terms)):
                acc[l] = acc.get(l, F0) + coef * v
        return {l: x for l, x in acc.items() if x != 0}

    if isinstance(a, LYAlgebra):
        ops = [(a.b, b.b, 2), (a.t, b.t, 3)]
    else:
        ops = [(a.bk, b.bk, 2)]
    for fa, fb, arity in ops:
        for i, j in combinations(range(n), 2):
            for rest in product(range(n), repeat=arity - 2):
                args = (i, j, *rest)
                if image(fa(*args)) != on_images(fb, args):
                    return False
    return True
