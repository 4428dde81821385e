"""checks.transport_equal on the int64 tables against the Fraction
per-pair loop it replaced (transportref): random dense maps, targets
perturbed in one product, a map singular only modulo the first prime, a
singular map, a map that is not square, and maps whose joins leave the
int64 guard."""

import random
from fractions import Fraction

import pytest

from lyalg import checks
from lyalg import linalg as la
from lyalg.algebra import Algebra, LYAlgebra
from lyalg.checks import transport_equal
from lyalg.fastnum import PRIMES
from lyalg.matrixalg import build_matrix_lie, check_coincidence, ly_sl_tensor_sl
from transportref import transport_equal_reference

F = Fraction


def random_map(rng, n, dense=True):
    """A random invertible rational n x n map."""
    while True:
        b = [[F(rng.randint(-3, 3), rng.randint(1, 3)) if dense or rng.random() < 0.3
              else F(int(i == j)) for j in range(n)] for i in range(n)]
        if la.rank(b) == n:
            return b


def random_ly(rng, n):
    """A binary-ternary algebra with random sparse products (no axioms:
    transport_equal compares products only)."""
    def ent():
        return [(l, F(rng.randint(-4, 4) or 1, rng.randint(1, 2)))
                for l in sorted(rng.sample(range(n), rng.randint(0, 2)))]

    binary = {(i, j): ent() for i in range(n) for j in range(i + 1, n)}
    ternary = {(i, j, k): ent() for i in range(n) for j in range(i + 1, n) for k in range(n)}
    return LYAlgebra(n, binary, ternary)


def multilinear(op, vecs, n):
    """op (on basis indices, sparse result) extended to dense vectors."""
    out = [F(0)] * n
    nz = [[(i, x) for i, x in enumerate(v) if x] for v in vecs]

    def walk(args, coef, rest):
        if not rest:
            for l, c in op(*args):
                out[l] += coef * c
            return
        for i, x in rest[0]:
            walk(args + (i,), coef * x, rest[1:])

    walk((), F(1), nz)
    return out


def transported(a, bmap):
    """The algebra whose products are those of a carried along bmap:
    y(f_r, f_s[, f_t]) = B x(B^-1 f_r, B^-1 f_s[, B^-1 f_t])."""
    n = a.dim
    inv = la.inv(bmap)
    cols = [[inv[i][r] for i in range(n)] for r in range(n)]

    def carry(op, key):
        img = la.mat_vec(bmap, multilinear(op, [cols[r] for r in key], n))
        return [(l, x) for l, x in enumerate(img) if x]

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if isinstance(a, LYAlgebra):
        return LYAlgebra(n, {p: carry(a.b, p) for p in pairs},
                         {(*p, k): carry(a.t, (*p, k)) for p in pairs for k in range(n)})
    return Algebra(n, {p: carry(a.bk, p) for p in pairs})


def perturbed(table, rng):
    """A copy of a Fraction table with one nonzero constant doubled."""
    key = rng.choice(sorted(k for k, v in table.items() if v))
    ent = list(table[key])
    pos = rng.randrange(len(ent))
    ent[pos] = (ent[pos][0], 2 * ent[pos][1])
    return {**table, key: ent}


def both(a, b, bmap):
    got, want = transport_equal(a, b, bmap), transport_equal_reference(a, b, bmap)
    assert got is want
    return got


ALGEBRAS = {
    "sl2": lambda rng: build_matrix_lie("sl", 2),
    "sl3": lambda rng: build_matrix_lie("sl", 3),
    "so5": lambda rng: build_matrix_lie("so", 5),
    "ly4": lambda rng: random_ly(rng, 4),
    "ly5": lambda rng: random_ly(rng, 5),
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_random_dense_maps_agree_with_the_fraction_loop(name, seed):
    rng = random.Random(seed)
    a = ALGEBRAS[name](rng)
    bmap = random_map(rng, a.dim, dense=a.dim <= 5)
    b = transported(a, bmap)
    assert both(a, b, bmap)
    assert both(b, a, la.inv(bmap))
    # another map: generally not a transport, and both must say the same
    both(a, b, random_map(rng, a.dim, dense=a.dim <= 5))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("product", ["bracket", "binary", "ternary"])
def test_a_target_perturbed_in_one_product_fails(product, seed):
    rng = random.Random(100 + seed)
    a = build_matrix_lie("sl", 3) if product == "bracket" else random_ly(rng, 4)
    bmap = random_map(rng, a.dim, dense=product != "bracket")
    b = transported(a, bmap)
    if product == "bracket":
        bad = Algebra(b.dim, perturbed(b.table, rng))
    elif product == "binary":
        bad = LYAlgebra(b.dim, perturbed(b.binary, rng), b.ternary)
    else:
        bad = LYAlgebra(b.dim, b.binary, perturbed(b.ternary, rng))
    assert not both(a, bad, bmap)


def test_a_map_singular_only_modulo_the_prime_takes_the_exact_rank(monkeypatch):
    a = build_matrix_lie("sl", 2)
    bmap = [[F(1), F(0), F(0)], [F(0), F(PRIMES[0]), F(0)], [F(0), F(1), F(1)]]
    calls = []
    monkeypatch.setattr(checks, "rank", lambda m: calls.append(m) or la.rank(m))
    b = transported(a, bmap)
    assert both(a, b, bmap)
    assert len(calls) == 1
    assert not transport_equal(a, a, bmap)


def test_a_singular_map_is_refused():
    rng = random.Random(7)
    for a in (build_matrix_lie("sl", 2), random_ly(rng, 3)):
        bmap = random_map(rng, a.dim)
        bmap[2] = [x + y for x, y in zip(bmap[0], bmap[1])]
        for check in (transport_equal, transport_equal_reference):
            with pytest.raises(ValueError, match="not invertible"):
                check(a, a, bmap)


def test_a_map_that_is_not_n_by_n_is_refused():
    a = build_matrix_lie("sl", 2)
    wide = [row + [F(5)] for row in la.eye(3)]
    # the Fraction loop read only the first n columns and answered True
    assert transport_equal_reference(a, a, wide)
    with pytest.raises(ValueError, match="not 3 x 3"):
        transport_equal(a, a, wide)
    with pytest.raises(ValueError, match="not 3 x 3"):
        transport_equal(a, a, la.eye(3)[:2])
    with pytest.raises(ValueError, match="dimension mismatch"):
        transport_equal(a, build_matrix_lie("sl", 3), la.eye(3))


def test_joins_past_the_int64_guard_run_in_python_ints():
    # b's constants fit int64 (up to 2^61 over the scale 2^30), but times
    # the map entry 2^31 they leave the int64 guard of the joins
    a = build_matrix_lie("sl", 2)
    bmap = [[F(int(i == j) * (2 ** 31 if i == 0 else 1)) for j in range(3)] for i in range(3)]
    b = transported(a, bmap)
    assert max(abs(int(v)) for v in b.table_int[2]) * 2 ** 31 >= 2 ** 62
    assert both(a, b, bmap)
    assert not both(a, a, bmap)


def test_a_map_past_int64_runs_in_python_ints():
    # exp(t ad x) for a nilpotent basis vector x is an automorphism: at
    # t = 2^70 its entries leave int64, and it carries sl2 onto itself
    a = build_matrix_lie("sl", 2)
    x = next(i for i, w in enumerate(a.weights) if any(w))
    ad = [[F(0)] * 3 for _ in range(3)]
    for j in range(3):
        for l, c in a.bk(x, j):
            ad[l][j] = c
    t, ad2 = F(2 ** 70), la.mat_mul(ad, ad)
    bmap = [[F(int(i == j)) + t * ad[i][j] + t * t / 2 * ad2[i][j] for j in range(3)]
            for i in range(3)]
    assert max(abs(v) for row in bmap for v in row) >= 2 ** 63
    assert both(a, a, bmap)
    bmap[0][0] += 1
    assert not both(a, a, bmap)


def test_coincidence_of_a_tensor_family_with_itself_permuted():
    a = ly_sl_tensor_sl(2, 2)
    perm = list(range(a.dim))
    random.Random(3).shuffle(perm)
    bmap = [[F(int(perm[c] == r)) for c in range(a.dim)] for r in range(a.dim)]
    b = transported(a, bmap)
    assert check_coincidence(a, b, bmap)
    assert transport_equal_reference(a, b, bmap)
    assert check_coincidence(a, a, bmap) is transport_equal_reference(a, a, bmap)
