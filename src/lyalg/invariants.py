"""Structure invariants: Killing form, radical, centroid, commutant, ideals.

The solvers here assemble sparse integer equation systems and hand them to
fastnum.sparse_int_kernel, so everything stays exact at dimension a few
hundred.  When an algebra carries a grading (`weights`), centroid and
commutant unknowns are cut down to the grading-diagonal blocks first; maps
commuting with a split torus action preserve its eigenspaces, so this loses
nothing.

is_semisimple and is_simple refuse a bracket that fails the memoised
Jacobi sweep, with its witness.  is_semisimple then certifies a
nondegenerate Killing form mod p: the integer Gram matrix killing_int has
full rank mod a prime p, and the rank mod p is never above the rank over
Q, so full rank mod p proves full rank.  The test is one-sided; only when
it fails does the exact radical solve run.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .algebra import Algebra
from .fastnum import (PRIMES, killing_int, rank_mod, require_lie, scaled,
                      sparse_int_kernel)
from .linalg import F0, Matrix, Vec


def killing_gram(alg: Algebra) -> Matrix:
    K = killing_int(alg)
    s2 = Fraction(1, scaled(alg).S ** 2)
    return [[s2 * int(K[i, j]) for j in range(alg.dim)] for i in range(alg.dim)]


def killing_radical(alg: Algebra) -> list[Vec]:
    """Exact basis of the Killing-form radical, as primitive integer vectors."""
    key = "killing_radical"
    if key not in alg._cache:
        K = killing_int(alg)
        rows = []
        for i in range(alg.dim):
            nz = np.nonzero(K[i])[0]
            rows.append([(int(j), int(K[i, j])) for j in nz])
        ker = sparse_int_kernel(rows, alg.dim)
        alg._cache[key] = [[Fraction(x) for x in v] for v in ker]
    return alg._cache[key]


def is_semisimple(alg: Algebra) -> bool:
    """Killing form nondegenerate.  Char 0, so this is Cartan's criterion.

    Cartan's criterion is about Lie algebras, so a bracket that fails the
    memoised Jacobi sweep is refused first (fastnum.require_lie raises
    ClassifyError with the failing triple).  Full rank mod p certifies
    semisimplicity; a lower rank mod p may be the prime's fault, so then
    the exact radical decides."""
    require_lie(alg)
    if rank_mod(killing_int(alg), PRIMES[0]) == alg.dim:
        return True
    return len(killing_radical(alg)) == 0


def _grading_blocks(dim: int, weights) -> list[list[int]]:
    if weights is None:
        return [list(range(dim))]
    groups: dict[tuple, list[int]] = {}
    for i, w in enumerate(weights):
        groups.setdefault(tuple(w), []).append(i)
    return [groups[k] for k in sorted(groups)]


class _BlockSlots:
    """Unknown layout for a map constrained to grading-diagonal blocks."""

    def __init__(self, dim: int, weights):
        self.blocks = _grading_blocks(dim, weights)
        self.slot: dict[tuple[int, int], int] = {}
        self.mates: list[list[int]] = [[] for _ in range(dim)]
        for blk in self.blocks:
            for r in blk:
                self.mates[r] = blk
                for c in blk:
                    self.slot[(r, c)] = len(self.slot)

    @property
    def count(self) -> int:
        return len(self.slot)


def centroid_basis(alg: Algebra) -> list[Matrix]:
    """Exact basis of {phi : phi[x,y] = [x, phi y] for all x, y}."""
    key = "centroid"
    if key in alg._cache:
        return alg._cache[key]
    n = alg.dim
    bs = _BlockSlots(n, alg.weights)
    st = scaled(alg)
    entries = zip(st.p.tolist(), st.q.tolist(), st.s.tolist(), st.c.tolist())
    # E(i,j,r): sum_k c^k_{ij} phi_{rk} - sum_k c^r_{ik} phi_{kj} = 0
    eqs: dict[tuple[int, int, int], dict[int, int]] = {}
    for (p, q, s, v) in entries:
        for r in bs.mates[s]:                       # +c^s_{pq} phi_{r,s}
            acc = eqs.setdefault((p, q, r), {})
            u = bs.slot[(r, s)]
            acc[u] = acc.get(u, 0) + v
        for j in bs.mates[q]:                       # -c^s_{pq} phi_{q,j}
            acc = eqs.setdefault((p, j, s), {})
            u = bs.slot[(q, j)]
            acc[u] = acc.get(u, 0) - v
    rows = [sorted((u, v) for u, v in d.items() if v) for d in eqs.values()]
    ker = sparse_int_kernel(rows, bs.count)
    out = []
    for vec in ker:
        m = [[F0] * n for _ in range(n)]
        for (r, c), u in bs.slot.items():
            if vec[u]:
                m[r][c] = Fraction(vec[u])
        out.append(m)
    alg._cache[key] = out
    return out


def centroid_dim(alg: Algebra) -> int:
    return len(centroid_basis(alg))


def is_simple(alg: Algebra) -> bool:
    """Semisimple with a one-dimensional centroid; ClassifyError if the
    bracket is not Lie (see is_semisimple)."""
    if alg.dim == 0 or not alg.table:
        return False
    return is_semisimple(alg) and centroid_dim(alg) == 1


def commutant_dim(ops: list[dict], dim: int, weights=None) -> int:
    """Dimension of {phi : phi A = A phi for every operator A}.

    Operators are sparse matrices {(row, col): Fraction}.  `weights`
    restricts phi to grading-diagonal blocks; use it only when the grading
    torus acts through the span of the given operators.
    """
    bs = _BlockSlots(dim, weights)
    eqs: dict[tuple[int, int, int], dict[int, int]] = {}
    for t, op in enumerate(ops):
        den = 1
        for x in op.values():
            den = lcm(den, x.denominator)
        for (r, k), x in op.items():
            v = int(x * den)
            # E(t,r,j): sum_k A_{rk} phi_{kj} - sum_k phi_{rk} A_{kj} = 0
            for j in bs.mates[k]:                   # +A_{rk} phi_{k,j}
                acc = eqs.setdefault((t, r, j), {})
                u = bs.slot[(k, j)]
                acc[u] = acc.get(u, 0) + v
            for rr in bs.mates[r]:                  # -phi_{rr,r} A_{r? }
                acc = eqs.setdefault((t, rr, k), {})
                u = bs.slot[(rr, r)]
                acc[u] = acc.get(u, 0) - v
    rows = [sorted((u, v) for u, v in d.items() if v) for d in eqs.values()]
    ker = sparse_int_kernel(rows, bs.count)
    return len(ker)


def derivation_basis(alg: Algebra) -> list[Matrix]:
    """Exact basis of the derivation algebra of the bracket (dense unknowns)."""
    n = alg.dim
    st = scaled(alg)
    entries = list(zip(st.p.tolist(), st.q.tolist(), st.s.tolist(),
                       st.c.tolist()))
    # E(i<j, r): sum_k c^k_{ij} D_{rk} - sum_m c^r_{mj} D_{mi}
    #                                  - sum_m c^r_{im} D_{mj} = 0
    eqs: dict[tuple[int, int, int], dict[int, int]] = {}

    def put(key, u, v):
        acc = eqs.setdefault(key, {})
        acc[u] = acc.get(u, 0) + v

    for (p, q, s, v) in entries:
        if p < q:
            for r in range(n):
                put((p, q, r), r * n + s, v)
        for i in range(q):                 # entry as c^s_{pq}: -D_{p,i} in (i,q,s)
            put((i, q, s), p * n + i, -v)
        for j in range(p + 1, n):          # entry as c^s_{pq}: -D_{q,j} in (p,j,s)
            put((p, j, s), q * n + j, -v)
    rows = [sorted((u, v) for u, v in d.items() if v) for d in eqs.values()]
    ker = sparse_int_kernel(rows, n * n)
    return [[[Fraction(vec[r * n + c]) for c in range(n)] for r in range(n)]
            for vec in ker]
