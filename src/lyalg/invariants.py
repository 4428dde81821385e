"""Killing form invariants: the radical, semisimplicity, grading blocks.

is_semisimple refuses a bracket that fails the memoised Jacobi sweep,
with its witness.  It then certifies a nondegenerate Killing form mod p:
the integer Gram matrix killing_int has full rank mod a prime p, and the
rank mod p is never above the rank over Q, so full rank mod p proves full
rank.  The test is one-sided; only when it fails does the exact radical
solve (linalg.kernel_basis over Q) run.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg as la
from .algebra import Algebra
from .fastnum import PRIMES, killing_int, rank_mod, require_lie
from .linalg import Vec


def killing_radical(alg: Algebra) -> list[Vec]:
    """Exact basis of the Killing-form radical, as primitive integer vectors."""
    key = "killing_radical"
    if key not in alg._cache:
        K = [[Fraction(x) for x in row] for row in killing_int(alg).tolist()]
        alg._cache[key] = la.kernel_basis(K, alg.dim)
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
