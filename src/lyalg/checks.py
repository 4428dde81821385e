"""Axiom checkers.

check_lie verifies the Jacobi identity exactly through the full sweep of
fastnum.jacobi_violation, which sums every Jacobiator component once over
the sorted triples p < q < k and memoises its verdict on the algebra.
check_ly verifies the six defining identities of a binary-ternary system.
LY1 and LY2 hold by storage.  LY3 to LY6 are checked together through
the same sweep on the formally built enveloping algebra (see
envelope.py), whose verdict stays memoised on the envelope: a clean
sweep passes all four.  When the sweep finds a defect, or the envelope
cannot close (LYStructureError), the sweep does not say which axiom
failed, so each of LY3 to LY6 gets a direct lexicographic scan, which
gives its verdict and its first violating tuple independently of sweep
order.  The per-tuple defects (jacobi_defect, ly3_defect to ly6_defect)
are the axioms as written; the naive triple loop over jacobi_defect
lives with the tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations, product

from .algebra import Algebra, LYAlgebra
from .envelope import LYStructureError, build_enveloping
from .fastnum import jacobi_violation
from .linalg import F0, Matrix, basis_vec, is_zero_vec, rank


@dataclass
class CheckItem:
    name: str
    status: str              # "pass" | "fail"
    detail: str = ""
    witness: tuple | None = None

    def line(self) -> str:
        out = f"{self.status.upper():7s} {self.name}"
        if self.detail:
            out += f"  ({self.detail})"
        if self.witness is not None:
            out += f"  witness={self.witness}"
        return out


@dataclass
class Report:
    target: str
    items: list[CheckItem] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(it.status == "pass" for it in self.items)

    def add(self, *a, **kw):
        self.items.append(CheckItem(*a, **kw))

    def to_obj(self) -> dict:
        return {
            "target": self.target,
            "passed": self.passed,
            "items": [{"name": it.name, "status": it.status,
                       "detail": it.detail,
                       "witness": list(it.witness) if it.witness else None}
                      for it in self.items],
            "seconds": round(self.seconds, 3),
        }

    def to_text(self) -> str:
        head = f"== {self.target}: {'PASS' if self.passed else 'FAIL'}"
        return "\n".join([head] + ["  " + it.line() for it in self.items])


def jacobi_defect(alg: Algebra, i: int, j: int, k: int):
    ei, ej, ek = (basis_vec(alg.dim, t) for t in (i, j, k))
    d = alg.bracket(alg.bracket(ei, ej), ek)
    for t, c in enumerate(alg.bracket(alg.bracket(ej, ek), ei)):
        d[t] += c
    for t, c in enumerate(alg.bracket(alg.bracket(ek, ei), ej)):
        d[t] += c
    return d


def check_lie(alg: Algebra, target: str = "") -> Report:
    t0 = time.monotonic()
    rep = Report(target or alg.name or "algebra")
    rep.add("alternating", "pass", "storage is alternating by construction")
    w = jacobi_violation(alg)
    if w is None:
        rep.add("jacobi", "pass", f"all triples, dim {alg.dim}")
    else:
        rep.add("jacobi", "fail", "jacobiator nonzero", witness=w)
    rep.seconds = time.monotonic() - t0
    return rep


# direct per-axiom scans, used for witnesses and as the naive reference

def ly3_defect(ly: LYAlgebra, i, j, k):
    d = [F0] * ly.dim
    for (a, bb, c) in ((i, j, k), (j, k, i), (k, i, j)):
        for l, x in ly.t(a, bb, c):
            d[l] += x
        inner = ly.b(a, bb)
        for m, y in inner:
            for l, x in ly.b(m, c):
                d[l] += y * x
    return d


def ly4_defect(ly: LYAlgebra, i, j, k, l):
    d = [F0] * ly.dim
    for (a, bb, c) in ((i, j, k), (j, k, i), (k, i, j)):
        for m, y in ly.b(a, bb):
            for t, x in ly.t(m, c, l):
                d[t] += y * x
    return d


def ly5_defect(ly: LYAlgebra, i, j, u, v):
    d = [F0] * ly.dim
    for m, y in ly.b(u, v):
        for l, x in ly.t(i, j, m):
            d[l] += y * x
    for m, y in ly.t(i, j, u):
        for l, x in ly.b(m, v):
            d[l] -= y * x
    for m, y in ly.t(i, j, v):
        for l, x in ly.b(u, m):
            d[l] -= y * x
    return d


def ly6_defect(ly: LYAlgebra, i, j, u, v, w):
    d = [F0] * ly.dim
    for m, y in ly.t(u, v, w):
        for l, x in ly.t(i, j, m):
            d[l] += y * x
    for m, y in ly.t(i, j, u):
        for l, x in ly.t(m, v, w):
            d[l] -= y * x
    for m, y in ly.t(i, j, v):
        for l, x in ly.t(u, m, w):
            d[l] -= y * x
    for m, y in ly.t(i, j, w):
        for l, x in ly.t(u, v, m):
            d[l] -= y * x
    return d


def _first_ly_violation(ly: LYAlgebra, axiom: str) -> tuple | None:
    n = ly.dim
    rng = range(n)
    if axiom == "LY3":
        gen = (((i, j, k), ly3_defect(ly, i, j, k))
               for i in rng for j in rng for k in rng)
    elif axiom == "LY4":
        gen = (((i, j, k, l), ly4_defect(ly, i, j, k, l))
               for i in rng for j in rng for k in rng for l in rng)
    elif axiom == "LY5":
        gen = (((i, j, u, v), ly5_defect(ly, i, j, u, v))
               for i in rng for j in rng for u in rng for v in rng)
    else:
        gen = (((i, j, u, v, w), ly6_defect(ly, i, j, u, v, w))
               for i in rng for j in rng for u in rng for v in rng for w in rng)
    for tup, d in gen:
        if not is_zero_vec(d):
            return tup
    return None


def check_ly(ly: LYAlgebra, target: str = "") -> Report:
    t0 = time.monotonic()
    rep = Report(target or ly.name or "ly-algebra")
    rep.add("LY1 alternating product", "pass", "storage is alternating")
    rep.add("LY2 alternating triple", "pass", "storage is alternating")
    try:
        pair = build_enveloping(ly)
    except LYStructureError:
        # inner maps do not close under commutator; that alone breaks LY6,
        # so fall back to direct scans for all four quadratic axioms
        nfail = 0
        for ax in ("LY3", "LY4", "LY5", "LY6"):
            direct = _first_ly_violation(ly, ax)
            nfail += direct is not None
            rep.add(ax, "fail" if direct else "pass", "direct scan",
                    witness=direct)
        if nfail == 0:
            raise RuntimeError("enveloping failed to close but scans clean")
        rep.seconds = time.monotonic() - t0
        return rep
    w = jacobi_violation(pair.g)
    if w is None:
        for ax in ("LY3", "LY4", "LY5", "LY6"):
            rep.add(ax, "pass", f"enveloping sweep, dim {ly.dim}")
    else:
        nfail = 0
        for ax in ("LY3", "LY4", "LY5", "LY6"):
            direct = _first_ly_violation(ly, ax)
            nfail += direct is not None
            rep.add(ax, "fail" if direct else "pass",
                    "direct scan after sweep defect", witness=direct)
        if nfail == 0:
            raise RuntimeError(f"sweep defect at {w} but direct scans clean")
    rep.seconds = time.monotonic() - t0
    return rep


def transport_equal(a, b, basis_map: Matrix) -> bool:
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
