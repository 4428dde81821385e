"""Axiom checkers.

check_lie verifies the Jacobi identity exactly through the full sweep of
fastnum.jacobi_violation, which sums every Jacobiator component once over
the sorted triples p < q < k and memoises its verdict on the algebra.
check_ly verifies the six defining identities of a binary-ternary system.
LY1 and LY2 hold by storage.  LY3 to LY6 are the Jacobi identity of the
enveloping algebra g = h (+) m (envelope.py), read off the codes of the
nonzero components J(p, q, k)_r of one fastnum.jacobi_defects sweep of
g (their values are not needed): on (m, m, m) a
defect in m fails LY3, in h LY4; on (h, m, m), p the chosen map D(i, j),
in m LY5, in h LY6; on two maps, ArithmeticError (class_bases certifies
the commutators).  Witnesses are lex-first: LY3 and LY4 alternate in
(i, j, k) and the codes are sorted, so the first code gives the triple;
LY5 and LY6 are linear in D(i, j), every inner map combines chosen maps
at or before it in pair order, so the least tuple over the defects has
the lex-first pair; LY4 and LY6 end in the least index where the defect
(the axiom as written) is nonzero.  If the maps do not close,
LYStructureError carries the envelope without its h-h block, which LY3
to LY5 never read; LY6 fails at the error's pair of maps, maybe not lex-first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .algebra import Algebra, LYAlgebra
from .envelope import EnvelopingPair, LYStructureError, build_enveloping
from .fastnum import jacobi_defects, jacobi_violation
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


# the axioms as written, per index tuple

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


def _least(defect, ly: LYAlgebra, tup: tuple) -> tuple:
    """tup and the least last index where the defect is nonzero."""
    for x in range(ly.dim):
        if not is_zero_vec(defect(ly, *tup, x)):
            return (*tup, x)
    raise ArithmeticError(f"sweep defect at {tup}, but {defect.__name__} is zero")


def _ly_witnesses(pair: EnvelopingPair, open_pair) -> list:
    """LY3 to LY6 witnesses (None: pass) off one sweep of the envelope."""
    b = len(pair.h_index)
    p, q, k, r = np.unravel_index(jacobi_defects(pair.g)[0], (pair.g.dim,) * 4)
    if open_pair is None and (q < b).any():
        t = np.argmax(q < b)
        raise ArithmeticError("Jacobi defect on two maps at (%d, %d, %d)"
                              % (p[t], q[t], k[t]))

    def mmm(in_h):
        t = np.flatnonzero((p >= b) & (in_h == (r < b)))[:1]
        return tuple((np.concatenate([p[t], q[t], k[t]]) - b).tolist()) or None

    def hmm(in_h):
        t = np.flatnonzero((p < b) & (q >= b) & (in_h == (r < b)))
        ij = np.array(pair.d_pairs, dtype=np.int64).reshape(-1, 2)[p[t]]
        tup = np.column_stack([ij, q[t] - b, k[t] - b])
        return tuple(tup[np.lexsort(tup.T[::-1])[0]].tolist()) if len(t) else None

    ly4, ly6 = mmm(True), (*open_pair[0], *open_pair[1]) if open_pair else hmm(True)
    return [mmm(False), ly4 and _least(ly4_defect, pair.ly, ly4), hmm(False),
            ly6 and _least(ly6_defect, pair.ly, ly6)]


def check_ly(ly: LYAlgebra, target: str = "") -> Report:
    t0 = time.monotonic()
    rep = Report(target or ly.name or "ly-algebra")
    rep.add("LY1 alternating product", "pass", "storage is alternating")
    rep.add("LY2 alternating triple", "pass", "storage is alternating")
    try:
        pair, open_pair, how = build_enveloping(ly), None, "enveloping sweep"
    except LYStructureError as e:
        pair, open_pair, how = e.envelope, e.witness, "sweep without [h, h]"
    for ax, w in zip(("LY3", "LY4", "LY5", "LY6"), _ly_witnesses(pair, open_pair)):
        rep.add(ax, "fail" if w else "pass", f"{how}, dim {ly.dim}", witness=w)
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
