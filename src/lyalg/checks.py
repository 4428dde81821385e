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
from math import lcm

import numpy as np

from .algebra import Algebra, LYAlgebra, dict_to_table
from .buildtools import int_rows
from .envelope import EnvelopingPair, LYStructureError, build_enveloping
from .fastnum import (PRIMES, guard_bound, jacobi_defects, jacobi_violation, join,
                      lowest_terms, rank_mod, summed)
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
    basis_map are the images B e_i of a's basis vectors, and it must be
    an invertible n x n matrix (ValueError otherwise): full rank mod a
    prime certifies that (the rank mod p never exceeds the rank over Q),
    and la.rank decides only where the prime loses rank.

    The products are compared on the int64 tables, with B = M / s for an
    integer matrix M (_same_product): B applied to a's product is one join
    per table, and b's product on the images B e_i, B e_j (, B e_k) one
    join per argument.  Each join is guarded (guard_bound) and summed, and
    each side is put in lowest terms over its scale, which makes two
    equal sides equal arrays.  Where the int64 guard refuses, the same
    joins run in Python ints.
    """
    n = a.dim
    if b.dim != n:
        raise ValueError("dimension mismatch")
    if len(basis_map) != n or any(len(row) != n for row in basis_map):
        raise ValueError("basis map is not %d x %d" % (n, n))
    try:
        m, s = int_rows(basis_map, n)
    except OverflowError:
        s = lcm(*(x.denominator for row in basis_map for x in row))
        m = np.array([[x.numerator * (s // x.denominator) for x in row]
                      for row in basis_map], dtype=object).reshape(n, n)
    if rank_mod(m, PRIMES[0]) != n and rank(basis_map) != n:
        raise ValueError("basis map is not invertible")
    if isinstance(a, LYAlgebra):
        pairs = [(dict_to_table(a.binary, n, 2), dict_to_table(b.binary, n, 2), 2),
                 (a.ternary_int, b.ternary_int, 3)]
    else:
        pairs = [(a.table_int, b.table_int, 2)]
    if n ** (pairs[-1][2] + 1) >= 1 << 63:
        raise OverflowError("dimension too large for int64 product codes")
    for ta, tb, arity in pairs:
        try:
            same = _same_product(ta, tb, arity, m, s)
        except OverflowError:
            same = _same_product(ta, tb, arity, m.astype(object), s)
        if not same:
            return False
    return True


def _codes(pair, col, n: int, arity: int):
    """The codes ((i n + j) n + k) n + l of the entries [e_i, e_j, e_k] = v e_l
    of an int64 table (no k for arity 2), from its pair and col arrays."""
    return pair * n + col if arity == 2 else (pair * n + col % n) * n + col // n


def _contract(code, val, w: int, n: int, right):
    """The digit x = code // w % n of every code replaced by i, with weight
    v, for each entry (x, i, v) of right: one guarded join, summed."""
    if val.dtype != object:
        guard_bound(n, val, right[2])
    x = code // w % n
    rest, i, v = join((code - x * w, x, val), right)
    return summed(rest + i * w, v)


def _same_product(ta, tb, arity: int, m, s: int) -> bool:
    """B x(e_i, e_j[, e_k]) == y(B e_i, B e_j[, B e_k]) at every stored key
    of x, for the products x and y of arity 2 or 3 given as int64 tables
    ta and tb, and B = m / s; the values run in m's dtype.

    The left side contracts the target of ta with m (one join).  The right
    side takes tb in both orders of its antisymmetric pair and contracts
    each argument with m (one join each), kept at i < j.
    """
    n = len(m)
    r, c = np.nonzero(m)
    args, target = (r, c, m[r, c]), (c, r, m[r, c])
    code, val = _codes(ta[0], ta[1], n, arity), ta[2].astype(m.dtype)
    lhs, lval = _contract(code, val, 1, n, target)
    pair, col, val, _ = tb
    i, j = np.divmod(pair, n)
    code = np.concatenate([_codes(pair, col, n, arity), _codes(j * n + i, col, n, arity)])
    val = np.concatenate([val, -val]).astype(m.dtype)
    for t in range(arity, 0, -1):
        code, val = _contract(code, val, n ** t, n, args)
    keep = code // n ** arity < code // n ** (arity - 1) % n
    lval, lden = lowest_terms(lval, ta[3] * s)
    rval, rden = lowest_terms(val[keep], tb[3] * s ** arity)
    return lden == rden and np.array_equal(lhs, code[keep]) and np.array_equal(lval, rval)
