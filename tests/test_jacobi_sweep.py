"""The sorted-triple Jacobi sweep against the earlier per-p sweep.

jacobi_violation_reference below is the earlier implementation, kept
here as the reference: for every p it forms all n^2 pairs (q, k) with two
sparse products and reduces them with np.unique.  The new sweep must
return the same verdict and witness on clean algebras, on seeded
one-constant perturbations, and for every block budget.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

from lyalg import fastnum
from lyalg.algebra import Algebra
from lyalg.checks import jacobi_defect
from lyalg.compjordan import (build_composition, build_jordan,
                              trace_admissible_view)
from lyalg.envelope import build_enveloping
from lyalg.fastnum import jacobi_violation, scaled
from lyalg.matrixalg import build_matrix_lie, ly_sp_tensor_sym
from lyalg.tits import build_tits, ly_inside_tits

F = Fraction


# ---------------------------------------------------------------- reference

def _coo(m):
    c = m.tocoo()
    r, cl = c.coords
    return r, cl, c.data


def jacobi_violation_reference(alg: Algebra):
    st = scaled(alg)
    n = st.n
    # row (q,k), col s: c^s_{qk}; row p, col (q,s): c^s_{pq}
    C2 = sparse.csr_array((st.c, (st.p * n + st.q, st.s)), shape=(n * n, n))
    P1 = sparse.csr_array((st.c, (st.p, st.q * n + st.s)), shape=(n, n * n))
    for p in range(n):
        _, cols, data = _coo(P1[[p], :])
        G = sparse.csr_array((data, (cols // n, cols % n)), shape=(n, n))
        prow, pcol, pdat = _coo(G @ P1)      # P[q,(k,r)] = sum_s c^s_{pq} c^r_{sk}
        qrow, qcol, qdat = _coo(C2 @ G)      # Q[(q,k),r] = sum_s c^s_{qk} c^r_{ps}
        # J[q,k,r] = P[q,(k,r)] - P[k,(q,r)] - Q[(q,k),r], flattened to q*n^2+k*n+r
        f1 = prow * n * n + pcol
        f2 = (pcol // n) * n * n + prow * n + pcol % n
        f3 = qrow * n + qcol
        flat = np.concatenate([f1, f2, f3])
        data = np.concatenate([pdat, -pdat, -qdat])
        order = np.argsort(flat, kind="stable")
        flat, data = flat[order], data[order]
        if len(flat):
            uniq, start = np.unique(flat, return_index=True)
            sums = np.add.reduceat(data, start)
            bad = np.nonzero(sums)[0]
            if len(bad):
                t = int(uniq[bad[0]])
                return (p, t // (n * n), (t // n) % n)
    return None


# ---------------------------------------------------------------- inputs

def _tits(cx, cy):
    x = trace_admissible_view(build_composition(cx))
    y = trace_admissible_view(build_jordan("H3(%s)" % cy))
    return build_tits(x, y).alg


ALGEBRAS = {
    "kxH3(Q)": lambda: _tits("k", "Q"),
    "QxH3(K)": lambda: _tits("Q", "K"),
    "OxH3(k)": lambda: _tits("O", "k"),
    "so13": lambda: build_matrix_lie("so", 13),
    "sl9": lambda: build_matrix_lie("sl", 9),
    "env sp3 sym": lambda: build_enveloping(ly_sp_tensor_sym(3, 1)).g,
}


def perturbed(alg: Algebra, rng: random.Random) -> Algebra:
    """Copy with one seeded constant doubled, dropped, or one added."""
    table = dict(alg.table)
    key = rng.choice(sorted(table))
    ent = list(table[key])
    pos = rng.randrange(len(ent))
    mode = rng.choice(["double", "drop", "add"])
    if mode == "double":
        ent[pos] = (ent[pos][0], 2 * ent[pos][1])
    elif mode == "drop":
        del ent[pos]
    else:
        used = {k for k, _ in ent}
        free = [k for k in range(alg.dim) if k not in used]
        if free:
            ent.append((rng.choice(free), F(rng.choice([1, -1, 2]))))
        else:
            ent[pos] = (ent[pos][0], ent[pos][1] + 1)
    table[key] = ent
    return Algebra(alg.dim, table)


@pytest.fixture
def sweep(monkeypatch):
    """A fresh sweep (no memo) with the given block budget."""
    def run(alg: Algebra, budget: int):
        monkeypatch.setattr(fastnum, "SWEEP_BLOCK", budget)
        alg._cache.pop("jacobi", None)
        return jacobi_violation(alg)
    return run


# ---------------------------------------------------------------- tests

@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_sweep_matches_reference_on_seeded_perturbations(name, sweep):
    g = ALGEBRAS[name]()
    assert sweep(g, 1 << 16) is None
    assert jacobi_violation_reference(g) is None
    rng = random.Random(name)
    failing = 0
    for _ in range(8):
        h = perturbed(g, rng)
        ref = jacobi_violation_reference(h)
        failing += ref is not None
        for budget in (1 << 16, 1 << 8, 1):
            assert sweep(h, budget) == ref
    assert failing


def test_tiny_budget_matches_a_single_block(sweep):
    g = _tits("Q", "K")
    rng = random.Random(3)
    for h in [g] + [perturbed(g, rng) for _ in range(6)]:
        st = fastnum._SweepTables(scaled(h))
        blocks = list(fastnum.blocks(st.load, 1))
        assert [p0 for p0, _ in blocks] == [0] + [p1 for _, p1 in blocks[:-1]]
        assert blocks[-1][1] == h.dim
        # one index a block, unless the extra indices start no product
        assert all(p1 == p0 + 1 or st.load[p0:p1].sum() <= 1
                   for p0, p1 in blocks)
        assert len(blocks) > h.dim // 2
        assert list(fastnum.blocks(st.load, 1 << 40)) == [(0, h.dim)]
        assert sweep(h, 1) == sweep(h, 1 << 40) == jacobi_violation_reference(h)


def test_defect_reached_only_through_the_lower_half_of_a_block(sweep):
    # [e1, e2] = e3 and [e0, e3] = e3: J(0, 1, 2) = [[e1, e2], e0] = -e3,
    # the one product of the stored entry (1, 2) with row 3 at c = 0 < a
    g = Algebra(4, {(1, 2): [(3, F(1))], (0, 3): [(3, F(1))]})
    assert jacobi_violation_reference(g) == (0, 1, 2)
    for budget in (1, 1 << 16):
        assert sweep(g, budget) == (0, 1, 2)
    st = fastnum._SweepTables(scaled(g))
    # J(0, 1, 2)_3 is the code ((0 n + 1) n + 2) n + 3 = 27 at n = 4
    assert fastnum._jacobi_block(st, 0, 1)[0].tolist() == [27]
    assert fastnum._jacobi_block(st, 1, 4)[0].tolist() == []


def test_sweep_witness_is_sorted_for_every_orientation(sweep):
    # the same defect stored under each ordering of the triple's roles
    for a, b, c in [(0, 1, 2), (0, 2, 1), (1, 2, 0)]:
        g = Algebra(4, {(a, b): [(3, F(1))],
                        tuple(sorted((c, 3))): [(3, F(1))]})
        want = jacobi_violation_reference(g)
        assert want == (0, 1, 2)
        for budget in (1, 1 << 16):
            assert sweep(g, budget) == want


def test_sweep_refuses_constants_beyond_the_int64_bound():
    # 3 n amax^2 products bound each component: amax = 2^30 on n = 3
    # gives 9 * 2^60 >= 2^63
    g = Algebra(3, {(0, 1): [(2, F(1 << 30))]})
    with pytest.raises(OverflowError):
        jacobi_violation(g)
    ok = Algebra(3, {(0, 1): [(2, F(1 << 29))]})
    assert jacobi_violation(ok) is None


# ---------------------------------------------------------------- all defects

def jacobi_components_naive(alg: Algebra):
    """Codes ((p n + q) n + k) n + r of every nonzero J(p, q, k)_r with
    p < q < k, from the triple loop."""
    n = alg.dim
    return [((p * n + q) * n + k) * n + r
            for p in range(n) for q in range(p + 1, n) for k in range(q + 1, n)
            for r, c in enumerate(jacobi_defect(alg, p, q, k)) if c]


@pytest.mark.parametrize("budget", [1, 1 << 16])
def test_defects_list_every_nonzero_component(monkeypatch, budget):
    monkeypatch.setattr(fastnum, "SWEEP_BLOCK", budget)
    g = _tits("K", "K")
    rng = random.Random(5)
    failing = 0
    for h in [g] + [perturbed(g, rng) for _ in range(3)]:
        codes = fastnum.jacobi_defects(h)[0]
        assert codes.tolist() == jacobi_components_naive(h)
        assert h._cache["jacobi"] == jacobi_violation_reference(h)
        failing += len(codes) > 0
    assert failing


def test_defect_values_are_the_jacobiator_components():
    # rational constants, so the values come over the scale S^2, S = 6
    g = Algebra(4, {(0, 1): [(2, F(1, 2))], (0, 2): [(3, F(2, 3))],
                    (1, 2): [(0, F(1)), (3, F(-1, 3))], (0, 3): [(3, F(1))]})
    codes, vals = fastnum.jacobi_defects(g)
    s = g.table_int[3]
    assert s == 6 and len(codes)
    n = g.dim
    want = {((p * n + q) * n + k) * n + r: c
            for p in range(n) for q in range(p + 1, n) for k in range(q + 1, n)
            for r, c in enumerate(jacobi_defect(g, p, q, k)) if c}
    assert dict(zip(codes.tolist(), (F(v, s * s) for v in vals.tolist()))) == want


def test_defects_refuse_constants_beyond_the_int64_bound():
    g = Algebra(3, {(0, 1): [(2, F(1 << 30))]})
    with pytest.raises(OverflowError):
        fastnum.jacobi_defects(g)
    assert "jacobi" not in g._cache
    ok = Algebra(3, {(0, 1): [(2, F(1 << 29))]})
    assert fastnum.jacobi_defects(ok)[0].tolist() == []
    assert ok._cache["jacobi"] is None


def test_defects_skip_the_sweep_after_a_clean_verdict(monkeypatch):
    x = trace_admissible_view(build_composition("K"))
    t = build_tits(x, trace_admissible_view(build_jordan("H3(k)")))
    ly_inside_tits(t)
    assert t.alg._cache["jacobi"] is None
    calls = []
    real = fastnum._jacobi_block

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(fastnum, "_jacobi_block", counted)
    again = ly_inside_tits(t)
    assert calls == [] and again.dim == 5
    assert fastnum.jacobi_defects(t.alg)[0].tolist() == [] and calls == []
    # a memoised failing triple still sweeps, for every defect
    h = perturbed(t.alg, random.Random(3))
    w = jacobi_violation(h)
    assert w is not None
    codes = fastnum.jacobi_defects(h)[0]
    assert calls and codes.tolist() == jacobi_components_naive(h)
    assert h._cache["jacobi"] == w
