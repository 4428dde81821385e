"""Classifier edge cases beyond the happy paths exercised elsewhere."""

from fractions import Fraction
from math import gcd

import pytest

from lyalg import io
from lyalg import linalg as la
from lyalg import roots
from lyalg.algebra import Algebra, LYAlgebra
from lyalg.buildtools import direct_sum, kronecker_ternary
from lyalg.checks import check_ly
from lyalg.cli import main
from lyalg.compjordan import build_composition, build_jordan, trace_admissible_view
from lyalg.envelope import build_enveloping
from lyalg.fastnum import jacobi_violation
from lyalg.invariants import _grading_blocks
from lyalg.matrixalg import build_matrix_lie, lts_orthosymplectic_sum, split_sym_form
from lyalg.roots import (ClassifyError, classify, check_grading,
                         saturate_torus, verify_weights, verify_split_maximal)
from lyalg.tits import _pair_maps, _slice_ints, build_tits
from test_tits import grid_pair_entries

fr = Fraction


def test_classify_rejects_nonsemisimple():
    h = Algebra(3, {(0, 1): [(2, fr(1))]})
    h.weights = [(fr(0),)] * 3
    h.cartan = [[fr(0), fr(0), fr(1)]]
    with pytest.raises(ClassifyError):
        classify(h)


def test_verify_weights_catches_lies():
    g = build_matrix_lie("sl", 2)
    g.weights = [g.weights[0], g.weights[2], g.weights[1]]
    with pytest.raises(ClassifyError):
        verify_weights(g)


def test_grading_check():
    g = build_matrix_lie("sl", 3)
    assert check_grading(g) == 2
    g2 = build_matrix_lie("sl", 3)
    g2.weights = [g2.weights[0]] * g2.dim
    with pytest.raises(ClassifyError):
        verify_weights(g2)


def test_composite_classification():
    s = direct_sum(build_matrix_lie("sl", 3), build_matrix_lie("sl", 3))
    assert classify(s) == "A2+A2"
    t = direct_sum(build_matrix_lie("so", 5), build_matrix_lie("sl", 2))
    assert classify(t) == "A1+C2"


def test_classify_sl2_plus_so7():
    s = direct_sum(build_matrix_lie("sl", 2), build_matrix_lie("so", 7))
    assert classify(s) == "A1+B3"


def test_classify_rejects_non_lie_bracket_with_valid_torus():
    g = build_matrix_lie("sl", 3)
    # [E(0,1), E(1,2)] doubled: weights and torus still check out
    table = dict(g.table)
    table[(2, 5)] = [(k, 2 * c) for k, c in table[(2, 5)]]
    bad = Algebra(g.dim, table, labels=g.labels, name="sl3-doubled")
    bad.weights, bad.cartan = g.weights, g.cartan
    verify_weights(bad)
    with pytest.raises(ClassifyError, match=r"Jacobi.*\(2, 3, 4\)"):
        classify(bad)


def test_saturate_carries_a_clean_jacobi_verdict():
    g = build_matrix_lie("sl", 3)
    g.cartan = None                 # forces a rebase onto eigenvectors
    assert "jacobi" not in g._cache
    # saturate_torus sweeps its input first; the rebase carries the verdict
    s = saturate_torus(g)
    assert g._cache["jacobi"] is None and jacobi_violation(g) is None
    assert s is not g and s._cache["jacobi"] is None


def test_saturate_already_saturated():
    g = build_matrix_lie("sp", 4)
    assert saturate_torus(g) is g


def test_split_maximal_rejects_fat_zero_block():
    g = build_matrix_lie("sl", 3)
    # drop one torus element: zero-weight space now exceeds the rank
    g.cartan = g.cartan[:1]
    g.weights = [(w[0],) for w in g.weights]
    with pytest.raises(ClassifyError):
        verify_split_maximal(g)


def test_grading_check_names_the_first_entry_off_the_grading():
    g = build_matrix_lie("sl", 3)
    bad = Algebra(g.dim, {**g.table, (2, 5): [(0, fr(1))]}, labels=g.labels)
    bad.weights = g.weights
    with pytest.raises(ClassifyError, match=r"off the grading at \(2,5\)->0"):
        check_grading(bad)


def test_grading_witness_is_lex_first_whatever_the_insertion_order():
    # both entries are off the grading; the dict holds (1, 2) first
    bad = Algebra(3, {(1, 2): [(0, fr(1))], (0, 1): [(0, fr(1))]})
    bad.weights = [(fr(1),), (fr(2),), (fr(4),)]
    with pytest.raises(ClassifyError, match=r"off the grading at \(0,1\)->0"):
        check_grading(bad)


def check_grading_reference(alg):
    """The grading certificate by one weight-tuple comparison per entry."""
    if alg.weights is None or len(alg.weights) != alg.dim:
        raise ClassifyError("no weight data on %r" % alg.name)
    for (i, j), ent in alg.table.items():
        want = tuple(a + b for a, b in zip(alg.weights[i], alg.weights[j]))
        for l, _ in ent:
            if alg.weights[l] != want:
                raise ClassifyError("structure constant off the grading at "
                                    "(%d,%d)->%d" % (i, j, l))
    return len(alg.weights[0])


def rebase_reference(alg, vecs):
    """The change of basis by one Fraction sparse bracket and one la.solve
    per basis pair."""
    n = alg.dim
    blocks = _grading_blocks(n, alg.weights)
    memb = {j: bi for bi, blk in enumerate(blocks) for j in blk}
    rowsof, nzof, blkof = {}, [], []
    for t, v in enumerate(vecs):
        nz = [(i, x) for i, x in enumerate(v) if x != 0]
        nzof.append(nz)
        blkof.append(memb[nz[0][0]])
        rowsof.setdefault(blkof[-1], []).append((t, v))
    # each block's new vectors as the columns of a Fraction system
    solvers = {bi: (la.transpose([[v[j] for j in blocks[bi]] for _, v in pairs]),
                    [t for t, _ in pairs], blocks[bi])
               for bi, pairs in rowsof.items()}
    den = 1
    for blk in blocks:
        for x in alg.weights[blk[0]]:
            den = den * x.denominator // gcd(den, x.denominator)
    clsw = [tuple(int(x * den) for x in alg.weights[blk[0]]) for blk in blocks]
    wclass = {w: bi for bi, w in enumerate(clsw)}
    table = {}
    for a in range(n):
        for b in range(a + 1, n):
            bi = wclass.get(tuple(x + y for x, y in zip(clsw[blkof[a]], clsw[blkof[b]])))
            if bi is None:
                continue
            w = roots._sparse_bracket(alg, nzof[a], nzof[b])
            if not w:
                continue
            assert all(memb[i] == bi for i in w)
            solver, tids, blk = solvers[bi]
            co = la.solve(solver, [w.get(j, fr(0)) for j in blk])
            entl = sorted((t, c) for t, c in zip(tids, co) if c != 0)
            if entl:
                table[(a, b)] = entl
    out = Algebra(n, table, name=alg.name)
    if "jacobi" in alg._cache and alg._cache["jacobi"] is None:
        out._cache["jacobi"] = None
    return out


@pytest.mark.parametrize("cx, cy", [("K", "K"), ("Q", "Q"), ("O", "k")])
def test_integer_rebase_matches_fraction_reference(monkeypatch, cx, cy):
    x = trace_admissible_view(build_composition(cx))
    y = trace_admissible_view(build_jordan("H3(%s)" % cy))
    g = build_tits(x, y).alg
    assert jacobi_violation(g) is None
    new = saturate_torus(g)
    monkeypatch.setattr(roots, "check_grading", check_grading_reference)
    monkeypatch.setattr(roots, "_rebase", rebase_reference)
    ref = saturate_torus(g)
    assert list(new.table.items()) == list(ref.table.items())
    assert (new.weights, new.cartan) == (ref.weights, ref.cartan)
    assert new._cache["jacobi"] is None and ref._cache["jacobi"] is None
    assert io.dumps(io.algebra_to_obj(new)) == io.dumps(io.algebra_to_obj(ref))


def so8_on_a_non_split_form():
    # the envelope is so(8) on 3H (+) <1, 1>, not split over Q
    return lts_orthosymplectic_sum(split_sym_form(3), split_sym_form(5))


def test_saturate_rejects_a_non_split_zero_weight_space():
    g = build_enveloping(so8_on_a_non_split_form()).g
    with pytest.raises(ClassifyError, match="irrational eigenvalue") as err:
        saturate_torus(g)
    assert str(err.value.witness.as_expr()) == "x**2 + 1"


def test_cli_classify_refuses_a_non_split_envelope(tmp_path, capsys):
    path = tmp_path / "so8.json"
    io.save(str(path), so8_on_a_non_split_form())
    assert main(["classify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lyalg: ") and "irrational eigenvalue" in err


def q_jv3_ly():
    """The grid products of T(Q, JV(3)) as an LY algebra.  The pair fails
    Tits condition (iii), so ly_inside_tits refuses it and its 15-dim
    envelope is not a Lie algebra; the same binary and ternary tables,
    labels and weights are assembled here from ly_inside_tits' parts."""
    x = trace_admissible_view(build_composition("Q"))
    y = trace_admissible_view(build_jordan("JV(3)"))
    ny = y.n0
    binary = {}
    for i, j, k, l, _, grid_ent, _ in grid_pair_entries(x, y):
        ent = sorted((a * ny + b, v) for (a, b), v in grid_ent)
        if ent:
            binary[(i * ny + j, k * ny + l)] = ent
    xs, ys = _slice_ints(x), _slice_ints(y)
    ternary = kronecker_ternary(_pair_maps(xs), xs.tform, _pair_maps(ys), ys.tform)
    ly = LYAlgebra(x.n0 * ny, binary, ternary,
                   labels=["x%d*y%d" % (i, j)
                           for i in range(x.n0) for j in range(ny)],
                   name="ly-inside-tits(Q,JV(3))")
    ly.weights = [wx + wy for wx in x.weights for wy in y.weights]
    return ly


def test_saturate_refuses_a_non_lie_envelope_with_its_jacobi_witness():
    g = build_enveloping(q_jv3_ly()).g
    assert g.dim == 15
    with pytest.raises(ClassifyError, match="Jacobi identity fails") as err:
        saturate_torus(g)
    assert err.value.witness == (6, 7, 9) == jacobi_violation(g)


def test_semisimple_and_simple_refuse_a_non_lie_envelope():
    from lyalg.invariants import is_semisimple

    g = build_enveloping(q_jv3_ly()).g
    with pytest.raises(ClassifyError, match="Jacobi identity fails") as err:
        is_semisimple(g)
    assert err.value.witness == (6, 7, 9)


def test_cli_classify_runs_check_ly_first(tmp_path, capsys):
    ly = q_jv3_ly()
    bad = next(it for it in check_ly(ly).items if it.status != "pass")
    path = tmp_path / "q_jv3.json"
    io.save(str(path), ly)
    assert main(["classify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lyalg: not an LY algebra: ")
    assert bad.name in err and str(bad.witness) in err
    assert "irrational" not in err
