"""Two-slice derivation-grid construction, the classical square, the
2x2-row bracket and the equivariant bracket solver.

Expected values fixed in advance: the sixteen square cells carry the
classical dimensions and types (3/A1, 8/A2, 21/C3, 52/F4; 16/A2+A2,
35/A5, 78/E6; 66/D6, 133/E7; 248/E8), the reductive pairs inside the
octonion row have module dimensions 35 = 52-(14+3) and 182 = 248-(14+52),
and the 2x2 row over H_n(K) must come out as sl(2n).
"""

import hashlib
import importlib.util
import json
from fractions import Fraction as F
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lyalg import buildtools as bt
from lyalg import checks, io
from lyalg import linalg as la
from lyalg.algebra import Algebra, LYAlgebra, dict_to_table
from lyalg.buildtools import OutsideSpan, subalgebra_on_indices
from lyalg.checks import check_lie, check_ly
from lyalg.compjordan import (TraceAdmissible, build_composition, build_jordan,
                              trace_admissible_view)
from lyalg.envelope import (LYStructureError, build_enveloping, class_bases,
                            ly_from_reductive, ly_from_reductive_indices,
                            pair_classes)
from lyalg.fastnum import PRIMES20, jacobi_violation, killing_int, rref_mod
from lyalg.matrixalg import (build_matrix_lie, check_coincidence,
                             lts_orthosymplectic_sum, ly_sl_tensor_sl,
                             ly_sp_tensor_sym, sl_ops, split_sym_form)
from lyalg.roots import check_grading, classify, saturate_torus
from lyalg.symplectic import build_g_of_T, construct_TJ, cubic_jordan_data
from lyalg.tits import (ModuleAction, TitsAlgebra, _conditions,
                        _span_algebra, assemble_bracket,
                        bracket_transport_equal, build_tits,
                        build_tkk_row, check_tits_conditions,
                        form_pair_module_data, ly_inside_tits, magic_square,
                        solve_equivariant_bracket, tensor_action,
                        tits_module_data, tkk_to_tits_map)
from viewforms import fraction_forms

SQUARE = {
    "k": [(3, "A1"), (8, "A2"), (21, "C3"), (52, "F4")],
    "K": [(8, "A2"), (16, "A2+A2"), (35, "A5"), (78, "E6")],
    "Q": [(21, "C3"), (35, "A5"), (66, "D6"), (133, "E7")],
    "O": [(52, "F4"), (78, "E6"), (133, "E7"), (248, "E8")],
}


def cview(kind):
    return trace_admissible_view(build_composition(kind))


def jview(spec):
    return trace_admissible_view(build_jordan(spec))


def _sparse(vec):
    return [(i, v) for i, v in enumerate(vec) if v != 0]


def dco_lookup(view):
    """Signed sparse derivation-pair coordinates as a callable."""
    sp = {k: _sparse(v) for k, v in fraction_forms(view).dcoords.items()}

    def co(i, j):
        if i == j:
            return []
        if i < j:
            return sp[(i, j)]
        return [(c, -v) for c, v in sp[(j, i)]]

    return co


def grid_pair_entries(x, y):
    """Grid bracket terms for every ordered basis pair of the grid, the
    Fraction reference for the int64 batch of build_tits.

    Yields (i, j, k, l, dx_ent, grid_ent, dy_ent) with (i, j) < (k, l)
    lexicographically: the left-span part t_y(y_j y_l) D_{x_i, x_k},
    the grid part (x_i * x_k) (x) (y_j * y_l) as ((a, b), coeff) items,
    and the right-span part t_x(x_i x_k) d_{y_j, y_l}.
    """
    nx, ny = x.n0, y.n0
    fx, fy = fraction_forms(x), fraction_forms(y)
    stx = [[_sparse(fx.stab[i][k]) for k in range(nx)] for i in range(nx)]
    sty = [[_sparse(fy.stab[j][l]) for l in range(ny)] for j in range(ny)]
    dcox = dco_lookup(x)
    dcoy = dco_lookup(y)
    for i in range(nx):
        for j in range(ny):
            for k in range(i, nx):
                for l in range(j + 1 if k == i else 0, ny):
                    c1 = fy.tform[j][l]
                    dx_ent = ([(c, c1 * v) for c, v in dcox(i, k)]
                              if c1 != 0 else [])
                    grid_ent = [((a, b), va * vb)
                                for a, va in stx[i][k] for b, vb in sty[j][l]]
                    c2 = fx.tform[i][k]
                    dy_ent = ([(c, c2 * v) for c, v in dcoy(j, l)]
                              if c2 != 0 else [])
                    yield i, j, k, l, dx_ent, grid_ent, dy_ent


def build_tits_reference(x, y):
    """The three-block algebra assembled entry by entry in Fractions."""
    nDx, ndy = x.nspan, y.nspan
    fx, fy = fraction_forms(x), fraction_forms(y)
    nx, ny = x.n0, y.n0
    dofs = nDx + nx * ny

    def gi(i, j):
        return nDx + i * ny + j

    table = dict(_span_algebra(x).table)
    for (i, j), ent in _span_algebra(y).table.items():
        table[(dofs + i, dofs + j)] = [(dofs + c, v) for c, v in ent]
    for p in range(nDx):
        m = fx.dspan[p]
        for i in range(nx):
            col = [(a, m[a][i]) for a in range(nx) if m[a][i] != 0]
            for j in range(ny if col else 0):
                table[(p, gi(i, j))] = [(gi(a, j), v) for a, v in col]
    for q in range(ndy):
        m = fy.dspan[q]
        for j in range(ny):
            col = [(b, m[b][j]) for b in range(ny) if m[b][j] != 0]
            for i in range(nx if col else 0):
                table[(gi(i, j), dofs + q)] = [(gi(i, b), -v) for b, v in col]
    for i, j, k, l, dx_ent, grid_ent, dy_ent in grid_pair_entries(x, y):
        acc = {}
        for c, v in dx_ent:
            acc[c] = acc.get(c, F(0)) + v
        for (a, b), v in grid_ent:
            acc[gi(a, b)] = acc.get(gi(a, b), F(0)) + v
        for c, v in dy_ent:
            acc[dofs + c] = acc.get(dofs + c, F(0)) + v
        ent = sorted((t, v) for t, v in acc.items() if v != 0)
        if ent:
            table[(gi(i, j), gi(k, l))] = ent
    labels = (["DX%d" % p for p in range(nDx)]
              + ["x%d*y%d" % (i, j) for i in range(nx) for j in range(ny)]
              + ["dY%d" % q for q in range(ndy)])
    return Algebra(dofs + ndy, dict(sorted(table.items())), labels=labels)


def load_known():
    """perfbench/known.py, loaded from the file as it is."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "known.py"
    spec = importlib.util.spec_from_file_location("perfbench_known", path)
    known = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(known)
    return known


def known_square_sha256():
    """perfbench/known.py's SQUARE_SHA256."""
    return dict(load_known().SQUARE_SHA256)


@pytest.mark.parametrize("cx", "kKQO")
@pytest.mark.parametrize("cy", "kKQO")
def test_batched_build_tits_matches_the_reference_assembly(cx, cy):
    x, y = cview(cx), jview("H3(%s)" % cy)
    alg, ref = build_tits(x, y).alg, build_tits_reference(x, y)
    # io writes alg from its int64 table and ref from its Fraction dict
    assert io.dumps(io.algebra_to_obj(alg)) == io.dumps(io.algebra_to_obj(ref))
    assert list(alg.table.items()) == list(ref.table.items())
    assert ([a.tolist() for a in alg.table_int[:3]] + [alg.table_int[3]]
            == [a.tolist() for a in ref.table_int[:3]] + [ref.table_int[3]])


def saturated_sha256(s):
    """sha256 of an algebra's canonical bytes together with its weights
    and torus, each entry written as a string."""
    obj = [io.dumps(io.algebra_to_obj(s)), [[str(x) for x in w] for w in s.weights],
           [[str(x) for x in h] for h in s.cartan]]
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


# saturate_torus of each square cell, as first recorded from the Fraction
# eigensplit and the per-block coordinate solves of the change of basis
SATURATED_SQUARE_SHA256 = {
    ("k", "k"): "8f6200e9eb67b25807412fb9d90a481e126b2bb23ab5b51084e8f82d5fba4fa5",
    ("k", "K"): "1372fcc953b41984dfdbb66d46471ada24617a8cca60cf4e27c81b358ff1a730",
    ("k", "Q"): "d7f63aa44895ae30f2e6634182dc2ad6a886c7708acedfc2c5d9a9a54ca41774",
    ("k", "O"): "4897be4b640e198a736adf8768d87b17cce8691808abffe0ff82317a82f5aced",
    ("K", "k"): "a9a4113f6c06b85167d9e5daa73c91af13b8b8bca7aeee785a359ebca104b022",
    ("K", "K"): "b53e3643963666943036105834f4cee38dd7bec5579db5643ad8b93516554d30",
    ("K", "Q"): "9e5b658e30d026a437096a4e2da5b26788febd1fdf8f1dff30db9b74567880b2",
    ("K", "O"): "b4977ce2d65d379f55fde8bd206c00893089c8f122ef0c1190313255b09531b5",
    ("Q", "k"): "bfaa2bd45be6fa9ceb982b8d5fe69cda6f0c967e393bc361bf3541cf651d2abf",
    ("Q", "K"): "2be2cd96968121c1db668ad2fd6e391a1977a9b60e12603339a27f4f14ee5853",
    ("Q", "Q"): "9e5c836ad793ff59d9c92c40e3dd32e9d637a6d77d77700db7eeb78b9ae2146e",
    ("Q", "O"): "ad3a172dabf61ab0dbfe9f5cd25750dbca411eeeeebb38a3c6938c85f7e7ab92",
    ("O", "k"): "4417f179c25d5e748133e64ea22babf5d343001a881bbb0ebb4a98fbf582c85e",
    ("O", "K"): "db533e70cfd75aa2cdd4dc68dc006523ea190ffcc3ce992a9086f0f68619036b",
    ("O", "Q"): "88d363cc37948c8d00c5399897176925fefa25f52f7144ddc0682dfa04f6b8f0",
    ("O", "O"): "fcd9f50dff264eac1516dc4236f8ebc339d78beb13a4fc15328339db02909f9c",
}


def test_every_square_cell_keeps_its_pinned_bytes():
    pinned = known_square_sha256()
    assert len(pinned) == 16 and set(pinned) == set(SATURATED_SQUARE_SHA256)
    for (cx, cy), digest in pinned.items():
        g = build_tits(cview(cx), jview("H3(%s)" % cy)).alg
        assert sha256(g) == digest
        assert saturated_sha256(saturate_torus(g)) == SATURATED_SQUARE_SHA256[cx, cy]


def test_slice_tensors_are_cleared_once_per_view_and_read_only():
    x = cview("Q")
    ints = x.ints
    assert cview("Q").ints is ints
    for arr, scale in ints:
        assert not arr.flags.writeable and scale > 0
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1


def test_span_algebras_are_built_once_per_view(monkeypatch):
    xs = [cview(c) for c in "kKQO"]
    ys = [jview("H3(%s)" % c) for c in "kKQO"]
    for view in xs + ys:
        view._span = None
    built = []
    build = bt.operator_algebra_from_basis

    def counted(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(bt, "operator_algebra_from_basis", counted)
    for x in xs:
        for y in ys:
            build_tits(x, y)
    # one build per view, and each view keeps its own
    assert len(built) == 8
    assert {id(s) for s in built} == {id(v._span) for v in xs + ys}
    assert all(v._span.dim == v.nspan for v in xs + ys)
    # the acting algebra of the module data reuses both spans
    x, y = xs[2], ys[0]
    h = tits_module_data(x, y)[0]
    assert len(built) == 8
    assert h.dim == x._span.dim + y._span.dim == 6
    assert {k: v for k, v in h.table.items() if k[0] < 3} == x._span.table


class RefuseDerivedDict:
    """Stands in for Algebra.table.  A dict given to the constructor is
    still kept and read (an instance attribute wins over a descriptor
    without __set__); deriving the dict from the int64 table raises."""

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        raise AssertionError("the Fraction dict was built from the int64 table")


def test_square_path_never_builds_the_fraction_dict(monkeypatch):
    spans = []

    def recorded(view):
        spans.append(_span_algebra(view))
        return spans[-1]

    x, y = cview("O"), jview("H3(Q)")
    x._span = y._span = None        # build both span algebras under the patch
    monkeypatch.setattr("lyalg.tits._span_algebra", recorded)
    monkeypatch.setattr(Algebra, "table", RefuseDerivedDict())
    t = build_tits(x, y)
    assert check_tits_conditions(x, y).passed()
    assert jacobi_violation(t.alg) is None
    assert killing_int(t.alg).shape == (133, 133)
    assert io.algebra_to_obj(t.alg)["binary"]
    monkeypatch.undo()
    assert "table" not in vars(t.alg)
    # neither span algebra holds the dict: each is built as its int64 table
    assert [s.dim for s in spans[:2]] == [14, 21]
    assert not any("table" in vars(s) for s in spans)


# the Fraction tables and accessors a view once derived from its tensors
DELETED_VIEW_NAMES = ("stab", "tform", "dspan", "dcoords", "dt", "_upper", "star", "tp",
                      "dmat")


def test_square_and_ly182_never_derive_a_views_fraction_tables():
    # a view holds its int64 tensors only: no Fraction table is left to derive
    assert [n for n in DELETED_VIEW_NAMES if hasattr(TraceAdmissible, n)] == []
    # fresh views, built and read by the square and the 182-dim LY algebra
    build = trace_admissible_view.__wrapped__
    xs = {c: build(build_composition(c)) for c in "kKQO"}
    ys = {c: build(build_jordan("H3(%s)" % c)) for c in "kKQO"}
    for (cx, cy), digest in known_square_sha256().items():
        assert sha256(build_tits(xs[cx], ys[cy]).alg) == digest
    ly = ly_inside_tits(build_tits(xs["O"], ys["O"]))
    assert (ly.dim, sha256(ly)) == (182, load_known().ANSWERS["e8-ly.ly182"]["sha256"])
    assert not any(set(vars(v)) & set(DELETED_VIEW_NAMES)
                   for v in list(xs.values()) + list(ys.values()))


@pytest.mark.parametrize("spec, digest", [
    ("H3(k)", "1c97c8f78bf6e69f03090b6a9158d1d0b48f9909066fb53dd1cba0fb4d05a84c"),
    ("H3(K)", "2037ad67332edceae07abd550c33ed5e01f861d83a5c2e97ae24f5f63f5c1cc6"),
    ("JV(3)", "21b398359a71b9d1730a587e3228989b68476619dd30c7b3d164cd3502aae8b0"),
    ("H4(K)", "888372fd7c5b5661bb8eea1fd9d38794e4b16e15610bb8f23090800c7fa8d0bd"),
])
def test_tkk_rows_keep_their_bytes(spec, digest):
    # as first recorded from the Fraction assembly of the row
    assert sha256(build_tkk_row(build_jordan(spec))) == digest


def test_build_tits_block_layout():
    t = build_tits(cview("Q"), jview("H3(k)"))
    assert (t.nD, t.ngrid, t.nd) == (3, 15, 3)
    assert t.alg.dim == 21
    assert t.h_index == list(range(3)) + list(range(18, 21))
    assert t.m_index == list(range(3, 18))
    assert t.alg.labels[3] == "x0*y0"
    assert check_grading(t.alg) == len(t.alg.weights[0])


def test_small_cells_full_jacobi():
    for cx, cy, dim, typ in [("k", "k", 3, "A1"), ("K", "K", 16, "A2+A2"),
                             ("Q", "k", 21, "C3"), ("O", "k", 52, "F4")]:
        t = build_tits(cview(cx), jview("H3(%s)" % cy))
        assert t.alg.dim == dim
        assert check_lie(t.alg).passed
        assert classify(saturate_torus(t.alg)) == typ


@pytest.fixture(scope="module")
def sq():
    return magic_square()


def test_magic_square_table(sq):
    for ri, cx in enumerate("kKQO"):
        for ci, cy in enumerate("kKQO"):
            dim, typ = SQUARE[cx][ci]
            cell = sq[(cx, cy)]
            assert cell["dim"] == dim, (cx, cy)
            assert cell["type"] == typ, (cx, cy)
            assert cell["lie"] is True, (cx, cy)


def test_magic_square_symmetry(sq):
    for cx in "kKQO":
        for cy in "kKQO":
            assert sq[(cx, cy)]["dim"] == sq[(cy, cx)]["dim"]
            assert sq[(cx, cy)]["type"] == sq[(cy, cx)]["type"]


def test_conditions_pass_on_catalog_pairs():
    for x, y in [(cview("Q"), jview("H3(Q)")),
                 (cview("O"), jview("H3(O)")),
                 (jview("JV(3)"), jview("JV(5)"))]:
        co = check_tits_conditions(x, y)
        assert co.passed(), co


def test_conditions_fail_octonion_degree_four():
    y4 = jview("H4(K)")
    co = check_tits_conditions(cview("O"), y4)
    assert co.ok["i"] and co.ok["ii"] and not co.ok["iii"]
    assert co.witnesses["iii"] is not None
    # the associative row stays a Lie algebra at any degree
    assert check_tits_conditions(cview("Q"), y4).passed()


_VIEWS = {}


def view(spec):
    """Cached trace-zero view of a composition kind or a Jordan spec."""
    if spec not in _VIEWS:
        _VIEWS[spec] = cview(spec) if spec in "kKQO" else jview(spec)
    return _VIEWS[spec]


# (left, right) ingredient pairs: every square cell and six more pass the
# closure identities; the last six fail (iii) alone
PASSING_PAIRS = ([(cx, "H3(%s)" % cy) for cx in "kKQO" for cy in "kKQO"]
                 + [("K", "H4(K)"), ("Q", "H4(K)"), ("Q", "H4(Q)"),
                    ("JV(3)", "JV(5)"), ("K", "JV(3)"), ("H3(k)", "Q")])
FAILING_PAIRS = [("O", "H4(K)"), ("O", "H4(Q)"), ("Q", "JV(3)"),
                 ("O", "JV(5)"), ("JV(3)", "H3(k)"), ("JV(5)", "O")]


@pytest.mark.parametrize("xs, ys", PASSING_PAIRS + FAILING_PAIRS)
def test_conditions_verdicts_over_the_pair_catalog(xs, ys):
    x, y = view(xs), view(ys)
    co = check_tits_conditions(x, y)
    fails = (xs, ys) in FAILING_PAIRS
    assert co.ok == {"i": True, "ii": True, "iii": not fails}
    assert co.witnesses["i"] is None and co.witnesses["ii"] is None
    t = build_tits(x, y)
    if not fails:
        assert co.witnesses["iii"] is None
        assert jacobi_violation(t.alg) is None
        return
    # the lex-first failing triple of the sweep is the (iii) witness
    w = co.witnesses["iii"]
    assert jacobi_violation(t.alg) == tuple(
        t.grid_index(i, j) for i, j in zip(w["x"], w["y"]))


@pytest.mark.parametrize("xs, ys", [("Q", "JV(3)"), ("O", "JV(5)")])
def test_ly_inside_tits_refuses_a_failing_pair(xs, ys):
    t = build_tits(view(xs), view(ys))
    with pytest.raises(ValueError, match=r"\(iii\) fails") as err:
        ly_inside_tits(t)
    w = check_tits_conditions(view(xs), view(ys)).witnesses["iii"]
    assert str(w) in str(err.value)


@pytest.mark.parametrize("target, cond", [(0, "ii"), (2, "iii"), (4, "i")])
def test_conditions_name_the_block_of_the_defect(target, cond):
    # e0 spans the left derivations, e1..e3 the grid x0 (x) y0..y2 and e4
    # the right ones; J(1, 2, 3) = [e1, e3] + [[e3, e1], e2] = e_target
    # is the one defect
    alg = Algebra(5, {(1, 2): [(1, F(1))], (1, 3): [(target, F(1))]})
    t = TitsAlgebra(alg, SimpleNamespace(nspan=1, n0=1),
                    SimpleNamespace(nspan=1, n0=3))
    co = _conditions(t)
    assert co.ok == {c: c != cond for c in ("i", "ii", "iii")}
    assert co.witnesses[cond] == {"x": (0, 0, 0), "y": (0, 1, 2)}
    assert jacobi_violation(alg) == (1, 2, 3)


def test_conditions_refuse_a_defect_off_the_grid():
    # doubling one left-span commutator breaks Jacobi on span triples,
    # which no closure identity covers
    t = build_tits(cview("Q"), jview("H3(k)"))
    table = dict(t.alg.table)
    key = min(k for k in table if k[1] < t.nD)
    table[key] = [(c, 2 * v) for c, v in table[key]]
    t.alg = Algebra(t.alg.dim, table)
    assert jacobi_violation(t.alg)[2] < t.nD
    with pytest.raises(ArithmeticError, match="off the grid"):
        _conditions(t)


def test_ly_inside_octonion_row_small():
    t = build_tits(cview("O"), jview("H3(k)"))
    ly = ly_inside_tits(t)
    assert ly.dim == 35
    assert check_ly(ly).passed
    env = build_enveloping(ly)
    assert env.g.dim == 52
    assert classify(saturate_torus(env.g)) == "F4"
    dsub = subalgebra_on_indices(env.g, env.h_index)
    dsub.weights = [env.g.weights[i] for i in env.h_index]
    assert dsub.dim == 17
    assert classify(saturate_torus(dsub)) == "A1+G2"


def test_failing_check_ly_reads_its_witnesses_off_the_sweep(monkeypatch):
    """A raised binary constant of the 35-dim algebra fails LY3 to LY5 and
    leaves LY6; the witnesses come from one sweep, so the per-tuple LY4
    and LY6 defects run at most dim times each (a scan would need 35^5)."""
    ly = ly_inside_tits(build_tits(cview("O"), jview("H3(k)")))
    key = sorted(ly.binary)[0]
    (l, c), *rest = ly.binary[key]
    bad = LYAlgebra(ly.dim, {**ly.binary, key: [(l, c + 1), *rest]},
                    ly.ternary_int, labels=ly.labels)
    bad.weights = ly.weights
    calls = {}
    for name in ("ly4_defect", "ly6_defect"):
        real = getattr(checks, name)

        def counted(*args, name=name, real=real):
            calls[name] = calls.get(name, 0) + 1
            if calls[name] > ly.dim:
                raise AssertionError("%s called more than dim times" % name)
            return real(*args)

        monkeypatch.setattr(checks, name, counted)
    rep = check_ly(bad)
    monkeypatch.undo()
    items = {it.name: it for it in rep.items}
    assert items["LY6"].status == "pass"
    for ax in ("LY3", "LY4", "LY5"):
        assert items[ax].status == "fail"
        defect = getattr(checks, "ly%s_defect" % ax[-1])
        assert any(defect(bad, *items[ax].witness))


def sha256(thing):
    obj = io.ly_to_obj(thing) if isinstance(thing, LYAlgebra) else io.algebra_to_obj(thing)
    return hashlib.sha256(io.dumps(obj).encode()).hexdigest()


def test_ly_inside_octonion_row_large():
    t = build_tits(cview("O"), jview("H3(O)"))
    ly = ly_inside_tits(t)
    assert ly.dim == 182
    # the canonical bytes of the LY algebra and of E8, as first recorded
    assert sha256(ly) == ("6c49f573873dc70b4587da684f5a0a29"
                          "ed80284d8fbdd07662ac0b8c507caf4f")
    env = build_enveloping(ly)
    assert env.g.dim == 248
    assert sha256(env.g) == ("d4c594417d02b5fa3d9289a01f9c5d80"
                             "9618d41b8e68bbbb954acb950f17f8ec")
    assert classify(saturate_torus(env.g)) == "E8"


def ly_inside_tits_reference(t):
    """The grid LY algebra by the direct loop over all (p, q, r) triples."""
    x, y = t.x, t.y
    fx, fy = fraction_forms(x), fraction_forms(y)
    nx, ny = x.n0, y.n0
    dim = nx * ny

    def gi(i, j):
        return i * ny + j

    binary = {}
    for i, j, k, l, _, grid_ent, _ in grid_pair_entries(x, y):
        ent = sorted(((gi(a, b), v) for (a, b), v in grid_ent))
        if ent:
            binary[(gi(i, j), gi(k, l))] = ent
    ternary = {}
    for p in range(dim):
        i1, j1 = divmod(p, ny)
        for q in range(p + 1, dim):
            i2, j2 = divmod(q, ny)
            c1 = fy.tform[j1][j2]
            c2 = fx.tform[i1][i2]
            if c1 == 0 and c2 == 0:
                continue
            dmx = fx.dmat(i1, i2) if c1 != 0 else None
            dmy = fy.dmat(j1, j2) if c2 != 0 else None
            colsx = None
            if dmx is not None:
                colsx = [[(a, dmx[a][i3]) for a in range(nx)
                          if dmx[a][i3] != 0] for i3 in range(nx)]
            colsy = None
            if dmy is not None:
                colsy = [[(b, dmy[b][j3]) for b in range(ny)
                          if dmy[b][j3] != 0] for j3 in range(ny)]
            for r in range(dim):
                i3, j3 = divmod(r, ny)
                acc = {}
                if colsx is not None:
                    for a, v in colsx[i3]:
                        tkey = gi(a, j3)
                        acc[tkey] = acc.get(tkey, F(0)) + c1 * v
                if colsy is not None:
                    for b, v in colsy[j3]:
                        tkey = gi(i3, b)
                        acc[tkey] = acc.get(tkey, F(0)) + c2 * v
                ent = sorted((tkey, v) for tkey, v in acc.items() if v != 0)
                if ent:
                    ternary[(p, q, r)] = ent
    labels = ["x%d*y%d" % (i, j) for i in range(nx) for j in range(ny)]
    ly = LYAlgebra(dim, binary, ternary, labels=labels,
                   name="ly-inside-%s" % t.alg.name)
    ly.weights = [x.weights[i] + y.weights[j]
                  for i in range(nx) for j in range(ny)]
    return ly


@pytest.mark.parametrize("cx, spec", [("k", "H3(k)"), ("k", "H3(K)"), ("k", "H3(Q)"),
                                      ("k", "H3(O)"), ("K", "k"), ("Q", "k"), ("O", "k")])
def test_ly_inside_tits_with_a_zero_dim_slice_is_zero_dim(cx, spec):
    # k's trace-zero view, and the Jordan algebra k's, is 0-dim, so the grid is
    t = build_tits(cview(cx), jview(spec))
    ly = ly_inside_tits(t)
    assert (ly.dim, ly.binary, ly.weights) == (0, {}, [])
    assert [len(a) for a in ly.ternary_int[:3]] == [0, 0, 0]
    assert check_ly(ly).passed
    assert build_enveloping(ly).g.dim == 0


@pytest.mark.parametrize("xs, ys", [("O", "H3(O)"), ("Q", "H3(K)"),
                                    ("K", "H3(Q)"), ("O", "H3(k)"),
                                    ("JV(3)", "JV(5)"), ("K", "H3(K)")])
def test_kronecker_ternary_matches_triple_loop(xs, ys):
    x = jview(xs) if xs.startswith("JV") else cview(xs)
    t = build_tits(x, jview(ys))
    a = ly_inside_tits(t)
    b = ly_inside_tits_reference(t)
    assert a.binary == b.binary
    assert list(a.ternary.items()) == list(b.ternary.items())
    assert a.weights == b.weights
    assert a.labels == b.labels


def d_op_reference(ly, i, j):
    """D(i, j) by one ly.t lookup per column."""
    out = {}
    for k in range(ly.dim):
        for l, c in ly.t(i, j, k):
            out[(l, k)] = c
    return out


def inner_maps(ly):
    """Every inner map D(i, j) = [e_i, e_j, .], i < j, from one pass over
    the ternary table; entry (l, k) is the coefficient of e_l in D(i, j) e_k."""
    n = ly.dim
    ops = {(i, j): {} for i in range(n) for j in range(i + 1, n)}
    for (i, j, k), ent in ly.ternary.items():
        op = ops[(i, j)]
        for l, c in ent:
            op[(l, k)] = c
    return ops


def test_inner_maps_match_per_pair_reference():
    for ly in (ly_inside_tits(build_tits(cview("O"), jview("H3(k)"))),
               ly_sp_tensor_sym(3, 1)):
        ops = inner_maps(ly)
        pairs = [(i, j) for i in range(ly.dim) for j in range(i + 1, ly.dim)]
        assert list(ops) == pairs
        assert all(ops[(i, j)] == d_op_reference(ly, i, j) for (i, j) in pairs)
        # the int64 table the envelope is built from holds the same maps
        n = ly.dim
        pair, code, val, scale = ly.ternary_int
        ints = {}
        for p, c, v in zip(pair.tolist(), code.tolist(), val.tolist()):
            ints.setdefault(divmod(p, n), {})[divmod(c, n)] = F(v, scale)
        assert ints == {pq: op for pq, op in ops.items() if op}


def column_rref(maps):
    """la.rref of the matrix whose columns are the sparse maps (dicts)."""
    keys = sorted({k for m in maps for k in m})
    return la.rref([[m.get(k, F(0)) for m in maps] for k in keys])


def class_bases_reference(mats, keys):
    """Per weight class, the first independent maps in the given order,
    from one Fraction la.rref with the class's maps as columns: its pivot
    columns are the first independent maps, and column i of the reduced
    form holds the coordinates of map i over them.

    Returns (bases, chosen, coords): bases[key] lists the chosen maps of
    class key, chosen[key] their positions in mats, and coords[i] the
    coordinates of mats[i] over chosen[keys[i]].
    """
    classes = {}
    for i, key in enumerate(keys):
        classes.setdefault(key, []).append(i)
    bases, chosen, coords = {}, {}, [None] * len(mats)
    for key, idx in classes.items():
        rows, piv = column_rref([mats[i] for i in idx])
        chosen[key] = [idx[p] for p in piv]
        bases[key] = [mats[i] for i in chosen[key]]
        for t, i in enumerate(idx):
            coords[i] = [row[t] for row in rows]
    return bases, chosen, coords


def class_coords_reference(bases, queries):
    """Coordinates of (key, map) queries over the chosen maps of their
    class, from one Fraction la.rref per class with the columns
    [basis | queries]: the basis columns are its first pivots, and a
    query is in the span exactly when its reduced column vanishes below
    them.  Raises OutsideSpan with the position of the first query
    outside its class span."""
    byclass = {}
    for q, (key, _) in enumerate(queries):
        byclass.setdefault(key, []).append(q)
    out, bad = [None] * len(queries), []
    for key, qs in byclass.items():
        basis = bases.get(key, [])
        r = len(basis)
        rows, _ = column_rref(basis + [queries[q][1] for q in qs])
        for t, q in enumerate(qs, r):
            if any(row[t] for row in rows[r:]):
                bad.append(q)
            else:
                out[q] = [row[t] for row in rows[:r]]
    if bad:
        raise OutsideSpan(min(bad))
    return out


def sp_commutator(a, b):
    """[a, b] of sparse Fraction matrices {(row, col): v}, zeros dropped."""
    out = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for (r, m), v in x.items():
            for (m2, c), w in y.items():
                if m == m2:
                    out[(r, c)] = out.get((r, c), F(0)) + sign * v * w
    return {k: v for k, v in out.items() if v}


def build_enveloping_reference(ly):
    """The enveloping algebra from Fraction inner maps: the reference
    class_bases above, and one sp_commutator per pair of chosen maps."""
    n = ly.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    ops = inner_maps(ly)

    def wkey(i, j):
        if ly.weights is None:
            return ()
        return tuple(a + b for a, b in zip(ly.weights[i], ly.weights[j]))

    gens = [pq for pq in pairs if ops[pq]]
    keys = [wkey(*pq) for pq in gens]
    bases, chosen, coords = class_bases_reference([ops[pq] for pq in gens], keys)
    basis_pairs, offset = [], {}
    for key in sorted(chosen):
        offset[key] = len(basis_pairs)
        basis_pairs.extend(gens[i] for i in chosen[key])
    gen_coords = {pq: [(offset[key] + t, x) for t, x in enumerate(c) if x]
                  for pq, key, c in zip(gens, keys, coords)}
    b = len(basis_pairs)
    table = {}
    hh, queries = [], []
    for s in range(b):
        ps = basis_pairs[s]
        for t in range(s + 1, b):
            pt = basis_pairs[t]
            comm = sp_commutator(ops[ps], ops[pt])
            if comm:
                hh.append((s, t))
                queries.append((tuple(a + c for a, c in zip(wkey(*ps), wkey(*pt))),
                                comm))
    try:
        hco = class_coords_reference(bases, queries)
    except OutsideSpan as e:
        s, t = hh[e.index]
        raise LYStructureError("LY6", (basis_pairs[s], basis_pairs[t])) from None
    for st, (key, _), c in zip(hh, queries, hco):
        ent = [(offset[key] + u, x) for u, x in enumerate(c) if x]
        if ent:
            table[st] = ent
    for t, pt in enumerate(basis_pairs):
        cols = {}
        for (l, k), c in ops[pt].items():
            cols.setdefault(k, []).append((b + l, c))
        for k in sorted(cols):
            table[(t, b + k)] = cols[k]
    for (i, j) in pairs:
        ent = list(gen_coords.get((i, j), []))
        ent += [(b + k, c) for k, c in ly.b(i, j)]
        if ent:
            table[(b + i, b + j)] = sorted(ent)
    labels = [f"D({ly.labels[i]},{ly.labels[j]})" for (i, j) in basis_pairs]
    g = Algebra(b + n, table, labels=labels + list(ly.labels),
                name=f"env({ly.name})" if ly.name else "env")
    if ly.weights is not None:
        g.weights = [wkey(*pq) for pq in basis_pairs] + list(ly.weights)
    return g, basis_pairs


def test_envelope_hh_batch_matches_commutator_loop():
    for ly in (ly_sp_tensor_sym(3, 1),
               ly_inside_tits(build_tits(cview("O"), jview("H3(k)")))):
        env = build_enveloping(ly)
        ref, basis_pairs = build_enveloping_reference(ly)
        assert env.d_pairs == basis_pairs
        # the held table, array by array, against the reference dict's table
        held, want = vars(env.g)["table_int"], dict_to_table(ref.table, ref.dim, 2)
        assert all(np.array_equal(x, y) for x, y in zip(held[:3], want[:3]))
        assert held[3] == want[3]
        assert env.g.labels == ref.labels and env.g.weights == ref.weights
        assert io.dumps(io.algebra_to_obj(env.g)) == io.dumps(io.algebra_to_obj(ref))


def _tits_ly(cx, cy):
    return lambda: ly_inside_tits(build_tits(view(cx), view("H3(%s)" % cy)))


def _unweighted(build):
    def strip():
        ly = build()
        ly.weights = None
        return ly
    return strip


# every LY algebra of the catalogue (ROADMAP item 6's table), the two
# tensor families of the benchmark, an orthosymplectic sum and one
# algebra without weights (a single class, as for an algebra read from a
# file)
LY_CATALOGUE = {
    **{"%s x H3(%s)" % tuple(p): _tits_ly(*p)
       for p in ["KK", "Kk", "KQ", "KO", "Qk", "Ok", "QK", "OO"]},
    "sl2 (x) sl3": lambda: ly_sl_tensor_sl(2, 3),
    "sl3 (x) sl3": lambda: ly_sl_tensor_sl(3, 3),
    "sp_sym(3,1)": lambda: ly_sp_tensor_sym(3, 1),
    "sp_sym(4,-1)": lambda: ly_sp_tensor_sym(4, -1),
    "sp_sym(6,-1)": lambda: ly_sp_tensor_sym(6, -1),
    "so(3)+so(5)": lambda: lts_orthosymplectic_sum(split_sym_form(3),
                                                    split_sym_form(5)),
    "unweighted sl2 (x) sl3": _unweighted(lambda: ly_sl_tensor_sl(2, 3)),
}


@pytest.mark.parametrize("name", list(LY_CATALOGUE))
def test_envelope_bytes_match_the_fraction_reference(name):
    ly = LY_CATALOGUE[name]()
    env = build_enveloping(ly)
    ref, basis_pairs = build_enveloping_reference(ly)
    assert env.d_pairs == basis_pairs
    assert env.g.weights == ref.weights
    assert io.dumps(io.algebra_to_obj(env.g)) == io.dumps(io.algebra_to_obj(ref))


@pytest.mark.parametrize("name", list(LY_CATALOGUE))
def test_table_and_dict_built_algebras_agree(name):
    ly = LY_CATALOGUE[name]()
    # each twin holds only the form it was given
    by_dict = LYAlgebra(ly.dim, ly.binary, ly.ternary, labels=ly.labels)
    by_table = LYAlgebra(ly.dim, ly.binary, ly.ternary_int, labels=ly.labels)
    assert by_dict.nnz() == by_table.nnz() == ly.nnz()
    text = io.dumps(io.ly_to_obj(by_dict))
    assert io.dumps(io.ly_to_obj(by_table)) == text
    assert list(by_table.ternary.items()) == list(by_dict.ternary.items())
    envs = []
    for twin in (by_dict, by_table):
        twin.weights = ly.weights
        env = build_enveloping(twin)
        envs.append((env.d_pairs, io.dumps(io.algebra_to_obj(env.g))))
    assert envs[0] == envs[1]


def test_ly_inside_tits_to_io_never_builds_the_fraction_dict(monkeypatch):
    def refuse(ly):
        raise AssertionError("the Fraction ternary dict was read")

    monkeypatch.setattr(LYAlgebra, "ternary", property(refuse))
    ly = ly_inside_tits(build_tits(cview("O"), jview("H3(k)")))
    assert ly.dim == 35 and check_ly(ly).passed
    assert build_enveloping(ly).g.dim == 52
    assert io.ly_to_obj(ly)["ternary"].text != "[]"
    monkeypatch.undo()
    assert "ternary" not in vars(ly)


def test_the_builders_hand_algebra_an_int64_table(monkeypatch):
    """The envelope, g(T), the h of an envelope, a direct sum and a
    reductive split each hold the int64 table they were built from and no
    Fraction dict: the Algebra and LYAlgebra properties derive one form
    from the other only through the two converters, which refuse here.
    The inputs are built first; the solver's candidates are Fraction dicts
    by nature, so the solved bracket is assembled before the converters
    refuse."""
    ly = ly_inside_tits(build_tits(cview("O"), jview("H3(O)")))
    t = construct_TJ(cubic_jordan_data(build_jordan("H3(k)")))
    x, y = cview("Q"), jview("H3(k)")
    h, act, cands = form_pair_module_data(split_sym_form(3), split_sym_form(5))
    g = assemble_bracket(h, act, cands, [F(1), F(1)])
    assert g.table_int

    def refuse(*args):
        raise AssertionError("a Fraction dict was converted to or from a table")

    for name in ("table_to_dict", "dict_to_table"):
        monkeypatch.setattr("lyalg.algebra." + name, refuse)
    env = build_enveloping(ly)
    built = {"envelope": env.g, "h": subalgebra_on_indices(env.g, env.h_index),
             "g(T)": build_g_of_T(t)[0], "D+d": tits_module_data(x, y)[0]}
    split = ly_from_reductive_indices(g, list(range(13)), list(range(13, 28)))
    monkeypatch.undo()
    for alg in built.values():
        assert "table_int" in vars(alg) and "table" not in vars(alg)
    assert "ternary_int" in vars(split) and "ternary" not in vars(split)
    assert {k: a.dim for k, a in built.items()} == {
        "envelope": 248, "h": 66, "g(T)": 52, "D+d": 6}
    known = load_known().ANSWERS
    assert sha256(built["envelope"]) == known["e8-ly.envelope"]["sha256"]
    assert sha256(built["h"]) == known["e8-ly.h"]["sha256"]
    ref = lts_orthosymplectic_sum(split_sym_form(3), split_sym_form(5))
    ident = [[F(int(i == j)) for j in range(15)] for i in range(15)]
    assert check_coincidence(split, ref, ident)


def int_maps(*maps):
    """Sparse integer maps {column: value} as class_bases input arrays."""
    ent = [(g, c, v) for g, m in enumerate(maps) for c, v in m.items()]
    gen, code, val = (np.array(x, dtype=np.int64) for x in zip(*ent))
    return gen, code, val


def coords_of(parts):
    """{row: [(slot, Fraction)]} of int64 coordinate parts (row, slot,
    val, den), after checking that each is int64 and in lowest terms."""
    out = {}
    for rows, slots, vals, den in parts:
        assert rows.dtype == slots.dtype == vals.dtype == np.int64
        assert gcd(den, *vals.tolist()) == 1
        for r, s, v in zip(rows.tolist(), slots.tolist(), vals.tolist()):
            out.setdefault(r, []).append((s, F(v, den)))
    return out


def test_class_bases_corrects_a_prime_that_hides_a_dependence():
    p = PRIMES20[0]
    # map 1 equals map 0 mod p, so the proposal takes map 2 instead and
    # the exchange step puts map 1 back in its place
    gen, code, val = int_maps({0: 1}, {0: 1, 1: p}, {1: 1})
    dense = np.array([[1, 0], [1, p], [0, 1]], dtype=np.int64)
    assert rref_mod(dense.T, p)[1] == [0, 2]
    cb = class_bases(gen, code, val, 1, np.zeros(3, dtype=np.int64), [()])
    assert cb.chosen == [[0, 1]]
    assert coords_of(cb.gen_coords)[2] == [(0, F(-1, p)), (1, F(1, p))]
    # map 1 vanishes mod p: the exact check finds it outside the span
    gen, code, val = int_maps({0: 1}, {1: p}, {0: 1, 1: p})
    assert rref_mod(np.array([[1, 0, 1], [0, p, p]]), p)[1] == [0]
    cb = class_bases(gen, code, val, 1, np.zeros(3, dtype=np.int64), [()])
    assert cb.chosen == [[0, 1]]
    mats = [{(0, c): F(v) for c, v in m.items()}
            for m in ({0: 1}, {1: p}, {0: 1, 1: p})]
    assert class_bases_reference(mats, [()] * 3)[1] == {(): [0, 1]}


def test_class_bases_by_weight_class_and_map_order():
    # two classes, keys sorted: class 0 holds maps 1 and 2, class 1 maps 0, 3
    gen, code, val = int_maps({0: 2}, {1: 1}, {1: 3}, {0: 4, 2: 1})
    cls = np.array([1, 0, 0, 1])
    by_class = class_bases(gen, code, val, 2, cls, [(0,), (1,)])
    assert by_class.chosen == [[1], [0, 3]]
    assert by_class.basis == [1, 0, 3]
    assert coords_of(by_class.gen_coords)[2] == [(0, F(3))]
    by_map = class_bases(gen, code, val, 2, cls, [(0,), (1,)], by_class=False)
    assert by_map.basis == [0, 1, 3]
    assert coords_of(by_map.gen_coords)[2] == [(1, F(3))]
    # a query scaled by 4, 3/2 of map 3; then one outside the support of
    # its class and one of no class
    q = by_map.coords(np.array([1]), np.array([0, 0]), np.array([0, 2]),
                      np.array([12, 3]), 4)
    assert coords_of(q) == {0: [(2, F(3, 2))]}
    with pytest.raises(OutsideSpan) as err:
        by_map.coords(np.array([1, 1, -1]), np.array([0, 1, 1, 2]),
                      np.array([0, 2, 1, 0]), np.array([8, 1, 1, 1]), 1)
    assert err.value.index == 1


def test_pair_classes_sort_the_weight_sums():
    w = [(F(1), F(0)), (F(-1, 2), F(1)), (F(0), F(-1))]
    cls, keys = pair_classes(w, np.array([0, 0, 1]), np.array([1, 2, 2]))
    # the weights times 2; sums (1, 2), (2, -2), (-1, 0)
    assert keys == [(-1, 0), (1, 2), (2, -2)] and cls.tolist() == [1, 2, 0]
    assert pair_classes(None, np.array([0]), np.array([1]))[1] == [()]


def test_envelope_that_does_not_close_names_the_reference_pair():
    ly = ly_sp_tensor_sym(3, 1)
    found = 0
    for key in sorted(ly.ternary)[::7]:
        ternary = dict(ly.ternary)
        ternary[key] = [(l, 3 * c) for l, c in ternary[key]]
        bad = LYAlgebra(ly.dim, ly.binary, ternary, labels=ly.labels)
        bad.weights = ly.weights
        try:
            ref = build_enveloping_reference(bad)
        except LYStructureError as e:
            found += 1
            with pytest.raises(LYStructureError) as err:
                build_enveloping(bad)
            assert err.value.axiom == "LY6"
            assert err.value.witness == e.witness
        else:
            assert build_enveloping(bad).d_pairs == ref[1]
    assert found


def test_envelope_refuses_what_int64_cannot_hold():
    # a structure constant of 2^62 does not fit the integer batch path
    ly = LYAlgebra(3, {}, {(0, 1, 0): [(1, F(2**62))], (0, 1, 2): [(2, F(1))]})
    with pytest.raises(OverflowError):
        build_enveloping(ly)
    assert "envelope" not in ly._cache
    # a query whose reconstruction could overflow: 2^61 times the chosen
    # map's entry 2 reaches the guard
    cb = class_bases(*int_maps({0: 2}), 1, np.zeros(1, dtype=np.int64), [()])
    assert coords_of(cb.coords(np.array([0]), np.array([0]), np.array([0]),
                               np.array([6]), 1)) == {0: [(0, F(3))]}
    with pytest.raises(OverflowError):
        cb.coords(np.array([0]), np.array([0]), np.array([0]),
                  np.array([2**61]), 1)
    # coordinates that fit, but not once brought to the maps' scale 2^61
    cb = class_bases(*int_maps({0: 2}), 2**61, np.zeros(1, dtype=np.int64), [()])
    with pytest.raises(OverflowError):
        cb.coords(np.array([0]), np.array([0]), np.array([0]), np.array([6]), 1)


def test_ly_inside_agrees_with_reductive_route():
    t = build_tits(cview("O"), jview("H3(k)"))
    a = ly_inside_tits(t)
    b = ly_from_reductive_indices(t.alg, t.h_index, t.m_index)
    assert a.dim == b.dim
    assert a.binary == b.binary
    assert a.ternary == b.ternary


def test_reductive_indices_match_the_vector_route_on_reversed_splits():
    # ly_from_reductive evaluates every product with Fraction brackets;
    # reversing both index lists puts the pairs of m against g's order.
    # sl3 = torus (+) root vectors: [m, m] has both an h- and an m-part
    t = build_tits(cview("K"), jview("H3(k)"))
    for g, h, m in ((build_matrix_lie("sl", 3), [1, 0], list(range(7, 1, -1))),
                    (t.alg, t.h_index[::-1], t.m_index[::-1])):
        a = ly_from_reductive_indices(g, h, m)
        e = [la.basis_vec(g.dim, i) for i in range(g.dim)]
        b = ly_from_reductive(g, [e[i] for i in h], [e[i] for i in m])
        assert a.binary == b.binary and a.ternary == b.ternary and a.ternary


def test_spin_pair_cell_is_orthosymplectic():
    t = build_tits(jview("JV(3)"), jview("JV(5)"))
    assert t.alg.dim == 28
    assert check_lie(t.alg).passed
    ly = ly_inside_tits(t)
    assert ly.dim == 15 and not ly.binary
    ref = lts_orthosymplectic_sum(split_sym_form(3), split_sym_form(5))
    ident = [[F(1) if i == j else F(0) for j in range(15)] for i in range(15)]
    assert check_coincidence(ly, ref, ident)


def test_tkk_row_dims_and_types():
    # the last column pins saturate_torus of the row (saturated_sha256)
    for spec, dim, typ, digest in [
            ("H3(k)", 21, "C3", "cf6f52184f186724a341454afb61207988d33c72dc02f6febddfc66522514986"),
            ("H3(K)", 35, "A5", "1d627e603cba4dcb1a464b5d42ffbcf5766640cb2eb850b9c7bf5fad4925265e"),
            ("H3(Q)", 66, "D6", "caa15e6de5af16b03a707284e856ce0b186ec344ad093a1a89a8031d6979f4ed"),
            ("H3(O)", 133, "E7", "6d677eb3beb8d9f1f63b86206294ca48fd5d8bf5746a77f0937db38bae0a5937")]:
        g = build_tkk_row(build_jordan(spec))
        assert g.dim == dim
        assert check_lie(g).passed
        s = saturate_torus(g)
        assert classify(s) == typ
        assert saturated_sha256(s) == digest


def test_tkk_transports_onto_tits():
    # degree one and two ingredients as well as degree three
    for spec in ["k", "H2(K)", "H2(Q)", "JV(3)", "JV(4)", "H3(k)", "H3(K)", "H3(Q)"]:
        tk, t, bm = tkk_to_tits_map(build_jordan(spec))
        assert bracket_transport_equal(tk, t.alg, bm)


def test_tkk_hermitian_degree_four_is_sl8():
    # H_n(K) must give sl(2n); at n=4 that is dim 63 of type A7
    j = build_jordan("H4(K)")
    g = build_tkk_row(j)
    assert g.dim == 63
    assert check_lie(g).passed
    s = saturate_torus(g)
    assert classify(s) == "A7"
    assert saturated_sha256(s) == ("36a25c85f56629939583564a09d3bbb1"
                                   "115e85464cab385789589e1dbb640c49")
    tk, t, bm = tkk_to_tits_map(j)
    assert bracket_transport_equal(tk, t.alg, bm)


def grid_to_tits_perm(t, hdim):
    n = t.alg.dim
    nDx = t.nD
    perm = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        if i < nDx:
            tgt = i
        elif i < hdim:
            tgt = t.nD + t.ngrid + (i - nDx)
        else:
            tgt = t.nD + (i - hdim)
        perm[tgt][i] = F(1)
    return perm


def test_solver_exceptional_family():
    x, y = cview("O"), jview("H3(O)")
    h, mod, cands = tits_module_data(x, y)
    assert (h.dim, mod.mdim, len(cands)) == (66, 182, 3)
    sol = solve_equivariant_bracket(h, mod, cands)
    assert len(sol.kernel) == 3
    assert sol.family_dim() == 1
    br, free = sol.branches[0]
    assert len(free) == 1
    # one free scale alpha, coefficients (alpha^2, alpha^2, alpha)
    assert sol.coefficients(0, {free[0]: F(2)}) == [F(4), F(4), F(2)]
    co = sol.coefficients(0, {free[0]: F(1)})
    assert co == [F(1), F(1), F(1)]
    g = assemble_bracket(h, mod, cands, co)
    t = build_tits(x, y)
    assert bracket_transport_equal(g, t.alg, grid_to_tits_perm(t, h.dim))


def test_solver_sl2_has_no_bracket():
    h = build_matrix_lie("sl", 2)
    mats, _, _, _ = sl_ops(2)
    act = tensor_action(h, mats, [], 2, 1)
    moment = {(0, 1): [(0, F(-1))]}
    into_m = {(0, 1): [(3, F(1))]}
    sol = solve_equivariant_bracket(h, act, [moment, into_m])
    assert sol.kernel == []
    assert sol.family_dim() == 0


def test_solver_so3_so5_diagonal_family():
    h, act, cands = form_pair_module_data(split_sym_form(3), split_sym_form(5))
    assert (h.dim, act.mdim) == (13, 15)
    sol = solve_equivariant_bracket(h, act, cands)
    assert len(sol.kernel) == 2
    assert sol.family_dim() == 1
    br, free = sol.branches[0]
    co = sol.coefficients(0, {free[0]: F(1)})
    assert co == [F(1), F(1)]
    g = assemble_bracket(h, act, cands, co)
    assert check_lie(g).passed
    # the families workload's solve.so3+so5 job builds this algebra
    assert sha256(g) == load_known().ANSWERS["families.solve.so3+so5"]["sha256"]
    ly = ly_from_reductive_indices(g, list(range(13)), list(range(13, 28)))
    ref = lts_orthosymplectic_sum(split_sym_form(3), split_sym_form(5))
    ident = [[F(1) if i == j else F(0) for j in range(15)] for i in range(15)]
    assert check_coincidence(ly, ref, ident)


def test_solver_quaternion_family_is_one_scale():
    h, mod, cands = tits_module_data(cview("Q"), jview("H3(k)"))
    assert h.dim + mod.mdim == 21
    sol = solve_equivariant_bracket(h, mod, cands)
    assert sol.family_dim() == 1 and len(sol.branches) == 1
    assert sol.branches[0][1] == ["c"]
    # the h-valued coefficients scale by c^2, the m-valued one by c
    for c in (F(1), F(2)):
        co = sol.coefficients(0, {"c": c})
        assert co == [c * c, c * c, c]
        assert check_lie(assemble_bracket(h, mod, cands, co)).passed


def test_solver_refuses_what_one_scale_cannot_describe():
    h, mod, cands = tits_module_data(cview("Q"), jview("H3(k)"))
    into_m = cands[2]
    doubled = {k: [(l, 2 * v) for l, v in ent] for k, ent in into_m.items()}
    with pytest.raises(ValueError, match="m-valued candidates leave 2"):
        solve_equivariant_bracket(h, mod, cands + [doubled])
    # a copy of an h-valued candidate leaves a direction free at scale 1
    with pytest.raises(ValueError, match="homogeneous part"):
        solve_equivariant_bracket(h, mod, cands + [cands[0]])
    mixed = {k: cands[0].get(k, []) + into_m.get(k, [])
             for k in sorted(set(cands[0]) | set(into_m))}
    with pytest.raises(ValueError, match="both h- and m-valued"):
        solve_equivariant_bracket(h, mod, [mixed])


@pytest.mark.parametrize("cx, cy, sizes, dim", [
    ("K", "K", [0, 22, 0], 1),      # K has no derivations and K0 * K0 = 0
    ("k", "Q", [0, 0, 0], 0),       # the module k0 (x) H3(Q)0 is 0
])
def test_solver_gives_empty_candidates_no_parameter(cx, cy, sizes, dim):
    h, mod, cands = tits_module_data(cview(cx), jview("H3(%s)" % cy))
    assert [sum(len(ent) for ent in t.values()) for t in cands] == sizes
    sol = solve_equivariant_bracket(h, mod, cands)
    assert sol.family_dim() == dim and len(sol.branches) == 1
    co = sol.coefficients(0, {name: F(3) for name in sol.branches[0][1]})
    assert [c != 0 for c in co] == [n > 0 for n in sizes]
    assert check_lie(assemble_bracket(h, mod, cands, co)).passed


def test_solver_answers_as_before_with_an_empty_candidate_added():
    h, mod, cands = tits_module_data(cview("Q"), jview("H3(k)"))
    sol = solve_equivariant_bracket(h, mod, cands)
    more = solve_equivariant_bracket(h, mod, cands + [{}, {(0, 1): []}])
    assert more.kernel == [v + [0, 0] for v in sol.kernel]
    assert more.branches == [({m: v + [0, 0] for m, v in terms.items()}, free)
                             for terms, free in sol.branches]


def test_solver_lists_the_c_zero_branch_after_the_scale_branch():
    # m = sl2 + Q d with a trivial one-dim h: the m-valued candidate is
    # the bracket of sl2, the h-valued one pairs e with d; they only
    # mix in the Jacobi sum, so the family is two branches, c m and u h
    h = Algebra(1, {})
    act = ModuleAction(h, 4, [{}])
    pair = {(1, 3): [(0, F(1))]}
    sl2 = {(0, 1): [(2, F(2))], (0, 2): [(3, F(-2))], (1, 2): [(1, F(1))]}
    sol = solve_equivariant_bracket(h, act, [pair, sl2])
    assert len(sol.kernel) == 2
    assert [free for _, free in sol.branches] == [["c"], ["u0"]]
    assert sol.coefficients(0, {"c": F(3)}) == [0, 3]
    assert sol.coefficients(1, {"u0": F(5)}) == [5, 0]
    for co in ([0, 3], [5, 0]):
        assert check_lie(assemble_bracket(h, act, [pair, sl2], co)).passed
    assert not check_lie(assemble_bracket(h, act, [pair, sl2], [1, 1])).passed


def test_solver_refuses_an_action_that_is_not_a_representation():
    # h abelian, acting by E01 and E10, which do not commute:
    # J(h0, h1, m0) = [[h1, m0], h0] = [m1, h0] = -m0 at the triple (0, 1, 2)
    h = Algebra(2, {})
    act = ModuleAction(h, 2, [{(0, 1): F(1)}, {(1, 0): F(1)}])
    with pytest.raises(ValueError, match=r"fails at \(0, 1, 2\), on two elements of h"):
        solve_equivariant_bracket(h, act, [{(0, 1): [(0, F(1))]}])


def test_assemble_bracket_holds_an_int64_table():
    h, act, cands = form_pair_module_data(split_sym_form(3), split_sym_form(5))
    g = assemble_bracket(h, act, cands, [F(1, 2), F(1, 2)])
    assert "table_int" in vars(g) and "table" not in vars(g)
    # the bracket of h, the action and the weighted candidates, entry by entry
    hd, want = h.dim, dict(h.table)
    for a, mm in enumerate(act.mats):
        for (r, c), v in mm.items():
            want.setdefault((a, hd + c), []).append((hd + r, v))
    for t in cands:
        for (p, q), ent in t.items():
            want.setdefault((hd + p, hd + q), []).extend((l, v / 2) for l, v in ent)
    assert g.table == {k: sorted(ent) for k, ent in want.items()}


def test_solver_rejects_empty_candidates():
    h = build_matrix_lie("sl", 2)
    mats, _, _, _ = sl_ops(2)
    act = tensor_action(h, mats, [], 2, 1)
    with pytest.raises(ValueError):
        solve_equivariant_bracket(h, act, [])


def test_jacobi_full_sweep_e7():
    # every triple of the 133-dim cell, not a sample
    t = build_tits(cview("Q"), jview("H3(O)"))
    assert t.alg.dim == 133
    assert jacobi_violation(t.alg) is None
