import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyalg import io
from lyalg.algebra import Algebra, LYAlgebra
from lyalg.checks import (check_lie, check_ly, jacobi_defect,
                          ly3_defect, ly4_defect, ly5_defect, ly6_defect)
from lyalg.envelope import (EnvelopingPair, LYStructureError, build_enveloping,
                            ly_from_reductive, ly_from_reductive_indices)
from lyalg.fastnum import jacobi_violation, killing_int
from lyalg.linalg import basis_vec, is_zero_vec

F = Fraction


def jacobi_first_violation_naive(alg: Algebra) -> tuple[int, int, int] | None:
    """Reference triple loop; for cross-checks and small inputs only."""
    n = alg.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if not is_zero_vec(jacobi_defect(alg, i, j, k)):
                    return (i, j, k)
    return None


def _first_ly_violation(ly: LYAlgebra, axiom: str) -> tuple | None:
    """Reference lexicographic scan of one axiom over every index tuple;
    n^5 tuples for LY6, so small inputs only."""
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


def sl2() -> Algebra:
    # basis h, e, f
    return Algebra(3, {(0, 1): [(1, F(2))], (0, 2): [(2, F(-2))],
                       (1, 2): [(0, F(1))]}, labels=["h", "e", "f"], name="sl2")


def heisenberg() -> Algebra:
    return Algebra(3, {(0, 1): [(2, F(1))]}, name="heis")


def broken_lie() -> Algebra:
    # [e,f] = e breaks Jacobi against [h,e] = 2e
    return Algebra(3, {(0, 1): [(1, F(2))], (0, 2): [(2, F(-2))],
                       (1, 2): [(1, F(1))]}, name="broken")


def test_bracket_eval():
    g = sl2()
    h, e, f = (basis_vec(3, i) for i in range(3))
    assert g.bracket(h, e) == [F(0), F(2), F(0)]
    assert g.bracket(e, h) == [F(0), F(-2), F(0)]
    assert g.bracket(e, f) == [F(1), F(0), F(0)]
    x = [F(1), F(2), F(3)]
    y = [F(0), F(1), F(-1)]
    lhs = g.bracket(x, y)
    rhs = [-c for c in g.bracket(y, x)]
    assert lhs == rhs


def test_check_lie_pass():
    for g in (sl2(), heisenberg()):
        rep = check_lie(g)
        assert rep.passed
    assert jacobi_violation(sl2()) is None


def test_check_lie_fail_matches_naive():
    g = broken_lie()
    w = jacobi_violation(g)
    assert w is not None
    assert w == jacobi_first_violation_naive(g)
    rep = check_lie(g)
    assert not rep.passed
    assert rep.items[1].witness == w


def test_killing_sl2():
    K = killing_int(sl2())
    expect = np.array([[8, 0, 0], [0, 0, 4], [0, 4, 0]])
    assert (K == expect).all()


def test_killing_heisenberg_zero():
    assert (killing_int(heisenberg()) == 0).all()


def sl2_lts() -> LYAlgebra:
    g = sl2()
    return ly_from_reductive_indices(g, [0], [1, 2], name="sl2-lts")


def test_ly_from_reductive_indices():
    ly = sl2_lts()
    assert ly.binary == {}
    assert ly.t(0, 1, 0) == [(0, F(2))]
    assert ly.t(0, 1, 1) == [(1, F(-2))]


@pytest.mark.parametrize("h, m", [([0, 0], [1]), ([0], [1, 1]), ([0], [1, 3]),
                                  ([0], [1])])
def test_ly_from_reductive_indices_refuses_what_is_not_a_partition(h, m):
    # h = [0, 0], m = [1] would drop e2 and give a 1-dim LY algebra
    with pytest.raises(ValueError, match="partition"):
        ly_from_reductive_indices(sl2(), h, m)


def test_ly_from_reductive_indices_refuses_products_beyond_int64():
    # [[e1, e2]_h, e1] is a product of two constants 2^32
    g = Algebra(3, {(0, 1): [(1, F(2**32))], (1, 2): [(0, F(2**32))]})
    with pytest.raises(OverflowError):
        ly_from_reductive_indices(g, [0], [1, 2])


def test_ly_from_reductive_indices_reads_an_unsorted_split():
    ly = ly_from_reductive_indices(sl2(), [0], [2, 1])
    assert ly.labels == ["f", "e"] and ly.binary == {}
    assert ly.t(0, 1, 0) == [(0, F(2))] and ly.t(0, 1, 1) == [(1, F(-2))]


def test_ly_from_reductive_vectors_agrees():
    g = sl2()
    ly = ly_from_reductive(g, [basis_vec(3, 0)], [basis_vec(3, 1), basis_vec(3, 2)])
    ref = sl2_lts()
    assert ly.binary == ref.binary and ly.ternary == ref.ternary


def test_check_ly_pass():
    rep = check_ly(sl2_lts())
    assert rep.passed


def test_enveloping_of_sl2_lts_is_sl2():
    pair = build_enveloping(sl2_lts())
    assert pair.h_index == [0] and pair.m_index == [1, 2]
    assert pair.g.table == sl2().table
    back = ly_from_reductive_indices(pair.g, pair.h_index, pair.m_index)
    ref = sl2_lts()
    assert back.binary == ref.binary and back.ternary == ref.ternary


def test_check_ly_then_envelope_builds_once(monkeypatch):
    import lyalg.envelope as env

    calls = []
    real = env.class_bases

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(env, "class_bases", counted)
    ly = sl2_lts()
    assert check_ly(ly).passed
    pair = build_enveloping(ly)
    assert len(calls) == 1
    assert build_enveloping(ly) is pair


def test_envelope_ly6_witness_is_first_batched_pair():
    ly = LYAlgebra(3, {}, {(0, 1, 0): [(2, 2)], (0, 1, 1): [(1, 2)],
                           (0, 1, 2): [(1, 2)], (0, 2, 0): [(0, -1)],
                           (1, 2, 0): [(2, 1)]})
    with pytest.raises(LYStructureError) as err:
        build_enveloping(ly)
    assert err.value.axiom == "LY6"
    assert err.value.witness == ((0, 1), (1, 2))
    # a failure is not memoised: the next call raises again
    assert "envelope" not in ly._cache
    with pytest.raises(LYStructureError):
        build_enveloping(ly)


@pytest.mark.parametrize("make", [
    lambda t: Algebra(3, t),
    lambda t: LYAlgebra(3, t, {}),
    lambda t: LYAlgebra(3, {}, {(i, j, 0): e for (i, j), e in t.items()}),
])
def test_constructors_reject_bad_tables(make):
    clean = {(0, 1): [(1, F(2))], (0, 2): [(2, F(-2))]}
    with pytest.raises(ValueError, match="duplicate target"):
        make({**clean, (1, 2): [(0, F(1)), (0, F(3))]})
    with pytest.raises(ValueError, match="bad (pair|triple) key"):
        make({**clean, (2, 1): [(0, F(1))]})
    with pytest.raises(ValueError, match="bad (pair|triple) key"):
        make({(0, 3): [(0, F(1))], **clean})


def test_algebra_rejects_target_out_of_range():
    for ent in ([(3, F(1))], [(-1, F(1))], [(0, F(1)), (3, 1)]):
        with pytest.raises(ValueError, match="target index out of range"):
            Algebra(3, {(0, 1): [(1, F(2))], (1, 2): ent})


def test_ly_algebra_rejects_target_out_of_range():
    # clean entries ([(k, Fraction)]) and entries that need cleaning
    for ent in ([(5, F(1))], [(-1, F(2))], [(5, 1)], [(0, F(1)), (3, 1)]):
        with pytest.raises(ValueError, match="target index out of range"):
            LYAlgebra(3, {(0, 1): ent}, {})
        with pytest.raises(ValueError, match="target index out of range"):
            LYAlgebra(3, {}, {(0, 1, 2): ent})


def int_table(*ents, scale=2):
    """A ternary int64 table from (pair, col, val) entries."""
    return (*(np.array(c, dtype=np.int64) for c in zip(*ents)), scale)


def test_ly_algebra_from_an_int_table():
    # n = 3: [e0, e1, e0] = e2 / 2 and [e0, e1, e2] = -e0 at pair 1
    ly = LYAlgebra(3, {}, int_table((1, 6, 1), (1, 2, -2)))
    assert ly.ternary == {(0, 1, 0): [(2, F(1, 2))], (0, 1, 2): [(0, F(-1))]}
    assert ly.nnz() == (0, 2) and "nnz=(0,2)" in repr(ly)
    # a dict in another key order gives the same sorted table
    twin = LYAlgebra(3, {}, dict(reversed(ly.ternary.items())))
    assert [a.tolist() for a in twin.ternary_int[:3]] == [
        a.tolist() for a in ly.ternary_int[:3]]
    assert twin.ternary_int[3] == 2
    assert io.dumps(io.ly_to_obj(twin)) == io.dumps(io.ly_to_obj(ly))


@pytest.mark.parametrize("ents, scale, why", [
    ([(1, 2, 1), (1, 6, 1)], 2, "sorted"),            # k = 2 before k = 0
    ([(1, 6, 1), (1, 6, 3)], 2, "sorted"),            # duplicate entry
    ([(1, 6, 0)], 2, "zero value"),
    ([(1, 9, 1)], 2, "out of range"),                 # l = 3
    ([(-1, 6, 1)], 2, "out of range"),
    ([(3, 6, 1)], 2, "i >= j"),                       # pair (1, 0)
    ([(4, 6, 1)], 2, "i >= j"),                       # pair (1, 1)
    ([(1, 6, 1)], 0, "scale"),
])
def test_ly_algebra_refuses_a_bad_int_table(ents, scale, why):
    with pytest.raises(ValueError, match=why):
        LYAlgebra(3, {}, int_table(*ents, scale=scale))


def test_algebra_from_an_int_table():
    # n = 3: [e0, e1] = e2 / 2 at pair 1, [e1, e2] = -e0 at pair 5
    g = Algebra(3, int_table((1, 2, 1), (5, 0, -2)))
    assert g.table == {(0, 1): [(2, F(1, 2))], (1, 2): [(0, F(-1))]}
    assert g.nnz() == 2 and "nnz=2" in repr(g)
    # a dict in another key order gives the same sorted table and bytes
    twin = Algebra(3, dict(reversed(g.table.items())))
    assert [a.tolist() for a in twin.table_int[:3]] == [a.tolist() for a in g.table_int[:3]]
    assert twin.table_int[3] == 2
    assert io.dumps(io.algebra_to_obj(twin)) == io.dumps(io.algebra_to_obj(g))


@pytest.mark.parametrize("ents, scale, why", [
    ([(5, 0, 1), (1, 2, 1)], 2, "sorted"),            # pair 5 before pair 1
    ([(1, 2, 1), (1, 2, 3)], 2, "sorted"),            # duplicate entry
    ([(1, 2, 0)], 2, "zero value"),
    ([(1, 3, 1)], 2, "out of range"),                 # target 3
    ([(3, 2, 1)], 2, "i >= j"),                       # pair (1, 0)
    ([(1, 2, 1)], 0, "scale"),
])
def test_algebra_refuses_a_bad_int_table(ents, scale, why):
    with pytest.raises(ValueError, match="binary table: .*" + why):
        Algebra(3, int_table(*ents, scale=scale))


def test_constants_beyond_int64_stay_on_the_fraction_dict():
    big = F(2**70)
    ly = LYAlgebra(3, {(0, 1): [(2, F(1))]},
                   {(0, 1, 0): [(1, big)], (0, 1, 2): [(2, F(1, 3))]})
    assert ly.nnz() == (1, 2)
    with pytest.raises(OverflowError):
        ly.ternary_int
    back = io.obj_to_ly(io_load_str(io.dumps(io.ly_to_obj(ly))))
    assert back.ternary == ly.ternary and back.binary == ly.binary
    with pytest.raises(OverflowError):
        check_ly(ly)


def test_constructors_normalise_unsorted_int_entries():
    raw = [(2, 0), (1, 3), (0, F(1, 2)), (3, F(0))]
    want = [(0, F(1, 2)), (1, F(3))]
    g = Algebra(4, {(0, 1): list(raw), (1, 2): [(2, 0)], (2, 3): [(3, F(1))]})
    assert g.table == {(0, 1): want, (2, 3): [(3, F(1))]}
    ly = LYAlgebra(4, {(0, 1): list(raw)}, {(0, 1, 2): list(raw), (1, 2, 0): []})
    assert ly.binary == {(0, 1): want} and ly.ternary == {(0, 1, 2): want}
    for ent in (g.table[(0, 1)], ly.ternary[(0, 1, 2)]):
        assert all(type(k) is int and type(c) is Fraction for k, c in ent)


def test_classify_after_check_ly_is_a_jacobi_cache_hit(monkeypatch):
    import lyalg.fastnum as fastnum
    from lyalg.matrixalg import ly_sp_tensor_sym
    from lyalg.roots import classify, saturate_torus

    ly = ly_sp_tensor_sym(3, 1)
    assert check_ly(ly).passed
    g = build_enveloping(ly).g
    assert g._cache["jacobi"] is None

    def no_sweep(*args):
        raise AssertionError("Jacobi sweep ran again")

    monkeypatch.setattr(fastnum, "_jacobi_block", no_sweep)
    assert classify(saturate_torus(g)) == "C3"


def test_check_ly_detects_broken_axioms():
    ref = sl2_lts()
    # scale one ternary slice: [e,f,e] = 2f is inconsistent
    bad = LYAlgebra(2, dict(ref.binary),
                    {(0, 1, 0): [(1, F(2))], (0, 1, 1): [(1, F(-2))]})
    rep = check_ly(bad)
    assert not rep.passed
    by_name = {it.name: it for it in rep.items}
    for ax, scan in (("LY3", _first_ly_violation(bad, "LY3")),
                     ("LY4", _first_ly_violation(bad, "LY4")),
                     ("LY5", _first_ly_violation(bad, "LY5")),
                     ("LY6", _first_ly_violation(bad, "LY6"))):
        assert (by_name[ax].status == "fail") == (scan is not None)
        assert by_name[ax].witness == scan


def test_io_roundtrip_bytes():
    g = sl2()
    obj = io.algebra_to_obj(g)
    s = io.dumps(obj)
    g2 = io.obj_to_algebra(io_load_str(s))
    assert g2.table == g.table and g2.labels == g.labels
    assert io.dumps(io.algebra_to_obj(g2)) == s

    ly = sl2_lts()
    obj = io.ly_to_obj(ly)
    s = io.dumps(obj)
    ly2 = io.obj_to_ly(io_load_str(s))
    assert ly2.binary == ly.binary and ly2.ternary == ly.ternary
    assert io.dumps(io.ly_to_obj(ly2)) == s


def test_io_conversions_pause_the_collector_and_restore_it(monkeypatch):
    import gc

    assert gc.isenabled()
    ly = sl2_lts()
    # the writers leave the caller's setting as it was, on or off, from
    # either held form (the twin holds the Fraction dict)
    obj = io.ly_to_obj(LYAlgebra(ly.dim, ly.binary, ly.ternary))
    io.dumps(obj)
    assert gc.isenabled()
    try:
        gc.disable()
        io.dumps(io.algebra_to_obj(Algebra(3, sl2().table_int)))
        assert not gc.isenabled()
    finally:
        gc.enable()
    # the readers parse with it paused
    seen = []
    real = io._keyed
    monkeypatch.setattr(io, "_keyed",
                        lambda rows, arity: seen.append(gc.isenabled()) or real(rows, arity))
    io.obj_to_ly(obj)
    assert seen and not any(seen) and gc.isenabled()
    # restored after an exception
    with pytest.raises(ValueError):
        io.obj_to_algebra(obj)          # has ternary entries
    assert gc.isenabled()
    with pytest.raises(ValueError, match="dim"):
        io.obj_to_ly({})
    assert gc.isenabled()
    # nested, and a caller that had it off keeps it off
    try:
        with io._paused_gc():
            with io._paused_gc():
                assert not gc.isenabled()
            assert not gc.isenabled()
            io.algebra_to_obj(sl2())
            assert not gc.isenabled()
        assert gc.isenabled()
        gc.disable()
        io.obj_to_ly(obj)
        assert not gc.isenabled()
    finally:
        gc.enable()


def io_load_str(s: str):
    import json
    return json.loads(s)


def test_io_fraction_strings(tmp_path):
    g = Algebra(2, {(0, 1): [(0, F(-3, 4)), (1, F(5))]})
    path = tmp_path / "a.json"
    io.save(str(path), g)
    text = path.read_text()
    assert '"-3/4"' in text and '"5"' in text
    g2 = io.load(str(path))
    assert isinstance(g2, Algebra)
    assert g2.table == g.table


def test_io_refuses_a_repeated_key():
    # a dict comprehension would keep the last entry of a key given twice
    lie = {"dim": 3, "binary": [[0, 1, [[1, "2"]]], [0, 2, [[2, "-2"]]],
                                [0, 1, [[1, "5"]]]], "ternary": []}
    with pytest.raises(ValueError, match=r"repeated key \(0,1\)"):
        io.obj_to_algebra(lie)
    with pytest.raises(ValueError, match=r"repeated key \(0,1\)"):
        io.obj_to_ly({**lie, "ternary": [[0, 1, 0, [[1, "1"]]]]})
    ly = {"dim": 3, "binary": [],
          "ternary": [[0, 1, 2, [[0, "1"]]], [0, 1, 2, [[0, "3"]]]]}
    with pytest.raises(ValueError, match=r"repeated key \(0,1,2\)"):
        io.obj_to_ly(ly)
    with pytest.raises(ValueError, match=r"bad key \(0,1\)"):
        io.obj_to_ly({"dim": 3, "ternary": [[0, 1, [[0, "1"]]]]})


coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def random_algebra(draw, maxdim=4):
    n = draw(st.integers(2, maxdim))
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                k = draw(st.integers(0, n - 1))
                c = draw(coeff)
                if c != 0:
                    table[(i, j)] = [(k, c)]
    return Algebra(n, table)


@given(random_algebra())
@settings(max_examples=80, deadline=None)
def test_sweep_matches_naive_on_random(alg):
    assert jacobi_violation(alg) == jacobi_first_violation_naive(alg)


@st.composite
def random_ly(draw, maxdim=3):
    n = draw(st.integers(2, maxdim))
    binary = {}
    ternary = {}
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                binary[(i, j)] = [(draw(st.integers(0, n - 1)), draw(coeff))]
            for k in range(n):
                if draw(st.integers(0, 3)) == 0:
                    ternary[(i, j, k)] = [(draw(st.integers(0, n - 1)), draw(coeff))]
    return LYAlgebra(n, binary, ternary)


@given(random_ly())
@settings(max_examples=60, deadline=None)
def test_check_ly_agrees_with_direct_scans(ly):
    rep = check_ly(ly)
    by_name = {it.name: it.status for it in rep.items}
    for ax in ("LY3", "LY4", "LY5", "LY6"):
        direct = _first_ly_violation(ly, ax)
        assert (by_name[ax] == "fail") == (direct is not None)


def seeded_ly(rng: random.Random) -> LYAlgebra:
    n = rng.randint(2, 4)
    binary, ternary = {}, {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                binary[(i, j)] = [(rng.randrange(n),
                                   F(rng.randint(-4, 4), rng.randint(1, 3)))]
            for k in range(n):
                if rng.random() < 0.25:
                    ternary[(i, j, k)] = [(rng.randrange(n),
                                           F(rng.randint(-4, 4), rng.randint(1, 3)))]
    return LYAlgebra(n, binary, ternary)


def test_check_ly_witnesses_match_the_scans():
    """The sweep's witnesses are the lex-first ones of the scans, except
    LY6 when the inner maps do not close: then it starts with the pair of
    maps of LYStructureError and ly6_defect is nonzero at it."""
    rng = random.Random(20081003)
    paths = {"closed": 0, "open": 0}
    for _ in range(200):
        ly = seeded_ly(rng)
        try:
            build_enveloping(ly)
            pair = None
        except LYStructureError as e:
            pair = (*e.witness[0], *e.witness[1])
        paths["open" if pair else "closed"] += 1
        rep = check_ly(ly)
        wit = {it.name: it.witness for it in rep.items}
        for ax in ("LY3", "LY4", "LY5", "LY6"):
            if ax == "LY6" and pair:
                assert wit[ax][:4] == pair
                assert not is_zero_vec(ly6_defect(ly, *wit[ax]))
            else:
                assert wit[ax] == _first_ly_violation(ly, ax), ax
    assert paths["closed"] > 50 and paths["open"] > 50


def test_check_ly_witnesses_are_lex_first_on_a_graded_algebra():
    # with weights the envelope's basis is in class order, not pair order,
    # so the first (h, m, m) defect code is not the LY5 witness
    from lyalg.matrixalg import ly_sp_tensor_sym
    ly = ly_sp_tensor_sym(3, 1)
    key = sorted(ly.binary)[0]
    (l, c), *rest = ly.binary[key]
    bad = LYAlgebra(ly.dim, {**ly.binary, key: [(l, c + 1), *rest]},
                    ly.ternary, labels=ly.labels)
    bad.weights = ly.weights
    wit = {it.name: it.witness for it in check_ly(bad).items}
    assert wit["LY6"] is None
    for ax in ("LY3", "LY4", "LY5"):
        assert wit[ax] == _first_ly_violation(bad, ax), ax


@pytest.mark.parametrize("h, fault", [([0], "ly6_defect is zero"),
                                      ([0, 5], "two maps at")])
def test_check_ly_refuses_an_envelope_that_is_not_the_algebra(h, fault):
    # a sweep defect that the axioms do not confirm is a fault, not a
    # failure: [D, e_0] set to D, or, on so(4) with two commuting maps,
    # [D_0, D_1] set to D_0
    from lyalg.matrixalg import build_matrix_lie
    g = sl2() if h == [0] else build_matrix_lie("so", 4)
    ly = ly_from_reductive_indices(g, h, [i for i in range(g.dim) if i not in h])
    pair = build_enveloping(ly)
    table = {**pair.g.table, (0, 1): [(0, F(1))]}
    ly._cache["envelope"] = EnvelopingPair(Algebra(pair.g.dim, table),
                                           pair.h_index, pair.m_index,
                                           pair.d_pairs, ly)
    with pytest.raises(ArithmeticError, match=fault):
        check_ly(ly)


def test_ly_defect_functions_zero_on_valid():
    ly = sl2_lts()
    n = ly.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert all(x == 0 for x in ly3_defect(ly, i, j, k))
                for l in range(n):
                    assert all(x == 0 for x in ly4_defect(ly, i, j, k, l))
                    assert all(x == 0 for x in ly5_defect(ly, i, j, k, l))
                    for w in range(n):
                        assert all(x == 0 for x in ly6_defect(ly, i, j, k, l, w))
