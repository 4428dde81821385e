"""The canonical JSON writer against an independent reference.

The reference builds the row lists [*key, [[l, "c"], ...]] from the
Fraction dicts (`table`, `binary`, `ternary`) and writes them with
json.dumps, sorted keys and compact separators, as the format defines
the bytes.  io's writer renders the same text from whichever form an
algebra holds, so every algebra is also written from a twin that holds
only its Fraction dict and one that holds only its int64 table.
"""

import json
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyalg import io
from lyalg.algebra import Algebra, LYAlgebra
from lyalg.buildtools import subalgebra_on_indices
from lyalg.compjordan import build_jordan
from lyalg.envelope import build_enveloping
from lyalg.tits import build_tits, build_tkk_row
from test_tits import LY_CATALOGUE, cview, jview


def reference(thing) -> str:
    def rows(table):
        return [[*key, [[l, str(c)] for l, c in ent]] for key, ent in sorted(table.items())]
    is_ly = isinstance(thing, LYAlgebra)
    return json.dumps({"dim": thing.dim, "labels": thing.labels,
                       "binary": rows(thing.binary if is_ly else thing.table),
                       "ternary": rows(thing.ternary) if is_ly else []},
                      sort_keys=True, separators=(",", ":")) + "\n"


def to_obj(thing) -> dict:
    return io.ly_to_obj(thing) if isinstance(thing, LYAlgebra) else io.algebra_to_obj(thing)


def written(thing) -> str:
    return io.dumps(to_obj(thing))


def twins(thing):
    """A twin of thing holding only its Fraction dict, and one holding
    only its int64 table."""
    if isinstance(thing, LYAlgebra):
        return [LYAlgebra(thing.dim, thing.binary, thing.ternary, labels=thing.labels),
                LYAlgebra(thing.dim, thing.binary, thing.ternary_int, labels=thing.labels)]
    return [Algebra(thing.dim, thing.table, labels=thing.labels),
            Algebra(thing.dim, thing.table_int, labels=thing.labels)]


def assert_written_as_the_reference(thing):
    # thing first, from the form it was built with, before the twins
    # derive the other one
    text = written(thing)
    assert text == reference(thing)
    assert [written(t) for t in twins(thing)] == [text, text]


@pytest.mark.parametrize("name", list(LY_CATALOGUE))
def test_catalogue_bytes_match_the_reference(name):
    assert_written_as_the_reference(LY_CATALOGUE[name]())


@pytest.mark.parametrize("cx", "kKQO")
@pytest.mark.parametrize("cy", "kKQO")
def test_square_bytes_match_the_reference(cx, cy):
    assert_written_as_the_reference(build_tits(cview(cx), jview("H3(%s)" % cy)).alg)


def test_e8_envelope_and_its_h_bytes_match_the_reference():
    env = build_enveloping(LY_CATALOGUE["O x H3(O)"]())
    assert env.g.dim == 248
    assert_written_as_the_reference(env.g)
    assert_written_as_the_reference(subalgebra_on_indices(env.g, env.h_index))


@pytest.mark.parametrize("spec", ["H3(k)", "H3(K)", "JV(3)", "H4(K)"])
def test_tkk_row_bytes_match_the_reference(spec):
    assert_written_as_the_reference(build_tkk_row(build_jordan(spec)))


def empty_things():
    """Algebras and LY algebras of dim 0 and 2 or 3 with empty tables,
    each held as a Fraction dict and as an int64 table."""
    empty = (np.zeros(0, np.int64),) * 3 + (1,)
    return [Algebra(0, {}), Algebra(0, empty), Algebra(3, {}), Algebra(3, empty),
            LYAlgebra(0, {}, {}), LYAlgebra(0, {}, empty),
            LYAlgebra(2, {}, {}), LYAlgebra(2, {}, empty)]


def test_empty_tables_and_dim_zero():
    for thing in empty_things():
        obj = to_obj(thing)
        assert written(thing) == reference(thing)
        assert len(obj["binary"]) == 0 and list(obj["binary"]) == []
        assert obj["binary"].text == "[]"
    assert written(Algebra(0, {})) == '{"binary":[],"dim":0,"labels":[],"ternary":[]}\n'


# the LY_CATALOGUE rows of dimension at most 15
SMALL_ROWS = ["K x H3(K)", "K x H3(k)", "K x H3(Q)", "Q x H3(k)", "sp_sym(3,1)",
              "sp_sym(4,-1)", "so(3)+so(5)"]


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_every_chunk_size_writes_the_same_bytes(monkeypatch, tmp_path, rows):
    # a chunk boundary after every row, every second and every third row,
    # from both held forms; save writes the same pieces as dumps
    monkeypatch.setattr(io, "RENDER_ROWS", rows)
    for name in SMALL_ROWS:
        ly = LY_CATALOGUE[name]()
        assert ly.dim <= 15
        want = reference(ly)
        assert [written(t) for t in twins(ly)] == [want, want]
        io.save(str(tmp_path / "ly.json"), ly)
        assert (tmp_path / "ly.json").read_text() == want
    for thing in empty_things():
        assert written(thing) == reference(thing)


def test_writing_the_182_dim_row_stays_within_a_few_copies_of_its_text():
    # the traced peak of dumps was 8.4 times the text while arrays spanned
    # every token of the table; rendered in chunks it is 2.3 times
    ly = LY_CATALOGUE["O x H3(O)"]()
    tracemalloc.start()
    try:
        text = io.dumps(io.ly_to_obj(ly))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) == 4286732
    assert peak < 4 * len(text)


def test_constants_beyond_int64_are_written_from_the_dict():
    big = F(2 ** 70, 3)
    g = Algebra(2, {(0, 1): [(0, -big), (1, F(2 ** 70))]})
    ly = LYAlgebra(2, {(0, 1): [(1, big)]}, {(0, 1, 1): [(0, big)], (0, 1, 0): [(1, F(1, 2))]})
    for thing in (g, ly):
        text = written(thing)
        assert text == reference(thing)
        assert '1180591620717411303424/3"' in text
    assert '[0,"-1180591620717411303424/3"],[1,"1180591620717411303424"]' in written(g)
    with pytest.raises(OverflowError):
        g.table_int


coeffs = st.fractions(min_value=-40, max_value=40, max_denominator=12).filter(bool)


@st.composite
def tables(draw, dim, arity):
    """A dict table of up to 8 keys of `arity` indices below dim, each
    with 1-4 entries, keys drawn in any order."""
    idx = st.integers(0, dim - 1)
    table = {}
    for i, j, *k in draw(st.lists(st.tuples(*[idx] * arity), max_size=8)):
        if i != j:
            targets = sorted(draw(st.lists(idx, min_size=1, max_size=4, unique=True)))
            table[(min(i, j), max(i, j), *k)] = [(t, draw(coeffs)) for t in targets]
    return table


@st.composite
def algebras(draw):
    dim = draw(st.sampled_from([2, 3, 10, 11, 99, 100, 101, 150]))
    binary, ternary = draw(tables(dim, 2)), draw(tables(dim, 3))
    return Algebra(dim, binary), LYAlgebra(dim, binary, ternary)


@settings(max_examples=60, deadline=None)
@given(algebras())
def test_random_tables_with_long_indices_and_several_entries(things):
    # indices of one, two and three digits; negative and fractional values
    for thing in things:
        assert_written_as_the_reference(thing)


def test_labels_that_need_escapes(tmp_path):
    labels = ['q"uote', "back\\slash", "été", "tab\t", "x/y"]
    g = Algebra(5, {(0, 1): [(2, F(1))], (1, 4): [(3, F(-2, 3)), (4, F(5))]}, labels=labels)
    text = written(g)
    assert text == reference(g)
    assert r'"q\"uote","back\\slash","\u00e9t\u00e9","tab\t"' in text
    io.save(str(tmp_path / "g.json"), g)
    assert io.load(str(tmp_path / "g.json")).labels == labels


@pytest.mark.parametrize("labels", [[0, 1, 2], ["h", "e", None], ["h", "e"]])
def test_labels_must_be_dim_strings(labels):
    # a file with integer labels used to be written, then refused on reading
    table = {(0, 1): [(1, F(2))], (0, 2): [(2, F(-2))], (1, 2): [(0, F(1))]}
    with pytest.raises(ValueError, match="labels must be a list of 3 names"):
        Algebra(3, table, labels=labels)
    with pytest.raises(ValueError, match="labels must be a list of 3 names"):
        LYAlgebra(3, table, {}, labels=labels)


def test_rows_len_iteration_and_indexing_follow_their_text():
    ly = LY_CATALOGUE["Q x H3(k)"]()
    for twin in [ly, *twins(ly)]:
        obj = io.ly_to_obj(twin)
        for rows in (obj["binary"], obj["ternary"]):
            want = json.loads(rows.text)
            assert len(want) > 2 and len(rows) == len(want)
            assert list(rows) == want
            assert rows[0] == want[0] and rows[-1] == want[-1] and rows[1:3] == want[1:3]


@pytest.mark.parametrize("name", ["sl2 (x) sl3", "so(3)+so(5)", "K x H3(k)"])
def test_readers_take_the_writers_objects_as_they_are(name):
    ly = LY_CATALOGUE[name]()
    for twin in twins(ly):
        assert written(io.obj_to_ly(io.ly_to_obj(twin))) == written(twin)
    env = build_enveloping(ly).g
    for twin in twins(env):
        assert written(io.obj_to_algebra(io.algebra_to_obj(twin))) == written(twin)
