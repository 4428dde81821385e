"""The exact inverse of the span engine, exact_inverses: its pair (d, y),
y = d M^-1 in lowest terms, is the one the Fraction la.inv gives with its
denominators cleared, whichever way it was found (integer adjugate, float
proposal with an exact check, or la.inv itself)."""

from math import lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyalg import linalg as la
from lyalg.buildtools import Span, _proposed_adjugates, exact_inverses


def reference(m: np.ndarray):
    """(d, y) of la.inv: the least common denominator and y = d m^-1."""
    inv = la.inv(m.tolist())
    d = lcm(*(x.denominator for row in inv for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in inv]


def assert_matches_reference(ms: np.ndarray):
    d, y = exact_inverses(ms)
    assert len(d) == len(y) == len(ms)
    for t, m in enumerate(ms):
        want_d, want_y = reference(m)
        assert int(d[t]) == want_d
        assert y[t].tolist() == want_y or (not want_y and y[t].size == 0)


@st.composite
def invertible(draw, sizes=st.integers(0, 6), entries=st.integers(-6, 6)):
    """A stack of invertible integer matrices of one size."""
    k = draw(sizes)
    mats = []
    for _ in range(draw(st.integers(1, 4))):
        flat = draw(st.lists(entries, min_size=k * k, max_size=k * k))
        m = np.array(flat, dtype=np.int64).reshape(k, k)
        if k and la.rank(m.tolist()) < k:
            m += np.eye(k, dtype=np.int64) * (1 + int(np.abs(m).sum()))   # dominant diagonal
        mats.append(m)
    return np.stack(mats)


@given(invertible())
@settings(max_examples=80, deadline=None)
def test_exact_inverses_match_the_fraction_inverse(ms):
    assert_matches_reference(ms)


@given(st.lists(st.integers(1, 2 ** 20).flatmap(lambda x: st.sampled_from([x, -x])),
                min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_one_by_one_blocks_are_inverted_in_integers(vals):
    ms = np.array(vals, dtype=np.int64).reshape(-1, 1, 1)
    d, y = exact_inverses(ms)
    assert y.dtype == np.int64
    assert d.tolist() == [abs(v) for v in vals]
    assert y.ravel().tolist() == [1 if v > 0 else -1 for v in vals]
    assert_matches_reference(ms)


def test_empty_and_zero_sized_inverses():
    d, y = exact_inverses(np.zeros((2, 0, 0), dtype=np.int64))
    assert d.tolist() == [1, 1] and y.shape == (2, 0, 0)
    d, y = exact_inverses(np.zeros((1, 0, 0), dtype=object))
    assert d.tolist() == [1] and y.shape == (1, 0, 0)


@given(st.lists(st.integers(2 ** 8, 2 ** 11), min_size=5, max_size=5),
       st.lists(st.integers(-3, 3), min_size=20, max_size=20))
@settings(max_examples=40, deadline=None)
def test_determinants_past_2_40(diag, off):
    # L D R with L, R unitriangular: |det| = prod(diag) >= 2^40
    lower, upper = np.eye(5, dtype=np.int64), np.eye(5, dtype=np.int64)
    lower[np.tril_indices(5, -1)] = off[:10]
    upper[np.triu_indices(5, 1)] = off[10:]
    m = lower @ np.diag(diag) @ upper
    assert prod(diag) >= 2 ** 40
    assert_matches_reference(m[None])


# entries below 2^15, det 665603549536: the float proposal is finite and
# below the int64 guard, but rounding got it wrong
ILL = np.array([[-6867, -6803, 4692, 5458], [-5099, 5392, 6622, -5242],
                [-6174, -5057, -2922, -4831], [-18140, -6467, 8392, -4615]], dtype=np.int64)


def test_a_proposal_that_fails_the_check_goes_to_la_inv(monkeypatch):
    det, adj, ok = _proposed_adjugates(ILL[None])
    assert ok.all()
    assert not np.array_equal(ILL.astype(object) @ adj[0].astype(object),
                              det[0] * np.eye(4, dtype=object))
    calls, inv = [], la.inv
    monkeypatch.setattr(la, "inv", lambda a: calls.append(a) or inv(a))
    # in a stack with a well-conditioned matrix only the ill-conditioned
    # one falls back, and the stack comes back in Python ints
    ms = np.stack([np.diag([2, 1, 3, 1]) + np.eye(4, k=1, dtype=np.int64), ILL])
    d, y = exact_inverses(ms)
    assert len(calls) == 1 and y.dtype == object
    monkeypatch.undo()
    assert_matches_reference(ms)


def test_singular_matrices_are_refused():
    for m in ([[1, 2], [2, 4]], [[0]], [[1, 2, 3], [4, 5, 6], [5, 7, 9]]):
        with pytest.raises(ValueError, match="not invertible"):
            exact_inverses(np.array([m], dtype=np.int64))


def test_an_adjugate_past_the_int64_guard_goes_to_la_inv():
    big = 2 ** 62
    d, y = exact_inverses(np.array([[[big, 1], [1, 0]]], dtype=np.int64))
    assert d.tolist() == [1] and y[0].tolist() == [[0, 1], [1, -big]]


@pytest.mark.parametrize("seed", range(8))
def test_span_keeps_the_fraction_pivot_inverse(seed):
    rng = np.random.default_rng(seed)
    r, w = int(rng.integers(1, 9)), 12
    c = rng.integers(-3, 4, (r, w))
    if la.rank(c.tolist()) < r:
        c[:, :r] += np.eye(r, dtype=np.int64) * 20
    span = Span(c)
    d, minv = reference(c[:, span.piv])
    assert span.d == d and span.minv.tolist() == minv and span.minv.dtype == np.int64
