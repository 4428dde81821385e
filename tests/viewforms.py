"""The Fraction forms of a trace-zero view, rendered from its int64
tensors (view.ints), for the tests that compare a view with Fraction
references."""

from functools import cache
from types import SimpleNamespace

from lyalg.compjordan import _fractions, pair_map_tensor


@cache
def fraction_forms(view):
    """stab[i][k] (the star product x_i * x_k), tform[i][k] (the trace
    form), dspan (the span elements as matrices), and for i < k dcoords
    and dt, the coordinates over the span and the matrix of D(x_i, x_k);
    dmat(i, k) is the matrix of D(x_i, x_k) for every pair."""
    n0, ints = view.n0, view.ints
    dco, dfull = _fractions(*ints.dco), _fractions(*pair_map_tensor(ints))

    def upper(rows):
        return {(i, k): rows[i][k] for i in range(n0) for k in range(i + 1, n0)}

    return SimpleNamespace(stab=_fractions(*ints.star), tform=_fractions(*ints.tform),
                           dspan=_fractions(*ints.dspan), dcoords=upper(dco),
                           dt=upper(dfull), dmat=lambda i, k: dfull[i][k])
