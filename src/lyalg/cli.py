"""Command line entry point: certify or classify an algebra stored as JSON.

    lyalg check FILE [--json]      Jacobi sweep (Lie) or LY-axiom sweep (LY)
    lyalg classify FILE [--json]   simple type of the Lie algebra, or of the
                                   standard enveloping algebra of an LY one
                                   (which must pass check_ly first)

The file format is the one of lyalg.io; a file with ternary entries is
an LY algebra.  Both commands exit with status 1 when the report fails
or the algebra cannot be classified; a file that cannot be read or is
refused (OSError, ValueError, OverflowError), and an algebra that cannot
be classified, are reported as "lyalg: <message>" on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import io
from . import linalg as la
from .algebra import LYAlgebra
from .checks import check_ly, check_lie
from .envelope import build_enveloping
from .fastnum import scaled
from .roots import ClassifyError, classify, saturate_torus


def _check(alg, as_json: bool) -> int:
    rep = check_ly(alg) if isinstance(alg, LYAlgebra) else check_lie(alg)
    print(json.dumps(rep.to_obj(), sort_keys=True) if as_json else rep.to_text())
    return 0 if rep.passed else 1


def _basis_torus(lie) -> None:
    """Attach weights to a Lie algebra read from a file, which has none.

    The basis vectors h with no scaled entry [e_h, e_j] = c e_l, l != j,
    act diagonally on the basis, commute pairwise ([h, h'] is a multiple
    of both h' and h) and span a torus; their eigenvalues become the
    weights.  saturate_torus and classify verify this data like any other.
    """
    n = lie.dim
    st = scaled(lie)
    diag = np.setdiff1d(np.arange(n), st.p[st.q != st.s])
    on = np.isin(st.p, diag) & (st.q == st.s)
    w = np.zeros((n, len(diag)), dtype=np.int64)
    w[st.q[on], np.searchsorted(diag, st.p[on])] = st.c[on]
    lie.weights = [tuple(Fraction(x, st.S) for x in row) for row in w.tolist()]
    lie.cartan = [la.basis_vec(n, h) for h in diag.tolist()] if len(diag) else None


def _classify(alg, as_json: bool) -> int:
    if isinstance(alg, LYAlgebra):
        bad = next((it for it in check_ly(alg).items if it.status != "pass"),
                   None)
        if bad is not None:
            raise ClassifyError("not an LY algebra: %s fails, witness %s"
                                % (bad.name, bad.witness), bad.witness)
        lie = build_enveloping(alg).g
    else:
        lie = alg
    if lie.weights is None:
        _basis_torus(lie)
    label = classify(saturate_torus(lie))
    print(json.dumps({"dim": lie.dim, "type": label}, sort_keys=True)
          if as_json else label)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="lyalg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("check", "run the full Lie or LY certificate"),
                      ("classify", "print the simple type")):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("file", help="algebra in the lyalg JSON format")
        cmd.add_argument("--json", action="store_true", help="print JSON")
    args = parser.parse_args(argv)
    run = _check if args.command == "check" else _classify
    try:
        return run(io.load(args.file), args.json)
    except (ClassifyError, OSError, ValueError, OverflowError) as e:
        print("lyalg: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
