"""The lyalg command line: check and classify on saved files."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import lyalg
from lyalg import io
from lyalg.algebra import Algebra
from lyalg.cli import main
from lyalg.envelope import ly_from_reductive_indices
from lyalg.matrixalg import build_matrix_lie


def sl2():
    return Algebra(3, {(0, 1): [(1, F(2))], (0, 2): [(2, F(-2))],
                       (1, 2): [(0, F(1))]}, labels=["h", "e", "f"], name="sl2")


def saved(tmp_path, name, thing):
    path = tmp_path / name
    io.save(str(path), thing)
    return str(path)


def test_check_lie_and_ly(tmp_path, capsys):
    lie = saved(tmp_path, "sl2.json", sl2())
    lts = saved(tmp_path, "lts.json",
                ly_from_reductive_indices(sl2(), [0], [1, 2]))
    assert main(["check", lie]) == 0
    out = capsys.readouterr().out
    assert out.startswith("== ") and "PASS" in out and "jacobi" in out
    assert main(["check", lts, "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is True
    assert {it["name"] for it in rep["items"]} >= {"LY6"}


def test_check_reports_a_failure(tmp_path, capsys):
    good = sl2()
    bad = Algebra(3, {**good.table, (0, 1): [(1, F(3))]}, labels=good.labels)
    assert main(["check", saved(tmp_path, "bad.json", bad), "--json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is False
    assert any(it["witness"] for it in rep["items"])


def test_classify(tmp_path, capsys):
    lie = saved(tmp_path, "sl2.json", sl2())
    lts = saved(tmp_path, "lts.json",
                ly_from_reductive_indices(sl2(), [0], [1, 2]))
    assert main(["classify", lie]) == 0
    assert capsys.readouterr().out.strip() == "A1"
    assert main(["classify", lts, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"dim": 3, "type": "A1"}
    gl3 = saved(tmp_path, "gl3.json", build_matrix_lie("gl", 3))
    assert main(["classify", gl3]) == 1
    assert capsys.readouterr().err.startswith("lyalg: ")


def test_refused_input_is_one_line_on_stderr(tmp_path, capsys):
    # a missing file, a pair key (1, 0) and a constant beyond int64, in a
    # ternary and in a binary table
    files = {"pair_key": {"dim": 2, "binary": [[1, 0, [[0, "1"]]]], "ternary": []},
             "int64": {"dim": 2, "binary": [],
                       "ternary": [[0, 1, 0, [[1, str(2 ** 70)]]]]},
             "int64_binary": {"dim": 2, "binary": [[0, 1, [[0, str(2 ** 70)]]]],
                              "ternary": []}}
    paths = [str(tmp_path / "missing.json")]
    for name, obj in files.items():
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(obj))
        paths.append(str(path))
    for path in paths:
        assert main(["check", path]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("lyalg: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        if "int64" in path:
            assert "int64 (|x| < 2^63)" in err


def test_json_that_is_not_an_algebra_is_refused_on_one_line(tmp_path, capsys):
    files = {"no_dim": ({"binary": []}, "dim"),
             "list": ([], "dim"),
             "zero_den": ({"dim": 2, "binary": [[0, 1, [[0, "1/0"]]]],
                           "ternary": []}, "zero denominator"),
             "row": ({"dim": 2, "binary": [5]}, "row 5 is not a list"),
             "dim_null": ({"dim": None}, "dim must be a non-negative integer, not null"),
             "labels": ({"dim": 2, "labels": 7}, "labels must be a list of 2 names"),
             "labels_int": ({"dim": 1, "labels": [5]}, "labels must be a list of 1 names"),
             "dim_float": ({"dim": 2.7}, "dim must be a non-negative integer, not 2.7"),
             "dim_bool": ({"dim": True}, "dim must be a non-negative integer, not true"),
             "dim_negative": ({"dim": -3}, "dim must be a non-negative integer, not -3"),
             "index": ({"dim": 2, "binary": [[0, 1, [[-1, "1"]]]]},
                       "target index must be a non-negative integer, not -1"),
             "key": ({"dim": 2, "binary": [[0, "1", [[0, "1"]]]]},
                     "key index must be a non-negative integer, not \"1\""),
             # the zero algebra is Lie, so only classify refuses it
             "dim_zero": ({"dim": 0}, "the zero algebra has no weights")}
    for name, (obj, says) in files.items():
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(obj))
        for command in ("classify",) if name == "dim_zero" else ("check", "classify"):
            assert main([command, str(path)]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("lyalg: ") and says in err
            assert len(err.splitlines()) == 1


def _fresh_imports(code):
    """Run code in a fresh interpreter that finds this lyalg source tree
    first, and read its JSON output."""
    src = str(Path(lyalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    return json.loads(out.stdout)


def test_cli_and_certificates_import_without_sympy():
    # sympy is only needed to name an irrational root
    code = ("import json, sys, lyalg.cli, lyalg.checks, lyalg.envelope, lyalg.roots; "
            "print(json.dumps('sympy' in sys.modules))")
    assert _fresh_imports(code) is False


def test_no_module_loads_scipy_or_sympy_on_import():
    # one fresh interpreter imports every lyalg module in turn, as the
    # benchmark's set-up does, noting whether either package is loaded
    code = (
        "import importlib, json, pkgutil, sys, lyalg\n"
        "seen = {}\n"
        "for m in pkgutil.iter_modules(lyalg.__path__):\n"
        "    importlib.import_module('lyalg.' + m.name)\n"
        "    seen[m.name] = ['scipy' in sys.modules, 'sympy' in sys.modules]\n"
        "print(json.dumps(seen))\n")
    seen = _fresh_imports(code)
    assert "tits" in seen and len(seen) >= 14
    assert not any(scipy or sympy for scipy, sympy in seen.values())


def test_rational_roots_of_a_split_polynomial_leave_sympy_unloaded():
    # 2x^3 + x^2 - 5x + 2 = (x - 1)(x + 2)(2x - 1)
    code = ("import json, sys\n"
            "from fractions import Fraction as F\n"
            "from lyalg.buildtools import rational_roots\n"
            "roots = rational_roots([F(2), F(1), F(-5), F(2)])\n"
            "print(json.dumps([[str(r) for r in roots], 'sympy' in sys.modules]))\n")
    assert _fresh_imports(code) == [["-2", "1/2", "1"], False]


def test_the_bracket_solve_leaves_sympy_unloaded():
    code = ("import json, sys\n"
            "from fractions import Fraction as F\n"
            "from lyalg import matrixalg, tits\n"
            "h, act, cands = tits.form_pair_module_data(\n"
            "    matrixalg.split_sym_form(3), matrixalg.split_sym_form(5))\n"
            "sol = tits.solve_equivariant_bracket(h, act, cands)\n"
            "co = sol.coefficients(0, {sol.branches[0][1][0]: F(1)})\n"
            "print(json.dumps([[str(c) for c in co], 'sympy' in sys.modules]))\n")
    assert _fresh_imports(code) == [["1", "1"], False]
