"""The benchmark's jobs and traced layers name only lyalg attributes
that exist.

perfbench/jobs.py reaches the library through module attributes
(``tits.build_tits``) and through the names in its LY_DEFECTS table
(``checks.ly3_defect``), so a deleted or renamed function would only
fail when the benchmark runs.  perfbench/layers.py names the functions
the traced run wraps (``buildtools.BatchCoords.coords_int``), and the
tracer reports a missing one as absent rather than failing.  These tests
read both files with ast, without running them, and look every such
name up.
"""

import ast
import importlib
from pathlib import Path

JOBS = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"
LAYERS = JOBS.with_name("layers.py")

# layers.py still names these; their code is deleted
DELETED = {"buildtools.MatSpanSolver.coords", "fastnum.exact_kernel_int",
           "fastnum.sparse_int_kernel", "roots.split_ideals",
           "invariants.centroid_basis", "buildtools.independent_rows"}


def lyalg_calls(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, attribute) for every lyalg name jobs.py uses."""
    modules, out = set(), set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.module == "lyalg":
            modules |= {a.name for a in node.names}
        elif (node.module or "").startswith("lyalg."):
            out |= {(node.module[6:], a.name) for a in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            out.add((node.value.id, node.attr))
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "LY_DEFECTS"
                      for t in node.targets)):
            out |= {("checks", name) for name in ast.literal_eval(node.value).values()}
    return out


def test_every_lyalg_name_the_jobs_use_exists():
    calls = lyalg_calls(ast.parse(JOBS.read_text()))
    assert ("checks", "ly6_defect") in calls and ("tits", "build_tits") in calls
    missing = sorted((mod, attr) for mod, attr in calls
                     if not hasattr(importlib.import_module("lyalg." + mod), attr))
    assert missing == []


def test_every_traced_layer_resolves_in_lyalg():
    tree = ast.parse(LAYERS.read_text())
    names = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "FUNCTIONS"
                         for t in node.targets))
    assert {"buildtools.BatchCoords.coords_int", "buildtools.independent_rows"} <= set(names)
    missing = set()
    for name in names:
        module, *path = name.split(".")
        obj = importlib.import_module("lyalg." + module)
        for attr in path:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.add(name)
    assert sorted(missing - DELETED) == []
